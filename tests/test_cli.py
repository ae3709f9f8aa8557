import contextlib
import io
import json
import signal

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from exunits import (
    UnitIdeal,
    cli,
    counting,
    ideals,
    make_number_ring,
    polys,
    prime_ideals_above,
)
from exunits.cli import main

CIRCLE_CONFIG = {
    "field": {"min_poly": [5, 0, 1]},
    "variety": {
        "amb": 2,
        "codim": 1,
        "degree": 2,
        "equations": ["x1^2 + x2^2 - 1"],
    },
    "f": "x1 - 2",
    "modulus": {"generators": [3]},
}


@pytest.fixture
def circle_config(tmp_path):
    def write(**overrides):
        cfg = json.loads(json.dumps(CIRCLE_CONFIG))
        for key, value in overrides.items():
            cfg[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


@contextlib.contextmanager
def _within(seconds):
    """Fail the test, rather than wait for it, once the block has run for seconds."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCount:
    def test_both_agree(self, circle_config, capsys):
        rc = main(["count", "--config", circle_config(), "--method", "both"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == "4"
        assert out["agreement"] is True
        assert out["modulus_norm"] == "9"
        assert out["exponent"] == 1
        assert len(out["locals"]) == 2
        local = out["locals"][0]
        assert local["p"] == 3
        assert local["factor"] == {"num": 2, "den": 3}

    def test_formula_only(self, circle_config, capsys):
        rc = main(["count", "--config", circle_config()])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["total"] == "4"

    def test_brute_only(self, circle_config, capsys):
        rc = main(["count", "--config", circle_config(), "--method", "brute"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == "4"
        assert out["locals"] == []

    def test_primes_modulus_form(self, circle_config, capsys):
        path = circle_config(
            modulus={"primes": [{"p": 3, "h": [1, 1], "exponent": 2}]}
        )
        rc = main(["count", "--config", path, "--method", "both"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == "6"
        assert out["agreement"] is True

    def test_bad_reduction_exit_two(self, circle_config, capsys):
        path = circle_config(
            modulus={"primes": [{"p": 2, "h": [1, 1], "exponent": 1}]}
        )
        rc = main(["count", "--config", path])
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "BadReduction"
        assert out["witness"] == [[1, 0], [0, 0]]

    def test_malformed_polynomial_exit_one(self, circle_config, capsys):
        path = circle_config(f="2x1")
        rc = main(["count", "--config", path])
        assert rc == 1
        err = capsys.readouterr().err
        assert "offset 1" in err

    def test_invalid_prime_factor_rejected(self, circle_config, capsys):
        path = circle_config(
            modulus={"primes": [{"p": 3, "h": [0, 1], "exponent": 1}]}
        )
        assert main(["count", "--config", path]) == 1

    def test_large_prime_power(self, circle_config, capsys):
        path = circle_config(
            modulus={"primes": [{"p": 3, "h": [1, 1], "exponent": 100}]}
        )
        rc = main(["count", "--config", path])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == str(2 * 3 ** 99)


    def test_worker_invariance(self, circle_config, capsys):
        """--workers is accepted and ignored: the report is byte-identical."""
        path = circle_config(modulus={"generators": [21]})
        outputs = []
        for workers in ("1", "2", "4"):
            argv = ["count", "--config", path, "--method", "both", "--workers", workers]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["agreement"] is True

    def test_one_parse_tree(self, circle_config, capsys, monkeypatch):
        """main parses every call with the tree built at import, and one
        call's options do not carry over to the next."""

        def rebuilt():
            raise RuntimeError("main rebuilt the parse tree")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        path = circle_config()
        for argv, method in (
            (["count", "--config", path, "--method", "brute"], "brute"),
            (["count", "--config", path], "formula"),
        ):
            assert main(argv) == 0
            out = json.loads(capsys.readouterr().out)
            assert (out["method"], out["total"]) == (method, "4")

    @pytest.mark.parametrize(
        "method, exponent, builds",
        [("formula", 300, []), ("both", 2, ["ideal_of_factors"])],
    )
    def test_primes_form_is_not_factored_again(
        self, circle_config, capsys, monkeypatch, method, exponent, builds
    ):
        """A primes-form modulus is counted from its factors as given: a
        formula count factors nothing and builds no HNF of n, and --method
        both builds that HNF once, for the oracle (at an exponent the oracle
        can enumerate)."""
        calls = []
        for name in ("factor_ideal", "valuation", "_valuation", "ideal_of_factors",
                     "prime_power"):
            original = getattr(ideals, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module in (cli, counting, ideals):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        modulus = {"primes": [{"p": 23, "h": [8, 1], "exponent": exponent}]}
        path = circle_config(modulus=modulus)
        assert main(["count", "--config", path, "--method", method]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["modulus_norm"] == str(23 ** exponent)
        if method == "both":
            assert out["agreement"] is True
        assert [name for name in calls if name != "prime_power"] == builds
        assert calls.count("prime_power") == len(builds)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--config", "x", "--method", "bogus"],
        ["asympt", "--config", "x", "--products", "3"],
        ["verify"],
        [],
    ],
    ids=["bad-choice", "bad-products", "missing-config", "no-command"],
)
def test_command_line_error_exits_one(argv, capsys):
    """A command-line error is bad input: exit 1 and one line on stderr."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: exunits")


def _variety(**overrides):
    return {**CIRCLE_CONFIG["variety"], **overrides}


@pytest.mark.parametrize(
    "overrides, argv",
    [
        pytest.param({"variety": _variety(amb="2")}, ["count"], id="amb-string"),
        pytest.param(
            {"variety": _variety(amb=True, equations=["x1^2 - 1"])},
            ["count"],
            id="amb-bool",
        ),
        pytest.param({"options": {"cap": "big"}}, ["count"], id="cap-string"),
        pytest.param({"options": {"cap": True}}, ["count"], id="cap-bool"),
        pytest.param({"modulus": {"generators": 3}}, ["count"], id="generators-int"),
        pytest.param(
            {"modulus": {"generators": [[3, False]]}}, ["count"], id="generator-bool"
        ),
        pytest.param(
            {"modulus": {"primes": [{"p": 3, "h": "x"}]}}, ["count"], id="h-string"
        ),
        pytest.param({"modulus": {"primes": 3}}, ["count"], id="primes-int"),
        pytest.param(
            {"variety": _variety(amb=0, codim=0, equations=[])},
            ["count"],
            id="amb-zero",
        ),
        pytest.param(
            {"modulus": {"primes": [{"p": 9, "h": [2, 1]}]}},
            ["count"],
            id="p-composite",
        ),
        pytest.param(
            None,
            ["example25", "--a", "2", "--c", "1"]
            + ["--modulus", '{"primes":[{"h":[1,1]}]}'],
            id="prime-without-p",
        ),
        pytest.param(
            {"field": {"min_poly": [2] + [0] * 12 + [1]}},
            ["count"],
            id="g-degree-13",
        ),
        pytest.param(
            {"field": {"min_poly": [10 ** 12 + 1, 0, 1]}},
            ["count"],
            id="g-coefficient",
        ),
        pytest.param(
            {"field": {"min_poly": [1, -(10 ** 16), 0, 1]}},
            ["verify"],
            id="g-coefficient-not-constant",
        ),
        pytest.param(
            {"variety": _variety(equations=["x1^\u00b2 + x2^2 - 1"])},
            ["count"],
            id="superscript-exponent",
        ),
        pytest.param({"f": "x1 - " + "7" * 5000}, ["count"], id="long-literal"),
        pytest.param(
            {"variety": _variety(equations=["(" * 400 + "x1" + ")" * 400])},
            ["count"],
            id="nested-parentheses",
        ),
        pytest.param(
            None,
            ["example25", "--a", "2", "--c", "1", "--modulus", "[" * 30000],
            id="nested-modulus",
        ),
    ],
)
def test_malformed_input_exits_one(circle_config, capsys, overrides, argv):
    if overrides is not None:
        argv = argv + ["--config", circle_config(**overrides)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err + captured.out


def test_nested_config_exits_one(tmp_path, capsys):
    """A config nested past the JSON decoder's recursion: one exact line."""
    path = tmp_path / "config.json"
    path.write_text("[" * 30000)
    assert main(["count", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: the config nests too deeply\n")


@pytest.mark.parametrize(
    "command, message",
    [
        ("count", "count requires a modulus"),
        ("verify", "verify requires a modulus"),
        ("asympt", "asympt requires --max-norm"),
    ],
)
def test_missing_input_exits_one(tmp_path, capsys, command, message):
    """A config with no modulus, and no --max-norm for asympt: one exact line."""
    config = {key: value for key, value in CIRCLE_CONFIG.items() if key != "modulus"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "modulus",
    [
        # N(1 + sqrt(-5)) = 6 is prime to 7, so the two generate O
        pytest.param({"generators": [7, [1, 1]]}, id="generators"),
        pytest.param({"primes": [{"p": 3, "h": [1, 1], "exponent": 0}]}, id="primes"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["count"], ["count", "--method", "brute"], ["verify"], ["example25"]],
    ids=["count", "count-brute", "verify", "example25"],
)
def test_unit_ideal_modulus_refused_once(circle_config, capsys, modulus, argv):
    """Either form of a unit-ideal modulus is refused as the config is read,
    with one message for every command."""
    if argv == ["example25"]:
        argv = argv + ["--a", "2", "--c", "1", "--modulus", json.dumps(modulus)]
    else:
        argv = argv + ["--config", circle_config(modulus=modulus)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: modulus must be a proper ideal\n")


@pytest.mark.parametrize(
    "excess, message", [(0, "exceed the cap"), (1, "amb"), (10 ** 7, "amb")]
)
def test_amb_bounded(circle_config, capsys, excess, message):
    """amb past MAX_AMB is refused before anything of its length is built; at
    the bound the enumeration cap refuses the count."""
    amb = polys.MAX_AMB + excess
    for equations in ([], ["x1^2 + x2^2 - 1"]):
        variety = _variety(amb=amb, codim=len(equations), equations=equations)
        with _within(1):
            rc = main(["count", "--config", circle_config(variety=variety)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert message in lines[0]


def test_factoring_bounded(circle_config, capsys):
    """g = x^2 + 5 mod the prime 999999999989 would take about 10^12 trial
    divisions: the modulus is refused before the first."""
    modulus = {"primes": [{"p": 999999999989, "h": [1, 1]}]}
    with _within(1):
        rc = main(["count", "--config", circle_config(modulus=modulus)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "candidates" in lines[0]


_NOT_MAXIMAL_AT_2 = (
    "error: prime factorization does not reassemble the ideal; "
    "the order is not maximal at p = 2\n"
)


@pytest.mark.parametrize("command", ["count", "verify"])
def test_non_maximal_order_named(circle_config, capsys, command):
    """Z[sqrt(-3)] is not maximal at 2: a modulus above 2 exits 1 with one
    line that names the prime, and prints nothing to stdout."""
    path = circle_config(field={"min_poly": [3, 0, 1]}, modulus={"generators": [2]})
    rc = main([command, "--config", path])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == _NOT_MAXIMAL_AT_2


@pytest.mark.parametrize("command", ["count", "verify"])
@pytest.mark.parametrize(
    "min_poly, h",
    [([3, 0, 1], [1, 1]), ([8, 0, -1, 1], [0, 1]), ([8, 0, -1, 1], [1, 1])],
    ids=["sqrt-3", "cubic-ramified", "cubic-unramified"],
)
def test_non_maximal_order_named_primes_form(
    circle_config, capsys, command, min_poly, h
):
    """A primes-form modulus above 2 in Z[sqrt(-3)], or in Z[t] with
    t^3 - t^2 + 8 = 0, is refused by Dedekind's criterion at 2 with the line
    the generators form gives, before any count."""
    modulus = {"primes": [{"p": 2, "h": h}]}
    path = circle_config(field={"min_poly": min_poly}, modulus=modulus)
    rc = main([command, "--config", path])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == _NOT_MAXIMAL_AT_2


@pytest.mark.parametrize(
    "modulus, norm",
    [
        pytest.param({"generators": [14]}, "196", id="generators"),
        pytest.param(
            {"primes": [{"p": 2, "h": [1, 1], "exponent": 2}, {"p": 7, "h": [2, 1]}]},
            "56",
            id="primes",
        ),
    ],
)
def test_brute_force_counts_the_parsed_modulus(
    circle_config, capsys, monkeypatch, modulus, norm
):
    """count --method brute enumerates O/n from the HNF it parsed, with no
    factoring and no Dedekind criterion: over Z[sqrt(-3)], not maximal at 2,
    it counts (14) and P2^2 * P7, which --method both refuses."""
    path = circle_config(field={"min_poly": [3, 0, 1]}, modulus=modulus)
    assert main(["count", "--config", path, "--method", "both"]) == 1
    assert capsys.readouterr() == ("", _NOT_MAXIMAL_AT_2)
    calls = []
    for name in ("factor_ideal", "refuse_non_maximal"):
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    assert main(["count", "--config", path, "--method", "brute"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert (out["modulus_norm"], out["total"], captured.err) == (norm, "0", "")
    assert calls == []


def test_brute_force_refuses_a_large_prime_by_the_cap(circle_config, capsys):
    """Over x^4 + 1, brute force on (999999999989) is refused by the
    enumeration cap, as it factors nothing, where a formula count is refused
    by the factoring cap."""
    field = {"min_poly": [1, 0, 0, 0, 1]}
    path = circle_config(field=field, modulus={"generators": [999999999989]})
    for method, message in (("brute", "exceed the cap"), ("formula", "factorization cap")):
        with _within(1):
            rc = main(["count", "--config", path, "--method", method])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0], captured.err


_MAXIMAL_RINGS = [[1, 0, 1], [5, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1]]
_SMALL_PRIMES = [p for p in range(2, 51) if all(p % d for d in range(2, p))]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_primes_form_matches_factor_ideal(data):
    """A primes-form modulus parses to exactly factor_ideal of the ideal it
    names, over Q(i), Q(sqrt(-5)), Z[2^(1/3)] and x^4 + 1, whatever the order
    of its entries, with (p, h) repeated and exponents of 0."""
    ring = make_number_ring(data.draw(st.sampled_from(_MAXIMAL_RINGS)))
    primes = data.draw(
        st.lists(st.sampled_from(_SMALL_PRIMES), min_size=1, max_size=3)
    )
    pool = [pf for p in primes for pf in prime_ideals_above(ring, p)]
    # in any order, with repeats and exponents of 0
    exponents = st.sampled_from([1, 2, 3, 0])
    entries = data.draw(
        st.lists(st.tuples(st.sampled_from(pool), exponents), min_size=1, max_size=5)
    )
    if len({pf for pf, _ in entries}) < len(entries):
        event("a repeated (p, h)")
    literal = {
        "primes": [
            {"p": pf.p, "h": list(pf.h_coeffs), "exponent": e} for pf, e in entries
        ]
    }
    specs = [pf._replace(exponent=e) for pf, e in entries]
    if not any(e for _, e in entries):
        event("unit ideal")
        with pytest.raises(UnitIdeal):
            cli.parse_modulus(ring, literal)
        return
    n_ideal = ideals.ideal_of_factors(ring, specs)
    assert cli.parse_modulus(ring, literal) == ideals.factor_ideal(ring, n_ideal)


def test_asympt_does_not_factor_its_modulus(circle_config, capsys):
    """asympt reads no modulus: one in a config is checked, not factored, so
    a non-maximal order's modulus does not stop the table."""
    modulus = {"primes": [{"p": 2, "h": [1, 1]}]}
    path = circle_config(field={"min_poly": [3, 0, 1]}, modulus=modulus)
    assert main(["asympt", "--config", path, "--max-norm", "7"]) == 0
    assert capsys.readouterr().out.startswith("modulus,N,count,")


@pytest.mark.parametrize("command", ["count", "verify"])
@pytest.mark.parametrize(
    "modulus",
    [
        pytest.param({"primes": [{"p": 3, "h": [1, 1], "exponent": 10 ** 9}]},
                     id="primes"),
        pytest.param({"generators": [10 ** 2200]}, id="generators"),
    ],
)
def test_modulus_norm_bounded(circle_config, capsys, command, modulus):
    """A modulus whose norm has more than MAX_NORM_DIGITS digits is refused
    before anything of its size is built: P3^(10^9) has a norm of about
    4.8 * 10^8 digits, and (10^2200) one of 4401."""
    with _within(1):
        rc = main([command, "--config", circle_config(modulus=modulus)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    message = f"modulus norm has more than {cli.MAX_NORM_DIGITS} digits"
    assert captured.err == f"error: {message}\n"


def test_modulus_norm_at_the_bound(circle_config, capsys):
    """P3^9012 over Q(sqrt(-5)) has a norm of 4300 digits, and still counts;
    P3^9013, of 4301 digits, is refused."""
    exponent = 9012
    assert len(str(3 ** exponent)) == cli.MAX_NORM_DIGITS
    modulus = {"primes": [{"p": 3, "h": [1, 1], "exponent": exponent}]}
    assert main(["count", "--config", circle_config(modulus=modulus)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modulus_norm"] == str(3 ** exponent)
    assert out["total"] == str(2 * 3 ** (exponent - 1))
    modulus["primes"][0]["exponent"] = exponent + 1
    assert main(["count", "--config", circle_config(modulus=modulus)]) == 1
    assert "4300 digits" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", [4507, 5000])
def test_count_total_bounded(circle_config, capsys, exponent):
    """The sphere over Q(sqrt(-5)) mod P3^e counts 3^(2e - 1): 4300 digits at
    e = 4506, which still prints, and 4301 at e = 4507, whose total is refused
    with one line, as a modulus norm past the bound is."""
    sphere = _variety(amb=3, equations=["x1^2 + x2^2 + x3^2 - 1"])
    modulus = {"primes": [{"p": 3, "h": [1, 1], "exponent": 4506}]}
    assert main(["count", "--config", circle_config(variety=sphere, modulus=modulus)]) == 0
    total = json.loads(capsys.readouterr().out)["total"]
    assert len(total) == cli.MAX_NORM_DIGITS and total == str(3 ** 9011)
    modulus["primes"][0]["exponent"] = exponent
    assert main(["count", "--config", circle_config(variety=sphere, modulus=modulus)]) == 1
    message = f"total has more than {cli.MAX_NORM_DIGITS} digits"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_g_at_the_coefficient_bound(circle_config, capsys):
    """g = x^2 + 10^12 is inside the bound: 3 is inert, as for x^2 + 1."""
    path = circle_config(field={"min_poly": [10 ** 12, 0, 1]})
    assert main(["count", "--config", path, "--method", "both"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modulus_norm"] == "9" and out["agreement"] is True


# small values of every JSON type, for keys given the wrong one
_WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.text("x12t^*+-()[], ", max_size=8),
    st.lists(st.integers(-2, 4), max_size=3),
    st.dictionaries(st.sampled_from(["p", "h", "generators"]), st.integers(0, 3)),
)


@st.composite
def _configs(draw):
    """A small valid config, then up to two keys dropped or given wrong values."""
    amb = draw(st.integers(1, 2))
    monomial = st.builds(
        "{}*x{}^{}".format, st.integers(1, 3), st.integers(1, amb), st.integers(0, 3)
    )
    equation = st.builds(
        str.join,
        st.sampled_from([" + ", " - "]),
        st.lists(monomial, min_size=1, max_size=3),
    )
    equations = draw(st.lists(equation, max_size=2))
    generators = st.builds(lambda n: {"generators": [n]}, st.integers(2, 7))
    modulus = draw(
        st.one_of(
            generators,
            generators,
            st.builds(
                lambda p, h, e: {"primes": [{"p": p, "h": h, "exponent": e}]},
                st.sampled_from([2, 3, 5]),
                st.lists(st.integers(0, 2), min_size=1, max_size=3),
                st.integers(1, 2),
            ),
        )
    )
    config = {
        "field": {"min_poly": draw(st.sampled_from([[0, 1], [1, 0, 1], [5, 0, 1]]))},
        "variety": {
            "amb": amb,
            "codim": min(len(equations), amb),
            "degree": 2,
            "equations": equations,
        },
        "f": draw(st.sampled_from(["x1 - 2", "x1^2 - x1", "x1"])),
        "modulus": modulus,
        "options": draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "cap": st.integers(1, 10 ** 6),
                    "products": st.integers(0, 2),
                    "max_norm": st.integers(2, 12),
                },
            )
        ),
    }
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        objects = [config] + [v for v in config.values() if isinstance(v, dict)]
        obj = draw(st.sampled_from(objects))
        if not obj:
            continue
        key = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_WRONG)
    return config


_COMMANDS = st.sampled_from(
    [
        ["count"],
        ["count", "--method", "brute"],
        ["count", "--method", "both"],
        ["verify"],
        ["asympt"],
        ["asympt", "--max-norm", "12", "--products", "2"],
    ]
)


@settings(max_examples=150, deadline=None)
@given(config=st.one_of(_configs(), _WRONG), command=_COMMANDS)
def test_any_config_exits_cleanly(tmp_path_factory, config, command):
    """Any small JSON config ends in exit 0, 1 or 2, never in a traceback."""
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(command + ["--config", str(path)])
    event(f"exit {rc}")
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestVerify:
    def test_circle_three(self, circle_config, capsys):
        rc = main(["verify", "--config", circle_config()])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] is True
        names = [c["name"] for c in out["checks"]]
        assert any("good_reduction" in n for n in names)
        assert any("lifting_census" in n for n in names)
        assert any("multiplicativity" in n for n in names)
        census = next(c for c in out["checks"] if "lifting_census" in c["name"])
        assert census["histogram"] == {"3": 4}

    def test_classical_exunits_composite(self, tmp_path, capsys):
        cfg = {
            "field": {"min_poly": [0, 1]},
            "variety": {"amb": 1, "codim": 0, "degree": 1, "equations": []},
            "f": "x1^2 - x1",
            "modulus": {"generators": [30]},
        }
        path = tmp_path / "q.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "--config", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        mult = next(c for c in out["checks"] if c["name"] == "multiplicativity")
        assert mult["pass"] is True
        assert mult["count"] == 0  # no classical exunit mod 2

    def test_bad_reduction_reported(self, circle_config, capsys):
        path = circle_config(modulus={"generators": [2]})
        rc = main(["verify", "--config", path])
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] is False

    def test_one_sweep_per_prime(self, circle_config, capsys, monkeypatch):
        """The lifting census's guard sweep gives the good-reduction verdict."""
        calls = []
        smooth_points = polys.smooth_points

        def counted(ctx, V, cap=polys.DEFAULT_CAP):
            calls.append(ctx.prime)
            return smooth_points(ctx, V, cap)

        for module in (polys, counting):
            monkeypatch.setattr(module, "smooth_points", counted)
        path = circle_config(modulus={"generators": [21]})
        assert main(["verify", "--config", path]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(calls) == len(set(calls)) == 4
        assert [c["name"].split()[0] for c in checks] == (
            ["good_reduction", "lifting_census"] * 4 + ["multiplicativity"]
        )

    def test_checks_the_cap_refuses_are_left_out(
        self, circle_config, capsys, monkeypatch
    ):
        """Mod (21) with cap 2400, the kernel takes the census at the primes
        above 3 (3^4 tuples mod P^2) and refuses it at those above 7 (7^4),
        which are swept alone, and refuses the brute force over 441^2."""
        calls = []
        smooth_points = polys.smooth_points

        def counted(ctx, V, cap=polys.DEFAULT_CAP):
            calls.append(ctx.prime)
            return smooth_points(ctx, V, cap)

        for module in (polys, counting):
            monkeypatch.setattr(module, "smooth_points", counted)
        path = circle_config(modulus={"generators": [21]}, options={"cap": 2400})
        assert main(["verify", "--config", path]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"].split()[:2] for c in checks] == [
            ["good_reduction", "p=3"],
            ["lifting_census", "k=1"],
            ["good_reduction", "p=3"],
            ["lifting_census", "k=1"],
            ["good_reduction", "p=7"],
            ["good_reduction", "p=7"],
        ]
        assert all(c["pass"] for c in checks)
        assert [pf.p for pf in calls] == [3, 3, 7, 7]
        assert len(set(calls)) == 4

    def test_census_guard_gives_witness_under_the_cap(self, circle_config, capsys):
        """Mod (14) with cap 60, the census at the prime above 2 (2^4 tuples
        mod P^2) finds the witness; the primes above 7 (7^4) are swept alone."""
        path = circle_config(modulus={"generators": [14]}, options={"cap": 60})
        assert main(["verify", "--config", path]) == 2
        out = json.loads(capsys.readouterr().out)
        checks = out["checks"]
        assert [c["name"].split()[:2] for c in checks] == [
            ["good_reduction", "p=2"],
            ["good_reduction", "p=7"],
            ["good_reduction", "p=7"],
        ]
        assert checks[0]["pass"] is False
        assert checks[0]["witness"] == [[1, 0], [0, 0]]
        assert all(c["pass"] for c in checks[1:])
        assert out["all_pass"] is False

    @pytest.mark.parametrize("n", [2, 3, 7, 21])
    def test_constant_f_rejected(self, circle_config, capsys, n):
        """A constant f exits 1 before any sweep, whether or not the
        multiplicativity check would run (mod 2 the circle is also bad)."""
        path = circle_config(
            field={"min_poly": [0, 1]}, f="3", modulus={"generators": [n]}
        )
        assert main(["verify", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: f must be non-constant\n"


class TestAsympt:
    def test_csv_and_determinism(self, circle_config, tmp_path, capsys):
        path = circle_config()
        outputs = []
        for workers in ("1", "4", "1"):
            out_path = tmp_path / f"out_{len(outputs)}.csv"
            rc = main(
                [
                    "asympt",
                    "--config",
                    path,
                    "--max-norm",
                    "10",
                    "--out",
                    str(out_path),
                    "--workers",
                    workers,
                ]
            )
            assert rc == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        text = outputs[0].decode()
        lines = text.strip().split("\n")
        assert (
            lines[0]
            == "modulus,N,count,ratio,omega,sum_inv_sqrt,sum_inv,max_local_dev"
        )
        # primes above 3, 5, 7 reduce well for c=1
        assert len(lines) == 6
        assert lines[1].startswith("(3,[1,1]),3,2,")

    def test_header_only_when_family_empty(self, circle_config, capsys):
        rc = main(["asympt", "--config", circle_config(), "--max-norm", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "modulus,N,count,ratio,omega,sum_inv_sqrt,sum_inv,max_local_dev\n"

    def test_products_two(self, circle_config, capsys):
        rc = main(
            [
                "asympt",
                "--config",
                circle_config(),
                "--max-norm",
                "5",
                "--products",
                "2",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # primes: two above 3 plus the one above 5; pairs: 3 products
        assert len(lines) == 1 + 3 + 3
        assert any(",9," in line for line in lines)  # the product (3)

    def test_one_local_count_per_prime(self, circle_config, capsys, monkeypatch):
        """Each prime ideal of norm <= 45 is counted once by local_counts, good
        or bad, and no modulus is factored again.  Only the bad prime above 2
        is swept; the odd primes take the closed form of the circle."""
        q5 = make_number_ring([5, 0, 1])
        small = [p for p in range(2, 46) if all(p % d for d in range(2, p))]
        primes = [
            (pf.p, pf.h_coeffs)
            for p in small
            for pf in prime_ideals_above(q5, p)
            if pf.norm <= 45
        ]
        assert len(primes) == 14
        counted, swept, factored = [], [], []
        local_counts, smooth_points = counting.local_counts, polys.smooth_points
        factor_ideal = ideals.factor_ideal

        def counted_local(ring, V, f, pf, *args, **kwargs):
            counted.append((pf.p, pf.h_coeffs))
            return local_counts(ring, V, f, pf, *args, **kwargs)

        def counted_sweep(ctx, V, *args):
            swept.append((ctx.prime.p, ctx.prime.h_coeffs))
            return smooth_points(ctx, V, *args)

        def counted_factor(*args):
            factored.append(args)
            return factor_ideal(*args)

        monkeypatch.setattr(counting, "local_counts", counted_local)
        for module in (counting, polys):
            monkeypatch.setattr(module, "smooth_points", counted_sweep)
        for module in (counting, cli, ideals):
            monkeypatch.setattr(module, "factor_ideal", counted_factor)
        argv = ["asympt", "--config", circle_config(), "--max-norm", "45"]
        assert main(argv + ["--products", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        singles = [line for line in lines if "*" not in line]
        assert len(lines) == len(singles) * (len(singles) + 1) // 2
        assert counted == primes
        assert swept == [(2, (1, 1))]
        assert factored == []
        # the ramified prime above 5 is a modulus of norm 5, not its square
        assert any(line.startswith("(5,[0,1]),5,") for line in singles)
        assert not any("^" in line for line in lines)

    def test_max_norm_cap(self, circle_config, capsys):
        assert main(["asympt", "--config", circle_config(), "--max-norm", "20000"]) == 1

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "config"])
    @pytest.mark.parametrize("max_norm", [0, 1, 2])
    def test_max_norm_below_two(self, circle_config, capsys, flag, max_norm):
        """No prime ideal has norm below 2: 0 and 1 are refused with one
        error line, from the flag (over options.max_norm 20) or the config;
        2 gives the header alone, the prime above 2 being bad."""
        if flag:
            path = circle_config(options={"max_norm": 20})
            argv = ["asympt", "--config", path, "--max-norm", str(max_norm)]
        else:
            argv = ["asympt", "--config", circle_config(options={"max_norm": max_norm})]
        rc = main(argv)
        captured = capsys.readouterr()
        if max_norm < 2:
            assert rc == 1 and captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        else:
            assert rc == 0 and captured.err == ""
            header = "modulus,N,count,ratio,omega,sum_inv_sqrt,sum_inv,max_local_dev\n"
            assert captured.out == header

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "config"])
    @pytest.mark.parametrize("products", [-1, 3, 7])
    def test_products_out_of_range(self, circle_config, capsys, flag, products):
        """products takes 0, 1 or 2; others are refused with one error line,
        from the flag (over options.products 2) or the config."""
        if flag:
            path = circle_config(options={"max_norm": 10, "products": 2})
            argv = ["asympt", "--config", path, "--products", str(products)]
        else:
            options = {"max_norm": 10, "products": products}
            argv = ["asympt", "--config", circle_config(options=options)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert "products" in lines[0]


class TestExample25:
    @pytest.mark.parametrize(
        "exponent, total, brute", [(9, "13122", None), (5, "162", "162")]
    )
    def test_brute_total_left_out_past_the_cap(self, capsys, exponent, total, brute):
        """3^9 gives 19683^2 tuples, over the default cap; 3^5 gives 243^2."""
        modulus = {"primes": [{"p": 3, "h": [1, 1], "exponent": exponent}]}
        argv = ["example25", "--a", "2", "--c", "1", "--modulus", json.dumps(modulus)]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.get("brute_total") == brute
        assert out["example_total"] == out["theorem1_total"] == total
        assert out["agree"] is True

    def test_corrected(self, capsys):
        rc = main(
            [
                "example25",
                "--a",
                "2",
                "--c",
                "1",
                "--modulus",
                '{"generators": [3]}',
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["example_total"] == "4"
        assert out["theorem1_total"] == "4"
        assert out["brute_total"] == "4"
        assert out["agree"] is True

    def test_strict_paper_flags_disagreement(self, capsys):
        rc = main(
            [
                "example25",
                "--a",
                "2",
                "--c",
                "1",
                "--modulus",
                '{"generators": [3]}',
                "--mode",
                "strict-paper",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["example_total"] == "9"
        assert out["theorem1_total"] == "4"
        assert out["agree"] is False

    def test_inert_eleven(self, capsys):
        rc = main(
            [
                "example25",
                "--a",
                "0",
                "--c",
                "1",
                "--modulus",
                '{"generators": [11]}',
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["example_total"] == out["theorem1_total"] == "116"
        assert out["agree"] is True

    def test_bad_modulus_exit_one(self, capsys):
        rc = main(
            [
                "example25",
                "--a",
                "2",
                "--c",
                "1",
                "--modulus",
                '{"generators": [2]}',
            ]
        )
        assert rc == 1
