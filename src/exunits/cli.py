"""Command line interface: config ingestion and bit-stable report emission.

Commands:

    exunits count     --config PATH [--method formula|brute|both]
    exunits verify    --config PATH
    exunits asympt    --config PATH --max-norm B [--products 0|1|2] [--out PATH]
    exunits example25 --a INT --c INT --modulus JSON [--mode corrected|strict-paper]

Reports go to stdout (JSON, or CSV for asympt), diagnostics to stderr.
Exit codes: 0 success, 1 input error (command-line errors included), 2
mathematical-hypothesis failure (bad reduction, with the witness point in
the JSON).

A modulus is read as its factorization (parse_modulus): the counts take it
as given, and the routes that also enumerate O/n (count --method both,
verify's multiplicativity check, example25's brute-force total) build the
HNF of n from the factors.  count --method brute alone reads the modulus as
its HNF and factors nothing.

The enumeration cap (options.cap) is applied by the kernel alone.  Where it
refuses an enumeration, verify leaves out that prime's lifting census (and
sweeps the prime alone) or the multiplicativity check, and example25 leaves
out the brute-force total.
"""

import argparse
import json
import sys
from itertools import combinations
from math import prod

from . import counting
from .errors import BadReduction, CapExceeded, ExunitsError, UnitIdeal
from .ideals import (
    _small_prime_factors,
    factor_ideal,
    hnf_from_generators,
    ideal_norm,
    ideal_of_factors,
    norm_of_factors,
    prime_ideals_above,
    prime_ideals_up_to,
    prime_power,
    refuse_non_maximal,
)
from .number_ring import make_number_ring
from .polys import DEFAULT_CAP, VarietySpec, check_good_reduction, parse_poly


class ConfigError(ExunitsError):
    pass


class _Parser(argparse.ArgumentParser):
    """Command-line errors raise ConfigError, so that main gives them exit 1."""

    def error(self, message):
        raise ConfigError(message)


# --- type checks on JSON input: every config and literal value passes here ---

_KIND_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def _checked(value, kind, what):
    """value, if it has the JSON type kind; a bool is not an integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{what} must be {_KIND_NAMES[kind]}, not {value!r}")
    return value


def _list_of(value, kind, what):
    for item in _checked(value, list, what):
        _checked(item, kind, f"each entry of {what}")
    return value


def _field(obj, key, kind, default=_REQUIRED):
    """obj[key] checked to have the JSON type kind, or default if absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key: {key!r}")
        return default
    return _checked(obj[key], kind, repr(key))


def _parse_element(ring, literal):
    if isinstance(literal, list):
        if len(_list_of(literal, int, "an element literal")) != ring.deg:
            raise ConfigError(
                f"element literal {literal} has {len(literal)} coordinates, "
                f"ring degree is {ring.deg}"
            )
        return tuple(literal)
    return ring.from_int(_checked(literal, int, "an element literal"))


# Python's default bound on the digits of an int turned into text: the
# largest modulus norm, and the largest count total, that a report can print
MAX_NORM_DIGITS = 4300
_NORM_BOUND = 10 ** MAX_NORM_DIGITS


def _check_norm(powers):
    """Refuse a modulus whose norm, the product of p^k over powers, has more
    than MAX_NORM_DIGITS digits.  The norm is at least 2^s, s the sum of
    k * (bits(p) - 1), so no p^k is computed once s alone is past the bound.
    """
    s = sum(k * (p.bit_length() - 1) for p, k in powers)
    if s >= _NORM_BOUND.bit_length() or prod(p ** k for p, k in powers) >= _NORM_BOUND:
        raise ConfigError(f"modulus norm has more than {MAX_NORM_DIGITS} digits")


def parse_modulus(ring, literal, factor=True):
    """The factorization of an ideal literal, {"generators": [...]} or
    {"primes": [{p, h, exponent}]}: a list of PrimeFactor with exponents, by
    p and then as ``prime_ideals_above`` orders the primes above p, as
    ``factor_ideal`` returns it.

    The generators form is factored once.  The primes form is used as given:
    repeated (p, h) add their exponents and exponent 0 is left out, and
    Dedekind's criterion at each p that remains stands in for the check that
    the factors multiply back to the ideal.  Either is refused when its norm
    has more than MAX_NORM_DIGITS digits, and when it is the unit ideal.
    With factor false the HNF of the ideal is returned instead, with no
    factoring and no Dedekind criterion: the HNF parsed from the generators,
    or the product of the merged primes.
    """
    _checked(literal, dict, "modulus")
    if "generators" in literal:
        gens = [_parse_element(ring, g) for g in _field(literal, "generators", list)]
        ideal = hnf_from_generators(ring, gens)
        norm = ideal_norm(ideal)
        _check_norm([(norm, 1)])
        if norm < 2:
            raise UnitIdeal("modulus must be a proper ideal")
        return factor_ideal(ring, ideal) if factor else ideal
    if "primes" not in literal:
        raise ConfigError("modulus needs a 'generators' or 'primes' key")
    above = {}  # p -> prime_ideals_above(ring, p)
    exponents = {}  # (p, index in above[p]) -> exponent
    negative = False
    for spec in _field(literal, "primes", list):
        _checked(spec, dict, "each entry of 'primes'")
        p = _field(spec, "p", int)
        if _small_prime_factors(p) != [p]:
            raise ConfigError(f"p={p} is not a prime")
        h = tuple(c % p for c in _list_of(_field(spec, "h", list), int, "'h'"))
        exponent = _field(spec, "exponent", int, 1)
        if p not in above:
            above[p] = prime_ideals_above(ring, p)
        matches = [i for i, pf in enumerate(above[p]) if pf.h_coeffs == h]
        if not matches:
            valid = [list(pf.h_coeffs) for pf in above[p]]
            raise ConfigError(
                f"h={spec['h']} is not an irreducible factor of g mod {p}; "
                f"valid factors: {valid}"
            )
        key = (p, matches[0])
        exponents[key] = exponents.get(key, 0) + max(exponent, 0)
        negative = negative or exponent < 0
    # a negative exponent counts as 0 here, and is refused after the norm
    _check_norm([(p, above[p][i].f_res * e) for (p, i), e in exponents.items()])
    if negative:
        raise ConfigError("negative ideal power")
    factors = [
        above[p][i]._replace(exponent=e) for (p, i), e in sorted(exponents.items()) if e
    ]
    if not factors:
        raise UnitIdeal("modulus must be a proper ideal")
    if not factor:
        return ideal_of_factors(ring, factors)
    refuse_non_maximal(ring, {pf.p: above[pf.p] for pf in factors})
    return factors


def load_config(path, factor_modulus=True):
    """The parsed config; its modulus is read by ``parse_modulus``, as its
    factorization, or as its HNF when factor_modulus is false.  Its options
    are cap, max_norm and products, each checked and, when absent, set to
    its default."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ConfigError("the config nests too deeply") from None
    raw = _checked(raw, dict, "the config")
    min_poly = _field(_field(raw, "field", dict), "min_poly", list)
    ring = make_number_ring(_list_of(min_poly, int, "'min_poly'"))
    vspec = _field(raw, "variety", dict)
    amb = _field(vspec, "amb", int)
    sources = _list_of(_field(vspec, "equations", list, []), str, "'equations'")
    equations = tuple(parse_poly(src, ring, amb) for src in sources)
    degree = max((eq.total_degree() for eq in equations), default=1)
    variety = VarietySpec(
        amb=amb,
        codim=_field(vspec, "codim", int),
        equations=equations,
        declared_degree=_field(vspec, "degree", int, degree),
    )
    f = parse_poly(_field(raw, "f", str), ring, 1)
    modulus = None
    if "modulus" in raw:
        modulus = parse_modulus(ring, raw["modulus"], factor=factor_modulus)
    options = _field(raw, "options", dict, {})
    # the options the commands read, with their defaults; options.workers is
    # accepted and ignored
    defaults = {"cap": DEFAULT_CAP, "max_norm": None, "products": 0}
    return {
        "ring": ring,
        "variety": variety,
        "f": f,
        "modulus": modulus,
        "options": {key: _field(options, key, int, d) for key, d in defaults.items()},
    }


def _locals_json(locals_):
    return [
        {
            "p": ld.prime.p,
            "h": list(ld.prime.h_coeffs),
            "f_res": ld.prime.f_res,
            "e_ram": ld.prime.e_ram,
            "exponent": ld.prime.exponent,
            "norm": ld.prime.norm,
            "count_X": ld.count_X,
            "count_N": ld.count_N,
            "factor": {"num": ld.factor.numerator, "den": ld.factor.denominator},
        }
        for ld in locals_
    ]


def _emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _modulus_config(args, factor=True):
    """ring, variety, f, the modulus (its factorization, or its HNF when
    factor is false) and cap of a config that must name a modulus."""
    cfg = load_config(args.config, factor_modulus=factor)
    if cfg["modulus"] is None:
        raise ConfigError(f"{args.command} requires a modulus")
    return cfg["ring"], cfg["variety"], cfg["f"], cfg["modulus"], cfg["options"]["cap"]


def cmd_count(args):
    method = args.method
    # brute force alone enumerates O/n from the HNF and needs no factors
    ring, V, f, modulus, cap = _modulus_config(args, factor=method != "brute")
    report = brute_total = None
    n_ideal = modulus
    if method != "brute":
        report = counting.theorem1_count(ring, V, f, modulus, cap=cap)
        n_ideal = ideal_of_factors(ring, modulus) if method == "both" else None
    if n_ideal is not None:
        brute_total = counting.brute_force_count(ring, V, f, n_ideal, cap=cap)
    total = report.total if report else brute_total
    if total >= _NORM_BOUND:
        raise ConfigError(f"total has more than {MAX_NORM_DIGITS} digits")
    norm = norm_of_factors(modulus) if report else ideal_norm(modulus)
    out = {
        "modulus_norm": str(norm),
        "exponent": V.amb - V.codim,
        "locals": _locals_json(report.locals) if report else [],
        "total": str(total),
        "method": method,
    }
    if method == "both":
        out["agreement"] = report.total == brute_total
    _emit(out)
    return 0


def cmd_verify(args):
    ring, V, f, factors, cap = _modulus_config(args)
    # f is checked here, before any sweep: the multiplicativity check, the
    # only one that counts with f, does not run at every modulus
    counting._check_f(f)
    checks = []
    bad = False
    for pf in factors:
        # the census sweeps the prime as its guard, so its verdict is reused;
        # a census over the cap sweeps nothing, and the prime is swept alone
        hist = witness = None
        try:
            hist = counting.lifting_census(ring, V, pf, 1, cap=cap)
        except BadReduction as exc:
            witness = exc.witness
        except CapExceeded:
            witness = check_good_reduction(ring, V, pf, cap=cap)
        check = {
            "name": f"good_reduction p={pf.p} h={list(pf.h_coeffs)}",
            "pass": witness is None,
        }
        if witness is not None:
            check["witness"] = [list(x) for x in witness]
            bad = True
        checks.append(check)
        if hist is not None:
            expected = pf.norm ** (V.amb - V.codim)
            single_bin = set(hist) <= {expected}
            checks.append(
                {
                    "name": f"lifting_census k=1 p={pf.p} h={list(pf.h_coeffs)}",
                    "pass": single_bin,
                    "histogram": {str(k): v for k, v in sorted(hist.items())},
                }
            )
    if not bad and len(factors) >= 2:
        n_ideal = ideal_of_factors(ring, factors)
        try:
            whole = counting.brute_force_count(ring, V, f, n_ideal, cap=cap)
        except CapExceeded:
            pass  # the kernel refuses the enumeration mod n: no check
        else:
            # each prime-power part is within the cap, since n is
            parts = [
                counting.brute_force_count(
                    ring, V, f, prime_power(ring, pf, pf.exponent), cap=cap
                )
                for pf in factors
            ]
            checks.append(
                {
                    "name": "multiplicativity",
                    "pass": whole == prod(parts),
                    "count": whole,
                    "prime_power_counts": parts,
                }
            )
    all_pass = all(c["pass"] for c in checks)
    _emit({"checks": checks, "all_pass": all_pass})
    return 0 if all_pass else 2


def _fmt_float(x):
    return format(x, ".12g")


def cmd_asympt(args):
    cfg = load_config(args.config, factor_modulus=False)  # asympt names no modulus
    max_norm = cfg["options"]["max_norm"] if args.max_norm is None else args.max_norm
    if max_norm is None:
        raise ConfigError("asympt requires --max-norm")
    # no prime ideal has norm below 2: a smaller bound names an empty family
    if not 2 <= max_norm <= 10 ** 4:
        raise ConfigError(f"max-norm must be from 2 to 10^4, not {max_norm}")
    products = cfg["options"]["products"] if args.products is None else args.products
    if products not in (0, 1, 2):
        raise ConfigError(f"products must be 0, 1 or 2, not {products}")
    ring, V, f = cfg["ring"], cfg["variety"], cfg["f"]
    primes = list(prime_ideals_up_to(ring, max_norm))
    family = [[pf] for pf in primes]
    if products >= 2:
        family += [list(pair) for pair in combinations(primes, 2)]
    records = counting.asympt_series(ring, V, f, family, cap=cfg["options"]["cap"])
    records.sort(key=lambda r: (r.N, r.description))
    text = "modulus,N,count,ratio,omega,sum_inv_sqrt,sum_inv,max_local_dev\n" + "".join(
        f"{r.description},{r.N},{r.count},{_fmt_float(float(r.ratio))},{r.omega},"
        f"{_fmt_float(r.sum_inv_sqrt)},{_fmt_float(r.sum_inv)},"
        f"{_fmt_float(r.max_local_dev)}\n"
        for r in records
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_example25(args):
    ring = make_number_ring([5, 0, 1])
    try:
        literal = json.loads(args.modulus)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad modulus JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError("the modulus JSON nests too deeply") from None
    factors = parse_modulus(ring, literal)
    mode = args.mode.replace("-", "_")
    c = args.c
    circle = parse_poly(f"x1^2 + x2^2 - ({c})", ring, 2)
    V = VarietySpec(amb=2, codim=1, equations=(circle,), declared_degree=2)
    f = parse_poly(f"x1 - ({args.a})", ring, 1)
    example = counting.example25_count(ring, args.a, c, factors, mode=mode)
    theorem = counting.theorem1_count(ring, V, f, factors)
    out = {
        "example_total": str(example.total),
        "theorem1_total": str(theorem.total),
    }
    totals = [example.total, theorem.total]
    n_ideal = ideal_of_factors(ring, factors)
    try:
        brute = counting.brute_force_count(ring, V, f, n_ideal)
    except CapExceeded:
        pass  # the brute-force total is left out
    else:
        out["brute_total"] = str(brute)
        totals.append(brute)
    out["agree"] = len(set(totals)) == 1
    _emit(out)
    return 0


_WORKERS_HELP = "accepted and ignored: every count runs in the calling thread"


def build_parser():
    parser = _Parser(
        prog="exunits",
        description="Count polynomial-type exceptional units on affine varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="run the counting formula and/or brute force")
    p_count.add_argument("--config", required=True)
    p_count.add_argument(
        "--method", choices=["formula", "brute", "both"], default="formula"
    )
    p_count.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="good reduction, lifting and multiplicativity checks")
    p_verify.add_argument("--config", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_asympt = sub.add_parser("asympt", help="per-prime asymptotics table (CSV)")
    p_asympt.add_argument("--config", required=True)
    p_asympt.add_argument("--max-norm", type=int, default=None)
    p_asympt.add_argument(
        "--products",
        type=int,
        default=None,
        help="0, 1 or 2: 0 and 1 both list the prime ideals alone; "
        "2 adds the products of two distinct primes",
    )
    p_asympt.add_argument("--out", default=None)
    p_asympt.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p_asympt.set_defaults(func=cmd_asympt)

    p_ex = sub.add_parser("example25", help="circle closed form over Q(sqrt(-5))")
    p_ex.add_argument("--a", type=int, required=True)
    p_ex.add_argument("--c", type=int, required=True)
    p_ex.add_argument("--modulus", required=True, help="ideal literal as JSON")
    p_ex.add_argument(
        "--mode", choices=["corrected", "strict-paper"], default="corrected"
    )
    p_ex.set_defaults(func=cmd_example25)
    return parser


_PARSER = build_parser()  # built once: main parses every call with it


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except BadReduction as exc:
        _emit(
            {
                "error": "BadReduction",
                "p": exc.prime.p,
                "h": list(exc.prime.h_coeffs),
                "witness": [list(x) for x in exc.witness],
            }
        )
        return 2
    except (ExunitsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
