import json
import random
import sys
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from exunits import (
    BadReduction,
    ExponentTooLarge,
    PolySyntaxError,
    UnknownVariable,
    VarietySpec,
    check_good_reduction,
    eval_poly,
    factor_ideal,
    hnf_from_generators,
    ideal_norm,
    jacobian,
    jacobian_rank_at,
    local_counts,
    make_number_ring,
    parse_poly,
    polys,
    prime_ctx,
    prime_ideals_above,
    principal_ideal,
    reduce_mod,
    residue_ctx,
)
from exunits.cli import main
from exunits.errors import DimensionMismatch
from exunits.polys import (
    DEFAULT_CAP,
    MultiPoly,
    const_poly,
    partial_derivative,
    poly_add,
    poly_mul,
    poly_pow,
    smooth_points,
    variety_indices,
    zero_poly,
)
from exunits.residues import (
    _CyclicArithmetic,
    _FieldArithmetic,
    _RingArithmetic,
    add_mod,
    arithmetic,
    mul_mod,
    residues,
)


@pytest.fixture
def q5():
    return make_number_ring([5, 0, 1])


@pytest.fixture
def rat():
    return make_number_ring([0, 1])


@pytest.fixture
def circle(q5):
    return parse_poly("x1^2 + x2^2 - 1", q5, 2)


@pytest.fixture
def circle_variety(q5, circle):
    return VarietySpec(amb=2, codim=1, equations=(circle,), declared_degree=2)


@pytest.fixture
def p3(q5):
    return factor_ideal(q5, principal_ideal(q5, (3, 0)))[0]


class TestParser:
    def test_circle_terms(self, q5, circle):
        assert circle.terms == {
            (2, 0): (1, 0),
            (0, 2): (1, 0),
            (0, 0): (-1, 0),
        }

    def test_theta_coefficient(self, q5):
        poly = parse_poly("t*x1 - 5", q5, 1)
        assert poly.terms == {(1,): (0, 1), (0,): (-5, 0)}

    def test_unknown_variable(self, q5):
        with pytest.raises(UnknownVariable):
            parse_poly("x3 + 1", q5, 2)
        with pytest.raises(UnknownVariable):
            parse_poly("x0", q5, 2)

    def test_implicit_multiplication_rejected(self, q5):
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly("2x1", q5, 1)
        assert exc.value.pos == 1

    @pytest.mark.parametrize(
        "src, pos",
        [
            pytest.param("x1^\u00b2 + x2^2 - 1", 3, id="superscript-exponent"),
            pytest.param("x\u00b9 + 1", 0, id="superscript-index"),
            pytest.param("x1 + " + "1" * (polys.MAX_DIGITS + 1), 5, id="long-int"),
            pytest.param("x" + "1" * (polys.MAX_DIGITS + 1), 1, id="long-index"),
        ],
    )
    def test_digit_runs_at_their_offset(self, q5, src, pos):
        """A digit that ``int`` would not take, and a run past MAX_DIGITS,
        are syntax errors at their offset."""
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly(src, q5, 2)
        assert exc.value.pos == pos

    def test_digit_run_at_the_bound(self, q5):
        big = 10 ** (polys.MAX_DIGITS - 1)
        poly = parse_poly(f"x1 + {big}", q5, 1)
        assert poly.terms[(0,)] == (big, 0)

    def test_nesting_at_the_bound(self, q5):
        depth = polys.MAX_NESTING
        poly = parse_poly("(" * depth + "x1" + ")" * depth + " + 1", q5, 1)
        assert poly == parse_poly("x1 + 1", q5, 1)

    @pytest.mark.parametrize("depth", [polys.MAX_NESTING + 1, 400, 10 ** 5])
    def test_nesting_past_the_bound(self, q5, depth):
        """The first '(' past MAX_NESTING is a syntax error at its offset,
        raised before the parser nears the recursion limit."""
        src = "x1 + " + "(" * depth + "x1" + ")" * depth
        with pytest.raises(PolySyntaxError, match="nested more than") as exc:
            parse_poly(src, q5, 1)
        assert exc.value.pos == 5 + polys.MAX_NESTING

    def test_exponent_too_large(self, q5):
        with pytest.raises(ExponentTooLarge):
            parse_poly("x1^2147483648", q5, 1)

    @pytest.mark.parametrize(
        "src, op",
        [
            pytest.param("(x1+x2+x3+1)^200", "^", id="power"),
            pytest.param(
                "(x1+x2+x3+1)^10*(x1+x2+x3+1)^10*(x1+x2+x3+1)^10", "*", id="product"
            ),
        ],
    )
    def test_expansion_bounded(self, q5, tmp_path, capsys, src, op):
        start = time.perf_counter()
        with pytest.raises(ExponentTooLarge) as exc:
            parse_poly(src, q5, 3)
        assert time.perf_counter() - start < 1
        assert exc.value.pos == src.index(op)
        config = {
            "field": {"min_poly": [5, 0, 1]},
            "variety": {"amb": 3, "codim": 1, "equations": [src]},
            "f": "x1 - 2",
            "modulus": {"generators": [3]},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["count", "--config", str(path)]) == 1
        assert "expansion may reach" in capsys.readouterr().err

    def test_expansion_bound_is_tight(self, q5, monkeypatch):
        monkeypatch.setattr(polys, "MAX_EXPANDED_TERMS", 10)
        # each admitted case has at most 10 terms by C(m-1+e, e) for a power
        # of m terms, by m*n for a product, or by its monomials of degree <= d
        assert len(parse_poly("(x1+1)^9", q5, 1).terms) == 10
        assert len(parse_poly("(x1+x2+x3)^2", q5, 3).terms) == 6
        assert len(parse_poly("(x1+1)^5*(x1+1)^4", q5, 1).terms) == 10
        assert len(parse_poly("(x1^2+x1+1)^4", q5, 1).terms) == 9
        assert len(parse_poly("x1^2147483647*x2^2147483647", q5, 2).terms) == 1
        for src in ("(x1+1)^10", "(x1+1)^5*(x1+1)^5", "(x1+x2+1)^4"):
            with pytest.raises(ExponentTooLarge):
                parse_poly(src, q5, 2)

    @pytest.mark.parametrize(
        "src, op_index, message",
        [
            pytest.param(
                "3^10000000", 0, "coefficients may reach", id="constant-power"
            ),
            pytest.param(
                "(x1+1)^499 + (x1+1)^499 + (x1+1)^499 + (x1+1)^499",
                1,
                "terms in all",
                id="chain",
            ),
        ],
    )
    def test_expression_bounded(self, rat, tmp_path, capsys, src, op_index, message):
        # the chain's first power fits every bound; its second overruns the
        # expression's budget, so only one expansion is paid for
        pos = [i for i, ch in enumerate(src) if ch == "^"][op_index]
        start = time.perf_counter()
        with pytest.raises(ExponentTooLarge) as exc:
            parse_poly(src, rat, 1)
        assert time.perf_counter() - start < 1
        assert exc.value.pos == pos
        config = {
            "field": {"min_poly": [0, 1]},
            "variety": {"amb": 1, "codim": 1, "equations": [src]},
            "f": "x1 - 2",
            "modulus": {"generators": [3]},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["count", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_expression_bounds_are_tight(self, q5, monkeypatch):
        monkeypatch.setattr(polys, "MAX_COEFF_BITS", 10)
        # e times the base's largest coefficient bit length, and the sum of
        # both sides' for a product; +-1 times a monomial does not grow
        assert parse_poly("3^5", q5, 1).terms == {(0,): (243, 0)}
        assert parse_poly("t^10", q5, 1).terms == {(0,): (-3125, 0)}
        assert parse_poly("2^5*2^3", q5, 1).terms == {(0,): (256, 0)}
        assert parse_poly("(-x1)^2147483647", q5, 1).terms == {(2147483647,): (-1, 0)}
        for src in ("3^6", "t^11", "2^5*2^5", "(2*x1)^6"):
            with pytest.raises(ExponentTooLarge):
                parse_poly(src, q5, 1)
        monkeypatch.undo()
        monkeypatch.setattr(polys, "MAX_EXPRESSION_TERMS", 10)
        # (x1+1)^e is charged e+1 terms, and a sum charges nothing itself
        assert len(parse_poly("(x1+1)^5 + (x1+1)^3", q5, 1).terms) == 6
        src = "(x1+1)^5 + (x1+1)^4"
        with pytest.raises(ExponentTooLarge) as exc:
            parse_poly(src, q5, 1)
        assert exc.value.pos == src.rindex("^")

    def test_parses_are_equal_and_unhashable(self, q5):
        """Two parses of one text are equal; a MultiPoly, whose terms are a
        dict, has no hash."""
        src = "x1^2 + t*x2 - 3"
        assert parse_poly(src, q5, 2) == parse_poly(src, q5, 2)
        assert parse_poly(src, q5, 2) != parse_poly("x1^2 + t*x2 - 2", q5, 2)
        assert parse_poly("x1", q5, 1) != parse_poly("x1", q5, 2)
        with pytest.raises(TypeError):
            hash(parse_poly(src, q5, 2))

    def test_element_literal(self, q5):
        poly = parse_poly("[2,-3]*x1", q5, 1)
        assert poly.terms == {(1,): (2, -3)}

    def test_negative_coefficients_in_products(self, q5):
        poly = parse_poly("-3*x1^2*x2 + [-2,5]*x1*x2^3 - 7", q5, 2)
        assert poly.terms == {(2, 1): (-3, 0), (1, 3): (-2, 5), (0, 0): (-7, 0)}

    def test_parentheses_and_unary_minus(self, q5):
        poly = parse_poly("-(x1 - 1)^2", q5, 1)
        assert poly.terms == {(2,): (-1, 0), (1,): (2, 0), (0,): (-1, 0)}

    def test_whitespace_insensitive(self, q5):
        a = parse_poly("x1^2+x2^2-1", q5, 2)
        b = parse_poly("  x1 ^ 2 + x2 ^ 2 - 1 ", q5, 2)
        assert a.terms == b.terms

    def test_trailing_garbage(self, q5):
        with pytest.raises(PolySyntaxError):
            parse_poly("x1 + ", q5, 1)


def _random_poly(rng, ring, amb, n_terms, max_exp=4, max_coord=9):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(amb))
        coeff = tuple(rng.randint(-max_coord, max_coord) for _ in range(ring.deg))
        if any(coeff):
            terms[exps] = coeff
    return MultiPoly(amb=amb, terms=terms)


class TestPolyPow:
    def test_matches_repeated_products(self, q5, rat, monkeypatch):
        """p^e is the product of e copies of p, by binary powering: one
        ``poly_mul`` per bit of e past the leading one, plus one per set bit."""
        calls = []

        def counted(*args):
            calls.append(1)
            return poly_mul(*args)

        monkeypatch.setattr(polys, "poly_mul", counted)
        rng = random.Random(23)
        for ring in (q5, rat):
            for _ in range(6):
                poly = _random_poly(
                    rng, ring, rng.randint(1, 2), rng.randint(1, 3), max_exp=2
                )
                expected = const_poly(ring, poly.amb, ring.one)
                for e in range(13):
                    calls.clear()
                    assert poly_pow(ring, poly, e).terms == expected.terms, e
                    products = max(e.bit_length() + bin(e).count("1") - 2, 0)
                    assert len(calls) == products, e
                    expected = poly_mul(ring, expected, poly)


class TestEval:
    def test_circle_points(self, q5, circle, p3):
        ctx = prime_ctx(q5, p3)
        assert eval_poly(circle, ((0, 0), (1, 0)), ctx) == (0, 0)
        assert eval_poly(circle, ((1, 0), (1, 0)), ctx) == (1, 0)

    def test_zero_poly(self, q5, p3):
        ctx = prime_ctx(q5, p3)
        assert eval_poly(zero_poly(2), ((1, 0), (2, 0)), ctx) == (0, 0)

    def test_dimension_mismatch(self, q5, circle, p3):
        ctx = prime_ctx(q5, p3)
        with pytest.raises(DimensionMismatch):
            eval_poly(circle, ((1, 0),), ctx)

    def test_ring_homomorphism(self, q5, p3):
        ctx = prime_ctx(q5, p3)
        rng = random.Random(23)
        for _ in range(25):
            p = _random_poly(rng, q5, 2, 3, max_exp=3)
            q = _random_poly(rng, q5, 2, 3, max_exp=3)
            point = tuple(
                (rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)
            )
            ps = eval_poly(p, point, ctx)
            qs = eval_poly(q, point, ctx)
            assert eval_poly(poly_add(q5, p, q), point, ctx) == add_mod(ctx, ps, qs)
            assert eval_poly(poly_mul(q5, p, q), point, ctx) == mul_mod(ctx, ps, qs)


class TestJacobian:
    def test_circle(self, q5, circle_variety):
        J = jacobian(q5, circle_variety)
        assert J[0][0].terms == {(1, 0): (2, 0)}
        assert J[0][1].terms == {(0, 1): (2, 0)}

    def test_linear(self, q5):
        line = parse_poly("x1 + x2 - 1", q5, 2)
        V = VarietySpec(amb=2, codim=1, equations=(line,), declared_degree=1)
        J = jacobian(q5, V)
        assert J[0][0].terms == {(0, 0): (1, 0)}
        assert J[0][1].terms == {(0, 0): (1, 0)}

    def test_empty_variety(self, q5):
        V = VarietySpec(amb=2, codim=0, equations=(), declared_degree=1)
        assert jacobian(q5, V) == ()

    def test_rank_at_points(self, q5, circle_variety, p3):
        ctx = prime_ctx(q5, p3)
        J = jacobian(q5, circle_variety)
        assert jacobian_rank_at(J, ((1, 0), (0, 0)), ctx) == 1

    def test_rank_zero_char_two(self, q5, circle_variety):
        p2 = factor_ideal(q5, principal_ideal(q5, (2, 0)))[0]
        ctx = prime_ctx(q5, p2)
        J = jacobian(q5, circle_variety)
        assert jacobian_rank_at(J, ((1, 0), (0, 0)), ctx) == 0

    def test_empty_matrix_rank(self, q5, p3):
        ctx = prime_ctx(q5, p3)
        V = VarietySpec(amb=2, codim=0, equations=(), declared_degree=1)
        assert jacobian_rank_at(jacobian(q5, V), ((0, 0), (0, 0)), ctx) == 0

    def test_rank_bounded(self, q5, p3):
        ctx = prime_ctx(q5, p3)
        rng = random.Random(29)
        for _ in range(10):
            eqs = tuple(
                p
                for p in (
                    _random_poly(rng, q5, 2, 3, max_exp=2) for _ in range(2)
                )
                if not p.is_zero()
            )
            if not eqs:
                continue
            V = VarietySpec(
                amb=2, codim=min(2, len(eqs)), equations=eqs, declared_degree=2
            )
            J = jacobian(q5, V)
            point = ((rng.randint(0, 2), 0), (rng.randint(0, 2), 0))
            assert jacobian_rank_at(J, point, ctx) <= min(len(eqs), 2)


class _Dual:
    """Degree-1 truncated pair (value, derivative) over a residue field."""

    def __init__(self, ctx, val, der):
        self.ctx = ctx
        self.val = reduce_mod(ctx, val)
        self.der = reduce_mod(ctx, der)

    def __add__(self, other):
        return _Dual(
            self.ctx,
            add_mod(self.ctx, self.val, other.val),
            add_mod(self.ctx, self.der, other.der),
        )

    def __mul__(self, other):
        return _Dual(
            self.ctx,
            mul_mod(self.ctx, self.val, other.val),
            add_mod(
                self.ctx,
                mul_mod(self.ctx, self.val, other.der),
                mul_mod(self.ctx, self.der, other.val),
            ),
        )


def _dual_eval(poly, point, direction, ctx):
    acc = _Dual(ctx, ctx.ring.zero, ctx.ring.zero)
    for exps, coeff in poly.terms.items():
        term = _Dual(ctx, coeff, ctx.ring.zero)
        for i, e in enumerate(exps):
            x = _Dual(
                ctx,
                point[i],
                ctx.ring.one if i == direction else ctx.ring.zero,
            )
            for _ in range(e):
                term = term * x
        acc = acc + term
    return acc


class TestFiniteDifference:
    def test_formal_derivative_matches_dual_numbers(self, q5, p3):
        ctx = prime_ctx(q5, p3)
        rng = random.Random(31)
        for _ in range(20):
            poly = _random_poly(rng, q5, 2, 4, max_exp=3)
            point = tuple(
                (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2)
            )
            for j in range(2):
                dual = _dual_eval(poly, point, j, ctx)
                formal = eval_poly(
                    partial_derivative(q5, poly, j + 1), point, ctx
                )
                assert dual.der == formal


class TestGoodReduction:
    def test_circle_good_at_three(self, q5, circle_variety, p3):
        assert check_good_reduction(q5, circle_variety, p3) is None

    def test_circle_bad_at_two(self, q5, circle_variety):
        p2 = factor_ideal(q5, principal_ideal(q5, (2, 0)))[0]
        witness = check_good_reduction(q5, circle_variety, p2)
        assert witness == ((1, 0), (0, 0))

    def test_circle_good_at_five(self, q5, circle_variety):
        p5 = factor_ideal(q5, principal_ideal(q5, (5, 0)))[0]
        assert check_good_reduction(q5, circle_variety, p5) is None

    def test_variety_validation(self, q5, circle):
        with pytest.raises(ValueError):
            VarietySpec(amb=2, codim=0, equations=(circle,), declared_degree=2)
        with pytest.raises(ValueError):
            VarietySpec(amb=2, codim=3, equations=(circle,), declared_degree=2)
        with pytest.raises(ValueError):
            VarietySpec(amb=2, codim=1, equations=(), declared_degree=1)
        with pytest.raises(ValueError, match="amb"):
            VarietySpec(amb=0, codim=0, equations=(), declared_degree=1)
        with pytest.raises(ValueError):
            VarietySpec(
                amb=2, codim=1, equations=(zero_poly(2),), declared_degree=1
            )

    def test_amb_bound(self, q5):
        bound = polys.MAX_AMB
        x = parse_poly(f"x{bound}", q5, bound)
        VarietySpec(amb=bound, codim=1, equations=(x,), declared_degree=1)
        with pytest.raises(ValueError, match="amb"):
            parse_poly("x1", q5, bound + 1)
        with pytest.raises(ValueError, match="amb"):
            VarietySpec(amb=bound + 1, codim=0, equations=(), declared_degree=1)


# Q, Q(i), Q(sqrt(-5)) and Q(2^(1/3)); each ring of integers is Z[theta]
RINGS = [[0, 1], [1, 0, 1], [5, 0, 1], [-2, 0, 0, 1]]


@st.composite
def _equation(draw, ring, amb):
    """A nonzero polynomial of up to three terms, mixed monomials included."""
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * amb),
            st.lists(st.integers(-3, 3), min_size=ring.deg, max_size=ring.deg).map(
                tuple
            ),
            min_size=1,
            max_size=3,
        )
    )
    terms = {e: c for e, c in terms.items() if any(c)}
    assume(terms)
    return MultiPoly(amb=amb, terms=terms)


def _points(fibers):
    """The points of the fibers that ``variety_indices`` yields, in order."""
    return [(i,) + rest for rest, x1s in fibers for i in x1s]


def _reference_indices(ctx, V, digits):
    """The definition: every digit tuple, coordinate 1 fastest, kept if on X."""
    reps = list(residues(ctx))
    return [
        t[::-1]
        for t in product(digits, repeat=V.amb)
        if all(
            eval_poly(eq, tuple(reps[i] for i in t[::-1]), ctx) == ctx.ring.zero
            for eq in V.equations
        )
    ]


def _form_ctx(form):
    """A residue context in each form of O/n: ints mod 7 at a split prime of
    Q(sqrt(-5)), F_9 at the inert prime 3 of Q(i), and tuples mod (3) over
    Q(i), which is not a prime context."""
    if form == "int":
        q5 = make_number_ring([5, 0, 1])
        return prime_ctx(q5, factor_ideal(q5, principal_ideal(q5, (7, 0)))[0])
    qi = make_number_ring([1, 0, 1])
    if form == "field":
        return prime_ctx(qi, factor_ideal(qi, principal_ideal(qi, (3, 0)))[0])
    return residue_ctx(qi, principal_ideal(qi, (3, 0)))


_FORMS = {"int": _CyclicArithmetic, "field": _FieldArithmetic, "tuple": _RingArithmetic}


class TestVarietyIndices:
    @pytest.mark.parametrize("form", sorted(_FORMS))
    @pytest.mark.parametrize(
        "amb, equations",
        [
            pytest.param(3, ["x1^2 + x2^2 - 1", "x3 - x1"], id="two-separable"),
            pytest.param(3, ["x1^2 + x3^2 - 1"], id="c0-free-of-x2"),
            pytest.param(3, ["x1^2 + x2*x3 - 1"], id="cross-term-in-c0"),
            pytest.param(2, ["x1*x2 - 1"], id="none-separable"),
        ],
    )
    @pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
    def test_rows_match_reference(self, form, amb, equations, subset):
        """The row kernel gives the literal enumeration's points in every
        form of O/n, over all digits and over a subset of them."""
        ctx = _form_ctx(form)
        assert type(arithmetic(ctx)) is _FORMS[form]
        eqs = tuple(parse_poly(src, ctx.ring, amb) for src in equations)
        V = VarietySpec(amb=amb, codim=len(eqs), equations=eqs, declared_degree=2)
        digits = [i for i in range(ctx.norm) if not subset or i % 3 != 1]
        expected = _reference_indices(ctx, V, digits)
        assert expected
        fibers = variety_indices(ctx, V, DEFAULT_CAP, iter(digits) if subset else None)
        assert _points(fibers) == expected

    def test_sphere_costs_rows_not_fibers(self, q5, monkeypatch):
        """At p = 29 the sphere's equation and Jacobian are evaluated a few
        times per row of fibers, c*q compiled calls in all, not once per fiber
        (q^2 = 841)."""
        calls = 0
        compile_ = polys._evaluator

        def counted(ctx, terms):
            value = compile_(ctx, terms)

            def counted_value(indices):
                nonlocal calls
                calls += 1
                return value(indices)

            return counted_value

        monkeypatch.setattr(polys, "_evaluator", counted)
        sphere = parse_poly("x1^2 + x2^2 + x3^2 - 1", q5, 3)
        V = VarietySpec(amb=3, codim=1, equations=(sphere,), declared_degree=2)
        (pf, _) = factor_ideal(q5, principal_ideal(q5, (29, 0)))
        assert pf.norm == 29
        # q^2 + q * chi(-1) points, and -1 is a square mod 29
        assert len(_points(smooth_points(prime_ctx(q5, pf), V))) == 29 ** 2 + 29
        assert calls <= 8 * 29

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        """Same tuples in the same order as the literal enumeration."""
        ring = make_number_ring(data.draw(st.sampled_from(RINGS)))
        amb = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            p = data.draw(st.sampled_from([2, 3, 5, 7]))
            primes = factor_ideal(ring, principal_ideal(ring, ring.from_int(p)))
            ctx = prime_ctx(ring, data.draw(st.sampled_from(primes)))
        else:
            coords = st.lists(st.integers(-3, 3), min_size=ring.deg, max_size=ring.deg)
            gens = [
                ring.from_int(data.draw(st.integers(2, 12))),
                tuple(data.draw(coords)),
            ]
            n_ideal = hnf_from_generators(ring, gens)
            assume(ideal_norm(n_ideal) >= 2)
            ctx = residue_ctx(ring, n_ideal)
        assume(ctx.norm ** amb <= 1000)
        equations = tuple(
            data.draw(_equation(ring, amb))
            for _ in range(data.draw(st.integers(0, min(amb, 2))))
        )
        if any(
            exps[0] and any(exps[1:]) for eq in equations for exps in eq.terms
        ):
            event("x1 in a mixed monomial")
        V = VarietySpec(
            amb=amb, codim=len(equations), equations=equations, declared_degree=2
        )
        if data.draw(st.booleans()):
            digits = None
            expected = _reference_indices(ctx, V, range(ctx.norm))
        else:
            keep = data.draw(
                st.lists(st.booleans(), min_size=ctx.norm, max_size=ctx.norm)
            )
            digits = [i for i, k in enumerate(keep) if k]
            expected = _reference_indices(ctx, V, digits)
            digits = iter(digits)
        fibers = list(variety_indices(ctx, V, DEFAULT_CAP, digits))
        assert _points(fibers) == expected
        # one pair per fiber with a point, in enumeration order, x1 ascending
        rests = [rest for rest, _ in fibers]
        assert rests == list(dict.fromkeys(point[1:] for point in expected))
        for _, x1s in fibers:
            assert x1s and all(a < b for a, b in zip(x1s, x1s[1:]))

    def test_evaluations_linear_in_q(self, q5, circle_variety, monkeypatch):
        """Each fiber of the circle is one evaluation and one lookup, not q."""
        p13 = factor_ideal(q5, principal_ideal(q5, (13, 0)))
        assert [pf.norm for pf in p13] == [169]
        ctx = prime_ctx(q5, p13[0])
        calls = 0

        def counted(ctx, a):
            nonlocal calls
            calls += 1
            return reduce_mod(ctx, a)

        # every residue operation, in polys or in residues, ends in reduce_mod
        for module in (polys, sys.modules["exunits.residues"]):
            monkeypatch.setattr(module, "reduce_mod", counted)
        assert len(_points(variety_indices(ctx, circle_variety, DEFAULT_CAP))) == 168
        assert calls <= 20 * ctx.norm

    def test_affine_line_memory(self, rat):
        """A^1 is one fiber, scanned without a table or a list of residues."""
        A1 = VarietySpec(amb=1, codim=0, equations=(), declared_degree=1)
        ctx = residue_ctx(rat, principal_ideal(rat, (100003,)))
        tracemalloc.start()
        try:
            count = sum(len(x1s) for _, x1s in variety_indices(ctx, A1, DEFAULT_CAP))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 100003
        assert peak < 10 * 2 ** 20


def _reference_smooth(ring, V, prime_factor):
    """The definition: the points of X in order up to the first one where the
    Jacobian rank is not the codimension, and that point (None if none)."""
    ctx = prime_ctx(ring, prime_factor)
    J = jacobian(ring, V)
    reps = list(residues(ctx))
    points = []
    for indices in _points(variety_indices(ctx, V, DEFAULT_CAP)):
        point = tuple(reps[i] for i in indices)
        if jacobian_rank_at(J, point, ctx) != V.codim:
            return points, point
        points.append(indices)
    return points, None


def _swept(ring, V, prime_factor):
    """The points smooth_points yields, and the witness it raises (or None)."""
    points = []
    try:
        for rest, x1s in smooth_points(prime_ctx(ring, prime_factor), V):
            points += [(i,) + rest for i in x1s]
    except BadReduction as exc:
        assert exc.prime == prime_factor
        return points, exc.witness
    return points, None


class TestSmoothPoints:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        """Same points and same witness as variety_indices + jacobian_rank_at."""
        ring = make_number_ring(data.draw(st.sampled_from(RINGS)))
        amb = data.draw(st.integers(1, 3))
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        primes = factor_ideal(ring, principal_ideal(ring, ring.from_int(p)))
        prime_factor = data.draw(st.sampled_from(primes))
        assume(prime_factor.norm ** amb <= 1000)
        equations = tuple(
            data.draw(_equation(ring, amb)) for _ in range(data.draw(st.integers(1, 3)))
        )
        codim = data.draw(st.integers(1, min(len(equations), amb)))
        if codim < len(equations):
            event("more equations than codim")
        if any(exps[0] and any(exps[1:]) for eq in equations for exps in eq.terms):
            event("x1 in a mixed monomial")
        V = VarietySpec(
            amb=amb, codim=codim, equations=equations, declared_degree=2
        )
        expected = _reference_smooth(ring, V, prime_factor)
        if expected[1] is not None:
            event("bad reduction")
        assert _swept(ring, V, prime_factor) == expected

    def test_evaluations_linear_in_q(self, q5, circle_variety, monkeypatch):
        """The Jacobian is evaluated once per fiber, not once per point."""
        p13 = factor_ideal(q5, principal_ideal(q5, (13, 0)))
        assert [pf.norm for pf in p13] == [169]
        calls = 0

        def counted(ctx, a):
            nonlocal calls
            calls += 1
            return reduce_mod(ctx, a)

        # every residue operation, in polys or in residues, ends in reduce_mod
        for module in (polys, sys.modules["exunits.residues"]):
            monkeypatch.setattr(module, "reduce_mod", counted)
        ctx = prime_ctx(q5, p13[0])
        assert len(_points(smooth_points(ctx, circle_variety))) == 168
        assert calls <= 25 * 169

    @pytest.mark.parametrize(
        "amb, equations, p",
        [
            pytest.param(2, ["x1^2 + x2^2 - 1"], 13, id="circle"),
            pytest.param(3, ["x1^2 + x2^2 - 1", "x3 - x1"], 7, id="curve"),
            pytest.param(2, ["x1*x2^2 + x1^2*x2 - 1"], 7, id="mixed"),
            pytest.param(2, ["x1^2 + x2^2 - 1"], 2, id="bad-prime"),
        ],
    )
    def test_no_field_inverse(self, q5, monkeypatch, amb, equations, p):
        """local_counts checks smoothness with no inversion in the field."""
        eqs = tuple(parse_poly(src, q5, amb) for src in equations)
        V = VarietySpec(amb=amb, codim=len(eqs), equations=eqs, declared_degree=2)
        f = parse_poly("x1 - 2", q5, 1)
        prime_factor = factor_ideal(q5, principal_ideal(q5, (p, 0)))[0]
        expected = _reference_smooth(q5, V, prime_factor)

        def refuse(ctx, a):
            raise AssertionError("field_inverse was called")

        for module in (polys, sys.modules["exunits.residues"]):
            monkeypatch.setattr(module, "field_inverse", refuse)
        if expected[1] is None:
            ld = local_counts(q5, V, f, prime_factor)
            assert ld.count_X == len(expected[0]) > 0
        else:
            with pytest.raises(BadReduction) as exc:
                local_counts(q5, V, f, prime_factor)
            assert exc.value.witness == expected[1]

    def test_affine_line_builds_no_table(self, rat, monkeypatch):
        """A^1 has at most deg F points: checking them costs no table of size q."""
        F = parse_poly("x1^2 - 4", rat, 1)
        V = VarietySpec(amb=1, codim=1, equations=(F,), declared_degree=2)
        prime_factor = factor_ideal(rat, principal_ideal(rat, (10007,)))[0]
        calls = 0

        def counted(ctx, a):
            nonlocal calls
            calls += 1
            return reduce_mod(ctx, a)

        for module in (polys, sys.modules["exunits.residues"]):
            monkeypatch.setattr(module, "reduce_mod", counted)
        ctx = prime_ctx(rat, prime_factor)
        assert len(_points(variety_indices(ctx, V, DEFAULT_CAP))) == 2
        enumeration, calls = calls, 0
        # a context of its own, so the sweep builds its tables again
        assert len(_points(smooth_points(prime_ctx(rat, prime_factor), V))) == 2
        assert calls - enumeration <= 20

    @pytest.mark.parametrize("p, ranks", [(11, 1), (13, 3)])
    def test_one_equation_tests_rows_not_fibers(self, rat, monkeypatch, p, ranks):
        """With one equation the x1-free partials are tested a row at a time:
        ``_rank`` runs only at the few fibers where both vanish, not at each
        of the 122 (p = 11) or 76 (p = 13) fibers with a point."""
        F = parse_poly("x1^3 + x2^2 + x3^2 - 1", rat, 3)
        V = VarietySpec(amb=3, codim=1, equations=(F,), declared_degree=3)
        prime_factor = factor_ideal(rat, principal_ideal(rat, (p,)))[0]
        expected = _reference_smooth(rat, V, prime_factor)
        calls = 0
        original = polys._rank

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(polys, "_rank", counted)
        assert _swept(rat, V, prime_factor) == expected
        assert calls == ranks


# (minimal polynomial, p) of prime contexts, each with q^3 <= 729: degree 1
# at 2 and 5 over Q and at 3 and 7 over Q(sqrt(-5)), degree 2 at 3 over Q(i)
# and at 2 over Z[t], t^2 + t + 1 = 0
_KERNEL_PRIMES = [
    ([0, 1], 2),
    ([0, 1], 5),
    ([5, 0, 1], 3),
    ([5, 0, 1], 7),
    ([1, 0, 1], 3),
    ([1, 1, 1], 2),
]


@st.composite
def _two_equation_system(draw):
    """A prime, and V of two random equations in amb = 3, mixed monomials
    included; on a drawn boolean the first is made free of x3, so that its
    coefficients in x2 are the same on every row."""
    min_poly, p = draw(st.sampled_from(_KERNEL_PRIMES))
    ring = make_number_ring(min_poly)
    pf = draw(st.sampled_from(prime_ideals_above(ring, p)))
    first, second = draw(_equation(ring, 3)), draw(_equation(ring, 3))
    if draw(st.booleans()):
        event("first equation free of the tail")
        terms = {exps[:2] + (0,): c for exps, c in first.terms.items()}
        assume(len(terms) == len(first.terms))  # no two terms merged
        first = MultiPoly(amb=3, terms=terms)
    equations = (first, second)
    if any(exps[0] and any(exps[1:]) for eq in equations for exps in eq.terms):
        event("x1 in a mixed monomial")
    codim = draw(st.integers(1, 2))
    V = VarietySpec(amb=3, codim=codim, equations=equations, declared_degree=2)
    return ring, pf, V


def _fibers_of(points):
    """Points in enumeration order as the (rest, x1s) pairs of the kernel."""
    fibers = []
    for i, *rest in points:
        if fibers and fibers[-1][0] == tuple(rest):
            fibers[-1][1].append(i)
        else:
            fibers.append((tuple(rest), [i]))
    return fibers


class TestTwoEquationKernel:
    """Two equations in amb = 3 at degree-1 and degree-2 primes and at
    p = 2, against the literal loops: rows whose coefficients in x2 repeat
    and rows whose coefficients change, and the Jacobian checked at single
    fibers (m = 2)."""

    @settings(max_examples=80, deadline=None)
    @given(system=_two_equation_system())
    def test_variety_indices_matches_product(self, system):
        ring, pf, V = system
        ctx = prime_ctx(ring, pf)
        expected = _fibers_of(_reference_indices(ctx, V, range(ctx.norm)))
        fibers = variety_indices(ctx, V, DEFAULT_CAP)
        assert [(rest, list(x1s)) for rest, x1s in fibers] == expected

    @settings(max_examples=80, deadline=None)
    @given(system=_two_equation_system())
    def test_smooth_points_matches_jacobian_rank_at(self, system):
        """Same fibers and the same BadReduction witness as a literal loop
        over every tuple with ``jacobian_rank_at``."""
        if self.check_smooth_points(*system) is not None:
            event("bad reduction")

    def test_x1_free_columns_follow_the_row(self):
        """The x1-free column 3 x2^2 x3 + 1 changes from row to row: at
        p = 5 the point (0, 4, 3) is singular, and the rank there must use
        its value on the row x3 = 3, not on an earlier row."""
        rat = make_number_ring([0, 1])
        equations = tuple(
            parse_poly(src, rat, 3) for src in ("3*x1*x2^2*x3 + x1", "3*x2 + 2*x3^2")
        )
        V = VarietySpec(amb=3, codim=2, equations=equations, declared_degree=2)
        pf = prime_ideals_above(rat, 5)[0]
        assert self.check_smooth_points(rat, pf, V) == ((0,), (4,), (3,))

    @staticmethod
    def check_smooth_points(ring, pf, V):
        """Compare ``smooth_points`` with the literal loop; returns the witness."""
        ctx = prime_ctx(ring, pf)
        J = jacobian(ring, V)
        reps = list(residues(ctx))
        points, witness = [], None
        for indices in _reference_indices(ctx, V, range(ctx.norm)):
            point = tuple(reps[i] for i in indices)
            if jacobian_rank_at(J, point, ctx) != V.codim:
                witness = point
                break
            points.append(indices)
        fibers = []
        try:
            for rest, x1s in smooth_points(prime_ctx(ring, pf), V):
                fibers.append((rest, list(x1s)))
        except BadReduction as exc:
            assert exc.prime == pf
            assert exc.witness == witness
        else:
            assert witness is None
        assert fibers == _fibers_of(points)
        return witness
