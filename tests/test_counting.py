from collections import Counter
from fractions import Fraction
from importlib import import_module
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from exunits import (
    BadReduction,
    CapExceeded,
    ConstantPolynomial,
    ExunitsError,
    LocalData,
    MultiPoly,
    NotQSqrtMinus5,
    UnitIdeal,
    VarietySpec,
    asympt_series,
    brute_force_count,
    check_good_reduction,
    counting,
    describe_ideal,
    eval_poly,
    example25_count,
    factor_ideal,
    good_reduction_primes,
    hnf_from_generators,
    ideal_mul,
    ideal_norm,
    ideal_pow,
    is_unit_mod,
    jacobian,
    jacobian_rank_at,
    langweil_deviation,
    lifting_census,
    local_counts,
    make_number_ring,
    parse_poly,
    polys,
    prime_ctx,
    prime_ideals_above,
    prime_power,
    principal_ideal,
    reduce_mod,
    residue_ctx,
    theorem1_count,
    unit_ideal,
)
from exunits.errors import BadModulus
from exunits.counting import AsymptRecord
from exunits.ideals import ideal_of_factors, prime_ideals_up_to
from exunits.number_ring import is_zero
from exunits.residues import residues

# Q, Q(i), Q(sqrt(-5)) and Q(2^(1/3)); each ring of integers is Z[theta]
RINGS = [[0, 1], [1, 0, 1], [5, 0, 1], [-2, 0, 0, 1]]
SMALL = st.integers(-3, 3)
NONZERO = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def _elements(draw, ring):
    """A nonzero ring element with coordinates in [-3, 3]."""
    coords = draw(st.lists(SMALL, min_size=ring.deg, max_size=ring.deg))
    coords[draw(st.integers(0, ring.deg - 1))] = draw(NONZERO)
    return tuple(coords)


@st.composite
def _polys(draw, ring, amb, nonconstant=False):
    """A nonzero polynomial with up to three terms of degree <= 2 per variable,
    and with nonconstant one more term, of positive degree."""
    exponents = st.tuples(*[st.integers(0, 2)] * amb)
    # a list, not st.dictionaries, whose unique keys would be drawn by rejection
    terms = dict(
        draw(st.lists(st.tuples(exponents, _elements(ring)), min_size=1, max_size=3))
    )
    if nonconstant:
        exps = list(draw(exponents))
        exps[draw(st.integers(0, amb - 1))] = draw(st.integers(1, 2))
        terms[tuple(exps)] = draw(_elements(ring))
    return MultiPoly(amb=amb, terms=terms)


@st.composite
def _moduli(draw, ring, amb, bound):
    """An ideal of norm N >= 2 with N^amb <= bound, a product of primes above
    2 to 11.

    Every ring in RINGS has degree <= 3, so a prime above 2 has norm <= 8 and
    the first factor always fits when 8^amb <= bound.
    """
    primes = [pf for p in (2, 3, 5, 7, 11) for pf in prime_ideals_above(ring, p)]
    ideal, norm = unit_ideal(ring), 1
    while True:
        fits = [pf for pf in primes if (norm * pf.norm) ** amb <= bound]
        if not fits or norm > 1 and not draw(st.booleans()):
            return ideal
        pf = draw(st.sampled_from(fits))
        ideal, norm = ideal_mul(ring, ideal, pf.hnf), norm * pf.norm


def _literal_count(ring, V, f, n_ideal):
    """The definition, point by point: x on X with every f(x_i) a unit mod n."""
    ctx = residue_ctx(ring, n_ideal)
    return sum(
        1
        for point in product(list(residues(ctx)), repeat=V.amb)
        if all(eval_poly(eq, point, ctx) == ring.zero for eq in V.equations)
        and all(is_unit_mod(ctx, eval_poly(f, (x,), ctx)) for x in point)
    )


@pytest.fixture
def q5():
    return make_number_ring([5, 0, 1])


@pytest.fixture
def rat():
    return make_number_ring([0, 1])


@pytest.fixture
def circle(q5):
    eq = parse_poly("x1^2 + x2^2 - 1", q5, 2)
    return VarietySpec(amb=2, codim=1, equations=(eq,), declared_degree=2)


@pytest.fixture
def f_x_minus_2(q5):
    return parse_poly("x1 - 2", q5, 1)


@pytest.fixture
def p3(q5):
    return factor_ideal(q5, principal_ideal(q5, (3, 0)))[0]


class TestBruteForce:
    def test_circle_p3(self, q5, circle, f_x_minus_2, p3):
        assert brute_force_count(q5, circle, f_x_minus_2, p3.hnf) == 2

    def test_circle_three(self, q5, circle, f_x_minus_2):
        n3 = principal_ideal(q5, (3, 0))
        assert brute_force_count(q5, circle, f_x_minus_2, n3) == 4

    def test_classical_exunits_mod_five(self, rat):
        A1 = VarietySpec(amb=1, codim=0, equations=(), declared_degree=1)
        f = parse_poly("x1^2 - x1", rat, 1)
        assert brute_force_count(rat, A1, f, principal_ideal(rat, (5,))) == 3

    def test_constant_f_rejected(self, q5, circle, p3):
        f = parse_poly("7", q5, 1)
        with pytest.raises(ConstantPolynomial):
            brute_force_count(q5, circle, f, p3.hnf)

    def test_cap(self, q5, circle, f_x_minus_2):
        n = principal_ideal(q5, (101, 0))
        with pytest.raises(CapExceeded):
            brute_force_count(q5, circle, f_x_minus_2, n, cap=1000)

    def test_cap_before_power_tables(self, q5, circle, f_x_minus_2, monkeypatch):
        """Over the cap, brute force raises before f or the equations build
        any power table."""

        def boom(*args):
            raise RuntimeError("power table built before the cap check")

        for module in (polys, import_module("exunits.residues"), counting):
            monkeypatch.setattr(module, "power_table", boom, raising=False)
        n = principal_ideal(q5, (101, 0))
        with pytest.raises(CapExceeded):
            brute_force_count(q5, circle, f_x_minus_2, n, cap=1000)

    def test_ring_products_linear_in_norm(self, q5, circle, f_x_minus_2, monkeypatch):
        """Mod (21), of norm 441, the circle costs one squaring per residue and
        the unit walk at most one product per residue: no table is built for
        a negated copy of an equation."""
        residues_module = import_module("exunits.residues")
        mul_mod = residues_module.mul_mod
        calls = 0

        def counted(ctx, a, b):
            nonlocal calls
            calls += 1
            return mul_mod(ctx, a, b)

        monkeypatch.setattr(residues_module, "mul_mod", counted)
        n = principal_ideal(q5, (21, 0))
        assert brute_force_count(q5, circle, f_x_minus_2, n) == 100
        assert calls <= 2 * 441

    def test_unit_ideal_rejected(self, q5, circle, f_x_minus_2):
        from exunits import unit_ideal

        with pytest.raises(UnitIdeal):
            brute_force_count(q5, circle, f_x_minus_2, unit_ideal(q5))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_literal_count(self, data):
        ring = make_number_ring(data.draw(st.sampled_from(RINGS)))
        amb = data.draw(st.integers(1, 3))
        n_ideal = data.draw(_moduli(ring, amb, 512))
        norm = ideal_norm(n_ideal)
        assert norm >= 2 and norm ** amb <= 512
        equations = tuple(
            data.draw(_polys(ring, amb))
            for _ in range(data.draw(st.integers(0, min(amb, 2))))
        )
        V = VarietySpec(
            amb=amb, codim=len(equations), equations=equations, declared_degree=2
        )
        f = data.draw(_polys(ring, 1, nonconstant=True))
        assert brute_force_count(ring, V, f, n_ideal) == _literal_count(
            ring, V, f, n_ideal
        )


class TestLocalCounts:
    def test_p3(self, q5, circle, f_x_minus_2, p3):
        ld = local_counts(q5, circle, f_x_minus_2, p3)
        assert (ld.count_X, ld.count_N) == (4, 2)
        assert ld.factor == Fraction(2, 3)

    def test_inert_eleven(self, q5, circle):
        f = parse_poly("x1 - 0", q5, 1)
        pf = factor_ideal(q5, principal_ideal(q5, (11, 0)))[0]
        ld = local_counts(q5, circle, f, pf)
        assert (ld.count_X, ld.count_N) == (120, 4)
        assert ld.factor == Fraction(116, 121)

    def test_ramified_five_vanishes(self, q5, circle):
        f = parse_poly("x1 - 0", q5, 1)
        pf = factor_ideal(q5, principal_ideal(q5, (5, 0)))[0]
        ld = local_counts(q5, circle, f, pf)
        assert (ld.count_X, ld.count_N) == (4, 4)
        assert ld.factor == 0

    def test_bad_reduction_raises(self, q5, circle, f_x_minus_2):
        p2 = factor_ideal(q5, principal_ideal(q5, (2, 0)))[0]
        witness = check_good_reduction(q5, circle, p2)
        assert witness == ((1, 0), (0, 0))
        with pytest.raises(BadReduction) as exc:
            local_counts(q5, circle, f_x_minus_2, p2)
        assert exc.value.prime == p2
        assert exc.value.witness == witness

    @pytest.mark.parametrize(
        "amb, equations, p",
        [
            pytest.param(3, ["x1^2 + x2^2 + x3^2 - 1"], 29, id="sphere"),
            pytest.param(3, ["x1^2 + x2^2 - 1", "x3 - x1"], 11, id="curve-inert"),
            pytest.param(2, ["x1*x2 - 1"], 13, id="mixed-inert"),
        ],
    )
    def test_per_fiber_count_matches_points(self, q5, amb, equations, p):
        """#N counted a fiber at a time equals #N counted point by point, with
        f evaluated term by term."""
        eqs = tuple(parse_poly(src, q5, amb) for src in equations)
        V = VarietySpec(amb=amb, codim=len(eqs), equations=eqs, declared_degree=2)
        f = parse_poly("x1 - 2", q5, 1)
        pf = factor_ideal(q5, principal_ideal(q5, (p, 0)))[0]
        ctx = prime_ctx(q5, pf)
        in_p = [eval_poly(f, (r,), ctx) == q5.zero for r in residues(ctx)]
        points = [
            (i,) + rest for rest, x1s in polys.smooth_points(ctx, V) for i in x1s
        ]
        count_n = sum(any(in_p[i] for i in point) for point in points)
        assert 0 < count_n < len(points)
        ld = local_counts(q5, V, f, pf)
        assert (ld.count_X, ld.count_N) == (len(points), count_n)

    def test_no_point_evaluates_no_f(self, rat, monkeypatch):
        # 2 is not a square mod 11, so x1^2 = 2 has no point there
        calls = []
        exunit_flags = counting._exunit_flags

        def counted(*args):
            calls.append(args)
            return exunit_flags(*args)

        monkeypatch.setattr(counting, "_exunit_flags", counted)
        V = VarietySpec(
            amb=1,
            codim=1,
            equations=(parse_poly("x1^2 - 2", rat, 1),),
            declared_degree=2,
        )
        pf = factor_ideal(rat, principal_ideal(rat, (11,)))[0]
        ld = local_counts(rat, V, parse_poly("x1 - 1", rat, 1), pf)
        assert (ld.count_X, ld.count_N) == (0, 0)
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_at_prime_moduli(self, data):
        """The field arithmetic of the sweep against the oracle, which counts
        mod P on tuples: the quartic x^4 + 1 and rings of degree 1 to 3, the
        mixed monomial x1*x2 - 1, the codim-2 curve and random hypersurfaces."""
        quartic = [1, 0, 0, 0, 1]  # x^4 + 1
        ring = make_number_ring(data.draw(st.sampled_from(RINGS + [quartic])))
        kind = data.draw(st.sampled_from(["mixed", "curve", "random"]))
        if kind == "mixed":
            amb, sources = 2, ["x1*x2 - 1"]
        elif kind == "curve":
            amb, sources = 3, ["x1^2 + x2^2 - 1", "x3 - x1*x2"]
        else:
            amb, sources = data.draw(st.integers(1, 2)), []
        equations = tuple(parse_poly(src, ring, amb) for src in sources) or (
            data.draw(_polys(ring, amb, nonconstant=True)),
        )
        V = VarietySpec(
            amb=amb, codim=len(equations), equations=equations, declared_degree=2
        )
        primes = [
            pf
            for p in (2, 3, 5, 7, 11, 13)
            for pf in prime_ideals_above(ring, p)
            if pf.norm ** amb <= 2500
        ]
        pf = data.draw(st.sampled_from(primes))
        event(f"q = {pf.norm}")
        f = data.draw(_polys(ring, 1, nonconstant=True))
        try:
            ld = local_counts(ring, V, f, pf)
        except BadReduction as exc:
            event("bad reduction")
            J = jacobian(ring, V)
            assert jacobian_rank_at(J, exc.witness, prime_ctx(ring, pf)) != V.codim
            return
        fibers = polys.variety_indices(residue_ctx(ring, pf.hnf), V, polys.DEFAULT_CAP)
        assert ld.count_X == sum(len(x1s) for _, x1s in fibers)
        assert ld.count_X - ld.count_N == brute_force_count(ring, V, f, pf.hnf)


@st.composite
def _maybe_in_p(draw, ring, p):
    """A nonzero element, or, one time in four, p times one, which lies in
    every prime above p."""
    x = draw(_elements(ring))
    return tuple(p * c for c in x) if draw(st.integers(0, 3)) == 0 else x


class TestQuadricClosedForm:
    """``counting._quadric_counts`` against the oracle at the prime P."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, data):
        """#X against the fibers of ``variety_indices`` and #X - #N against
        ``brute_force_count`` mod P, over rings of degree 1 to 4 and amb 1 to
        4: non-unit a_i and p = 2 fall back to the sweep, c = 0 mod P raises
        the sweep's witness, and the cap refuses what the sweep refuses."""
        quartic = [1, 0, 0, 0, 1]  # x^4 + 1
        ring = make_number_ring(data.draw(st.sampled_from(RINGS + [quartic])))
        amb = data.draw(st.integers(1, 4))
        primes = [
            pf
            for p in (2, 3, 5, 7, 11, 13)
            for pf in prime_ideals_above(ring, p)
            if pf.norm ** amb <= 2500
        ]
        odd = [pf for pf in primes if pf.p != 2]
        # one time in eight at p = 2; at the other odd primes when none fits
        if odd and data.draw(st.integers(0, 7)):
            primes = odd
        pf = data.draw(st.sampled_from(primes))
        p, q = pf.p, pf.norm
        a = [data.draw(_elements(ring)) for _ in range(amb)]
        if data.draw(st.integers(0, 4)) == 0:  # one a_i in P
            i = data.draw(st.integers(0, amb - 1))
            a[i] = tuple(p * x for x in a[i])
        terms = {
            tuple(2 * (j == i) for j in range(amb)): x for i, x in enumerate(a)
        }
        c = None if data.draw(st.integers(0, 5)) == 0 else data.draw(
            _maybe_in_p(ring, p)
        )
        if c is not None:
            terms[(0,) * amb] = c
        V = VarietySpec(
            amb=amb,
            codim=1,
            equations=(MultiPoly(amb=amb, terms=terms),),
            declared_degree=2,
        )
        degree = data.draw(st.integers(1, 3))
        f_terms = {(degree,): data.draw(_maybe_in_p(ring, p))}
        for e in range(degree):
            if data.draw(st.booleans()):
                f_terms[(e,)] = data.draw(_maybe_in_p(ring, p))
        f = MultiPoly(amb=1, terms=f_terms)
        cap = q ** amb - 1 if data.draw(st.integers(0, 5)) == 0 else polys.DEFAULT_CAP
        ctx = prime_ctx(ring, pf)
        in_p = [is_zero(reduce_mod(ctx, x)) for x in a]
        refused = q % 2 == 0 or any(in_p)
        try:
            counts = counting._quadric_counts(ctx, V, f, cap)
        except CapExceeded:
            event("cap")
            assert not refused and q ** amb > cap
            with pytest.raises(CapExceeded):
                polys.smooth_points(prime_ctx(ring, pf), V, cap)
            return
        except BadReduction as exc:
            event("c = 0 mod P")
            assert not refused and (c is None or is_zero(reduce_mod(ctx, c)))
            with pytest.raises(BadReduction) as swept:
                list(polys.smooth_points(prime_ctx(ring, pf), V, cap))
            assert (exc.prime, exc.witness) == (
                swept.value.prime,
                swept.value.witness,
            )
            return
        assert (counts is None) == refused
        if counts is None:
            event("p = 2" if q % 2 == 0 else "a_i in P")
            return
        event(f"closed form, deg f = {degree}")
        count_x, count_n = counts
        assert q ** amb <= cap
        fibers = polys.variety_indices(residue_ctx(ring, pf.hnf), V, polys.DEFAULT_CAP)
        assert count_x == sum(len(x1s) for _, x1s in fibers)
        assert count_x - count_n == brute_force_count(ring, V, f, pf.hnf)
        ld = local_counts(ring, V, f, pf, cap=cap)
        assert (ld.count_X, ld.count_N) == counts

    @pytest.mark.parametrize("constant, count_n", [("0", 8), ("1", 0)])
    def test_linear_f_with_lead_in_p(self, rat, constant, count_n):
        """f = 7 x1 + d at p = 7 is the constant d mod 7: every point is in N
        when d = 0 mod 7, and none is otherwise."""
        V = VarietySpec(
            amb=2,
            codim=1,
            equations=(parse_poly("x1^2 + x2^2 - 1", rat, 2),),
            declared_degree=2,
        )
        f = parse_poly(f"7*x1 + {constant}", rat, 1)
        pf = factor_ideal(rat, principal_ideal(rat, (7,)))[0]
        counts = counting._quadric_counts(prime_ctx(rat, pf), V, f, polys.DEFAULT_CAP)
        assert counts == (8, count_n)
        assert 8 - count_n == brute_force_count(rat, V, f, pf.hnf)


def _prime_power_count(ring, V, f, pf, e):
    """The product formula modulo pf^e."""
    factors = factor_ideal(ring, ideal_pow(ring, pf.hnf, e))
    return theorem1_count(ring, V, f, factors).total


class TestPrimePower:
    def test_e1_matches_local(self, q5, circle, f_x_minus_2, p3):
        assert _prime_power_count(q5, circle, f_x_minus_2, p3, 1) == 2

    def test_e2(self, q5, circle, f_x_minus_2, p3):
        assert _prime_power_count(q5, circle, f_x_minus_2, p3, 2) == 6
        sq = ideal_pow(q5, p3.hnf, 2)
        assert brute_force_count(q5, circle, f_x_minus_2, sq) == 6

    def test_zero_factor_annihilates(self, q5, circle):
        f = parse_poly("x1 - 0", q5, 1)
        pf = factor_ideal(q5, principal_ideal(q5, (5, 0)))[0]
        for e in (1, 2, 3):
            assert _prime_power_count(q5, circle, f, pf, e) == 0

    def test_recursion_property(self, q5, circle, f_x_minus_2, p3):
        base = _prime_power_count(q5, circle, f_x_minus_2, p3, 1)
        q = p3.norm
        for e in (2, 3):
            expected = q ** (e - 1) * base
            assert _prime_power_count(q5, circle, f_x_minus_2, p3, e) == expected
            assert (
                brute_force_count(
                    q5, circle, f_x_minus_2, ideal_pow(q5, p3.hnf, e)
                )
                == expected
            )


class TestTheorem1:
    def test_three(self, q5, circle, f_x_minus_2):
        n3 = factor_ideal(q5, principal_ideal(q5, (3, 0)))
        rep = theorem1_count(q5, circle, f_x_minus_2, n3)
        assert rep.total == 4
        assert [ld.factor for ld in rep.locals] == [Fraction(2, 3), Fraction(2, 3)]

    def test_p3_squared(self, q5, circle, f_x_minus_2, p3):
        factors = factor_ideal(q5, ideal_pow(q5, p3.hnf, 2))
        rep = theorem1_count(q5, circle, f_x_minus_2, factors)
        assert rep.total == 6

    def test_p3_hundredth_power(self, q5, circle, f_x_minus_2, p3):
        factors = factor_ideal(q5, ideal_pow(q5, p3.hnf, 100))
        rep = theorem1_count(q5, circle, f_x_minus_2, factors)
        assert rep.total == 2 * 3 ** 99

    def test_bad_reduction_raises(self, q5, circle, f_x_minus_2):
        n2 = factor_ideal(q5, principal_ideal(q5, (2, 0)))
        with pytest.raises(BadReduction) as exc:
            theorem1_count(q5, circle, f_x_minus_2, n2)
        assert exc.value.witness == ((1, 0), (0, 0))

    def test_non_integral_product_raises(self, q5, circle, f_x_minus_2, monkeypatch):
        def half(ring, V, f, pf, cap):
            return LocalData(prime=pf, count_X=1, count_N=0, factor=Fraction(1, 2))

        monkeypatch.setattr(counting, "local_counts", half)
        n3 = factor_ideal(q5, principal_ideal(q5, (3, 0)))
        with pytest.raises(ExunitsError, match="non-integral"):
            theorem1_count(q5, circle, f_x_minus_2, n3)

    def test_non_integral_product_raises_in_asympt(
        self, q5, circle, f_x_minus_2, monkeypatch
    ):
        def half(ring, V, f, pf, cap):
            return LocalData(prime=pf, count_X=1, count_N=0, factor=Fraction(1, 2))

        monkeypatch.setattr(counting, "local_counts", half)
        family = [factor_ideal(q5, principal_ideal(q5, (3, 0)))]
        with pytest.raises(ExunitsError, match="non-integral"):
            asympt_series(q5, circle, f_x_minus_2, family)

    def test_one_sweep_per_prime(self, q5, f_x_minus_2, monkeypatch):
        # every sweep enumerates its fibers once, so this counts sweeps; the
        # cross term keeps the hyperbola off the closed form of quadrics
        calls = []
        variety_indices = polys.variety_indices

        def counted(*args):
            calls.append(args[0].prime)
            return variety_indices(*args)

        monkeypatch.setattr(polys, "variety_indices", counted)
        hyperbola = VarietySpec(
            amb=2,
            codim=1,
            equations=(parse_poly("x1*x2 - 1", q5, 2),),
            declared_degree=2,
        )
        n21 = principal_ideal(q5, (21, 0))
        rep = theorem1_count(q5, hyperbola, f_x_minus_2, factor_ideal(q5, n21))
        primes = [ld.prime for ld in rep.locals]
        assert len(primes) == 4
        assert calls == primes

    @pytest.mark.parametrize(
        "amb, source",
        [
            pytest.param(2, "x1^2 + x2^2 - 1", id="circle"),
            pytest.param(3, "x1^2 + x2^2 + x3^2 - 1", id="sphere"),
        ],
    )
    def test_quadrics_swept_only_above_two(
        self, q5, f_x_minus_2, monkeypatch, amb, source
    ):
        """The converse: a diagonal quadric is swept only at the prime above
        2; every odd prime takes the closed form."""
        calls = []
        smooth_points = polys.smooth_points

        def counted(ctx, *args):
            calls.append((ctx.prime.p, ctx.prime.h_coeffs))
            return smooth_points(ctx, *args)

        monkeypatch.setattr(counting, "smooth_points", counted)
        V = VarietySpec(
            amb=amb,
            codim=1,
            equations=(parse_poly(source, q5, amb),),
            declared_degree=2,
        )
        for p in (2, 3, 5, 7, 11, 13):
            for pf in prime_ideals_above(q5, p):
                try:
                    local_counts(q5, V, f_x_minus_2, pf)
                except BadReduction:
                    assert p == 2
        assert calls == [(2, (1, 1))]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_reduction_iff_unchecked(self, data):
        """BadReduction exactly where a factor fails the check; else the oracle."""
        ring = make_number_ring(data.draw(st.sampled_from(RINGS)))
        amb = data.draw(st.integers(1, 3))
        n_ideal = data.draw(_moduli(ring, amb, 1000))
        norm = ideal_norm(n_ideal)
        assert norm >= 2 and norm ** amb <= 1000
        equations = tuple(
            data.draw(_polys(ring, amb))
            for _ in range(data.draw(st.integers(0, min(amb, 2))))
        )
        V = VarietySpec(
            amb=amb, codim=len(equations), equations=equations, declared_degree=2
        )
        f = data.draw(_polys(ring, 1, nonconstant=True))
        assert not f.is_constant()
        factors = factor_ideal(ring, n_ideal)
        witnesses = [(pf, check_good_reduction(ring, V, pf)) for pf in factors]
        bad = [(pf, witness) for pf, witness in witnesses if witness is not None]
        event("bad reduction" if bad else "good reduction")
        if bad:
            with pytest.raises(BadReduction) as exc:
                theorem1_count(ring, V, f, factors)
            assert (exc.value.prime, exc.value.witness) == bad[0]
        else:
            total = theorem1_count(ring, V, f, factors).total
            assert total == brute_force_count(ring, V, f, n_ideal)

    def test_integrality_and_range(self, q5, circle, f_x_minus_2):
        for n in (3, 7, 9, 21, 49):
            rep = theorem1_count(
                q5, circle, f_x_minus_2, factor_ideal(q5, principal_ideal(q5, (n, 0)))
            )
            assert isinstance(rep.total, int)
            assert 0 <= rep.total <= rep.modulus_norm ** 2


def _literal_census(ring, V, pf, k):
    """The histogram by definition: every tuple of residues mod P^k and mod
    P^(k+1) through ``eval_poly``, and each point mod P^(k+1) reduced mod
    P^k coordinate by coordinate."""
    ctx_k = residue_ctx(ring, prime_power(ring, pf, k))
    ctx_k1 = residue_ctx(ring, prime_power(ring, pf, k + 1))

    def points(ctx):
        return [
            point
            for point in product(list(residues(ctx)), repeat=V.amb)
            if all(eval_poly(eq, point, ctx) == ring.zero for eq in V.equations)
        ]

    lifts = dict.fromkeys(points(ctx_k), 0)
    for point in points(ctx_k1):
        lifts[tuple(reduce_mod(ctx_k, x) for x in point)] += 1
    return dict(Counter(lifts.values()))


# (g, p, index of the prime above p, equation, amb, the k to census at):
# split, inert and ramified primes of Q(i), Q(sqrt(-5)) and Z[2^(1/3)].  The
# guard runs on residue indices as ints at a prime of degree 1, and through
# the field tables at the inert 3 and 11 and at the prime of degree 2 above 5
# of Z[2^(1/3)].  x1*x2 - 1 and x1^2 - x1 - c are smooth at p = 2.
CENSUS_CASES = [
    ([1, 0, 1], 5, 0, "x1^2 + x2^2 - 1", 2, (1, 2)),  # split
    ([1, 0, 1], 5, 1, "x1*x2 - 1", 2, (1, 2)),
    ([1, 0, 1], 3, 0, "x1^2 + x2^2 - 1", 2, (1,)),  # inert, q = 9
    ([1, 0, 1], 3, 0, "x1^2 - x1 - 1", 1, (1, 2)),
    ([1, 0, 1], 2, 0, "x1*x2 - 1", 2, (1, 2)),  # ramified
    ([5, 0, 1], 3, 1, "x1^2 + x2^2 - 1", 2, (1, 2)),  # split
    ([5, 0, 1], 11, 0, "x1^2 - x1 - 1", 1, (1,)),  # inert, q = 121
    ([5, 0, 1], 5, 0, "x1^2 + x2^2 - 1", 2, (1,)),  # ramified
    ([5, 0, 1], 2, 0, "x1*x2 - 1", 2, (1, 2)),
    ([5, 0, 1], 2, 0, "x1^2 - x1 - 2", 1, (1, 2)),
    ([-2, 0, 0, 1], 5, 0, "x1^2 + x2^2 - 1", 2, (1, 2)),  # degree 1 above 5
    ([-2, 0, 0, 1], 5, 1, "x1^3 - x1 - 1", 1, (1, 2)),  # degree 2 above 5
    ([-2, 0, 0, 1], 3, 0, "x1^2 + x2^2 - 1", 2, (1, 2)),  # ramified
]


class TestLiftingCensus:
    def test_circle_p3(self, q5, circle, p3):
        assert lifting_census(q5, circle, p3, 1) == {3: 4}

    def test_affine_line(self, q5, p3):
        A1 = VarietySpec(amb=1, codim=0, equations=(), declared_degree=1)
        assert lifting_census(q5, A1, p3, 1) == {3: 3}

    def test_square_roots_of_one(self, rat):
        V = VarietySpec(
            amb=1,
            codim=1,
            equations=(parse_poly("x1^2 - 1", rat, 1),),
            declared_degree=2,
        )
        p5 = factor_ideal(rat, principal_ideal(rat, (5,)))[0]
        assert lifting_census(rat, V, p5, 1) == {1: 2}

    @pytest.mark.parametrize("k, calls", [(1, 2), (2, 3)])
    def test_one_sweep_of_x_mod_p(self, monkeypatch, q5, circle, p3, k, calls):
        """At k = 1 the guard's sweep of X mod P gives the points below, so
        the kernel is set up twice: mod P^2 and mod P.  At k = 2 it is also
        set up mod P^2 for the points below."""
        seen = []
        original = polys.variety_indices

        def counted(ctx, *args):
            seen.append(ctx.norm)
            return original(ctx, *args)

        monkeypatch.setattr(polys, "variety_indices", counted)
        monkeypatch.setattr(counting, "variety_indices", counted)
        assert lifting_census(q5, circle, p3, k) == {3: 4 * 3 ** (k - 1)}
        assert len(seen) == calls
        assert seen[:2] == [3 ** (k + 1), 3]

    @pytest.mark.parametrize("min_poly, p, index, src, amb, ks", CENSUS_CASES)
    def test_matches_literal_census(self, min_poly, p, index, src, amb, ks):
        ring = make_number_ring(min_poly)
        pf = prime_ideals_above(ring, p)[index]
        V = VarietySpec(amb=amb, codim=1, equations=(parse_poly(src, ring, amb),),
                        declared_degree=3)
        assert check_good_reduction(ring, V, pf) is None
        for k in ks:
            hist = lifting_census(ring, V, pf, k)
            assert hist == _literal_census(ring, V, pf, k), k
            assert list(hist) == [pf.norm ** (amb - 1)]

    @pytest.mark.parametrize(
        "min_poly, p, index, src, witness, ks",
        [
            ([5, 0, 1], 2, 0, "x1^2 + x2^2 - 1", ((1, 0), (0, 0)), (1, 2)),
            ([1, 0, 1], 2, 0, "x1^2 + x2^2 - 1", ((1, 0), (0, 0)), (1, 2)),
            ([1, 0, 1], 5, 0, "x1^2 - x2^2 - 2*x2 - 1", ((0, 0), (4, 0)), (1, 2)),
            # q = 25: the census at k = 2 is over the default cap
            ([-2, 0, 0, 1], 5, 1, "x1^2 - x2^2 - 2*x2 - 1", ((0, 0, 0), (4, 0, 0)),
             (1,)),
        ],
    )
    def test_bad_prime_witness(self, min_poly, p, index, src, witness, ks):
        """The census raises BadReduction with the first singular point of its
        guard's sweep of X mod P, at k = 1 as at k = 2."""
        ring = make_number_ring(min_poly)
        pf = prime_ideals_above(ring, p)[index]
        V = VarietySpec(amb=2, codim=1, equations=(parse_poly(src, ring, 2),),
                        declared_degree=2)
        for k in ks:
            with pytest.raises(BadReduction) as exc:
                lifting_census(ring, V, pf, k)
            assert (exc.value.prime, exc.value.witness) == (pf, witness)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_refused(self, monkeypatch, q5, k):
        """Mod P^0 the one point would lift to all 8 points of the circle, so
        {1: 8} would be wrong; the census refuses k < 1, naming k, before it
        builds any power of P."""
        V = VarietySpec(amb=2, codim=1, declared_degree=2,
                        equations=(parse_poly("x1^2 + x2^2 - 67", q5, 2),))
        p7 = prime_ideals_above(q5, 7)[0]

        def no_power(*args):
            raise AssertionError("a power of P was built")

        monkeypatch.setattr(counting, "prime_power", no_power)
        with pytest.raises(ValueError, match=f"k = {k}"):
            lifting_census(q5, V, p7, k)

    def test_cap_refuses_before_the_guard(self, monkeypatch, q5, circle):
        """Over the cap mod P^2 the census refuses at a bad prime too, and
        sweeps nothing mod P."""
        p2 = prime_ideals_above(q5, 2)[0]

        def no_sweep(*args):
            raise AssertionError("X mod P was swept")

        monkeypatch.setattr(counting, "smooth_points", no_sweep)
        with pytest.raises(CapExceeded):
            lifting_census(q5, circle, p2, 1, cap=4 ** 2 - 1)


class TestExample25:
    def test_corrected_three(self, q5):
        rep = example25_count(q5, 2, 1, factor_ideal(q5, principal_ideal(q5, (3, 0))))
        assert rep.total == 4

    def test_strict_three(self, q5):
        rep = example25_count(
            q5, 2, 1, factor_ideal(q5, principal_ideal(q5, (3, 0))), mode="strict_paper"
        )
        assert rep.total == 9

    def test_inert_eleven_both_modes(self, q5):
        n11 = factor_ideal(q5, principal_ideal(q5, (11, 0)))
        for mode in ("corrected", "strict_paper"):
            assert example25_count(q5, 0, 1, n11, mode=mode).total == 116

    def test_matches_theorem_and_brute_on_good_cases(self, q5):
        cases = [(2, 1, 3), (0, 1, 11), (1, 3, 7), (0, 1, 21), (2, 1, 9)]
        for a, c, n in cases:
            n_ideal = principal_ideal(q5, (n, 0))
            factors = factor_ideal(q5, n_ideal)
            eq = parse_poly(f"x1^2 + x2^2 - ({c})", q5, 2)
            V = VarietySpec(amb=2, codim=1, equations=(eq,), declared_degree=2)
            f = parse_poly(f"x1 - ({a})", q5, 1)
            closed = example25_count(q5, a, c, factors).total
            formula = theorem1_count(q5, V, f, factors).total
            brute = brute_force_count(q5, V, f, n_ideal)
            assert closed == formula == brute, (a, c, n)

    def test_matches_theorem_on_a_grid(self, q5):
        """The corrected mode is Theorem 1 at split, inert and ramified
        primes, prime by prime, with int counts; the strict mode agrees
        wherever c - a^2 is nonzero at every split or ramified prime, where
        chi is -1 or 1 rather than 0."""

        def local_data(report):
            return [
                (ld.prime.p, ld.prime.h_coeffs, ld.prime.exponent)
                + (ld.count_X, ld.count_N, ld.factor)
                for ld in report.locals
            ]

        strict_checked = strict_skipped = 0
        for n in (3, 5, 7, 11, 13, 17, 19, 21, 23, 35):
            factors = factor_ideal(q5, principal_ideal(q5, (n, 0)))
            degree_one = [pf.p for pf in factors if pf.f_res == 1]
            for c in (1, -1, 7, -7):
                if gcd(n * n, 2 * c) != 1:
                    continue
                eq = parse_poly(f"x1^2 + x2^2 - ({c})", q5, 2)
                V = VarietySpec(amb=2, codim=1, equations=(eq,), declared_degree=2)
                for a in range(-3, 6):
                    f = parse_poly(f"x1 - ({a})", q5, 1)
                    theorem = theorem1_count(q5, V, f, factors)
                    formula = theorem.total
                    closed = example25_count(q5, a, c, factors)
                    assert closed.total == formula, (n, a, c)
                    assert local_data(closed) == local_data(theorem), (n, a, c)
                    assert all(type(ld.count_N) is int for ld in closed.locals)
                    if all((c - a * a) % p for p in degree_one):
                        strict = example25_count(
                            q5, a, c, factors, mode="strict_paper"
                        ).total
                        assert strict == formula, (n, a, c)
                        strict_checked += 1
                    else:
                        strict_skipped += 1
        assert strict_checked and strict_skipped

    def test_wrong_ring(self, rat):
        with pytest.raises(NotQSqrtMinus5):
            example25_count(rat, 2, 1, factor_ideal(rat, principal_ideal(rat, (3,))))

    def test_bad_modulus(self, q5):
        with pytest.raises(BadModulus):
            example25_count(q5, 2, 1, factor_ideal(q5, principal_ideal(q5, (2, 0))))
        with pytest.raises(BadModulus):
            example25_count(q5, 2, 3, factor_ideal(q5, principal_ideal(q5, (3, 0))))


class TestLangWeil:
    def test_linear_space_no_deviation(self, rat):
        V = VarietySpec(
            amb=2,
            codim=1,
            equations=(parse_poly("x1 + x2", rat, 2),),
            declared_degree=1,
        )
        for p in (3, 5, 11):
            pf = factor_ideal(rat, principal_ideal(rat, (p,)))[0]
            assert langweil_deviation(rat, V, pf)["deviation"] == 0

    @pytest.mark.parametrize("p,count", [(13, 12), (7, 8)])
    def test_circle_over_q(self, rat, p, count):
        V = VarietySpec(
            amb=2,
            codim=1,
            equations=(parse_poly("x1^2 + x2^2 - 1", rat, 2),),
            declared_degree=2,
        )
        pf = factor_ideal(rat, principal_ideal(rat, (p,)))[0]
        rec = langweil_deviation(rat, V, pf)
        assert rec["count_X"] == count
        assert rec["deviation"] == 1
        assert rec["deviation"] <= rec["bound"]


class TestDegreeTwoDichotomy:
    """The paper's last claim: on a variety of degree 2 the deviation of #X
    from q^r is much smaller than on one of higher degree."""

    @pytest.mark.parametrize("g", [[0, 1], [5, 0, 1]])
    @pytest.mark.parametrize(
        "amb, source",
        [(2, "x1^2 + x2^2 - 1"), (3, "x1^2 + x2^2 + x3^2 - 1")],
        ids=["circle", "sphere"],
    )
    def test_quadrics_within_q_to_r_minus_half(self, g, amb, source):
        ring = make_number_ring(g)
        V = VarietySpec(
            amb=amb,
            codim=1,
            equations=(parse_poly(source, ring, amb),),
            declared_degree=2,
        )
        f = parse_poly("x1 - 2", ring, 1)
        r, good = amb - 1, 0
        for pf in prime_ideals_up_to(ring, 200):
            try:
                count_x = local_counts(ring, V, f, pf).count_X
            except BadReduction:
                assert pf.p == 2
                continue
            good += 1
            q = pf.norm
            assert abs(count_x - q ** r) <= q ** (r - 0.5)
            # even within q^(r-1), where the cubic below is not
            assert abs(count_x - q ** r) <= q ** (r - 1)
        assert good >= 40

    def test_cubic_curve_exceeds_q_to_r_minus_one(self, rat):
        """x2^2 = x1^3 + x1 + 1, of discriminant -496 = -16 * 31, is good at
        every p < 50 but 2 and 31; its deviation is |a_p| <= 2 sqrt(p)."""
        V = VarietySpec(
            amb=2,
            codim=1,
            equations=(parse_poly("x2^2 - x1^3 - x1 - 1", rat, 2),),
            declared_degree=3,
        )
        f = parse_poly("x1 - 2", rat, 1)
        deviations = {}
        for pf in prime_ideals_up_to(rat, 49):
            try:
                count_x = local_counts(rat, V, f, pf).count_X
            except BadReduction:
                assert pf.p in (2, 31)
                continue
            deviations[pf.p] = abs(count_x - pf.p)
        assert len(deviations) == 13
        assert any(dev > 1 for dev in deviations.values())  # q^(r-1) = 1
        assert all(dev <= 2 * p ** 0.5 + 1 for p, dev in deviations.items())


class TestAsympt:
    def test_three(self, q5, circle, f_x_minus_2):
        records = asympt_series(
            q5, circle, f_x_minus_2, [factor_ideal(q5, principal_ideal(q5, (3, 0)))]
        )
        assert len(records) == 1
        r = records[0]
        assert (r.N, r.count, r.omega) == (9, 4, 2)
        assert r.ratio == Fraction(4, 9)
        assert abs(r.sum_inv_sqrt - 2 / 3 ** 0.5) < 1e-12
        assert abs(r.sum_inv - 2 / 3) < 1e-12
        assert abs(r.max_local_dev - 1 / 3) < 1e-12

    def test_single_prime(self, q5, circle, f_x_minus_2, p3):
        records = asympt_series(q5, circle, f_x_minus_2, [factor_ideal(q5, p3.hnf)])
        r = records[0]
        assert (r.N, r.count, r.omega) == (3, 2, 1)
        assert r.ratio == Fraction(2, 3)

    def test_empty_family(self, q5, circle, f_x_minus_2):
        assert asympt_series(q5, circle, f_x_minus_2, []) == []
        with pytest.raises(UnitIdeal):
            asympt_series(q5, circle, f_x_minus_2, [[]])

    def test_bad_reduction_skipped(self, q5, circle, f_x_minus_2):
        records = asympt_series(
            q5,
            circle,
            f_x_minus_2,
            [
                factor_ideal(q5, principal_ideal(q5, (2, 0))),
                factor_ideal(q5, principal_ideal(q5, (3, 0))),
            ],
        )
        assert len(records) == 1
        assert records[0].N == 9

    def test_good_reduction_primes_circle(self, q5, circle):
        primes = good_reduction_primes(q5, circle, 10)
        # 2 is bad; 3 and 7 split (two primes each); the ramified prime
        # above 5 still reduces smoothly for c = 1
        assert sorted({pf.p for pf in primes}) == [3, 5, 7]
        assert len(primes) == 5

    def test_each_prime_swept_once(self, q5, circle, f_x_minus_2, monkeypatch):
        swept = []

        def counted(ring, V, f, pf, cap):
            swept.append((pf.p, pf.h_coeffs))
            return local_counts(ring, V, f, pf, cap=cap)

        monkeypatch.setattr(counting, "local_counts", counted)
        family = [
            factor_ideal(q5, principal_ideal(q5, (n, 0))) for n in (2, 6, 3, 9, 2)
        ]
        records = asympt_series(q5, circle, f_x_minus_2, family)
        # the bad prime above 2 is swept once and skips all three of its moduli
        assert [r.N for r in records] == [9, 81]
        assert sorted(swept) == [(2, (1, 1)), (3, (1, 1)), (3, (2, 1))]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_family_matches_theorem1_and_oracle(self, data):
        """Each record equals the product formula on the reassembled modulus,
        and the oracle where it is small enough to enumerate."""
        ring = make_number_ring(data.draw(st.sampled_from([[5, 0, 1], [-2, 0, 0, 1]])))
        amb = data.draw(st.integers(1, 2))
        equations = tuple(
            data.draw(_polys(ring, amb)) for _ in range(data.draw(st.integers(0, 1)))
        )
        V = VarietySpec(
            amb=amb, codim=len(equations), equations=equations, declared_degree=2
        )
        f = data.draw(_polys(ring, 1, nonconstant=True))
        primes = [pf for p in (2, 3, 5, 7) for pf in prime_ideals_above(ring, p)]
        members = st.lists(
            st.tuples(st.sampled_from(primes), st.integers(1, 3)),
            min_size=1,
            max_size=2,
            unique_by=lambda t: (t[0].p, t[0].h_coeffs),
        )
        family = [
            [pf._replace(exponent=e) for pf, e in member]
            for member in data.draw(st.lists(members, min_size=1, max_size=4))
        ]
        expected = []
        for factors in family:
            n_ideal = unit_ideal(ring)
            for pf in factors:
                n_ideal = ideal_mul(ring, n_ideal, ideal_pow(ring, pf.hnf, pf.exponent))
            try:
                total = theorem1_count(ring, V, f, factor_ideal(ring, n_ideal)).total
            except BadReduction:
                continue
            norm = ideal_norm(n_ideal)
            if norm ** amb <= 2000:
                assert total == brute_force_count(ring, V, f, n_ideal)
            expected.append((describe_ideal(ring, n_ideal), norm, total))
        event(f"{len(expected)} of {len(family)} moduli kept")
        records = asympt_series(ring, V, f, family)
        assert [(r.description, r.N, r.count) for r in records] == expected

    @pytest.mark.parametrize(
        "min_poly, equation, max_norm",
        [
            ([5, 0, 1], "x1^2 + x2^2 - 1", 60),
            ([-2, 0, 0, 1], "x1^2 + x2^2 + x3^2 - 1", 40),
        ],
        ids=["circle-sqrt-5", "sphere-cbrt-2"],
    )
    def test_records_recomputed(self, min_poly, equation, max_norm):
        """Each record of the primes and their products of two, as asympt
        --products 2 lists them, against the count of its modulus rebuilt
        from its factors and the terms recomputed exactly, with the float
        sums taken in the order of the factors."""
        ring = make_number_ring(min_poly)
        amb = equation.count("^")
        V = VarietySpec(
            amb=amb,
            codim=1,
            equations=(parse_poly(equation, ring, amb),),
            declared_degree=2,
        )
        f = parse_poly("x1 - 2", ring, 1)
        primes = list(prime_ideals_up_to(ring, max_norm))
        family = [[pf] for pf in primes] + [list(m) for m in combinations(primes, 2)]
        expected = []
        for factors in family:
            n_ideal = ideal_of_factors(ring, factors)
            try:
                report = theorem1_count(ring, V, f, factor_ideal(ring, n_ideal))
            except BadReduction:
                continue
            N = ideal_norm(n_ideal)
            dev = max(abs(ld.factor - 1) for ld in report.locals)
            inv_sqrt = inv = 0.0
            for pf in factors:
                inv_sqrt += pf.norm ** -0.5
                inv += 1.0 / pf.norm
            expected.append(
                AsymptRecord(
                    description=describe_ideal(ring, n_ideal),
                    N=N,
                    count=report.total,
                    ratio=Fraction(report.total, N ** (amb - 1)),
                    omega=len(factors),
                    sum_inv_sqrt=inv_sqrt,
                    sum_inv=inv,
                    max_local_dev=float(dev),
                )
            )
        assert len(family) > len(expected) > 30
        assert asympt_series(ring, V, f, family) == expected

    def test_describe_ideal(self, q5, p3):
        assert describe_ideal(q5, ideal_pow(q5, p3.hnf, 2)) == "(3,[1,1])^2"
        assert (
            describe_ideal(q5, principal_ideal(q5, (3, 0)))
            == "(3,[1,1])*(3,[2,1])"
        )


class TestMultiplicativity:
    def test_non_smooth_cross(self, q5):
        # x1 * x2 = 0 is singular at the origin; Lemma-style multiplicativity
        # must hold regardless, by brute force
        cross = VarietySpec(
            amb=2,
            codim=1,
            equations=(parse_poly("x1 * x2", q5, 2),),
            declared_degree=2,
        )
        f = parse_poly("x1 - 1", q5, 1)
        m = principal_ideal(q5, (3, 0))
        n = hnf_from_generators(q5, [(7, 0), (3, 1)])
        mn = ideal_mul(q5, m, n)
        assert brute_force_count(q5, cross, f, mn) == brute_force_count(
            q5, cross, f, m
        ) * brute_force_count(q5, cross, f, n)


# each call enumerates 3^2 points mod P3; the census also 9^2 mod P3^2
@pytest.mark.parametrize(
    "call, cap",
    [
        (lambda q5, V, f, p3, cap: check_good_reduction(q5, V, p3, cap=cap), 5),
        (lambda q5, V, f, p3, cap: local_counts(q5, V, f, p3, cap=cap), 5),
        (lambda q5, V, f, p3, cap: lifting_census(q5, V, p3, 1, cap=cap), 20),
        (lambda q5, V, f, p3, cap: langweil_deviation(q5, V, p3, cap=cap), 5),
        (
            lambda q5, V, f, p3, cap: brute_force_count(
                q5, V, f, principal_ideal(q5, (3, 0)), cap=cap
            ),
            20,
        ),
    ],
    ids=[
        "check_good_reduction",
        "local_counts",
        "lifting_census",
        "langweil_deviation",
        "brute_force_count",
    ],
)
def test_enumeration_cap(q5, circle, f_x_minus_2, p3, call, cap):
    with pytest.raises(CapExceeded):
        call(q5, circle, f_x_minus_2, p3, cap)
