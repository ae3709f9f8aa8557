import itertools
import math
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from exunits import (
    FactorCapExceeded,
    NotFullRank,
    UnitIdeal,
    ZeroIdeal,
    elem_mul,
    factor_ideal,
    factor_poly_mod_p,
    hnf_from_generators,
    ideal_contains,
    ideal_mul,
    ideal_norm,
    ideal_pow,
    make_number_ring,
    prime_ideals_above,
    prime_power,
    principal_ideal,
    unit_ideal,
)
from exunits import fpoly, ideals
from exunits.ideals import (
    _multiplicity,
    _not_maximal_at,
    ideal_of_factors,
    prime_ideals_up_to,
    valuation,
)


@pytest.fixture
def q5():
    return make_number_ring([5, 0, 1])


@pytest.fixture
def p3(q5):
    return hnf_from_generators(q5, [(3, 0), (1, 1)])


class TestHNF:
    def test_golden_p3(self, q5, p3):
        assert p3.basis == ((3, 0), (1, 1))

    def test_principal_rational(self, q5):
        I = hnf_from_generators(q5, [(3, 0)])
        assert I.basis == ((3, 0), (0, 3))

    def test_zero_ideal(self, q5):
        with pytest.raises(ZeroIdeal):
            hnf_from_generators(q5, [(0, 0)])

    def test_idempotent(self, q5, p3):
        again = hnf_from_generators(q5, list(p3.basis))
        assert again.basis == p3.basis


class TestNormMulContains:
    def test_norms(self, q5, p3):
        assert ideal_norm(p3) == 3
        assert ideal_norm(hnf_from_generators(q5, [(3, 0)])) == 9
        assert ideal_norm(unit_ideal(q5)) == 1

    def test_conjugate_product_is_three(self, q5, p3):
        p3bar = hnf_from_generators(q5, [(3, 0), (-1, 1)])
        prod = ideal_mul(q5, p3, p3bar)
        assert prod.basis == ((3, 0), (0, 3))

    def test_p3_squared(self, q5, p3):
        assert ideal_mul(q5, p3, p3).basis == ((9, 0), (7, 1))

    def test_mul_by_unit_ideal(self, q5, p3):
        assert ideal_mul(q5, p3, unit_ideal(q5)).basis == p3.basis

    def test_contains(self, q5, p3):
        assert ideal_contains(p3, (1, 1))
        assert not ideal_contains(p3, (0, 1))
        assert ideal_contains(p3, (0, 0))


@settings(max_examples=200, deadline=None)
@given(
    min_poly=st.sampled_from([[1, 0, 1], [5, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1]]),
    data=st.data(),
)
def test_contains_matches_hnf_of_the_extended_generators(min_poly, data):
    """a lies in I exactly when adding a to the generators of I leaves the
    HNF unchanged, over Q(i), Q(sqrt(-5)), Z[2^(1/3)] and x^4 + 1, for a in
    I, just outside it, and anywhere."""
    ring = make_number_ring(min_poly)
    coords = st.lists(st.integers(-60, 60), min_size=ring.deg, max_size=ring.deg)
    gens = data.draw(st.lists(coords, min_size=1, max_size=3))
    assume(any(any(g) for g in gens))
    I = hnf_from_generators(ring, gens)
    # an element of I moved by a vector of -1, 0 and 1, or any a
    member = [0] * ring.deg
    for row in I.basis:
        k = data.draw(st.integers(-3, 3))
        member = [m + k * r for m, r in zip(member, row)]
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=ring.deg, max_size=ring.deg))
    a = data.draw(st.one_of(st.just([m + s for m, s in zip(member, shift)]), coords))
    inside = ideal_contains(I, tuple(a))
    event("in I" if inside else "not in I")
    assert inside == (hnf_from_generators(ring, list(I.basis) + [tuple(a)]) == I)


@settings(max_examples=200, deadline=None)
@given(
    num=st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=8),
    den=st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=4),
    lead=st.integers(-10 ** 30, 10 ** 30),
    modulus=st.sampled_from([2, 3, 37, 2 ** 61 - 1, 23 ** 40]),
)
def test_poly_divmod_is_division_with_remainder(num, den, lead, modulus):
    """num = quot*den + rem mod m, with rem trimmed and of lower degree than
    den, for den with a unit leading coefficient mod m: mod a prime, and mod
    a prime power, as the Hensel lift divides by a monic factor."""
    if math.gcd(lead, modulus) != 1:
        lead = 1
    divisor = den + [lead]
    quot, rem = fpoly.divmod_(num, divisor, modulus)
    diff = [0] * (len(num) + len(quot) + len(divisor))
    for i, a in enumerate(quot):
        for j, b in enumerate(divisor):
            diff[i + j] += a * b
    for i, c in enumerate(rem):
        diff[i] += c
    for i, c in enumerate(num):
        diff[i] -= c
    assert all(c % modulus == 0 for c in diff)
    assert len(rem) < len(divisor) and (not rem or rem[-1] % modulus)
    assert all(0 <= c < modulus for c in quot + rem)


class TestPolyFactorModP:
    def test_split(self, q5):
        assert factor_poly_mod_p(q5.min_poly, 3) == [((1, 1), 1), ((2, 1), 1)]

    def test_inert(self, q5):
        assert factor_poly_mod_p(q5.min_poly, 11) == [((5, 0, 1), 1)]

    def test_ramified(self, q5):
        assert factor_poly_mod_p(q5.min_poly, 5) == [((0, 1), 2)]

    def test_degree_four(self):
        # x^4 + 1 mod 2 = (x + 1)^4
        assert factor_poly_mod_p((1, 0, 0, 0, 1), 2) == [((1, 1), 4)]

    def test_candidate_bound(self, monkeypatch):
        # x^4 + 1 mod 7 may try the 7 + 7^2 monic candidates of degree 1 and 2
        monkeypatch.setattr(ideals, "MAX_FACTOR_CANDIDATES", 56)
        assert factor_poly_mod_p((1, 0, 0, 0, 1), 7) == [((1, 3, 1), 1), ((1, 4, 1), 1)]
        monkeypatch.setattr(ideals, "MAX_FACTOR_CANDIDATES", 55)
        with pytest.raises(FactorCapExceeded, match="56 candidates"):
            factor_poly_mod_p((1, 0, 0, 0, 1), 7)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_product_reconstructs(self, q5, p):
        g = [c % p for c in q5.min_poly]
        acc = [1]
        for h, mult in factor_poly_mod_p(q5.min_poly, p):
            for _ in range(mult):
                new = [0] * (len(acc) + len(h) - 1)
                for i, a in enumerate(acc):
                    for j, b in enumerate(h):
                        new[i + j] = (new[i + j] + a * b) % p
                acc = new
        assert acc == g

    def test_one_pass(self, monkeypatch):
        """x^4 + 1 mod 17 has four simple roots, found by one sweep over F_17
        with no division.  They use up the degree, so each root r costs one
        division by x - r, which leaves no remainder: 4 in all, where a
        second division at each root, to find that it does not divide again,
        made 8, and trial division over the 17 linear candidates made 12."""
        calls = _counted(monkeypatch, "divmod_", fpoly)
        assert factor_poly_mod_p((1, 0, 0, 0, 1), 17) == [
            ((2, 1), 1), ((8, 1), 1), ((9, 1), 1), ((15, 1), 1)
        ]
        assert len(calls) == 4
        assert {tuple(den) for _, den, _ in calls} == {
            (2, 1), (8, 1), (9, 1), (15, 1)
        }

    def test_listing_takes_roots_alone_past_the_square_root(self, monkeypatch):
        """Listing the primes of x^4 + 1 up to norm 400 needs no factor of
        degree 2 at p > 20, where p^2 > 400: no quadratic candidate is tried
        there.  At p = 19, which is 3 mod 8, the two quadratic factors, of
        norm 361, are found by trial division and listed."""
        ring = make_number_ring([1, 0, 0, 0, 1])
        calls = _counted(monkeypatch, "divmod_", fpoly)
        listed = list(prime_ideals_up_to(ring, 400))
        quadratic = {p for _, den, p in calls if len(den) == 3}
        assert 19 in quadratic and max(quadratic) < 20
        assert all(pf.norm <= 400 for pf in listed)
        assert max(pf.p for pf in listed if pf.f_res == 2) == 19


def _counted(monkeypatch, name, module=ideals):
    """Record the arguments of every call to ``<module>.<name>``."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _poly_product_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _monic_polys_mod_p(degree, p):
    """Every monic polynomial of the degree mod p, constant first."""
    return ([*low, 1] for low in itertools.product(range(p), repeat=degree))


PRIMES_BELOW_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _trial_division_factors(poly, p):
    """The reference factorization mod p: one pass of trial division.  For
    d = 1, 2, ... while 2d is at most the degree of what is left, each monic
    candidate of degree d, in lexicographic order, is divided out for as
    long as it divides; what is left at the end is irreducible."""
    work = [c % p for c in poly]  # poly is monic: nothing to trim
    factors = {}
    degree = 1
    while 2 * degree <= len(work) - 1:
        for cand in _monic_polys_mod_p(degree, p):
            while 2 * degree <= len(work) - 1:
                quot, rem = fpoly.divmod_(work, cand, p)
                if rem:
                    break
                factors[tuple(cand)] = factors.get(tuple(cand), 0) + 1
                work = quot
        degree += 1
    if len(work) > 1:
        factors[tuple(work)] = factors.get(tuple(work), 0) + 1
    return sorted(factors.items())


@st.composite
def _monic_with_roots(draw):
    """(g, p): g monic of degree 1 to 6 with coefficients of any size, p a
    prime below 50.  A third of them are built as (x - r)^m times a monic
    cofactor, with m >= 2, so that g has a repeated root mod p."""
    p = draw(st.sampled_from(PRIMES_BELOW_50))
    coeffs = st.integers(-10 ** 6, 10 ** 6)
    if draw(st.integers(0, 2)):
        return draw(st.lists(coeffs, min_size=1, max_size=6)) + [1], p
    r, m = draw(st.integers(0, p - 1)), draw(st.integers(2, 4))
    g = [1]
    for _ in range(m):
        g = _poly_product_mod_p(g, [-r % p, 1], p)
    g = _poly_product_mod_p(g, draw(st.lists(coeffs, max_size=6 - m)) + [1], p)
    # any lift of g mod p: add multiples of p below the leading coefficient
    lifts = draw(st.lists(st.integers(-100, 100), min_size=len(g), max_size=len(g)))
    return [c + p * k for c, k in zip(g[:-1], lifts)] + [1], p


@settings(max_examples=300, deadline=None)
@given(case=_monic_with_roots())
def test_factor_poly_mod_p_matches_trial_division(case):
    """The root sweep and the trial division past it give the factors, and
    their multiplicities, that one pass of trial division gives."""
    g, p = case
    event(f"p = {p}")
    assert factor_poly_mod_p(g, p) == _trial_division_factors(g, p)


@settings(max_examples=300, deadline=None)
@given(case=_monic_with_roots(), max_degree=st.integers(1, 6))
def test_bounded_factoring_matches_trial_division(case, max_degree):
    """With a degree bound d, the factors are those of one pass of trial
    division of degree at most d, and the candidate cap counts only the
    monic candidates of degree 1 to min(d, half the degree of g): a cap of
    exactly that many admits g, and one less refuses it."""
    g, p = case
    event(f"d = {max_degree}")
    expected = [
        (h, mult) for h, mult in _trial_division_factors(g, p) if len(h) - 1 <= max_degree
    ]
    candidates = sum(p ** k for k in range(1, min(max_degree, (len(g) - 1) // 2) + 1))
    cap = ideals.MAX_FACTOR_CANDIDATES
    try:
        ideals.MAX_FACTOR_CANDIDATES = candidates
        assert factor_poly_mod_p(g, p, max_degree) == expected
        ideals.MAX_FACTOR_CANDIDATES = candidates - 1
        if candidates:
            with pytest.raises(FactorCapExceeded, match=f" {candidates} candidates"):
                factor_poly_mod_p(g, p, max_degree)
    finally:
        ideals.MAX_FACTOR_CANDIDATES = cap


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from(PRIMES_BELOW_50),
    low=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6),
)
def test_factor_poly_mod_p_matches_reference(p, low):
    """Each factor is monic and irreducible (no monic divisor of degree up to
    half its own, tried one by one), the factors multiply back to g mod p,
    and the output is sorted with no factor repeated."""
    g = low + [1]
    factors = factor_poly_mod_p(g, p)
    product = [1]
    for h, mult in factors:
        h = list(h)
        assert h[-1] == 1 and all(0 <= c < p for c in h) and mult >= 1
        degree = len(h) - 1
        for d in range(1, degree // 2 + 1):
            for cand in _monic_polys_mod_p(d, p):
                assert fpoly.divmod_(h, cand, p)[1], (h, cand)
        for _ in range(mult):
            product = _poly_product_mod_p(product, h, p)
    assert product == [c % p for c in g]
    keys = [h for h, _ in factors]
    assert keys == sorted(set(keys))


class TestFactorIdeal:
    def test_split_three(self, q5):
        fs = factor_ideal(q5, principal_ideal(q5, (3, 0)))
        assert [(f.p, f.h_coeffs, f.e_ram, f.f_res, f.exponent) for f in fs] == [
            (3, (1, 1), 1, 1, 1),
            (3, (2, 1), 1, 1, 1),
        ]

    def test_ramified_five(self, q5):
        fs = factor_ideal(q5, principal_ideal(q5, (5, 0)))
        assert [(f.p, f.h_coeffs, f.e_ram, f.f_res, f.exponent) for f in fs] == [
            (5, (0, 1), 2, 1, 2)
        ]

    def test_inert_eleven(self, q5):
        fs = factor_ideal(q5, principal_ideal(q5, (11, 0)))
        assert [(f.p, f.h_coeffs, f.e_ram, f.f_res, f.exponent) for f in fs] == [
            (11, (5, 0, 1), 1, 2, 1)
        ]

    def test_unit_ideal_rejected(self, q5):
        with pytest.raises(UnitIdeal):
            factor_ideal(q5, unit_ideal(q5))

    def test_efsum_equals_degree(self, q5):
        for p in (3, 5, 7, 11, 13, 23):
            fs = prime_ideals_above(q5, p)
            assert sum(f.e_ram * f.f_res for f in fs) == q5.deg

    def test_prime_hnf_contains_generators(self, q5):
        for p in (3, 5, 7, 11):
            for pf in prime_ideals_above(q5, p):
                assert ideal_contains(pf.hnf, q5.from_int(p))
                h_elem = tuple(pf.h_coeffs) + (0,) * (q5.deg - len(pf.h_coeffs))
                if len(pf.h_coeffs) <= q5.deg:
                    assert ideal_contains(pf.hnf, h_elem[: q5.deg])
                assert ideal_norm(pf.hnf) == pf.norm

    def test_factors_are_values(self, q5):
        """Two factorizations of one ideal are equal lists with equal hashes,
        and ``_replace`` moves the exponent alone."""
        I = principal_ideal(q5, (30, 0))
        first, second = factor_ideal(q5, I), factor_ideal(q5, I)
        assert first == second
        assert [hash(pf) for pf in first] == [hash(pf) for pf in second]
        pf = first[0]
        moved = pf._replace(exponent=3)
        assert pf.exponent != 3 and moved.exponent == 3
        assert [k for k, v in moved._asdict().items() if v != getattr(pf, k)] == [
            "exponent"
        ]

    def test_cofactor_cap(self, q5):
        big = 1000003  # prime just above the trial bound; norm is its square
        with pytest.raises(FactorCapExceeded):
            factor_ideal(q5, principal_ideal(q5, q5.from_int(big)))


def _random_ideal(rng, ring, max_coord=9):
    while True:
        gens = [
            (rng.randint(-max_coord, max_coord), rng.randint(-max_coord, max_coord))
            for _ in range(2)
        ]
        try:
            I = hnf_from_generators(ring, gens)
        except (ZeroIdeal, NotFullRank):
            continue
        if 2 <= ideal_norm(I) <= 10 ** 6:
            return I


class TestProperties:
    def test_norm_multiplicative_random(self, q5):
        rng = random.Random(7)
        for _ in range(25):
            I = _random_ideal(rng, q5)
            J = _random_ideal(rng, q5)
            assert ideal_norm(ideal_mul(q5, I, J)) == ideal_norm(I) * ideal_norm(J)

    def test_factor_reassembly_random(self, q5):
        rng = random.Random(11)
        for _ in range(15):
            I = _random_ideal(rng, q5, max_coord=5)
            fs = factor_ideal(q5, I)  # reassembly is asserted internally
            product = unit_ideal(q5)
            for pf in fs:
                product = ideal_mul(q5, product, ideal_pow(q5, pf.hnf, pf.exponent))
            assert product == I

    def test_hnf_rows_closed_under_theta(self, q5):
        rng = random.Random(13)
        for _ in range(10):
            I = _random_ideal(rng, q5)
            for row in I.basis:
                assert ideal_contains(I, elem_mul(q5, row, q5.theta))


def _valuation_reference(ring, I, pf):
    """The literal valuation: the largest k with I inside pf^k, by powers."""
    k = 0
    power = pf.hnf
    while all(ideal_contains(power, row) for row in I.basis):
        k += 1
        power = ideal_mul(ring, power, pf.hnf)
    return k


# Q, Q(i), Q(sqrt(-5)), Q(2^(1/3)) and Z[t] with t^3 + t + 3 = 0, each with
# primes that split, ramify (2 in Q(i) and Q(sqrt(-5)), 2 and 3 in
# Q(2^(1/3)), 13 and 19 for t^3 + t + 3) or stay inert, so that h = g
VALUATION_CASES = [
    ([0, 1], (2, 3, 5)),
    ([1, 0, 1], (2, 3, 5)),
    ([5, 0, 1], (2, 3, 5, 11)),
    ([-2, 0, 0, 1], (2, 3, 5)),
    ([3, 1, 0, 1], (2, 13, 19)),
]


@pytest.mark.parametrize(
    "min_poly", [mp for mp, _ in VALUATION_CASES] + [[1, 0, 0, 0, 1]]
)
def test_ideal_mul_matches_reference(min_poly):
    """ideal_mul equals the ideal generated by the pairwise row products."""
    ring = make_number_ring(min_poly)
    rng = random.Random(17)

    def random_ideal():
        while True:
            gens = [
                tuple(rng.randint(-9, 9) for _ in range(ring.deg))
                for _ in range(rng.randint(1, 2))
            ]
            try:
                return hnf_from_generators(ring, gens)
            except ZeroIdeal:
                continue

    for _ in range(20):
        I, J = random_ideal(), random_ideal()
        products = [elem_mul(ring, r, s) for r in I.basis for s in J.basis]
        assert ideal_mul(ring, I, J) == hnf_from_generators(ring, products)


# Q, Q(i), Q(sqrt(-5)), Z[2^(1/3)], Z[zeta_8], and two orders that are not
# maximal at 2: Z[sqrt(-3)], and Z[t] with t^3 - t^2 + 8 = 0, where g mod 2 =
# t^2 (t + 1) still has the simple factor t + 1
EXPLICIT_RINGS = [
    [0, 1], [1, 0, 1], [5, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1], [3, 0, 1],
    [8, 0, -1, 1],
]
PRIMES_BELOW_40 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _at_theta(ring, h):
    """h(theta) as an element, by Horner's rule in Z[theta]."""
    value = ring.zero
    for c in reversed(h):
        value = elem_mul(ring, value, ring.theta)
        value = (value[0] + c,) + value[1:]
    return value


def _kind(ring, pf):
    if pf.e_ram > 1:
        return "ramified"
    if pf.f_res == ring.deg:
        return "inert"
    return "split" if pf.f_res == 1 else "f >= 2, not inert"


def test_explicit_cases_cover_every_kind():
    kinds = set()
    for min_poly in EXPLICIT_RINGS:
        ring = make_number_ring(min_poly)
        for p in PRIMES_BELOW_40:
            kinds.update(_kind(ring, pf) for pf in prime_ideals_above(ring, p))
    assert kinds == {"ramified", "inert", "split", "f >= 2, not inert"}


@pytest.mark.parametrize("min_poly", EXPLICIT_RINGS)
def test_prime_hnf_matches_generators(min_poly):
    """The HNF written down for (p, h(theta)) is the one that reducing its
    generators' lattice gives, at every prime below 40."""
    ring = make_number_ring(min_poly)
    for p in PRIMES_BELOW_40:
        for pf in prime_ideals_above(ring, p):
            gens = [ring.from_int(p), _at_theta(ring, pf.h_coeffs)]
            assert pf.hnf == hnf_from_generators(ring, gens), (p, pf.h_coeffs)


@settings(max_examples=150, deadline=None)
@given(
    min_poly=st.sampled_from(EXPLICIT_RINGS),
    p=st.sampled_from(PRIMES_BELOW_40),
    e=st.integers(1, 60),
    data=st.data(),
)
def test_prime_power_matches_ideal_pow(min_poly, p, e, data):
    """The Hensel-built P^e is the lattice power, for ramified, inert and
    split primes, in maximal orders and not."""
    ring = make_number_ring(min_poly)
    pf = data.draw(st.sampled_from(prime_ideals_above(ring, p)))
    event(_kind(ring, pf))
    assert prime_power(ring, pf, e) == ideal_pow(ring, pf.hnf, e)


def test_prime_power_of_exponent_one_is_the_prime(q5, monkeypatch):
    """P^1 is the prime's own HNF, with no Hensel lift and no HNF rebuilt."""
    primes = [pf for p in (2, 3, 7, 11, 29) for pf in prime_ideals_above(q5, p)]
    calls = _counted(monkeypatch, "divmod_", fpoly)
    for pf in primes:
        assert prime_power(q5, pf, 1) is pf.hnf
    assert calls == []


def test_prime_power_of_exponent_zero_and_below(q5):
    for pf in prime_ideals_above(q5, 3) + prime_ideals_above(q5, 2):
        assert prime_power(q5, pf, 0) == unit_ideal(q5)
        with pytest.raises(ValueError):
            prime_power(q5, pf, -1)


def test_prime_power_at_degree_one_lifts_the_root(monkeypatch):
    """Over Z[2^(1/3)], 11 = (11, x - 7)(11, x^2 + 7x + 5).  Every power of
    either with e >= 2 takes one polynomial lift, at residue degree 1 as at
    degree 2, and is the lattice power."""
    ring = make_number_ring([-2, 0, 0, 1])
    line, plane = prime_ideals_above(ring, 11)
    assert (line.h_coeffs, plane.h_coeffs) == ((4, 1), (5, 7, 1))
    lifts = _counted(monkeypatch, "_hensel_lift")
    for pf in (line, plane):
        for e in (2, 3, 50, 800):
            lifts.clear()
            power = prime_power(ring, pf, e)
            assert [args[1:] for args in lifts] == [(pf.h_coeffs, 11, e)]
            assert ideal_norm(power) == 11 ** (pf.f_res * e)
            if e <= 50:
                assert power == ideal_pow(ring, pf.hnf, e)


def _multiplicity_reference(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def test_multiplicity_matches_division_loop():
    for p in (2, 3, 7, 101):
        for m in (1, 13, 10 ** 30 + 3):  # each prime to every p here
            for k in (0, 1, 2, 3, 5, 64, 127, 1000, 1999, 2000):
                n = p ** k * m
                assert _multiplicity(n, p) == _multiplicity_reference(n, p) == (k, m)


class TestValuation:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        min_poly, ps = data.draw(st.sampled_from(VALUATION_CASES))
        ring = make_number_ring(min_poly)
        primes = [pf for p in ps for pf in prime_ideals_above(ring, p)]
        I = unit_ideal(ring)
        for pf in data.draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3)):
            e = data.draw(st.integers(0, 12))
            I = ideal_mul(ring, I, ideal_pow(ring, pf.hnf, e))
        pf = data.draw(st.sampled_from(primes))
        assert valuation(ring, I, pf) == _valuation_reference(ring, I, pf)

    # P^a * Q^b for two primes above one p, so that the norm bound at the
    # prime with the smaller exponent exceeds it and bisection runs: above 3
    # in Z[sqrt(-5)], and above 5 in Z[2^(1/3)], of norms 5 and 25
    @pytest.mark.parametrize("min_poly, p", [([5, 0, 1], 3), ([-2, 0, 0, 1], 5)])
    @pytest.mark.parametrize("a, b", [(3, 40), (40, 3)])
    def test_bisection_matches_reference(self, min_poly, p, a, b):
        ring = make_number_ring(min_poly)
        P, Q = prime_ideals_above(ring, p)
        I = ideal_mul(ring, ideal_pow(ring, P.hnf, a), ideal_pow(ring, Q.hnf, b))
        smaller = P if a < b else Q
        bound = _multiplicity(ideal_norm(I), p)[0] // smaller.f_res
        assert bound > min(a, b)
        for pf, e in ((P, a), (Q, b)):
            assert valuation(ring, I, pf) == _valuation_reference(ring, I, pf) == e

    def test_element_products_logarithmic_in_exponent(self, q5, monkeypatch):
        P, Q = prime_ideals_above(q5, 3)[1], prime_ideals_above(q5, 3)[0]
        I = ideal_pow(q5, P.hnf, 1600)
        calls = []
        elem_mul_ = ideals.elem_mul

        def counted(*args):
            calls.append(1)
            return elem_mul_(*args)

        monkeypatch.setattr(ideals, "elem_mul", counted)
        assert valuation(q5, I, P) == 1600
        assert len(calls) <= math.log2(1600) ** 2
        calls.clear()
        # one test, at k = 1, decides that Q does not divide I
        assert valuation(q5, I, Q) == 0
        assert len(calls) <= q5.deg

    def test_work_logarithmic_in_exponent(self, q5, monkeypatch):
        p3 = prime_ideals_above(q5, 3)[1]
        I = ideal_pow(q5, p3.hnf, 1600)
        calls = []
        ideal_mul_ = ideals.ideal_mul

        def counted(*args):
            calls.append(1)
            return ideal_mul_(*args)

        monkeypatch.setattr(ideals, "ideal_mul", counted)
        fs = factor_ideal(q5, I)
        assert [(pf.h_coeffs, pf.exponent) for pf in fs] == [((2, 1), 1600)]
        # the reassembly check's ideal_pow makes all of them
        assert len(calls) <= 8 * math.log2(1600)

    def test_non_maximal_order_rejected(self):
        # Z[sqrt(-3)] is not maximal at 2: beta/2 = (1 + sqrt(-3))/2 is a
        # unit, so only the norm bound stops the count.  Nor is Z[t] with
        # t^3 - t^2 + 8 = 0, though t + 1 is a simple factor there.  The
        # error names the prime, by Dedekind's criterion.
        for min_poly in ([3, 0, 1], [8, 0, -1, 1]):
            ring = make_number_ring(min_poly)
            for e in (1, 5):
                n = principal_ideal(ring, ring.from_int(2 ** e))
                with pytest.raises(NotFullRank, match="not maximal at p = 2$"):
                    factor_ideal(ring, n)


# Dedekind's criterion at p: False where Z[theta] is p-maximal.  g mod p has
# a repeated factor in most cases: x^2 + 5 = (x + 1)^2 mod 2 and x^3 - 2 = x^3
# mod 2 (maximal), x^2 + 3 = (x + 1)^2 mod 2 and x^3 - x^2 + 8 = x^2 (x + 1)
# mod 2 (not maximal), and x^2 + 3 = x^2 mod 3 (maximal).  x^2 + 5 mod 3 is
# squarefree, so only a repeated factor may count, and there F = x + 2 mod 3
# has the simple factor x + 2.
@pytest.mark.parametrize(
    "min_poly, p, expected",
    [
        ([5, 0, 1], 2, False),
        ([5, 0, 1], 3, False),
        ([-2, 0, 0, 1], 2, False),
        ([3, 0, 1], 2, True),
        ([8, 0, -1, 1], 2, True),
        ([3, 0, 1], 3, False),
        ([1, 0, 0, 0, 1], 2, False),
    ],
)
def test_dedekind_criterion(min_poly, p, expected):
    ring = make_number_ring(min_poly)
    assert _not_maximal_at(ring, p, prime_ideals_above(ring, p)) is expected


def _counted_ideal_mul(monkeypatch):
    """The argument pairs of every ``ideals.ideal_mul`` call from now on."""
    calls = []
    ideal_mul_ = ideals.ideal_mul

    def counted(ring, I, J):
        calls.append((I, J))
        return ideal_mul_(ring, I, J)

    monkeypatch.setattr(ideals, "ideal_mul", counted)
    return calls


def _prime_power_bounds(limit):
    """Every B in {q - 1, q} for the prime powers q = p^f <= limit with f >= 2,
    where the degree bound of a listing moves, and with f = 1 for p < 100,
    where p enters it; and the largest prime below 2000, 1999, either side."""
    bounds = {1998, 1999, 2000}
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, p)):
            q = p if p < 100 else p * p
            while q <= limit:
                bounds.update((q - 1, q))
                q *= p
    return sorted(b for b in bounds if b <= limit)


def _simple_factor_keys(ring, p):
    """(p, h, e_ram, f_res) of the primes above p of residue degree 1, from
    the roots of g mod p, found by testing every residue, and their
    multiplicities, by dividing for as long as x - r divides."""
    keys = []
    for r in range(p):
        value = 0
        for c in reversed(ring.min_poly):
            value = (value * r + c) % p
        if value:
            continue
        work, mult = list(ring.min_poly), 0
        while True:
            quot, rem = fpoly.divmod_(work, [-r % p, 1], p)
            if rem:
                break
            work, mult = quot, mult + 1
        keys.append((p, (-r % p, 1), mult, 1))
    return sorted(keys)


@pytest.mark.parametrize("min_poly", [g for g in EXPLICIT_RINGS if g[0] not in (3, 8)])
def test_prime_ideals_up_to_matches_filtered_factorization(min_poly):
    """The listing to B is every prime above every p <= B, from the complete
    factorization of g mod p, filtered to norm <= B, each with exponent 1: at
    every bound of ``_prime_power_bounds(2000)``.  Past p = 44, p^2 > 2000,
    so only the primes of degree 1 can have norm <= B, and those are taken
    from a literal search for the roots of g mod p rather than from
    factoring g completely, which for x^4 + 1 would try up to p^2 quadratic
    candidates.  The rings include the ramified 2 over x^4 + 1 and the
    ramified 2 and 5 over Q(sqrt(-5))."""
    ring = make_number_ring(min_poly)
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    reference = {}  # p -> (norm, key) of the primes above p
    for p in primes:
        if p * p <= 2000:
            reference[p] = [
                (pf.norm, (pf.p, pf.h_coeffs, pf.e_ram, pf.f_res, 1, pf.hnf))
                for pf in prime_ideals_above(ring, p)
            ]
        else:
            reference[p] = [
                (p, key + (1, ideals._factor_hnf(ring, p, list(key[1]))))
                for key in _simple_factor_keys(ring, p)
            ]
    for bound in _prime_power_bounds(2000):
        expected = [
            key for p in primes if p <= bound for norm, key in reference[p] if norm <= bound
        ]
        listed = [tuple(pf) for pf in prime_ideals_up_to(ring, bound)]
        assert listed == expected, bound


@pytest.mark.parametrize("min_poly", [[3, 0, 1], [8, 0, -1, 1]])
def test_prime_ideals_up_to_refuses_non_maximal(min_poly):
    """Z[sqrt(-3)] and Z[t] with t^3 - t^2 + 8 = 0 are not maximal at 2, which
    has a prime of norm 2 in each: every listing to B >= 2 is refused with
    the line of ``refuse_non_maximal``, and the listing to 1 is empty."""
    ring = make_number_ring(min_poly)
    assert list(prime_ideals_up_to(ring, 1)) == []
    for bound in (2, 3, 100):
        with pytest.raises(NotFullRank, match="not maximal at p = 2$"):
            list(prime_ideals_up_to(ring, bound))


class TestIdealPow:
    @pytest.mark.parametrize("e", [1, 2, 300, 800, 1600])
    def test_left_to_right_products(self, q5, e, monkeypatch):
        P = prime_ideals_above(q5, 3)[1].hnf
        calls = _counted_ideal_mul(monkeypatch)
        ideal_pow(q5, P, e)
        assert len(calls) == (e.bit_length() - 1) + (bin(e).count("1") - 1)
        one = unit_ideal(q5)
        assert all(one not in pair for pair in calls)

    def test_reassembly_builds_one_power(self, q5, monkeypatch):
        """The reassembly check builds an unramified P^1600 with no lattice
        product, and a ramified one by square-and-multiply."""
        P = prime_ideals_above(q5, 3)[1]
        I = ideal_pow(q5, P.hnf, 1600)
        calls = _counted_ideal_mul(monkeypatch)
        assert [pf.exponent for pf in factor_ideal(q5, I)] == [1600]
        assert calls == []
        (R,) = prime_ideals_above(q5, 2)
        assert R.e_ram == 2
        I = ideal_pow(q5, R.hnf, 1600)
        calls.clear()
        assert [pf.exponent for pf in factor_ideal(q5, I)] == [1600]
        assert len(calls) == (1600).bit_length() - 1 + bin(1600).count("1") - 1

    def test_ideal_of_factors(self, q5, monkeypatch):
        P, Q = prime_ideals_above(q5, 3)
        assert ideal_of_factors(q5, []) == unit_ideal(q5)
        I = ideal_mul(q5, ideal_pow(q5, P.hnf, 3), ideal_pow(q5, Q.hnf, 2))
        factors = [
            P._replace(exponent=3), Q._replace(exponent=0), Q._replace(exponent=2)
        ]
        calls = _counted_ideal_mul(monkeypatch)
        assert ideal_of_factors(q5, factors) == I
        assert all(unit_ideal(q5) not in pair for pair in calls)
