"""Polynomials mod p (``exunits.fpoly``) against their definitions, by
hypothesis over every prime p < 50 and degrees up to 6."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exunits import factor_poly_mod_p, fpoly

PRIMES = [p for p in range(2, 50) if all(p % d for d in range(2, p))]


@st.composite
def _prime_and_polys(draw, count, monic_degree=None):
    """p < 50 and count coefficient lists mod p of degree at most 6; the
    last is monic of degree 1 to monic_degree when that is given."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, p - 1)
    polys = [draw(st.lists(coeff, max_size=7)) for _ in range(count)]
    if monic_degree:
        polys[-1] = draw(st.lists(coeff, min_size=1, max_size=monic_degree)) + [1]
    return (p, *polys)


def _value(poly, x, p):
    return sum(c * x ** i for i, c in enumerate(poly)) % p


@settings(max_examples=300, deadline=None)
@given(_prime_and_polys(2))
def test_divmod_is_division_with_remainder(case):
    p, a, b = case
    b = fpoly.trim([c % p for c in b])
    assume(b)
    q, r = fpoly.divmod_(a, b, p)
    assert fpoly.add(fpoly.mul(q, b, p), r, p) == fpoly.trim([c % p for c in a])
    assert len(r) < len(b)


@settings(max_examples=300, deadline=None)
@given(_prime_and_polys(3, monic_degree=6))
def test_gcd_holds_the_common_factor(case):
    """gcd(a c, b c) is divisible by c and divides both a c and b c."""
    p, a, b, c = case
    ac, bc = fpoly.mul(a, c, p), fpoly.mul(b, c, p)
    assume(ac or bc)
    g = fpoly.gcd(ac, bc, p)
    assert not fpoly.divmod_(g, c, p)[1]
    assert not fpoly.divmod_(ac, g, p)[1] and not fpoly.divmod_(bc, g, p)[1]


@settings(max_examples=300, deadline=None)
@given(_prime_and_polys(1, monic_degree=6))
def test_roots_are_a_scan_of_the_field(case):
    p, g = case
    assert fpoly.roots(g, p) == [x for x in range(p) if not _value(g, x, p)]


@settings(max_examples=300, deadline=None)
@given(
    _prime_and_polys(1),
    st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
)
def test_resultant_of_a_split_polynomial(case, raw_roots):
    """Res(h, b) for h = prod (x - r) is the product of b(r) over its roots."""
    p, b = case
    roots = [r % p for r in raw_roots]
    h = [1]
    for r in roots:
        h = fpoly.mul(h, [-r % p, 1], p)
    product = 1
    for r in roots:
        product = product * _value(b, r, p) % p
    assert fpoly.resultant(h, b, p) == product


@settings(max_examples=300, deadline=None)
@given(_prime_and_polys(2, monic_degree=4), st.data())
def test_inverse_mod_an_irreducible(case, data):
    """inverse(a, h) a = 1 mod (h, p), for h an irreducible factor of a
    monic g, from ``factor_poly_mod_p``, and a not divisible by h.  g has
    degree at most 4, so that trial division tries at most p + p^2
    candidates."""
    p, a, g = case
    factors = [h for h, _ in factor_poly_mod_p(g, p)]
    h = list(data.draw(st.sampled_from(factors)))
    assume(fpoly.divmod_(a, h, p)[1])
    assert fpoly.mulmod(fpoly.inverse(a, h, p), a, h, p) == [1]
