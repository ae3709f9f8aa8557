"""Checks the closed forms in reference.py against plain enumeration.

The enumeration is written here without exunits: small fields F_p[t]/(m)
with m irreducible, and Z/m for the Hensel/CRT total.  Run with

    python3 -m pytest bench/test_reference.py
"""

import itertools
import sys
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def _irreducible_modulus(p, f):
    """A monic polynomial of degree f <= 3 without roots mod p, constant first."""
    for low in itertools.product(range(p), repeat=f):
        m = list(low) + [1]
        if all(sum(c * x ** i for i, c in enumerate(m)) % p for x in range(p)):
            return m
    raise AssertionError("no irreducible polynomial found")


def _field(p, f):
    """Elements of F_{p^f} as coefficient tuples, with their squares."""
    m = _irreducible_modulus(p, f) if f > 1 else [0, 1]

    def mul(x, y):
        prod = [0] * (2 * f - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for k in range(len(prod) - 1, f - 1, -1):
            top = prod[k]
            for i in range(f):
                prod[k - f + i] -= top * m[i]
        return tuple(c % p for c in prod[:f])

    elems = list(itertools.product(range(p), repeat=f))
    return elems, {x: mul(x, x) for x in elems}


def _embed(u, p, f):
    return (u % p,) + (0,) * (f - 1)


def _add(x, y, p):
    return tuple((a + b) % p for a, b in zip(x, y))


def _enumerate_quadric(n, c, a, p, f):
    elems, sq = _field(p, f)
    target = _embed(c, p, f)
    root = _embed(a, p, f)
    count_x = count_n = 0
    for point in itertools.product(elems, repeat=n):
        s = _embed(0, p, f)
        for x in point:
            s = _add(s, sq[x], p)
        if s == target:
            count_x += 1
            count_n += root in point
    return count_x, count_n


FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3)]


def test_legendre_is_eulers_criterion_by_squares():
    for p in (3, 5, 7, 11, 13, 17):
        squares = {x * x % p for x in range(1, p)}
        for u in range(p):
            expected = 0 if u == 0 else (1 if u in squares else -1)
            assert ref.legendre(u, p) == expected


def test_chi_q_counts_square_roots():
    for p, f in FIELDS:
        elems, sq = _field(p, f)
        for u in range(p):
            roots = sum(1 for x in elems if sq[x] == _embed(u, p, f))
            assert roots == 1 + ref.chi_q(u, p, f), (p, f, u)


def test_sum_of_squares_count_matches_enumeration():
    for p, f in FIELDS:
        for n in (1, 2, 3):
            if (p ** f) ** n > 20000:
                continue
            for d in range(p):
                x, _ = _enumerate_quadric(n, d, 0, p, f)
                assert ref.sum_of_squares_count(n, d, p, f) == x, (p, f, n, d)


def test_quadric_counts_match_enumeration():
    for p, f in FIELDS:
        for n in (2, 3):
            if (p ** f) ** n > 20000:
                continue
            for c in range(1, p):
                for a in range(p):
                    assert ref.quadric_counts(n, c, a, p, f) == _enumerate_quadric(
                        n, c, a, p, f
                    ), (p, f, n, c, a)


def test_codim2_curve_has_circle_counts():
    p = 11
    for c in (1, 3, 7):
        for a in range(p):
            count_x = count_n = 0
            for x1, x2, x3 in itertools.product(range(p), repeat=3):
                if (x1 * x1 + x2 * x2 - c) % p == 0 and (x3 - x1) % p == 0:
                    count_x += 1
                    count_n += a in (x1, x2, x3)
            assert ref.circle_counts(c, a, p, 1) == (count_x, count_n)


def _factorization(m):
    out, d = [], 2
    while m > 1:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out


def test_hensel_crt_total_matches_enumeration_mod_m():
    """Over Z (g = x - 0, every prime of degree 1), counting mod m."""
    for n, m in [(2, 9), (2, 15), (2, 45), (2, 49), (2, 63), (3, 15), (3, 27)]:
        for c in (1, 2, -1):
            if gcd(m, 2 * c) != 1:
                continue
            for a in (0, 1, 4):
                brute = sum(
                    1
                    for point in itertools.product(range(m), repeat=n)
                    if sum(x * x for x in point) % m == c % m
                    and all(gcd(x - a, m) == 1 for x in point)
                )
                parts = [
                    ref.prime_power_count(p, n - 1, e, *ref.quadric_counts(n, c, a, p, 1))
                    for p, e in _factorization(m)
                ]
                assert ref.crt_total(parts) == brute, (n, m, c, a)


def _poly_mul_mod(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def test_factor_mod_p_reassembles_and_finds_every_root():
    for g in ([5, 0, 1], [-2, 0, 0, 1], [1, 0, 1], [1, 1, 0, 1]):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            factors = ref.factor_mod_p(g, p)
            product = [1]
            for h, e in factors:
                assert h[-1] == 1 and all(0 <= c < p for c in h)
                for _ in range(e):
                    product = _poly_mul_mod(product, list(h), p)
            assert product == [c % p for c in g], (g, p)
            roots = {x for x in range(p) if sum(c * x ** i for i, c in enumerate(g)) % p == 0}
            linear = {(-h[0]) % p for h, _ in factors if len(h) == 2}
            assert roots == linear, (g, p)
            for h, _ in factors:
                if len(h) > 2:
                    assert all(sum(c * x ** i for i, c in enumerate(h)) % p for x in range(p))


def test_good_primes_are_the_odd_primes_away_from_c():
    # Q(sqrt(-5)): 3, 7, 23, 29, 41, 43, 47 split, 5 ramifies, 11..19 mod 20 inert
    norms = sorted(p ** f for p, _, f, _ in ref.good_primes([5, 0, 1], 61, 60))
    assert norms == [3, 3, 5, 7, 7, 23, 23, 29, 29, 41, 41, 43, 43, 47, 47]
    assert all(p != 5 for p, *_ in ref.good_primes([5, 0, 1], 5, 60))
    # Z[2^(1/3)]: 3 ramifies totally, 5, 11, 17 and 23 are 2 mod 3 and have a
    # linear and a quadratic prime; 7, 13 and 19 are inert (2 is not a cube)
    primes = [(p, f) for p, _, f, _ in ref.good_primes([-2, 0, 0, 1], 1, 25)]
    assert primes == [(3, 1), (5, 1), (5, 2), (11, 1), (17, 1), (23, 1)]


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
