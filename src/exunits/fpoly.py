"""Dense univariate polynomials mod m: int coefficient lists, constant first,
with no trailing zeros once ``trim`` has run.  m is a prime p, or a prime
power p^k for Hensel lifting, where only monic divisors occur."""

import operator
from itertools import compress, repeat, zip_longest

from .errors import ExunitsError


def trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def divmod_(num, den, m):
    """(quot, rem) with num = quot*den + rem mod m and deg rem < deg den, for
    den with a unit leading coefficient mod m."""
    num = trim([c % m for c in num])
    den = trim([c % m for c in den])
    inv_lead = pow(den[-1], -1, m)
    low = len(den) - 1
    quot = [0] * max(len(num) - low, 0)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num.pop() * inv_lead % m
        quot[shift] = coef
        if coef:
            for i in range(low):
                num[shift + i] = (num[shift + i] - coef * den[i]) % m
    return quot, trim(num)


def mul(a, b, m):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim([c % m for c in out])


def add(a, b, m):
    return trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def sub(a, b, m):
    return trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def mulmod(a, b, h, m):
    """a*b mod (h, m), for h monic."""
    return divmod_(mul(a, b, m), h, m)[1]


def gcd(a, b, p):
    """A gcd of a and b mod p by the Euclidean algorithm, not made monic."""
    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        a, b = b, divmod_(a, b, p)[1]
    return a


def inverse(a, h, p):
    """s with s*a = 1 mod (h, p), for a coprime to h mod p: the s of a Bezout
    pair s*a + t*h = 1, by the extended Euclidean algorithm mod p."""
    r0, r1 = list(a), list(h)
    s0, s1 = [1], []
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if len(r0) != 1:
        raise ExunitsError(f"{list(a)} is not coprime to {list(h)} mod {p}")
    return mulmod(s0, [pow(r0[0], -1, p)], h, p)


def roots(poly, p):
    """The x in [0, p), in order, at which the monic poly, reduced mod p,
    vanishes mod p: Horner's rule at every x at once, as maps over range(p),
    so the loop runs in C.  The values are reduced mod p once, at the end."""
    xs = range(p)
    values = xs  # poly is monic: its leading coefficient times x
    for c in reversed(poly[1:-1]):
        if c:
            values = map(operator.add, values, repeat(c))
        values = map(operator.mul, values, xs)
    if poly[0]:
        values = map(operator.add, values, repeat(poly[0]))
    return list(compress(xs, map(operator.not_, map(p.__rmod__, values))))


def resultant(a, b, p):
    """Res(a, b) mod p, for a of degree at least 1 mod p, by the Euclidean
    algorithm mod p (Cohen, GTM 138, §3.3): Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r) with r = a mod b, Res(a, 0) = 0 and
    Res(a, c) = c^(deg a) for a constant c.  For a monic, Res(a, b) is the
    product of b over the roots of a."""
    res = 1
    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while len(b) > 1:
        r = divmod_(a, b, p)[1]
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = -res
        res = res * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p if b else 0
