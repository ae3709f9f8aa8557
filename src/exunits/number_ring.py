"""Exact arithmetic in a monogenic order Z[theta].

The order is defined by a monic integer polynomial g; elements are integer
coordinate vectors in the power basis 1, theta, ..., theta^(deg-1),
represented as plain tuples of Python ints.  All arithmetic is exact.

Monogenicity (O_K = Z[theta]) is an input contract: the ring never tries to
enlarge itself to a maximal order.  Irreducibility of g is fully checked only
up to degree 3 (rational root test); for higher degrees it is user-asserted
and a wrong assertion surfaces later as norm inconsistencies.
"""

from collections import namedtuple
from operator import add, neg, sub

from .errors import (
    DimensionMismatch,
    MinPolyTooLarge,
    NotMonic,
    Reducible,
    ZeroDegree,
)

# bounds on g, checked first: its degree, and the absolute value of each of its
# coefficients; the rational root test lists the divisors of the constant term
# by trial division up to its square root, 10^6 divisions at the bound
MAX_DEGREE = 12
MAX_COEFF = 10 ** 12


class NumberRing(namedtuple("NumberRing", "min_poly deg")):
    """The order Z[theta] for theta a root of the monic polynomial min_poly.

    min_poly is stored constant-term first with leading coefficient 1.
    """

    __slots__ = ()

    @property
    def zero(self):
        return (0,) * self.deg

    @property
    def one(self):
        return self.from_int(1)

    @property
    def theta(self):
        if self.deg == 1:
            # g = x + c, so theta = -c is rational
            return (-self.min_poly[0],)
        return (0, 1) + (0,) * (self.deg - 2)

    def from_int(self, n):
        return (n,) + (0,) * (self.deg - 1)


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return out


def _poly_eval_int(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def make_number_ring(min_poly):
    """Validate a monic integer polynomial and wrap it as a NumberRing."""
    coeffs = tuple(int(c) for c in min_poly)
    if not coeffs:
        raise NotMonic("empty coefficient sequence")
    deg = len(coeffs) - 1
    if deg > MAX_DEGREE:
        raise MinPolyTooLarge(f"degree {deg} is larger than {MAX_DEGREE}")
    big = max(coeffs, key=abs)
    if abs(big) > MAX_COEFF:
        raise MinPolyTooLarge(
            f"coefficient {big} is larger than {MAX_COEFF} in absolute value"
        )
    if coeffs[-1] != 1:
        raise NotMonic(f"leading coefficient is {coeffs[-1]}, expected 1")
    if deg == 0:
        raise ZeroDegree("defining polynomial must have degree >= 1")
    if deg >= 2:
        # rational root test: any integer root r divides the constant term
        if coeffs[0] == 0:
            raise Reducible("0 is a root of the defining polynomial")
        for d in _divisors(coeffs[0]):
            for r in (d, -d):
                if _poly_eval_int(coeffs, r) == 0:
                    raise Reducible(f"{r} is a root of the defining polynomial")
        # for deg 2 and 3 a factorization forces a linear factor, so the
        # root test above is a complete irreducibility check; for deg >= 4
        # irreducibility is user-asserted
    return NumberRing(min_poly=coeffs, deg=deg)


def _check_dims(ring, *elems):
    for a in elems:
        if len(a) != ring.deg:
            raise DimensionMismatch(
                f"element has {len(a)} coordinates, ring degree is {ring.deg}"
            )


def elem_add(ring, a, b):
    _check_dims(ring, a, b)
    return tuple(map(add, a, b))


def elem_sub(ring, a, b):
    _check_dims(ring, a, b)
    return tuple(map(sub, a, b))


def elem_neg(ring, a):
    _check_dims(ring, a)
    return tuple(map(neg, a))


def elem_scale(ring, n, a):
    _check_dims(ring, a)
    return tuple(n * x for x in a)


def elem_mul(ring, a, b):
    """Product in Z[theta]: convolve, then reduce by theta^deg = -(g - x^deg)."""
    _check_dims(ring, a, b)
    d = ring.deg
    if d == 1:
        return (a[0] * b[0],)
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    g = ring.min_poly
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        if c:
            conv[k] = 0
            for j in range(d):
                conv[k - d + j] -= c * g[j]
    return tuple(conv[:d])


def square_and_multiply(x, e, mul):
    """x^e for e >= 1 under the associative product mul.

    Left-to-right binary powering (Cohen, GTM 138, Algorithm 1.2.3): one
    product per bit of e past the leading one, to square, and one more per
    such bit that is set, so e.bit_length() - 1 + popcount(e) - 1 in all.
    """
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def is_zero(a):
    return not any(a)
