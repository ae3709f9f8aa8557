"""Closed-form point counts the benchmark checks exunits against.

Nothing here imports exunits.  Everything is exact integer arithmetic.

Diagonal quadrics over F_q, q = p^f odd (Lidl-Niederreiter, *Finite
Fields*, Theorems 6.26 and 6.27), with eta the quadratic character of F_q:

    n even:  #{x_1^2 + ... + x_n^2 = d} = q^(n-1) + v(d) q^((n-2)/2) eta((-1)^(n/2))
    n odd:   #{x_1^2 + ... + x_n^2 = d} = q^(n-1) + q^((n-1)/2) eta((-1)^((n-1)/2) d)

where v(d) = q - 1 if d = 0 and -1 otherwise.  For u in F_p,
eta(u) = legendre(u, p)^f, because the norm F_q -> F_p maps squares onto
squares and the norm of u in F_p is u^f.

#N counts the points of X with some coordinate x_i a root of f = x - a.
It follows by inclusion-exclusion over the set of coordinates equal to a.
Prime ideals come from the factorization of g mod p (Dedekind-Kummer, valid
because the order is Z[theta]); g of degree at most 3 is supported.
"""

from fractions import Fraction
from math import comb


def legendre(u, p):
    """The Legendre symbol (u/p) for an odd prime p."""
    u %= p
    if u == 0:
        return 0
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def chi_q(u, p, f):
    """The quadratic character of F_{p^f} at the integer u, read in F_p."""
    return legendre(u, p) ** f


def sum_of_squares_count(n, d, p, f):
    """#{x in F_q^n : x_1^2 + ... + x_n^2 = d} for the integer d, q = p^f."""
    q = p ** f
    if n == 0:
        return 1 if d % p == 0 else 0
    if n % 2 == 0:
        v = q - 1 if d % p == 0 else -1
        return q ** (n - 1) + v * q ** ((n - 2) // 2) * chi_q((-1) ** (n // 2), p, f)
    return q ** (n - 1) + q ** ((n - 1) // 2) * chi_q((-1) ** ((n - 1) // 2) * d, p, f)


def quadric_counts(n, c, a, p, f):
    """(#X, #N) for X: x_1^2 + ... + x_n^2 = c over F_{p^f}, f = x - a.

    Fixing k of the n coordinates to a leaves n - k squares summing to
    c - k a^2.
    """
    count_x = sum_of_squares_count(n, c, p, f)
    count_n = sum(
        (-1) ** (k + 1) * comb(n, k) * sum_of_squares_count(n - k, c - k * a * a, p, f)
        for k in range(1, n + 1)
    )
    return count_x, count_n


def circle_counts(c, a, p, f):
    """x1^2 + x2^2 = c.  The curve {x1^2 + x2^2 = c, x3 = x1} has the same counts:
    its points are (x1, x2, x1), and x3 = a exactly when x1 = a."""
    return quadric_counts(2, c, a, p, f)


def sphere_counts(c, a, p, f):
    """x1^2 + x2^2 + x3^2 = c."""
    return quadric_counts(3, c, a, p, f)


def prime_power_count(q, r, e, count_x, count_n):
    """Count modulo P^e under good reduction (Hensel): q^(r(e-1)) (#X - #N)."""
    return q ** (r * (e - 1)) * (count_x - count_n)


def local_factor(q, r, count_x, count_n):
    return Fraction(count_x - count_n, q ** r)


def crt_total(parts):
    """Count modulo n = prod P^e from the prime-power counts (CRT)."""
    total = 1
    for part in parts:
        total *= part
    return total


# --- polynomials mod p: coefficient lists, constant term first ---


def _eval_mod(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _divide_by_root(poly, r, p):
    """Quotient of poly by (x - r) mod p, by synthetic division."""
    out = [0] * (len(poly) - 1)
    carry = 0
    for i in range(len(poly) - 1, 0, -1):
        carry = (poly[i] + carry * r) % p
        out[i - 1] = carry
    return out


def factor_mod_p(g, p):
    """Irreducible factors of a monic g of degree <= 3 mod p.

    Returns sorted (h, multiplicity) pairs, h a monic tuple constant first
    with entries in [0, p).  A factor without a root has degree <= 3 and no
    linear factor, so it is irreducible.
    """
    if len(g) - 1 > 3:
        raise ValueError("factor_mod_p supports degree <= 3")
    work = [c % p for c in g]
    factors = {}
    r = 0
    while r < p and len(work) > 1:
        if _eval_mod(work, r, p) == 0:
            h = ((-r) % p, 1)
            factors[h] = factors.get(h, 0) + 1
            work = _divide_by_root(work, r, p)
        else:
            r += 1
    if len(work) > 1:
        factors[tuple(work)] = factors.get(tuple(work), 0) + 1
    return sorted(factors.items())


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def prime_ideals_above(g, p):
    """(p, h, f_res, e_ram) for each prime ideal above p, sorted by h."""
    return [(p, h, len(h) - 1, e) for h, e in factor_mod_p(g, p)]


def good_primes(g, c, max_norm):
    """Prime ideals of norm <= max_norm where the quadric with constant c has
    good reduction: p odd and p not dividing c."""
    out = []
    for p in range(3, max_norm + 1):
        if not is_prime(p) or c % p == 0:
            continue
        for prime in prime_ideals_above(g, p):
            if p ** prime[2] <= max_norm:
                out.append(prime)
    return out
