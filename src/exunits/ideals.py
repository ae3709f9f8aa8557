"""Nonzero integral ideals as full-rank Z-lattices in Hermite Normal Form.

Convention: basis rows are lattice vectors in theta-power coordinates,
lower-triangular with basis[i][j] = 0 for j > i, basis[i][i] > 0 and
0 <= basis[i][j] < basis[j][j] for j < i.  Row i therefore has its pivot in
column i.  This orientation is fixed so golden values are bit-exact.

Prime factorization goes through Dedekind-Kummer: primes above p are read off
from the factorization of g mod p.  That reading holds where Z[theta] is
p-maximal; a factorization at a p where Dedekind's criterion finds it is not
is refused (``refuse_non_maximal``).

A prime (p, h(theta)) and the power (p^e, H(theta)) of an unramified prime,
with H the Hensel lift of h to a factor of g mod p^e, are written in HNF
directly, with no lattice reduction, so the cost of P^e barely grows with e.
Only a ramified prime's powers are products of lattices (``ideal_pow``).
"""

from collections import Counter, namedtuple
from functools import partial, reduce
from itertools import compress
from math import isqrt, prod

from . import fpoly
from .errors import FactorCapExceeded, NotFullRank, UnitIdeal, ZeroIdeal
from .number_ring import elem_mul, is_zero, square_and_multiply

TRIAL_DIVISION_BOUND = 10 ** 6
COFACTOR_CAP = 10 ** 12

# bound on the monic candidates that factor_poly_mod_p may try: twice the
# 1.0015e8 of x^4 + 1 mod 10007, so more than a quartic g needs at any prime
# below asympt's norm bound of 10^4
MAX_FACTOR_CANDIDATES = 2 * 10 ** 8


class IdealHNF(namedtuple("IdealHNF", "basis")):
    """Lower-triangular HNF basis of a nonzero integral ideal: a tuple of
    row tuples."""

    __slots__ = ()


class PrimeFactor(namedtuple("PrimeFactor", "p h_coeffs e_ram f_res exponent hnf")):
    """One prime ideal (p, h(theta)) above a rational prime p.

    h_coeffs is a monic lift (constant first, entries in [0, p)) of an
    irreducible factor of g mod p; e_ram is its multiplicity in g mod p,
    f_res its degree, exponent the valuation of the factored ideal here,
    hnf its IdealHNF.
    """

    __slots__ = ()

    @property
    def norm(self):
        return self.p ** self.f_res


def _ext_gcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _span_rows(ring, vectors):
    """Row-style HNF of the Z-span of the given coordinate vectors.

    Returns a list indexed by pivot column; entry j is a row whose highest
    nonzero coordinate sits at column j (or None if the span misses that
    direction).
    """
    d = ring.deg
    rows = [None] * d
    for v in vectors:
        v = list(v)
        for j in range(d - 1, -1, -1):
            if v[j] == 0:
                continue
            if rows[j] is None:
                if v[j] < 0:
                    v = [-x for x in v]
                rows[j] = v
                break
            r = rows[j]
            g, x, y = _ext_gcd(r[j], v[j])
            new_r = [x * a + y * b for a, b in zip(r, v)]
            coef_r, coef_v = r[j] // g, v[j] // g
            v = [coef_r * b - coef_v * a for a, b in zip(r, v)]
            rows[j] = new_r
    return rows


def _reduce_by_basis(basis, a):
    """a minus the multiples of the lower-triangular rows of basis that bring
    each coordinate i < len(basis) into [0, basis[i][i]), by back-substitution
    from the last row up."""
    c = list(a)
    for i in range(len(basis) - 1, -1, -1):
        q = c[i] // basis[i][i]
        if q:
            row = basis[i]
            for j in range(i + 1):
                c[j] -= q * row[j]
    return tuple(c)


def _lattice_hnf(ring, vectors):
    """HNF of the Z-span of vectors, which must be a full-rank lattice."""
    rows = _span_rows(ring, vectors)
    if any(r is None for r in rows):
        raise NotFullRank("generated lattice is not full rank")
    for i in range(len(rows)):
        rows[i] = _reduce_by_basis(rows[:i], rows[i])
    return IdealHNF(basis=tuple(rows))


def hnf_from_generators(ring, gens):
    """HNF of the ideal generated by gens: span of theta^j * gen over Z."""
    gens = [tuple(g) for g in gens]
    if not gens or all(is_zero(g) for g in gens):
        raise ZeroIdeal("all generators are zero")
    theta = ring.theta
    vectors = []
    for g in gens:
        cur = g
        for _ in range(ring.deg):
            vectors.append(cur)
            cur = elem_mul(ring, cur, theta)
    return _lattice_hnf(ring, vectors)


def unit_ideal(ring):
    rows = tuple(
        tuple(1 if i == j else 0 for j in range(ring.deg)) for i in range(ring.deg)
    )
    return IdealHNF(basis=rows)


def principal_ideal(ring, a):
    return hnf_from_generators(ring, [a])


def ideal_norm(I):
    n = 1
    for i, row in enumerate(I.basis):
        n *= row[i]
    return n


def ideal_contains(I, a):
    """Whether a lies in I: a reduces to 0 modulo the HNF basis."""
    return not any(_reduce_by_basis(I.basis, a))


def ideal_mul(ring, I, J):
    """HNF of the product ideal IJ.

    The Z-span of the d^2 pairwise products of basis rows already is IJ (a
    product of sums is a sum of these products), so they are reduced to HNF
    as they are, without first multiplying each by the powers of theta.
    """
    return _lattice_hnf(
        ring, [elem_mul(ring, r, s) for r in I.basis for s in J.basis]
    )


def ideal_pow(ring, I, e):
    """I^e for e >= 0, by ``square_and_multiply`` with ``ideal_mul``.

    Built left to right from I itself, so for e >= 1 no product has the
    unit ideal as a factor.
    """
    if e < 0:
        raise ValueError("negative ideal power")
    if not e:
        return unit_ideal(ring)
    return square_and_multiply(I, e, partial(ideal_mul, ring))


def ideal_of_factors(ring, factors):
    """The product of pf^exponent over factors, as factor_ideal returns them.

    The unit ideal for no factors; otherwise the powers, each from
    ``prime_power``, are multiplied together, and a factor of exponent 0 is
    left out, so no product has the unit ideal as a factor.
    """
    powers = [prime_power(ring, pf, pf.exponent) for pf in factors if pf.exponent]
    if not powers:
        return unit_ideal(ring)
    return reduce(partial(ideal_mul, ring), powers)


def norm_of_factors(factors):
    """The norm of the product of pf^exponent over factors."""
    return prod(pf.norm ** pf.exponent for pf in factors)


def _lift_exponents(e):
    """The exponents ..., ceil(e/4), ceil(e/2), e past 1 that a quadratic
    lift from p to p^e steps through, each step from k to 2k or 2k - 1."""
    steps = [e]
    while steps[-1] > 1:
        steps.append((steps[-1] + 1) // 2)
    return steps[-2::-1]


def _hensel_lift(g, h, p, e):
    """The monic H = h mod p that divides g mod p^e, for h a factor of g mod
    p that is coprime to its cofactor g / h.

    Quadratic Hensel steps (von zur Gathen and Gerhard, Modern Computer
    Algebra, Alg. 15.10) along ``_lift_exponents(e)``.  With s = 1/c mod h
    for the cofactor c = g div h, a step adds s*(g mod h) mod h to h.  s
    comes from the extended Euclidean algorithm mod p, and each step lifts
    it by Newton's s*(2 - s*c) mod h.
    """
    s = fpoly.inverse(fpoly.divmod_(g, h, p)[0], h, p)
    h = list(h)
    for k in _lift_exponents(e):
        m = p ** k
        h = fpoly.add(h, fpoly.mulmod(s, fpoly.divmod_(g, h, m)[1], h, m), m)
        if k < e:  # s is not needed mod p^e
            c = fpoly.divmod_(g, h, m)[0]
            s = fpoly.mulmod(s, fpoly.sub([2], fpoly.mulmod(s, c, h, m), m), h, m)
    return h


def _factor_hnf(ring, modulus, h):
    """HNF of the ideal (modulus, h(theta)), for h monic of degree f dividing g
    mod modulus.

    An element of Z[theta], a polynomial of degree below deg, lies in it iff h
    divides it mod modulus.  So row i < f is modulus*theta^i, and row k >= f is
    theta^k minus (theta^k mod h), the remainder negated mod modulus: already
    reduced, with no lattice to reduce.  h = g gives modulus*O.  theta^k mod
    h is x times theta^(k-1) mod h, less its top coefficient times h.
    """
    d, f = ring.deg, len(h) - 1
    rows = [(0,) * i + (modulus,) + (0,) * (d - i - 1) for i in range(f)]
    rem = [-c % modulus for c in h[:f]]  # theta^f mod h
    for k in range(f, d):
        low = tuple(-c % modulus for c in rem)
        rows.append(low + (0,) * (k - f) + (1,) + (0,) * (d - k - 1))
        top = rem[-1]
        rem = [(c - top * b) % modulus for c, b in zip([0] + rem[:-1], h)]
    return IdealHNF(basis=tuple(rows))


def prime_power(ring, pf, e):
    """pf^e for e >= 0.

    An unramified prime P = (p, h(theta)) has P^e = (p^e, H(theta)), H the
    Hensel lift of h to a factor of g mod p^e (``_hensel_lift``): over the
    p-adic integers g = H*C with H, C coprime, so Z[theta] splits as
    Z_p[x]/(H) x Z_p[x]/(C), where P is (p) x (1) and P^e is (p^e) x (1).
    This needs no maximality.  A ramified prime, or e < 2, goes to
    ``ideal_pow``, which returns pf.hnf itself at e = 1.
    """
    if pf.e_ram > 1 or e < 2:
        return ideal_pow(ring, pf.hnf, e)
    lift = _hensel_lift(ring.min_poly, pf.h_coeffs, pf.p, e)
    return _factor_hnf(ring, pf.p ** e, lift)


def factor_poly_mod_p(poly, p, max_degree=None):
    """The irreducible factors of degree at most max_degree (every factor
    when it is None) of a monic polynomial mod p.

    The linear factors come from one Horner sweep of maps over F_p, which
    finds the roots of poly mod p; x - r is divided out at each root r for
    as long as it divides and what is left has a degree above the number
    of roots still to come, so a simple root costs one division when the
    roots use up the degree.  Then trial division: for d = 2, 3, ... up to
    max_degree, while 2d is at most the degree of what is left, each monic
    candidate of degree d, in lexicographic order, is divided out for as
    long as it divides.  Every factor of lower degree is gone by then, so
    each that divides is irreducible.  What is left at the end is
    irreducible when the loop ran past half its degree; otherwise every
    factor of it has degree over max_degree.  It is a factor when its
    degree is at most max_degree.  Only suitable for small p and small
    degree: when poly has more than MAX_FACTOR_CANDIDATES monic candidates
    of degree 1 to half its own and at most max_degree, FactorCapExceeded
    is raised before any work.  Factors are returned as (monic lift
    constant first, multiplicity), sorted lexicographically by coefficient
    sequence.
    """
    work = fpoly.trim([c % p for c in poly])
    top = (len(work) - 1) // 2
    if max_degree is not None:
        top = min(top, max_degree)
    candidates = sum(p ** d for d in range(1, top + 1))
    if candidates > MAX_FACTOR_CANDIDATES:
        raise FactorCapExceeded(
            f"factoring mod {p} may try {candidates} candidates, "
            f"over the cap {MAX_FACTOR_CANDIDATES}"
        )
    factors = Counter()
    if len(work) > 2:  # degree 2 or more: a linear factor is a root
        roots = fpoly.roots(work, p)
        for left, r in zip(range(len(roots) - 1, -1, -1), roots):
            cand = [-r % p, 1]
            # divide again only while what is left has room for more than
            # the left roots still to be divided out, one each
            while len(work) - 1 > left:
                quot, rem = fpoly.divmod_(work, cand, p)
                if rem:
                    break
                factors[tuple(cand)] += 1
                work = quot
    degree = 2
    while degree <= top and 2 * degree <= len(work) - 1:
        cand = [0] * degree + [1]
        while 2 * degree <= len(work) - 1:
            quot, rem = fpoly.divmod_(work, cand, p)
            if not rem:
                factors[tuple(cand)] += 1
                work = quot
                continue
            # next candidate in lexicographic order of (c0, ..., c_{degree-1})
            i = 0
            while i < degree and cand[i] == p - 1:
                cand[i] = 0
                i += 1
            if i == degree:
                break
            cand[i] += 1
        degree += 1
    if 1 < len(work) and (max_degree is None or len(work) - 1 <= max_degree):
        factors[tuple(work)] += 1
    return sorted(factors.items())


def _multiplicity(n, p):
    """(k, n / p^k) for the largest k with p^k dividing the nonzero n.

    Divides by p^(2^i) for i from the top down, so that k costs O(log k)
    divisions, not one per unit of k.
    """
    squares = []
    square = p
    while n % square == 0:
        squares.append(square)
        square *= square
    k = 0
    for i in range(len(squares) - 1, -1, -1):
        if n % squares[i] == 0:
            n //= squares[i]
            k += 1 << i
    return k, n


def _small_prime_factors(n):
    """Distinct prime factors of n by trial division up to the bound.

    The unfactored cofactor left after trial division must be 1 or a prime
    below the cofactor cap; bigger cofactors raise FactorCapExceeded.  This
    lets huge but smooth norms (e.g. powers of a small prime) through.
    """
    n = abs(n)
    primes = []
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        if n % d == 0:
            primes.append(d)
            _, n = _multiplicity(n, d)
        d += 1 if d == 2 else 2
    if n > 1:
        if n > COFACTOR_CAP:
            raise FactorCapExceeded(
                f"norm cofactor {n} exceeds the factorization cap"
            )
        # cofactor has no divisor below the trial bound and is at most the
        # cap (< bound squared), hence prime
        primes.append(n)
    return primes


def prime_ideals_above(ring, p, max_degree=None):
    """Dedekind-Kummer: prime ideals above p, from the factorization of g mod p.

    Only the primes of residue degree at most max_degree are listed, when it
    is given.  Each PrimeFactor carries exponent = e_ram, i.e. the valuation
    of (p).
    """
    return [
        PrimeFactor(
            p=p,
            h_coeffs=h,
            e_ram=mult,
            f_res=len(h) - 1,
            exponent=mult,
            hnf=_factor_hnf(ring, p, h),
        )
        for h, mult in factor_poly_mod_p(ring.min_poly, p, max_degree)
    ]


def _primes_up_to(n):
    """The primes p <= n, in order, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n + 1, d)))
    return list(compress(range(n + 1), sieve))


def _is_squarefree_mod_p(poly, p):
    """Whether the monic poly has no repeated factor mod p: gcd(poly, poly')
    mod p is a constant.  poly' = 0 mod p, as for x^2 + 1 = (x + 1)^2 mod 2,
    leaves poly itself as the gcd."""
    derivative = [i * c for i, c in enumerate(poly)][1:]
    return len(fpoly.gcd(poly, derivative, p)) == 1


def prime_ideals_up_to(ring, max_norm):
    """Every prime ideal of norm <= max_norm, by p and then as above p.

    Each p comes from one sieve, and g mod p is factored only as far as the
    degrees f with p^f <= max_norm, so that at p^2 > max_norm only its roots
    are taken.  Each prime is yielded as a modulus of its own, with exponent
    1.  The listing is refused at a p where Z[theta] is not p-maximal and a
    prime above p is listed, as a count modulo that prime is: Dedekind's
    criterion (``refuse_non_maximal``) is run on the factors of g mod p when
    they are all listed, and otherwise, where some are listed and g mod p
    has a repeated factor, on its complete factorization.  The criterion
    can fail only at a repeated factor.
    """
    for p in _primes_up_to(max_norm):
        max_degree, norm = 1, p * p
        while norm <= max_norm:
            max_degree, norm = max_degree + 1, norm * p
        listed = prime_ideals_above(ring, p, max_degree)
        if sum(pf.f_res * pf.e_ram for pf in listed) == ring.deg:
            refuse_non_maximal(ring, {p: listed})  # the whole factorization
        elif listed and not _is_squarefree_mod_p(ring.min_poly, p):
            refuse_non_maximal(ring, {p: prime_ideals_above(ring, p)})
        for pf in listed:
            yield pf._replace(exponent=1)


def valuation(ring, I, pf):
    """Largest k with I contained in pf^k, by a direct P-adic valuation.

    For P = (p, h(theta)) let beta = c(theta), with c = g / h mod p.  Then
    beta*P lies in pO and beta does not, so P^-1 = O + (beta/p)O (Cohen,
    GTM 138, 4.8): v_P(beta/p) = -1 and v_Q(beta/p) >= 0 at every other Q.
    Hence I lies in P^k iff every HNF row of I times beta^k is 0 mod p^k, a
    test monotone in k.  P = (p) gives beta = 1.

    k is at most v_p(N(I)) / f, since N(P)^k divides N(I).  The test at 1
    decides whether P divides I at all, the test at that bound whether I is
    a power of P, and otherwise bisection between the two finds k.  Each
    test raises beta to the k-th power mod p^k by ``square_and_multiply``,
    reducing each product mod p^k, so the whole costs O(log(k)^2) element
    products.  Where g breaks Dedekind-Kummer at p the test need not be
    monotone and k may be wrong; factor_ideal's reassembly check rejects it.
    """
    bound = _multiplicity(ideal_norm(I), pf.p)[0] // pf.f_res
    return _valuation(ring, I, pf, bound)


def _valuation(ring, I, pf, bound):
    """``valuation`` of I at pf, given its bound v_p(N(I)) // f."""
    p = pf.p
    cofactor, _ = fpoly.divmod_(ring.min_poly, pf.h_coeffs, p)
    beta = tuple(cofactor) + (0,) * (ring.deg - len(cofactor))

    def contained(k):
        modulus = p ** k

        def mul(a, b):
            return tuple(c % modulus for c in elem_mul(ring, a, b))

        power = square_and_multiply(beta, k, mul)
        return all(
            c % modulus == 0
            for row in I.basis
            for c in elem_mul(ring, row, power)
        )

    if bound == 0 or not contained(1):
        return 0
    if bound == 1 or contained(bound):
        return bound
    lo, hi = 1, bound  # I lies in P^lo and not in P^hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if contained(mid):
            lo = mid
        else:
            hi = mid
    return lo


_NOT_REASSEMBLED = "prime factorization does not reassemble the ideal; "


def factor_ideal(ring, I):
    """Prime ideal factorization of a proper ideal, verified by reassembly.

    The norm and each v_p of it are taken once, and bound the valuation at
    every prime above p.
    """
    n = ideal_norm(I)
    if n == 1:
        raise UnitIdeal("cannot factor the unit ideal")
    above = {p: prime_ideals_above(ring, p) for p in _small_prime_factors(n)}
    result = []
    for p, pfs in above.items():
        v = _multiplicity(n, p)[0]
        for pf in pfs:
            e = _valuation(ring, I, pf, v // pf.f_res)
            if e > 0:
                result.append(pf._replace(exponent=e))
    if ideal_of_factors(ring, result) != I:
        refuse_non_maximal(ring, above)
        raise NotFullRank(
            _NOT_REASSEMBLED
            + "the defining polynomial is likely reducible or the order non-maximal"
        )
    return result


def refuse_non_maximal(ring, above):
    """Raise NotFullRank naming each p of above, a dict from p to the primes
    above it, at which Dedekind's criterion finds Z[theta] not p-maximal."""
    bad = [p for p, pfs in above.items() if _not_maximal_at(ring, p, pfs)]
    if bad:
        raise NotFullRank(
            _NOT_REASSEMBLED
            + "the order is not maximal at "
            + ", ".join(f"p = {p}" for p in bad)
        )


def _not_maximal_at(ring, p, above):
    """Whether Z[theta] is not p-maximal, by Dedekind's criterion (Cohen, GTM
    138, Thm 6.1.4), given the primes above p.

    With g = prod h_i^e_i mod p and F = (prod h_i^e_i - g) / p, it is not
    iff some h_i with e_i >= 2 divides F mod p.  F mod p needs the product
    mod p^2 only.  With every e_i = 1 the verdict is False, and nothing is
    built.
    """
    if all(pf.e_ram == 1 for pf in above):
        return False
    square = p * p
    lifted = [1]
    for pf in above:
        for _ in range(pf.e_ram):
            lifted = fpoly.mul(lifted, pf.h_coeffs, square)
    F = [c // p for c in fpoly.sub(lifted, ring.min_poly, square)]
    return any(
        pf.e_ram > 1 and not fpoly.divmod_(F, pf.h_coeffs, p)[1] for pf in above
    )
