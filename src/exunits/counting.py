"""Counting polynomial-type exceptional units on affine varieties.

Three mutually checking routes are implemented:

* ``brute_force_count``  -- the oracle: it enumerates X(O_K/n) fiber by
  fiber over the unit residues and counts the points; it never assumes
  smoothness or good reduction, and it decides the units of O_K/n
  without factoring n (``residues.unit_flags``: by gcd when O_K/n is Z/N,
  otherwise by walking powers).
* ``theorem1_count``     -- the local-global product over primes dividing n,
  valid under good reduction; cost is independent of the exponents in n.
  Its local counts sweep X(O/P), but for a diagonal quadric
  sum a_i x_i^2 = c at an odd prime with every a_i nonzero mod P, which
  they count in closed form (Lidl and Niederreiter, *Finite Fields*, Thms
  6.26 and 6.27).
* ``example25_count``    -- the closed form for the circle x^2 + y^2 = c over
  Q(sqrt(-5)) with f = x - a, in two gating modes (see below).

Plus diagnostics: a lifting census between successive prime powers, a
Lang-Weil style deviation report, and an asymptotics series used to probe
error-term behaviour empirically.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import compress
from math import gcd, prod
from operator import itemgetter

from .errors import (
    BadModulus,
    BadReduction,
    CapExceeded,
    ConstantPolynomial,
    ExunitsError,
    NotQSqrtMinus5,
    UnitIdeal,
)
from .ideals import factor_ideal, norm_of_factors, prime_ideals_up_to, prime_power
from .number_ring import elem_neg
from .polys import (
    DEFAULT_CAP,
    check_good_reduction,
    residue_values,
    smooth_points,
    variety_indices,
)
from .residues import (
    arithmetic,
    index_map,
    prime_ctx,
    prime_field,
    residue_ctx,
    unit_flags,
)


class LocalData(namedtuple("LocalData", "prime count_X count_N factor")):
    """Per-prime fiber data feeding the product formula.

    factor = (count_X - count_N) / norm(p)^(amb - codim), an exact Fraction.
    """

    __slots__ = ()


CountReport = namedtuple("CountReport", "modulus_norm locals total")

AsymptRecord = namedtuple(
    "AsymptRecord",
    "description N count ratio omega sum_inv_sqrt sum_inv max_local_dev",
)


def _check_f(f):
    if f.amb != 1:
        raise ValueError("f must be a univariate polynomial (amb = 1)")
    if f.is_constant():
        raise ConstantPolynomial("f must be non-constant")


def _exunit_flags(ctx, f):
    """For each residue index i, whether f(residue_i) is a unit mod the
    ideal: bytes in index order, 1 or 0.

    f is taken at every residue by ``residue_values``, lazily, each value
    looked up in ``unit_flags``, which decides the units of O/n with no
    factorization; only the flags are kept.
    """
    values = map(arithmetic(ctx).index, residue_values(ctx, f))
    return bytes(map(unit_flags(ctx).__getitem__, values))


def brute_force_count(ring, V, f, n_ideal, cap=DEFAULT_CAP):
    """Literal count of tuples on X with every f(x_i) a unit mod n."""
    _check_f(f)
    ctx = residue_ctx(ring, n_ideal)

    def units():
        """The indices of the residues at which f is a unit; lazy, so that
        the kernel's cap check runs before f is evaluated."""
        yield from compress(range(ctx.norm), _exunit_flags(ctx, f))

    fibers = variety_indices(ctx, V, cap, units())
    return sum(map(len, map(itemgetter(1), fibers)))


def local_counts(ring, V, f, prime_factor, cap=DEFAULT_CAP):
    """#X(O_K/p), #N^f(p, X) and the exact local factor.

    Requires good reduction at p: a singular point raises BadReduction.
    One equation sum a_i x_i^2 = c of codim 1, with every a_i nonzero mod p
    and q odd, is counted in closed form (``_quadric_counts``; Lidl and
    Niederreiter, *Finite Fields*, Thms 6.26 and 6.27).  Every other input,
    characteristic 2 included, is swept
    (``_swept_counts``).  Both share one residue context, so the arithmetic
    of O_K/p is built once.  The oracle and the diagnostics never take the
    closed form.
    """
    _check_f(f)
    ctx = prime_ctx(ring, prime_factor)
    count_x, count_n = _quadric_counts(ctx, V, f, cap) or _swept_counts(
        ctx, V, f, cap
    )
    factor = Fraction(count_x - count_n, ctx.norm ** (V.amb - V.codim))
    return LocalData(
        prime=prime_factor, count_X=count_x, count_N=count_n, factor=factor
    )


def _swept_counts(ctx, V, f, cap):
    """#X and #N in one sweep of X(O/P): each point's Jacobian rank is checked
    as it is counted, and the first singular point raises BadReduction."""
    flags = None
    count_x = count_n = 0
    for rest, x1s in smooth_points(ctx, V, cap):  # checks the cap first
        if flags is None:
            # f is evaluated only once X(O_K/p) is known to have a point
            flags = _exunit_flags(ctx, f)
        count_x += len(x1s)
        # a point lies in N when some f(x_i) is not a unit, i.e. is zero mod
        # p: every point of the fiber if some f(x_j), j >= 2, is not
        if all(map(flags.__getitem__, rest)):
            count_n += len(x1s) - sum(map(flags.__getitem__, x1s))
        else:
            count_n += len(x1s)
    return count_x, count_n


def _diagonal_quadric(ring, V):
    """(a, c) when V is one equation sum a_i x_i^2 = c of codim 1, in which
    every x_i has its square and no other monomial but a constant occurs;
    else None.  a and c are ring elements."""
    if len(V.equations) != 1 or V.codim != 1:
        return None
    a, c = [None] * V.amb, ring.zero
    for exps, coeff in V.equations[0].terms.items():
        powers = [(i, e) for i, e in enumerate(exps) if e]
        if not powers:
            c = elem_neg(ring, coeff)
        elif len(powers) == 1 and powers[0][1] == 2:
            a[powers[0][0]] = coeff
        else:
            return None
    if None in a:
        return None
    return a, c


def _roots_of_f(ctx, field, f):
    """The elements r of ``field``, ``prime_field(ctx)``, with f(r) = 0 mod P,
    or None when every residue is one.

    A linear f = b x + d has the one root -d/b, or, when b = 0 mod P, none
    or all; a higher-degree f is scanned through ``_exunit_flags``.
    """
    zero = field.zero
    if f.total_degree() == 1:
        b = field.encode(f.terms[(1,)])
        d = field.encode(f.terms.get((0,), ctx.ring.zero))
        if b == zero:
            return None if d == zero else []
        return [field.mul(field.sub(zero, d), field.inverse(b))]
    flags = _exunit_flags(ctx, f)
    roots = [field.residue(i) for i, unit in enumerate(flags) if not unit]
    return None if len(roots) == ctx.norm else roots


def _quadric_counts(ctx, V, f, cap):
    """#X(O/P) and #N of a diagonal quadric in closed form, or None.

    The route applies when V is one equation sum a_i x_i^2 = c of codim 1
    (``_diagonal_quadric``), every a_i is nonzero mod P and q = Norm(P) is
    odd.  Otherwise it returns None and the caller sweeps.  The cap is
    checked as the sweep checks it, and the inclusion-exclusion below has at
    most (1 + #roots of f)^amb <= q^amb terms, so it stays within the cap.
    The a_i, c and f's coefficients are encoded once in
    ``residues.prime_field``, as ints mod p at a prime of residue degree 1
    and as polynomials mod (p, h) above it, and all that follows is
    arithmetic on them.

    With eta the quadratic character, n variables and s = eta((-1)^(n//2)
    a_1 ... a_n), the number of solutions in F_q^n is q^(n-1) + s eta(c)
    q^((n-1)/2) for n odd, and q^(n-1) + s v(c) q^(n/2-1) for n even, where
    v(0) = q - 1 and v(c) = -1 otherwise (Lidl and Niederreiter, *Finite
    Fields*, Thms 6.26 and 6.27).  The gradient (2 a_i x_i) vanishes only at
    the origin, so X is smooth when c is a unit; when c = 0 mod P
    BadReduction is raised at the origin, the first point of the sweep.
    #X - #N, the points with no f(x_i) = 0 mod P, is the sum over the sets S
    of coordinates fixed to roots of f of (-1)^|S| times the count of the
    quadric left in the other coordinates.
    """
    if ctx.norm % 2 == 0:
        return None
    q, amb, ring = ctx.norm, V.amb, ctx.ring
    quadric = _diagonal_quadric(ring, V)
    if quadric is None:
        return None
    field = prime_field(ctx)
    a = [field.encode(x) for x in quadric[0]]
    etas = [field.eta(x) for x in a]
    if 0 in etas:  # some a_i lies in P
        return None
    variety_indices(ctx, V, cap)  # the cap check alone: nothing is swept
    zero, c = field.zero, field.encode(quadric[1])
    if c == zero:
        raise BadReduction(ctx.prime, (field.decode(zero),) * amb)
    minus_one = field.eta(field.encode(ring.from_int(-1)))

    def solutions(n, eta, c):
        """Points of sum a_i x_i^2 = c over n coordinates whose a_i have the
        product class eta."""
        s = eta * minus_one ** (n // 2)
        if n % 2:
            return q ** (n - 1) + s * field.eta(c) * q ** (n // 2)
        return (q ** n + s * q ** (n // 2) * (q * (c == zero) - 1)) // q

    count_x = solutions(amb, prod(etas), c)
    roots = _roots_of_f(ctx, field, f) if count_x else []
    if roots is None:
        count_n = count_x
    else:
        shifts = [[field.mul(x, field.mul(r, r)) for r in roots] for x in a]

        memo = {}  # different choices of roots often leave the same terms

        def off_roots(i, n, eta, c):
            """Points of the quadric = c in the n coordinates left free before
            i, of product class eta, and in coordinates i and on, each of
            those off the roots of f: coordinate i is left free, minus fixed
            at each root."""
            key = (i, n, eta, c)
            if key in memo:
                return memo[key]
            if i == amb:
                total = solutions(n, eta, c)
            else:
                total = off_roots(i + 1, n + 1, eta * etas[i], c)
                for shift in shifts[i]:
                    total -= off_roots(i + 1, n, eta, field.sub(c, shift))
            memo[key] = total
            return total

        count_n = count_x - off_roots(0, 0, 1, c)
    if not 0 <= count_n <= count_x <= q ** amb:
        raise ExunitsError(
            f"closed form gave #N = {count_n}, #X = {count_x} outside 0 <= "
            f"#N <= #X <= {q}^{amb}"
        )
    return count_x, count_n


def theorem1_count(ring, V, f, factors, cap=DEFAULT_CAP):
    """The product formula: norm(n)^(amb-d) times the local factors.

    n is given by its factorization: a list of PrimeFactor with exponents,
    as factor_ideal returns it.  Only the per-prime enumeration caps apply;
    the modulus itself may be astronomically large as long as its primes are
    small.
    """
    _check_f(f)
    if not factors:
        raise UnitIdeal("modulus must be a proper ideal")
    n_norm = norm_of_factors(factors)
    locals_ = [local_counts(ring, V, f, pf, cap=cap) for pf in factors]
    num = prod(ld.factor.numerator for ld in locals_)
    den = prod(ld.factor.denominator for ld in locals_)
    return CountReport(
        modulus_norm=n_norm, locals=locals_, total=_product_formula(V, n_norm, num, den)
    )


def _product_formula(V, n_norm, num, den):
    """norm(n)^(amb-d) times the local factors of the primes dividing n,
    given the products num and den of their numerators and denominators.

    The ints are divided once.  Raises unless the result is a count: an
    integer in [0, norm(n)^amb].
    """
    num *= n_norm ** (V.amb - V.codim)
    total, rem = divmod(num, den)
    if rem:
        raise ExunitsError(
            f"product formula left a non-integral count {Fraction(num, den)}"
        )
    if not 0 <= total <= n_norm ** V.amb:
        raise ExunitsError(f"count {total} outside [0, {n_norm}^{V.amb}]")
    return total


def lifting_census(ring, V, prime_factor, k, cap=DEFAULT_CAP):
    """Histogram of lift multiplicities from X mod p^k to X mod p^(k+1).

    Under good reduction every point must lift in exactly norm(p)^(amb-d)
    ways, i.e. the histogram is a single bin.

    The enumeration of X mod p^(k+1) is set up first, so a census over the
    cap raises CapExceeded before it sweeps anything, even at a bad prime.
    Then X mod p is swept as the guard, which raises BadReduction at the
    first singular point.  Nothing mod p^(k+1) is listed before the guard
    passes, so a bad prime costs that one sweep.  At k = 1 the guard's
    fibers are X mod p^k themselves: the prime's context has the same HNF
    basis as p^1, so the same residue indices, and X mod p is swept once.

    Points are keyed by residue index: ``down[i]`` (``index_map``) is the
    index mod p^k of residue i of O/p^(k+1), so each point mod p^(k+1) is
    reduced by lookups.  k must be at least 1: below it, X mod p^k is not a
    variety over a residue ring, and ValueError is raised before any set-up.
    """
    if k < 1:
        raise ValueError(f"census needs k >= 1, got k = {k}")
    ctx_k1 = residue_ctx(ring, prime_power(ring, prime_factor, k + 1))
    upper = variety_indices(ctx_k1, V, cap)  # checks the cap, builds nothing
    ctx_k = prime_ctx(ring, prime_factor)
    fibers = smooth_points(ctx_k, V, cap)  # raises BadReduction when singular
    if k > 1:
        for _ in fibers:
            pass
        ctx_k = residue_ctx(ring, prime_power(ring, prime_factor, k))
        fibers = variety_indices(ctx_k, V, cap)
    lifts = {(i,) + rest: 0 for rest, x1s in fibers for i in x1s}
    down = index_map(ctx_k1, ctx_k)
    for rest, x1s in upper:
        below = tuple([down[i] for i in rest])
        for i in x1s:
            lifts[(down[i],) + below] += 1
    return dict(Counter(lifts.values()))


# --- Example: circle x^2 + y^2 = c over Q(sqrt(-5)), f = x - a ---

_QSQRT5_POLY = (5, 0, 1)


def _m_of_p(p, a, c):
    if (c - a * a) % p == 0:
        return 2
    if (c - 2 * a * a) % p == 0:
        return 3
    return 4


def example25_count(ring, a, c, factors, mode="corrected"):
    """Closed-form circle count over Q(sqrt(-5)).

    mode='corrected' weights the intersection by m(p) whenever c - a^2 is a
    square (including 0) in the residue field, which is what the direct count
    of the intersection set gives.  mode='strict_paper' keeps the printed
    (chi + 1)/2 gate, which diverges when chi = 0; the divergence is the
    point of exposing both modes.  chi = 0 forces m(p) = 2, so the gated
    count is an int in both modes.

    n is given by its factorization, as factor_ideal returns it.  The
    splitting of p is read off each prime: inert when f = 2, ramified when
    e = 2, split otherwise.  The counts and the total are ints; only each
    local factor (count_X - count_N)/q is a Fraction.
    """
    if ring.min_poly != _QSQRT5_POLY:
        raise NotQSqrtMinus5("the closed form is specific to g = x^2 + 5")
    if mode not in ("corrected", "strict_paper"):
        raise ValueError(f"unknown mode {mode!r}")
    if c == 0:
        raise BadModulus("c must be nonzero")
    if not factors:
        raise UnitIdeal("modulus must be a proper ideal")
    n_norm = norm_of_factors(factors)
    if gcd(n_norm, 2 * c) != 1:
        raise BadModulus(f"norm {n_norm} must be coprime to 2c = {2 * c}")
    classes = {"split": (1, 3, 7, 9), "inert": (11, 13, 17, 19), "ramified": (5,)}
    locals_ = []
    total = 1
    for pf in factors:
        p = pf.p
        splitting = (
            "inert" if pf.f_res == 2 else "ramified" if pf.e_ram == 2 else "split"
        )
        # cross-check against the p mod 20 classification
        if p % 20 not in classes[splitting]:
            raise ExunitsError(f"{p} is {splitting}, against its class mod 20")
        m = _m_of_p(p, a, c)
        q = pf.norm
        if splitting == "inert":
            # -1 and c - a^2 are always squares in F_{p^2}
            count_x, count_n = q - 1, m
        else:
            field = prime_field(prime_ctx(ring, pf))
            count_x = q - field.eta(field.encode(ring.from_int(-1)))
            chi = field.eta(field.encode(ring.from_int(c - a * a)))
            count_n = m * (chi >= 0) if mode == "corrected" else m * (chi + 1) // 2
        factor = Fraction(count_x - count_n, q)
        locals_.append(
            LocalData(prime=pf, count_X=count_x, count_N=count_n, factor=factor)
        )
        total *= q ** (pf.exponent - 1) * (count_x - count_n)
    return CountReport(modulus_norm=n_norm, locals=locals_, total=total)


# --- asymptotics diagnostics ---


def langweil_deviation(ring, V, prime_factor, cap=DEFAULT_CAP):
    """Deviation of #X(O_K/p) from q^r against the reference bound.

    The bound uses the declared degree l as (l-1)(l-2) q^(r-1/2) plus an
    empirical 3l q^(r-1) stand-in for the unspecified lower-order constant.
    """
    q = prime_factor.norm
    fibers = smooth_points(prime_ctx(ring, prime_factor), V, cap)
    count_x = sum(len(x1s) for _, x1s in fibers)
    r = V.amb - V.codim
    ell = V.declared_degree
    deviation = abs(count_x - q ** r)
    bound = (ell - 1) * (ell - 2) * q ** (r - 0.5) + 3 * ell * q ** (r - 1)
    return {
        "q": q,
        "count_X": count_x,
        "deviation": deviation,
        "bound": bound,
    }


def _prime_text(pf):
    """(p,[h]) of a prime factor, with ^exponent after it unless that is 1."""
    base = f"({pf.p},{list(pf.h_coeffs)})".replace(" ", "")
    return base if pf.exponent == 1 else f"{base}^{pf.exponent}"


def _prime_order(pf):
    return pf.p, pf.h_coeffs


def _describe(factors):
    """Deterministic text form of a factorization, by (p, h) of its primes."""
    return "*".join(map(_prime_text, sorted(factors, key=_prime_order)))


def describe_ideal(ring, n_ideal):
    """Deterministic text form of an ideal via its prime factorization."""
    return _describe(factor_ideal(ring, n_ideal))


# one swept prime of asympt_series: the numerator and denominator of its
# local factor, and its terms of a record
_Swept = namedtuple("_Swept", "num den inv_sqrt inv dev")


def _swept_prime(ring, V, f, pf, cap):
    """The _Swept of pf, or the BadReduction or CapExceeded its sweep raised."""
    try:
        factor = local_counts(ring, V, f, pf, cap=cap).factor
    except (BadReduction, CapExceeded) as exc:
        return exc
    q = pf.norm
    return _Swept(
        factor.numerator,
        factor.denominator,
        q ** -0.5,
        1.0 / q,
        float(abs(factor - 1)),
    )


def asympt_series(ring, V, f, family, cap=DEFAULT_CAP):
    """One AsymptRecord per modulus; members with a skipped prime are skipped.

    Each member of family is a modulus given by its factorization: a list of
    PrimeFactor with exponents, as factor_ideal returns it.  Each distinct
    prime is swept once per call, and a prime whose sweep raised
    BadReduction or CapExceeded skips every modulus it divides.  Its local
    factor is kept with its terms of a record as floats: 1/sqrt(q), 1/q and
    |factor - 1|.  A record is built in one pass over the factors of its
    modulus, which sums these in the order of the factors and takes the max
    of the last, which is the rounded max of the exact deviations, since
    rounding is monotone.  Each (p,[h])^e text is built once.  Nothing is
    kept when the call returns.
    """
    swept = {}  # (p, h_coeffs) -> _Swept, BadReduction or CapExceeded
    texts = {}  # ((p, h_coeffs), exponent) -> _prime_text
    r = V.amb - V.codim
    records = []
    for factors in family:
        if not factors:
            raise UnitIdeal("modulus must be a proper ideal")
        skipped = False
        n_norm = num = den = 1
        sum_inv_sqrt = sum_inv = 0
        max_dev = 0.0
        description = []
        for pf in factors:
            key = (pf.p, pf.h_coeffs)
            s = swept.get(key)
            if s is None:
                s = swept[key] = _swept_prime(ring, V, f, pf, cap)
            if isinstance(s, ExunitsError):
                skipped = True
                continue
            n_norm *= pf.norm ** pf.exponent
            num *= s.num
            den *= s.den
            sum_inv_sqrt += s.inv_sqrt
            sum_inv += s.inv
            max_dev = max(max_dev, s.dev)
            text = texts.get((key, pf.exponent))
            if text is None:
                text = texts[key, pf.exponent] = _prime_text(pf)
            description.append((key, text))
        if skipped:
            continue
        count = _product_formula(V, n_norm, num, den)
        description.sort(key=itemgetter(0))
        records.append(
            AsymptRecord(
                description="*".join(map(itemgetter(1), description)),
                N=n_norm,
                count=count,
                ratio=Fraction(count, n_norm ** r),
                omega=len(factors),
                sum_inv_sqrt=sum_inv_sqrt,
                sum_inv=sum_inv,
                max_local_dev=max_dev,
            )
        )
    return records


def good_reduction_primes(ring, V, max_norm, cap=DEFAULT_CAP):
    """All prime ideals of norm <= max_norm at which X reduces well."""
    out = []
    for pf in prime_ideals_up_to(ring, max_norm):
        try:
            witness = check_good_reduction(ring, V, pf, cap=cap)
        except CapExceeded:
            continue  # a prime over the cap is left out
        if witness is None:
            out.append(pf)
    return out
