"""Counting polynomial-type exceptional units on affine varieties.

Three mutually checking routes are implemented:

* ``brute_force_count``  -- the oracle: it enumerates X(O_K/n) fiber by
  fiber over the unit residues and counts the points; it never assumes
  smoothness or good reduction, and it decides the units of O_K/n by
  walking powers (``residues.unit_flags``), not by factoring n.
* ``theorem1_count``     -- the local-global product over primes dividing n,
  valid under good reduction; cost is independent of the exponents in n.
* ``example25_count``    -- the closed form for the circle x^2 + y^2 = c over
  Q(sqrt(-5)) with f = x - a, in two gating modes (see below).

Plus diagnostics: a lifting census between successive prime powers, a
Lang-Weil style deviation report, and an asymptotics series used to probe
error-term behaviour empirically.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, prod

from .errors import (
    BadModulus,
    BadReduction,
    CapExceeded,
    ConstantPolynomial,
    ExunitsError,
    NotQSqrtMinus5,
    UnitIdeal,
)
from .ideals import factor_ideal, ideal_norm, ideal_pow, prime_ideals_up_to
from .polys import (
    DEFAULT_CAP,
    _evaluator,
    check_good_reduction,
    smooth_points,
    variety_indices,
)
from .residues import (
    arithmetic,
    index_map,
    prime_ctx,
    residue_ctx,
    square_class,
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
    """Lazily, for each residue index i: is f(residue_i) a unit mod the ideal?

    f(residue_i) is looked up in ``unit_flags``, which decides the units of
    O/n with no factorization.  f and the flags are built on the first
    value, so that nothing is built before then.
    """
    value = _evaluator(ctx, f.terms)
    index = arithmetic(ctx).index
    units = unit_flags(ctx)
    for i in range(ctx.norm):
        yield units[index(value((i,)))] == 1


def brute_force_count(ring, V, f, n_ideal, cap=DEFAULT_CAP):
    """Literal count of tuples on X with every f(x_i) a unit mod n."""
    _check_f(f)
    ctx = residue_ctx(ring, n_ideal)
    # lazy, so that the kernel's cap check runs before f is evaluated
    units = (i for i, unit in enumerate(_exunit_flags(ctx, f)) if unit)
    return sum(len(x1s) for _, x1s in variety_indices(ctx, V, cap, units))


def local_counts(ring, V, f, prime_factor, cap=DEFAULT_CAP):
    """#X(O_K/p), #N^f(p, X) and the exact local factor, in one sweep.

    Requires good reduction at p: each point's Jacobian rank is checked as it
    is counted, and the first singular point raises BadReduction.  The sweep
    and f share one residue context, so the arithmetic of O_K/p is built
    once.
    """
    _check_f(f)
    ctx = prime_ctx(ring, prime_factor)
    flags = None
    count_x = count_n = 0
    for rest, x1s in smooth_points(ctx, V, cap):  # checks the cap first
        if flags is None:
            # f is evaluated only once X(O_K/p) is known to have a point
            flags = list(_exunit_flags(ctx, f))
        count_x += len(x1s)
        # a point lies in N when some f(x_i) is not a unit, i.e. is zero mod
        # p: every point of the fiber if some f(x_j), j >= 2, is not
        if all(map(flags.__getitem__, rest)):
            count_n += len(x1s) - sum(map(flags.__getitem__, x1s))
        else:
            count_n += len(x1s)
    factor = Fraction(count_x - count_n, ctx.norm ** (V.amb - V.codim))
    return LocalData(
        prime=prime_factor, count_X=count_x, count_N=count_n, factor=factor
    )


def theorem1_count(ring, V, f, n_ideal, cap=DEFAULT_CAP):
    """The product formula: norm(n)^(amb-d) times the local factors.

    Only the per-prime enumeration caps apply; the modulus itself may be
    astronomically large as long as its primes are small.
    """
    _check_f(f)
    n_norm = ideal_norm(n_ideal)
    if n_norm < 2:
        raise UnitIdeal("modulus must be a proper ideal")
    locals_ = [
        local_counts(ring, V, f, pf, cap=cap) for pf in factor_ideal(ring, n_ideal)
    ]
    return CountReport(
        modulus_norm=n_norm, locals=locals_, total=_product_formula(V, n_norm, locals_)
    )


def _product_formula(V, n_norm, locals_):
    """norm(n)^(amb-d) times the local factors of the primes dividing n.

    Raises unless the result is a count: an integer in [0, norm(n)^amb].
    """
    total = Fraction(n_norm ** (V.amb - V.codim))
    for ld in locals_:
        total *= ld.factor
    if total.denominator != 1:
        raise ExunitsError(f"product formula left a non-integral count {total}")
    total = int(total)
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
    passes, so a bad prime costs that one sweep.

    Points are keyed by residue index: ``down[i]`` (``index_map``) is the
    index mod p^k of residue i of O/p^(k+1), so each point mod p^(k+1) is
    reduced by lookups.
    """
    ctx_k1 = residue_ctx(ring, ideal_pow(ring, prime_factor.hnf, k + 1))
    upper = variety_indices(ctx_k1, V, cap)  # checks the cap, builds nothing
    for _ in smooth_points(prime_ctx(ring, prime_factor), V, cap):
        pass  # raises BadReduction at the first singular point
    ctx_k = residue_ctx(ring, ideal_pow(ring, prime_factor.hnf, k))
    lifts = {
        (i,) + rest: 0 for rest, x1s in variety_indices(ctx_k, V, cap) for i in x1s
    }
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


def example25_count(ring, a, c, n_ideal, mode="corrected"):
    """Closed-form circle count over Q(sqrt(-5)).

    mode='corrected' weights the intersection by m(p) whenever c - a^2 is a
    square (including 0) in the residue field, which is what the direct count
    of the intersection set gives.  mode='strict_paper' keeps the printed
    (chi + 1)/2 gate, which diverges when chi = 0; the divergence is the
    point of exposing both modes.  chi = 0 forces m(p) = 2, so the gated
    count is an int in both modes.

    The splitting of p is read off each prime that factor_ideal gives: inert
    when f = 2, ramified when e = 2, split otherwise.  The counts and the
    total are ints; only each local factor (count_X - count_N)/q is a
    Fraction.
    """
    if ring.min_poly != _QSQRT5_POLY:
        raise NotQSqrtMinus5("the closed form is specific to g = x^2 + 5")
    if mode not in ("corrected", "strict_paper"):
        raise ValueError(f"unknown mode {mode!r}")
    if c == 0:
        raise BadModulus("c must be nonzero")
    n_norm = ideal_norm(n_ideal)
    if n_norm < 2:
        raise UnitIdeal("modulus must be a proper ideal")
    if gcd(n_norm, 2 * c) != 1:
        raise BadModulus(f"norm {n_norm} must be coprime to 2c = {2 * c}")
    classes = {"split": (1, 3, 7, 9), "inert": (11, 13, 17, 19), "ramified": (5,)}
    locals_ = []
    total = 1
    for pf in factor_ideal(ring, n_ideal):
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
            ctx = prime_ctx(ring, pf)
            count_x = q - square_class(ctx, ring.from_int(-1))
            chi = square_class(ctx, ring.from_int(c - a * a))
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


def _describe(factors):
    """Deterministic text form of a factorization, by (p, h) of its primes."""
    parts = []
    for pf in sorted(factors, key=lambda f: (f.p, f.h_coeffs)):
        base = f"({pf.p},{list(pf.h_coeffs)})".replace(" ", "")
        parts.append(base if pf.exponent == 1 else f"{base}^{pf.exponent}")
    return "*".join(parts)


def describe_ideal(ring, n_ideal):
    """Deterministic text form of an ideal via its prime factorization."""
    return _describe(factor_ideal(ring, n_ideal))


def asympt_series(ring, V, f, family, cap=DEFAULT_CAP):
    """One AsymptRecord per modulus; members with a skipped prime are skipped.

    Each member of family is a modulus given by its factorization: a list of
    PrimeFactor with exponents, as factor_ideal returns it.  Each distinct
    prime is swept once per call: its LocalData serves every modulus it
    divides, and a prime whose sweep raised BadReduction or CapExceeded
    skips them all.  Nothing is kept when the call returns.
    """
    swept = {}  # (p, h_coeffs) -> LocalData, BadReduction or CapExceeded
    records = []
    for factors in family:
        if not factors:
            raise UnitIdeal("modulus must be a proper ideal")
        locals_ = []
        for pf in factors:
            key = (pf.p, pf.h_coeffs)
            if key not in swept:
                try:
                    swept[key] = local_counts(ring, V, f, pf, cap=cap)
                except (BadReduction, CapExceeded) as exc:
                    swept[key] = exc
            locals_.append(swept[key])
        if any(isinstance(ld, ExunitsError) for ld in locals_):
            continue
        n_norm = prod(pf.norm ** pf.exponent for pf in factors)
        count = _product_formula(V, n_norm, locals_)
        norms = [pf.norm for pf in factors]
        max_dev = max(abs(ld.factor - 1) for ld in locals_)
        records.append(
            AsymptRecord(
                description=_describe(factors),
                N=n_norm,
                count=count,
                ratio=Fraction(count, n_norm ** (V.amb - V.codim)),
                omega=len(factors),
                sum_inv_sqrt=sum(q ** -0.5 for q in norms),
                sum_inv=sum(1.0 / q for q in norms),
                max_local_dev=float(max_dev),
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
