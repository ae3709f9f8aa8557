"""Arithmetic in and enumeration of the quotient O_K / n.

Residues are canonical coordinate tuples: coordinate i lies in
[0, basis[i][i]) for the modulus HNF basis.  Arithmetic is exact ring
arithmetic followed by reduction.  The only tables are the powers of all
residues, built on first use and kept with their context (``power_table``);
the units of O/n (``unit_flags``); and, at a prime of residue degree
f >= 2, the log, antilog and Zech tables of the residue field
(``field_tables``).

``arithmetic`` gives the point kernel one of three forms of O/n, by the
shape of the modulus: when every HNF diagonal entry after the first is 1,
so that O/n is Z/N (as at every prime of degree 1), residue indices as ints
mod N; at a prime of degree f >= 2, residue indices through the field
tables; otherwise coordinate tuples.  ``prime_field`` gives the residue
field O/P, with no table, to its inverse, its square classes and the closed
form of diagonal quadrics.

Enumeration is fixed in lexicographic order of (c_{d-1}, ..., c_0), i.e.
the highest power-basis coordinate varies slowest.
"""

from collections import namedtuple
from functools import partial
from itertools import repeat
from math import gcd
from operator import add, index, mul, neg

from . import fpoly
from .errors import (
    EvenCharacteristic,
    ExunitsError,
    NotAUnit,
    NotPrime,
    UnitIdeal,
    ZeroIdeal,
)
from .ideals import (
    _reduce_by_basis,
    _small_prime_factors,
    hnf_from_generators,
    ideal_norm,
)
from .number_ring import (
    _check_dims,
    elem_add,
    elem_mul,
    elem_neg,
    elem_sub,
    is_zero,
    square_and_multiply,
)


class ResidueCtx:
    """A number ring together with a proper modulus ideal.

    ``prime`` is set when the context was built from a PrimeFactor, which
    unlocks the residue-field operations (inversion, square classes) and
    the field tables.  ``tables`` holds what is built on first use: the
    tables of ``power_table`` by exponent, ``arithmetic`` and ``prime_field``.
    """

    __slots__ = ("ring", "modulus", "norm", "prime", "tables")

    def __init__(self, ring, modulus, norm, prime=None):
        self.ring = ring
        self.modulus = modulus
        self.norm = norm
        self.prime = prime
        self.tables = {}


def residue_ctx(ring, modulus):
    n = ideal_norm(modulus)
    if n < 2:
        raise UnitIdeal("modulus must be a proper ideal (norm >= 2)")
    return ResidueCtx(ring=ring, modulus=modulus, norm=n)


def prime_ctx(ring, prime_factor):
    return ResidueCtx(
        ring=ring,
        modulus=prime_factor.hnf,
        norm=prime_factor.norm,
        prime=prime_factor,
    )


def reduce_mod(ctx, a):
    """Canonical representative of a modulo the context ideal; an a with
    other than one coordinate per power of theta raises DimensionMismatch."""
    if len(a) != ctx.ring.deg:
        _check_dims(ctx.ring, a)  # raises DimensionMismatch
    return _reduce_by_basis(ctx.modulus.basis, a)


def residues(ctx):
    """Yield the canonical representatives in index order.

    Index 0 is the zero residue; coordinate 0 is the least significant
    mixed-radix digit.
    """
    radices = [row[i] for i, row in enumerate(ctx.modulus.basis)]
    for idx in range(ctx.norm):
        rem = idx
        coords = []
        for r in radices:
            rem, digit = divmod(rem, r)
            coords.append(digit)
        yield tuple(coords)


def power_table(ctx, e):
    """The e-th powers of all residues, in index order; e = 1 gives the residues.

    Each table is built on first use and kept in ``ctx.tables``, so that
    everything compiled against one context shares one list of residues and
    one table per exponent.
    """
    tables = ctx.tables
    if 1 not in tables:
        tables[1] = list(residues(ctx))
    if e not in tables:
        tables[e] = [pow_mod(ctx, rep, e) for rep in tables[1]]
    return tables[e]


def _is_cyclic(ctx):
    """True when every HNF diagonal entry after the first is 1: then the
    first is N = Norm(n), the residue of index i is (i, 0, ..., 0), and O/n
    is Z/N."""
    return all(row[i] == 1 for i, row in enumerate(ctx.modulus.basis) if i)


def index_map(ctx, coarser):
    """For each residue index i of ctx, the index in ``coarser`` of residue i
    reduced modulo it; the modulus of ``coarser`` must contain that of ctx.

    When both rings are Z/N, residue i reduces to i mod Norm(coarser), and
    no residue is built as a tuple; otherwise each residue of ctx is listed,
    in the table that ``power_table(ctx, 1)`` keeps, and reduced.
    """
    if _is_cyclic(ctx) and _is_cyclic(coarser):
        return list(map(coarser.norm.__rmod__, range(ctx.norm)))
    return [residue_index(coarser, reduce_mod(coarser, r)) for r in power_table(ctx, 1)]


def residue_index(ctx, r):
    """The index of the canonical residue r in the order of ``residues``."""
    basis = ctx.modulus.basis
    idx = 0
    for i in range(len(r) - 1, -1, -1):
        idx = idx * basis[i][i] + r[i]
    return idx


def unit_flags(ctx):
    """Which residues are units of O/n: a bytearray in index order, 1 or 0.

    At a prime context the units are the nonzero residues.  When O/n is Z/N
    (``_is_cyclic``), residue i is a unit iff gcd(i, N) = 1, decided in one
    map.  Otherwise they are decided by walking powers with the products of
    ``arithmetic(ctx)`` alone, so no gcd, factorization, CRT or Hensel
    lifting is involved.  From each residue a with no verdict the walk takes
    a, a^2, a^3, ... until it reaches a residue that has one, or closes a
    cycle, and every residue on the walk takes one verdict:

    * unit, if it reached a unit (1 is seeded as one), since a power of a
      is a unit only when a is;
    * non-unit, if it reached a non-unit (0 is seeded as one), or closed a
      cycle without reaching 1, since the powers of a unit are purely
      periodic and pass through 1.

    A walk costs one product per residue it decides, so O/n costs at most
    norm products where ``is_unit_mod`` costs one HNF per residue.
    """
    if ctx.prime is not None:
        return bytearray([0]) + bytearray([1]) * (ctx.norm - 1)
    if _is_cyclic(ctx):
        n = ctx.norm
        return bytearray(map((1).__eq__, map(gcd, range(n), repeat(n))))
    unknown, on_walk = 2, 3
    ops = arithmetic(ctx)
    element = ops.term(ctx.ring.one, 1)  # residue index -> its element
    mul, reduce, index_of = ops.mul, ops.reduce, ops.index
    flags = bytearray([unknown]) * ctx.norm
    flags[0] = 0
    flags[index_of(ops.encode(ctx.ring.one))] = 1
    for start in range(ctx.norm):
        if flags[start] != unknown:
            continue
        a = x = element(start)
        walk = [start]
        flags[start] = on_walk
        while True:
            x = reduce(mul(x, a))
            j = index_of(x)
            if flags[j] != unknown:
                break
            flags[j] = on_walk
            walk.append(j)
        verdict = 0 if flags[j] == on_walk else flags[j]
        for j in walk:
            flags[j] = verdict
    return flags


def add_mod(ctx, a, b):
    return _reduce_by_basis(ctx.modulus.basis, elem_add(ctx.ring, a, b))


def sub_mod(ctx, a, b):
    return _reduce_by_basis(ctx.modulus.basis, elem_sub(ctx.ring, a, b))


def mul_mod(ctx, a, b):
    return _reduce_by_basis(ctx.modulus.basis, elem_mul(ctx.ring, a, b))


def pow_mod(ctx, a, e):
    """a^e mod n for e >= 0, by ``square_and_multiply`` with ``mul_mod``."""
    if not e:
        return reduce_mod(ctx, ctx.ring.one)
    return square_and_multiply(reduce_mod(ctx, a), e, partial(mul_mod, ctx))


def field_tables(ctx):
    """Log, antilog and Zech tables of the residue field O/P, by residue index.

    g is the first primitive element in index order, found by testing
    g^((q-1)/r) != 1 for each prime r dividing q - 1; P has degree f >= 2,
    so q > p and the search starts past the subfield F_p, whose indices
    come first.  Then, with m = q - 1:

    * ``exp[k]`` is the index of g^k, for 0 <= k < m;
    * ``log[i]`` is the k with exp[k] = i, for every nonzero index i
      (``log[0]`` is -1: zero has no log);
    * ``zech[k]`` is log(1 + g^k), or -1 where 1 + g^k = 0 (Zech's
      logarithm; Lidl and Niederreiter, *Finite Fields*, and K. Huber, IEEE
      Trans. IT 36, 1990).

    The search takes each power in ``prime_field(ctx)``, by
    ``square_and_multiply`` with its ``mul``.  Past it, and the
    f ring products that give the matrix of g, neither the walk over the
    powers of g nor the Zech table needs a ring product.  Every HNF row of P
    with diagonal p is p times a unit vector, so the f digits of an index
    are its coordinates of radix p, the sum of two residues is their
    digit-wise sum mod p, adding 1 adds 1 to the lowest digit, and
    multiplying by g is a matrix over F_p on the digits.
    Raises ExunitsError, naming p and q, unless every nonzero index received
    a log.
    """
    basis = ctx.modulus.basis
    p = basis[0][0]
    q = ctx.norm
    m = q - 1
    field = prime_field(ctx)
    one = field.residue(1)
    primes = _small_prime_factors(m)

    def is_primitive(a):
        return all(square_and_multiply(a, m // r, field.mul) != one for r in primes)

    # the indices below p are the subfield F_p: none is primitive; if no
    # element is (O/P is no field), g = 1 and the guard below raises
    g = field.decode(next(filter(is_primitive, map(field.residue, range(p, q))), one))
    coords = [i for i, row in enumerate(basis) if row[i] > 1]  # of radix p
    vectors = [tuple(int(j == i) for j in range(len(basis))) for i in coords]
    images = [mul_mod(ctx, g, v) for v in vectors]
    matrix = [[image[j] for image in images] for j in coords]
    weights = [p ** j for j in range(len(coords))]
    log = [-1] * q
    exp = [0] * m
    digits = [1] + [0] * (len(coords) - 1)
    for k in range(m):
        i = sum(map(mul, weights, digits))
        exp[k] = i
        log[i] = k
        digits = [sum(map(mul, row, digits)) % p for row in matrix]
    # index 0, and only index 0, has no log
    if log[0] != -1 or log.count(-1) != 1:
        raise ExunitsError(
            f"the powers of a primitive element miss residues of O/P "
            f"(p = {ctx.prime.p}, q = {q})"
        )
    zech = [-1] * m
    for k, i in enumerate(exp):
        j = i - i % p + (i + 1) % p
        if j:
            zech[k] = log[j]
    return log, exp, zech


def arithmetic(ctx):
    """The arithmetic of O/n that the point kernel compiles against.

    Built on first use and kept with ctx.  It hides the form of an element:

    * when every HNF diagonal entry after the first is 1, as at a prime of
      residue degree 1, the first is N and the residue of index i is
      (i, 0, ..., 0): O/n is Z/N, an element is an int, ``add``, ``neg``
      and ``mul`` are integer arithmetic, and ``reduce`` takes it mod N;
    * otherwise, at a prime context (``ctx.prime`` set), an element is the
      residue's index in the order of ``residues``, and arithmetic goes
      through the tables of ``field_tables``, so every result is canonical;
    * otherwise it is a ring element tuple: ``add``, ``neg`` and ``mul`` are
      ring arithmetic, and ``reduce`` (``reduce_mod``) makes a result
      canonical once at the end, as for any tuple in this module.

    Each object has ``zero``; ``encode(a)``, the canonical element of a
    ring element a; ``add``, ``neg``, ``mul`` and ``reduce``; and, for e >= 1,
    ``term(c, e)``, the function from a residue index i to the canonical
    element of c * r_i^e, where r_i is the i-th residue (e < 1 raises
    ExunitsError).  Two canonical elements are equal iff their residues
    are.  Every form also has ``index(x)``, the residue index of a canonical
    element x, for reading ``unit_flags``.  Only this function names the
    three classes.
    """
    ops = ctx.tables.get("arithmetic")
    if ops is None:
        if _is_cyclic(ctx):
            kind = _CyclicArithmetic
        elif ctx.prime is not None:
            kind = _FieldArithmetic
        else:
            kind = _RingArithmetic
        ops = ctx.tables["arithmetic"] = kind(ctx)
    return ops


def _check_term_exponent(e):
    """Refuse e < 1 in ``term(c, e)``: at e = 0 the value at index 0 is
    c * 0^0, which the field form, reading x^e off log x, cannot give."""
    if e < 1:
        raise ExunitsError(f"term needs an exponent of at least 1, not {e}")


class _RingArithmetic:
    """O/n as tuples; powers are read from ``power_table``."""

    def __init__(self, ctx):
        ring = ctx.ring
        self.ctx = ctx
        self.zero = ring.zero
        self.encode = self.reduce = partial(_reduce_by_basis, ctx.modulus.basis)
        self.index = partial(residue_index, ctx)
        self.add = partial(elem_add, ring)
        self.neg = partial(elem_neg, ring)
        self.mul = partial(elem_mul, ring)

    def term(self, c, e):
        _check_term_exponent(e)
        ctx = self.ctx
        table = power_table(ctx, e)
        if c == ctx.ring.from_int(-1):
            table = [reduce_mod(ctx, elem_neg(ctx.ring, x)) for x in table]
        elif c != ctx.ring.one:
            table = [mul_mod(ctx, c, x) for x in table]
        return table.__getitem__


class _CyclicArithmetic:
    """O/n = Z/N as residue indices, the residue of index i being the int i."""

    zero = 0
    index = staticmethod(index)  # a canonical element is its own index
    add, neg, mul = staticmethod(add), staticmethod(neg), staticmethod(mul)

    def __init__(self, ctx):
        self.n = ctx.norm
        self.reduce = ctx.norm.__rmod__  # x -> x % N
        self.encode = lambda a: residue_index(ctx, reduce_mod(ctx, a))

    def term(self, c, e):
        _check_term_exponent(e)
        c, n = self.encode(c), self.n
        if c == 1 and e == 1:
            return index  # the residue of index i is i itself
        powers = map(pow, range(n), repeat(e), repeat(n))
        if c != 1:
            powers = map(n.__rmod__, map(c.__mul__, powers))
        return list(powers).__getitem__


class _FieldArithmetic:
    """O/P as residue indices, 0 the zero residue and i = g^log[i] otherwise.

    A product adds logs mod q - 1, a sum a + b = a * (1 + b/a) adds the Zech
    logarithm of b/a to log a, -a adds log(-1) to log a, and x^e multiplies
    log x by e, so no table is built per exponent.  Sums of two logs are not
    reduced: for 0 <= k < 2m, Python's negative indices read exp[k - m] as
    exp[k mod m].
    """

    zero = 0
    reduce = index = staticmethod(index)  # every result is its own index

    def __init__(self, ctx):
        log, exp, zech = field_tables(ctx)
        m = ctx.norm - 1
        log_minus_one = log[ctx.modulus.basis[0][0] - 1]  # -1 has index p - 1

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]
            return exp[la + z - m] if z >= 0 else 0

        def neg(a):
            return exp[log[a] + log_minus_one - m] if a else 0

        def mul(a, b):
            return exp[log[a] + log[b] - m] if a and b else 0

        self.encode = lambda a: residue_index(ctx, reduce_mod(ctx, a))
        self.add, self.neg, self.mul = add, neg, mul
        self.log, self.exp, self.m = log, exp, m

    def term(self, c, e):
        _check_term_exponent(e)
        c = self.encode(c)
        if not c:
            return lambda i: 0
        log, exp, m = self.log, self.exp, self.m
        lc = log[c]
        return lambda i: exp[(lc + log[i] * e) % m] if i else 0


def is_unit_mod(ctx, a):
    """True iff (a) + n = O_K, tested via the HNF of the joint span.

    The literal reference that the tests compare ``unit_flags`` with; the
    counting paths call ``unit_flags``.
    """
    if ctx.prime is not None:
        # in a field, unit just means nonzero
        return not is_zero(reduce_mod(ctx, a))
    gens = list(ctx.modulus.basis) + [tuple(a)]
    try:
        joint = hnf_from_generators(ctx.ring, gens)
    except ZeroIdeal:
        return False
    return ideal_norm(joint) == 1


_PrimeField = namedtuple(
    "_PrimeField", "zero encode decode eta mul sub inverse residue"
)


def prime_field(ctx):
    """The residue field O/P of the prime context ctx, with no table; built
    on first use and kept with ctx.

    At residue degree 1 an element is an int mod ``ctx.norm``, the index i
    of the residue (i, 0, ..., 0), and every operation is int arithmetic.
    At a prime (p, h) of degree f >= 2 it is the tuple of the first f
    coordinates of the canonical residue r: the HNF of P
    (``ideals._factor_hnf``) has diagonal p in its first f rows and 1 after
    them, so these are the coefficients of r(x) mod (p, h), and the
    operations are those of ``fpoly`` mod (p, h).

    ``encode(a)`` is the element of a ring element a, ``decode(x)`` the
    canonical residue of x, ``residue(i)`` the element of residue index i;
    ``mul``, ``sub`` and ``inverse`` act on elements.  ``eta`` is Euler's
    criterion on the norm N(x) = x^((q-1)/(p-1)) to F_p, as x^((q-1)/2) is
    N(x)^((p-1)/2) (Lidl and Niederreiter, *Finite Fields*): N(x) is x at
    degree 1 and Res(h, x) mod p above it.  Elements are hashable, and two
    are equal iff their residues are.
    """
    field = ctx.tables.get("prime_field")
    if field is not None:
        return field
    d, f = ctx.ring.deg, ctx.prime.f_res
    if f == 1:
        n = ctx.norm
        field = _PrimeField(
            zero=0,
            encode=lambda a: reduce_mod(ctx, a)[0],
            decode=lambda x: (x,) + (0,) * (d - 1),
            eta=partial(euler_criterion, p=n),
            mul=lambda x, y: x * y % n,
            sub=lambda x, y: (x - y) % n,
            inverse=lambda x: pow(x, -1, n),
            residue=int,
        )
    else:
        p, h = ctx.prime.p, ctx.prime.h_coeffs

        def pad(r):
            return tuple(r) + (0,) * (f - len(r))

        field = _PrimeField(
            zero=(0,) * f,
            encode=lambda a: reduce_mod(ctx, a)[:f],
            decode=lambda x: x + (0,) * (d - f),
            eta=lambda x: euler_criterion(fpoly.resultant(h, x, p), p),
            mul=lambda x, y: pad(fpoly.mulmod(x, y, h, p)),
            sub=lambda x, y: tuple((s - t) % p for s, t in zip(x, y)),
            inverse=lambda x: pad(fpoly.inverse(x, h, p)),
            residue=lambda i: tuple(i // p ** k % p for k in range(f)),
        )
    ctx.tables["prime_field"] = field
    return field


def field_inverse(ctx, a):
    """Inverse in the residue field O_K/p, by ``prime_field``: ``pow(i, -1,
    p)`` at residue degree 1, Euclid mod (p, h) above it."""
    if ctx.prime is None:
        raise NotPrime("field_inverse requires a prime modulus context")
    field = prime_field(ctx)
    x = field.encode(a)
    if x == field.zero:
        raise NotAUnit("element lies in the prime ideal")
    return field.decode(field.inverse(x))


def euler_criterion(a, p):
    """The Legendre symbol of the int a mod the odd prime p: 0, +1 or -1, by
    Euler's criterion a^((p-1)/2) in F_p."""
    if not a % p:
        return 0
    val = pow(a, (p - 1) // 2, p)
    if val == 1:
        return 1
    if val != p - 1:
        raise ExunitsError("Euler's criterion gave neither 1 nor -1")
    return -1


def square_class(ctx, a):
    """Euler's criterion in the residue field: 0, +1 or -1, the quadratic
    character ``eta`` of ``prime_field``."""
    if ctx.prime is None:
        raise NotPrime("square_class requires a prime modulus context")
    if ctx.norm % 2 == 0:
        raise EvenCharacteristic("square classes need odd residue field order")
    field = prime_field(ctx)
    return field.eta(field.encode(a))
