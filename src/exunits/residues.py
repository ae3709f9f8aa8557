"""Arithmetic in and enumeration of the quotient O_K / n.

Residues are canonical coordinate tuples: coordinate i lies in
[0, basis[i][i]) for the modulus HNF basis.  Arithmetic is exact ring
arithmetic followed by reduction; the only tables are the powers of all
residues, built on first use and kept with their context (``power_table``),
and the units of O/n, decided by walking powers (``unit_flags``).

Enumeration is fixed in lexicographic order of (c_{d-1}, ..., c_0), i.e.
the highest power-basis coordinate varies slowest.
"""

from dataclasses import dataclass, field

from .errors import (
    EvenCharacteristic,
    ExunitsError,
    NotAUnit,
    NotPrime,
    UnitIdeal,
    ZeroIdeal,
)
from .ideals import hnf_from_generators, ideal_norm
from .number_ring import elem_add, elem_mul, elem_sub, is_zero


@dataclass(frozen=True)
class ResidueCtx:
    """A number ring together with a proper modulus ideal.

    ``prime`` is set when the context was built from a PrimeFactor, which
    unlocks the residue-field operations (inversion, square classes).
    ``powers`` holds the tables of ``power_table`` once they are built.
    """

    ring: object
    modulus: object
    norm: int
    prime: object = None
    powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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
    """Canonical representative of a modulo the context ideal."""
    basis = ctx.modulus.basis
    c = list(a)
    for i in range(len(c) - 1, -1, -1):
        q = c[i] // basis[i][i]
        if q:
            row = basis[i]
            for j in range(i + 1):
                c[j] -= q * row[j]
    return tuple(c)


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

    Each table is built on first use and kept in ``ctx.powers``, so that
    everything compiled against one context shares one list of residues and
    one table per exponent.
    """
    tables = ctx.powers
    if 1 not in tables:
        tables[1] = list(residues(ctx))
    if e not in tables:
        tables[e] = [pow_mod(ctx, rep, e) for rep in tables[1]]
    return tables[e]


def residue_index(ctx, r):
    """The index of the canonical residue r in the order of ``residues``."""
    basis = ctx.modulus.basis
    idx = 0
    for i in range(len(r) - 1, -1, -1):
        idx = idx * basis[i][i] + r[i]
    return idx


def unit_flags(ctx):
    """Which residues are units of O/n: a bytearray in index order, 1 or 0.

    Decided by walking powers with ring products mod n alone, so no
    factorization, CRT or Hensel lifting is involved.  From each residue a
    with no verdict the walk takes a, a^2, a^3, ... until it reaches a
    residue that has one, or closes a cycle, and every residue on the walk
    takes one verdict:

    * unit, if it reached a unit (1 is seeded as one), since a power of a
      is a unit only when a is;
    * non-unit, if it reached a non-unit (0 is seeded as one), or closed a
      cycle without reaching 1, since the powers of a unit are purely
      periodic and pass through 1.

    A walk costs one product per residue it decides, so O/n costs at most
    norm products where ``is_unit_mod`` costs one HNF per residue.
    """
    unknown, on_walk = 2, 3
    reps = power_table(ctx, 1)
    flags = bytearray([unknown]) * ctx.norm
    flags[0] = 0
    flags[residue_index(ctx, reduce_mod(ctx, ctx.ring.one))] = 1
    for start in range(ctx.norm):
        if flags[start] != unknown:
            continue
        a = x = reps[start]
        walk = [start]
        flags[start] = on_walk
        while True:
            x = mul_mod(ctx, x, a)
            j = residue_index(ctx, x)
            if flags[j] != unknown:
                break
            flags[j] = on_walk
            walk.append(j)
        verdict = 0 if flags[j] == on_walk else flags[j]
        for j in walk:
            flags[j] = verdict
    return flags


def add_mod(ctx, a, b):
    return reduce_mod(ctx, elem_add(ctx.ring, a, b))


def sub_mod(ctx, a, b):
    return reduce_mod(ctx, elem_sub(ctx.ring, a, b))


def mul_mod(ctx, a, b):
    return reduce_mod(ctx, elem_mul(ctx.ring, a, b))


def pow_mod(ctx, a, e):
    """a^e mod n for e >= 0, by left-to-right square-and-multiply."""
    base = reduce_mod(ctx, a)
    if not e:
        return reduce_mod(ctx, ctx.ring.one)
    result = base
    for bit in bin(e)[3:]:
        result = mul_mod(ctx, result, result)
        if bit == "1":
            result = mul_mod(ctx, result, base)
    return result


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


def field_inverse(ctx, a):
    """Inverse in the residue field O_K/p, as a^(q-2) by square-and-multiply."""
    if ctx.prime is None:
        raise NotPrime("field_inverse requires a prime modulus context")
    r = reduce_mod(ctx, a)
    if is_zero(r):
        raise NotAUnit("element lies in the prime ideal")
    return pow_mod(ctx, r, ctx.norm - 2)


def square_class(ctx, a):
    """Euler's criterion in the residue field: 0, +1 or -1."""
    if ctx.prime is None:
        raise NotPrime("square_class requires a prime modulus context")
    if ctx.norm % 2 == 0:
        raise EvenCharacteristic("square classes need odd residue field order")
    r = reduce_mod(ctx, a)
    if is_zero(r):
        return 0
    val = pow_mod(ctx, r, (ctx.norm - 1) // 2)
    if val == reduce_mod(ctx, ctx.ring.one):
        return 1
    if val != reduce_mod(ctx, ctx.ring.from_int(-1)):
        raise ExunitsError("Euler's criterion gave neither 1 nor -1")
    return -1
