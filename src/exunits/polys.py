"""Multivariate polynomials over Z[theta], their parser, and variety checks.

Polynomials are sparse term maps: exponent vector -> nonzero coefficient
(a ring element tuple).  The text grammar is deliberately tiny:

    expr   := ['-'] term { ('+'|'-') term }
    term   := factor { '*' factor }
    factor := base [ '^' uint ]
    base   := var | uint | elemlit | 't' | '(' expr ')'
    var    := 'x' uint                      (1-based index)
    elemlit:= '[' int {',' int} ']'

't' stands for theta.  Implicit multiplication is a syntax error.
"""

from functools import partial
from itertools import compress, product, repeat
from math import comb
from operator import ne

from .errors import (
    BadReduction,
    CapExceeded,
    DimensionMismatch,
    ExponentTooLarge,
    PolySyntaxError,
    UnknownVariable,
)
from .number_ring import (
    elem_add,
    elem_mul,
    elem_neg,
    elem_scale,
    is_zero,
    square_and_multiply,
)
from .residues import (
    arithmetic,
    field_inverse,
    mul_mod,
    pow_mod,
    power_table,
    prime_ctx,
    reduce_mod,
    sub_mod,
)

MAX_EXPONENT = 2 ** 31 - 1

# bound on the digits of one number in a polynomial: Python's default bound on
# the digits of a text that ``int`` turns into an int
MAX_DIGITS = 4300

# bound on the depth of nested parentheses: each level takes four parser
# frames, so the parser stays well inside Python's default recursion limit
MAX_NESTING = 100

# bound on the terms that one '^' or '*' may expand to, checked before expanding
MAX_EXPANDED_TERMS = 500

# bound on the terms that all the '^' and '*' of one expression may expand to
# together: one expansion at the bound above, and half as many terms again
MAX_EXPRESSION_TERMS = 750

# bound on the bit length of the coefficients that a '^' or '*' may produce
MAX_COEFF_BITS = 2 ** 16

# default bound on the norm^amb candidate tuples of one enumeration
DEFAULT_CAP = 10 ** 8

# bound on the number of variables: every norm is at least 2, so a larger amb
# means at least 2^65 candidate tuples, which no enumeration can finish
MAX_AMB = 64


class MultiPoly:
    """Sparse polynomial in ``amb`` variables with ring-element coefficients.

    ``terms`` maps exponent tuples to coefficient tuples.  Equal when amb and
    terms are; not hashable, since terms is a dict.
    """

    __slots__ = ("amb", "terms")
    __hash__ = None

    def __init__(self, amb, terms):
        self.amb = amb
        self.terms = terms

    def __eq__(self, other):
        if type(other) is not MultiPoly:
            return NotImplemented
        return (self.amb, self.terms) == (other.amb, other.terms)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)


class VarietySpec:
    """Affine closed subscheme of A^amb cut out by ``equations``.

    codim is declared by the user and validated pointwise by the
    good-reduction rank check; declared_degree feeds the asymptotics mode.
    """

    __slots__ = ("amb", "codim", "equations", "declared_degree")

    def __init__(self, amb, codim, equations, declared_degree):
        _check_amb(amb)
        if equations:
            if not 1 <= codim <= amb:
                raise ValueError("codim must satisfy 1 <= codim <= amb")
        elif codim != 0:
            raise ValueError("codim must be 0 when there are no equations")
        for eq in equations:
            if eq.is_zero():
                raise ValueError("every equation must be nonzero")
        self.amb = amb
        self.codim = codim
        self.equations = equations
        self.declared_degree = declared_degree


def _check_amb(amb):
    if not 1 <= amb <= MAX_AMB:
        raise ValueError(f"amb must be from 1 to {MAX_AMB}, not {amb}")


# --- construction helpers ---


def zero_poly(amb):
    return MultiPoly(amb=amb, terms={})


def const_poly(ring, amb, coeff):
    if is_zero(coeff):
        return zero_poly(amb)
    return MultiPoly(amb=amb, terms={(0,) * amb: tuple(coeff)})


def var_poly(ring, amb, index):
    """The variable x_index (1-based)."""
    exps = tuple(1 if i == index - 1 else 0 for i in range(amb))
    return MultiPoly(amb=amb, terms={exps: ring.one})


def poly_add(ring, p, q):
    terms = dict(p.terms)
    for exps, c in q.terms.items():
        if exps in terms:
            s = elem_add(ring, terms[exps], c)
            if is_zero(s):
                del terms[exps]
            else:
                terms[exps] = s
        else:
            terms[exps] = c
    return MultiPoly(amb=p.amb, terms=terms)


def poly_neg(ring, p):
    return MultiPoly(
        amb=p.amb, terms={e: elem_neg(ring, c) for e, c in p.terms.items()}
    )


def poly_sub(ring, p, q):
    return poly_add(ring, p, poly_neg(ring, q))


def poly_mul(ring, p, q):
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = elem_mul(ring, c1, c2)
            if e in terms:
                c = elem_add(ring, terms[e], c)
            if is_zero(c):
                terms.pop(e, None)
            else:
                terms[e] = c
    return MultiPoly(amb=p.amb, terms=terms)


def poly_pow(ring, p, e):
    """p^e for e >= 0, by ``square_and_multiply`` with ``poly_mul``."""
    if not e:
        return const_poly(ring, p.amb, ring.one)
    return square_and_multiply(p, e, partial(poly_mul, ring))


# --- parser ---

_TOKEN_CHARS = set("+-*^()[],")


def _digit_run(src, i):
    """The end of the run of decimal digits that starts at offset i.

    Digits are ``str.isdecimal``, which ``int`` takes, not ``isdigit``, which
    also holds for superscripts such as '²'.  A run of more than MAX_DIGITS
    digits is refused at its offset.
    """
    j = i
    while j < len(src) and src[j].isdecimal():
        j += 1
    if j - i > MAX_DIGITS:
        raise PolySyntaxError(f"number of more than {MAX_DIGITS} digits", i)
    return j


def _tokenize(src):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdecimal():
            j = _digit_run(src, i)
            tokens.append(("int", int(src[i:j]), i))
            i = j
        elif ch == "x":
            j = _digit_run(src, i + 1)
            if j == i + 1:
                raise PolySyntaxError("'x' must be followed by a variable index", i)
            tokens.append(("var", int(src[i + 1 : j]), i))
            i = j
        elif ch == "t":
            tokens.append(("theta", "t", i))
            i += 1
        else:
            raise PolySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, ring, amb):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.amb = amb
        self.expanded = 0  # the expansion bounds charged so far
        self.depth = 0  # the parentheses open at the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        poly = self.parse_term()
        if negate:
            poly = poly_neg(self.ring, poly)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            if op == "+":
                poly = poly_add(self.ring, poly, rhs)
            else:
                poly = poly_sub(self.ring, poly, rhs)
        return poly

    def parse_term(self):
        poly = self.parse_factor()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            rhs = self.parse_factor()
            degree = poly.total_degree() + rhs.total_degree()
            bits = _coeff_bits(poly) + _coeff_bits(rhs)
            self.check_expansion(len(poly.terms) * len(rhs.terms), degree, bits, pos)
            poly = poly_mul(self.ring, poly, rhs)
        return poly

    def parse_factor(self):
        poly = self.parse_base()
        if self.peek()[0] == "^":
            pos = self.advance()[2]
            tok = self.expect("int")
            e = tok[1]
            if e > MAX_EXPONENT:
                raise ExponentTooLarge(f"exponent {e} too large", tok[2])
            # a power of m terms has at most C(m-1+e, e) terms: multisets of them
            m = len(poly.terms)
            terms = comb(m - 1 + e, e) if m else 1
            # +-1 times a monomial stays so; other coefficients grow with e
            ones = (self.ring.one, elem_neg(self.ring, self.ring.one))
            signed_monomial = m == 1 and next(iter(poly.terms.values())) in ones
            bits = 1 if signed_monomial else e * _coeff_bits(poly)
            self.check_expansion(terms, e * poly.total_degree(), bits, pos)
            poly = poly_pow(self.ring, poly, e)
        return poly

    def check_expansion(self, terms, degree, bits, pos):
        """Charge an expansion to the expression before expanding; raise if too big.

        Its bound is min(terms, #monomials of degree <= degree).  It must fit
        MAX_EXPANDED_TERMS on its own and, with the bounds charged before it,
        MAX_EXPRESSION_TERMS; ``bits`` must fit MAX_COEFF_BITS.
        """
        bound = min(terms, comb(degree + self.amb, self.amb))
        if bound > MAX_EXPANDED_TERMS:
            raise ExponentTooLarge(f"expansion may reach {bound} terms", pos)
        self.expanded += bound
        if self.expanded > MAX_EXPRESSION_TERMS:
            raise ExponentTooLarge(
                f"expansions may reach {self.expanded} terms in all", pos
            )
        if bits > MAX_COEFF_BITS:
            raise ExponentTooLarge(f"coefficients may reach {bits} bits", pos)

    def parse_base(self):
        kind, value, pos = self.peek()
        if kind == "var":
            self.advance()
            if value < 1 or value > self.amb:
                raise UnknownVariable(
                    f"variable x{value} out of range 1..{self.amb}", pos
                )
            return var_poly(self.ring, self.amb, value)
        if kind == "int":
            self.advance()
            return const_poly(self.ring, self.amb, self.ring.from_int(value))
        if kind == "theta":
            self.advance()
            return const_poly(self.ring, self.amb, self.ring.theta)
        if kind == "[":
            return const_poly(self.ring, self.amb, self.parse_elemlit())
        if kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolySyntaxError(
                    f"parentheses nested more than {MAX_NESTING} deep", pos
                )
            poly = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return poly
        raise PolySyntaxError(f"unexpected token {value!r}", pos)

    def parse_elemlit(self):
        self.expect("[")
        coords = [self.parse_signed_int()]
        while self.peek()[0] == ",":
            self.advance()
            coords.append(self.parse_signed_int())
        self.expect("]")
        if len(coords) != self.ring.deg:
            tok = self.peek()
            raise PolySyntaxError(
                f"element literal has {len(coords)} coordinates, "
                f"ring degree is {self.ring.deg}",
                tok[2],
            )
        return tuple(coords)

    def parse_signed_int(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("int")
        return sign * tok[1]


def _coeff_bits(poly):
    """Bit length of the largest coordinate of any coefficient of poly."""
    return max(
        (abs(c).bit_length() for coeff in poly.terms.values() for c in coeff),
        default=0,
    )


def parse_poly(src, ring, amb):
    """Parse source text into a MultiPoly; errors carry a source offset."""
    _check_amb(amb)
    parser = _Parser(_tokenize(src), ring, amb)
    poly = parser.parse_expr()
    end = parser.advance()
    if end[0] != "end":
        raise PolySyntaxError(f"trailing input {end[1]!r}", end[2])
    return poly


# --- evaluation ---


def eval_poly(poly, point, ctx):
    """Canonical representative of poly(point) in O_K / n, term by term.

    The literal reference: each term is its coefficient times ``pow_mod`` of
    every coordinate, with no table and no memo.  The counting paths compile
    their polynomials with ``_evaluator`` instead.
    """
    if len(point) != poly.amb:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, polynomial expects {poly.amb}"
        )
    acc = ctx.ring.zero
    for exps, coeff in poly.terms.items():
        for x, e in zip(point, exps):
            if e:
                coeff = mul_mod(ctx, coeff, pow_mod(ctx, x, e))
        acc = elem_add(ctx.ring, acc, coeff)
    return reduce_mod(ctx, acc)


# --- Jacobian ---


def partial_derivative(ring, poly, j):
    """Formal d/dx_j (1-based j)."""
    terms = {}
    for exps, coeff in poly.terms.items():
        e = exps[j - 1]
        if e == 0:
            continue
        new_exps = tuple(
            v - 1 if i == j - 1 else v for i, v in enumerate(exps)
        )
        # distinct exponent vectors stay distinct, and e * coeff is nonzero
        terms[new_exps] = elem_scale(ring, e, coeff)
    return MultiPoly(amb=poly.amb, terms=terms)


def jacobian(ring, V):
    """Formal partial derivatives: a row per equation, a column per variable."""
    return tuple(
        tuple(partial_derivative(ring, eq, j + 1) for j in range(V.amb))
        for eq in V.equations
    )


def jacobian_rank_at(J, point, ctx):
    """Rank over the residue field of the Jacobian evaluated at point.

    Gaussian elimination; the pivot is always the first nonzero entry in
    row-major order, which makes the computation deterministic.  This is the
    literal reference: ``smooth_points`` compiles the Jacobian once per prime
    instead, and its tests compare it with this.
    """
    if not J:
        return 0
    mat = [[eval_poly(entry, point, ctx) for entry in row] for row in J]
    ncols = len(mat[0])
    zero = ctx.ring.zero
    rank = 0
    pivot_cols = []
    for row in mat:
        # clear previously pivoted columns
        for r, c in pivot_cols:
            if row[c] != zero:
                factor = row[c]
                for j in range(ncols):
                    row[j] = sub_mod(ctx, row[j], mul_mod(ctx, factor, r[j]))
        col = next((j for j in range(ncols) if row[j] != zero), None)
        if col is None:
            continue
        inv = field_inverse(ctx, row[col])
        row = [mul_mod(ctx, inv, x) for x in row]
        pivot_cols.append((row, col))
        rank += 1
    return rank


# --- point enumeration and good reduction ---


def _evaluator(ctx, terms):
    """The value of sum(coeff * x^exps) over ``terms`` at residue indices.

    Compiled against ``arithmetic(ctx)``: each monomial is the ``term`` of
    its coefficient and first variable, times the ``term`` of 1 and each
    further variable, and the monomials are summed onto the constant term
    and reduced once.
    """
    ops = arithmetic(ctx)
    one = ctx.ring.one
    const = ops.zero
    monomials = []
    for exps, coeff in terms.items():
        vars_ = [(i, e) for i, e in enumerate(exps) if e]
        if not vars_:
            const = ops.add(const, ops.encode(coeff))
            continue
        (i0, e0), *others = vars_
        monomials.append(
            (i0, ops.term(coeff, e0), [(i, ops.term(one, e)) for i, e in others])
        )
    add, mul, reduce = ops.add, ops.mul, ops.reduce

    def value(indices):
        acc = const
        for i0, first, others in monomials:
            val = first(indices[i0])
            for i, power in others:
                val = mul(val, power(indices[i]))
            acc = add(acc, val)
        return reduce(acc)

    return value


class _FiberForm:
    """poly = c_0 + sum_{e>0} c_e * x1^e, each c_e a polynomial in x2, ..., x_amb.

    Each c_e is held as d_0 + sum_{k>0} d_k * x2^k, every d a polynomial in
    the tail x3, ..., x_amb compiled with ``_evaluator`` on the tail indices
    (i3, ..., i_amb): the pair (d_0, [(d_k, k), ...]).  A row is the fibers
    that share a tail, and ``_coefficients`` gives a c_e on a row as a
    polynomial in x2.  ``c0`` is the pair of c_0; ``cs`` pairs each e > 0
    with the pair of c_e and is empty when poly is free of x1.
    ``separable`` is True when every c_e with e > 0 is a constant, that is
    when no monomial mixes x1 with another variable.  ``exponents`` is the
    set of the e and k above.
    """

    __slots__ = ("c0", "cs", "separable", "exponents")

    def __init__(self, c0, cs, separable, exponents):
        self.c0, self.cs, self.separable = c0, cs, separable
        self.exponents = exponents


def _fiber_form(ctx, poly):
    """Compile poly once as a ``_FiberForm``: equations and Jacobian entries alike.

    Each monomial is compiled into one d only; its powers of x1 and x2 are
    left to the sweep, which keeps one list per exponent (``_powers``).
    """
    by_power = {}
    for exps, coeff in poly.terms.items():
        e2 = exps[1] if poly.amb > 1 else 0
        by_power.setdefault(exps[0], {}).setdefault(e2, {})[exps[2:]] = coeff

    def compiled(by_x2):
        d0 = _evaluator(ctx, by_x2.pop(0, {}))
        return d0, [(_evaluator(ctx, d), k) for k, d in by_x2.items()]

    c0 = compiled(by_power.pop(0, {}))
    cs = [(e, compiled(c)) for e, c in by_power.items()]
    separable = not any(exps[0] and any(exps[1:]) for exps in poly.terms)
    exponents = {e for exps in poly.terms for e in exps[:2] if e}
    return _FiberForm(c0, cs, separable, exponents)


def _powers(ctx, forms, xs):
    """For every exponent e of x1 or x2 in forms, x -> x^e on residue indices
    (``term(1, e)``), and the list of x^e over xs: two dicts keyed by e."""
    term, one = arithmetic(ctx).term, ctx.ring.one
    functions = {e: term(one, e) for e in set().union(*[f.exponents for f in forms])}
    return functions, {e: list(map(power, xs)) for e, power in functions.items()}


def _sweep(ops, const, coeffs, width):
    """const + sum(c * x^k) at each of the width x of a sweep, where coeffs
    pairs each c with the list of the x^k in order.

    const is canonical.  The result is lazy: a map over those lists, so the
    loop runs in C wherever the arithmetic does, or const repeated when
    there are no coeffs.
    """
    acc = repeat(const, width)
    if not coeffs:
        return acc
    for c, powers in coeffs:
        acc = map(ops.add, acc, map(ops.mul, repeat(c), powers))
    return map(ops.reduce, acc)


def _coefficients(c, tail, powers):
    """c = (d_0, [(d_k, k)]) of a ``_FiberForm`` as a polynomial in x2 on the
    row of ``tail``: (d_0(tail), [(d_k(tail), powers[k])]), canonical
    elements, so two rows give equal coefficients exactly when their
    residues are.  ``powers`` maps k to x2^k: the lists of ``_powers`` give
    what ``_sweep`` takes, its functions what ``_value`` takes.
    """
    d0, ds = c
    return d0(tail), [(d(tail), powers[k]) for d, k in ds]


def _on_row(form, tail, functions):
    """A ``_FiberForm`` on the row of ``tail``: its c_0, and each c_e paired
    with x1 -> x1^e, every c as a polynomial in x2 (``_coefficients``)."""
    return _coefficients(form.c0, tail, functions), [
        (_coefficients(c, tail, functions), functions[e]) for e, c in form.cs
    ]


def _at_fiber(ops, row, x2):
    """A form ``_on_row`` at the fiber of residue x2: its polynomial in x1."""
    c0, cs = row
    return _value(ops, c0, x2), [(_value(ops, c, x2), power) for c, power in cs]


def _value(ops, poly, i):
    """The value at residue index i of poly = (c_0, [(c, x -> x^k)]), any
    polynomial in one variable: a c on a row at its x2, or a fiber's
    polynomial (``_at_fiber``) at its x1."""
    add, mul = ops.add, ops.mul
    acc, terms = poly
    for c, power in terms:
        acc = add(acc, mul(c, power(i)))
    return ops.reduce(acc)


def _roots(ops, fibers, xs):
    """The i1 of xs, in order, at which every one of the fibers vanishes."""
    zero = ops.zero
    return [i for i in xs if all(_value(ops, f, i) == zero for f in fibers)]


def residue_values(ctx, f):
    """f, a polynomial in x1 alone, at every residue index in order, as
    canonical elements: compiled as a ``_fiber_form`` and swept in lazy maps."""
    ops, one, xs = arithmetic(ctx), ctx.ring.one, range(ctx.norm)
    form = _fiber_form(ctx, f)
    coeffs = [(d(()), map(ops.term(one, e), xs)) for e, (d, _) in form.cs]
    return _sweep(ops, form.c0[0](()), coeffs, ctx.norm)


def variety_indices(ctx, V, cap, digits=None):
    """The points of X over O_K/n, one fiber at a time, in enumeration order.

    Yields ``(rest, x1s)`` for each rest = (i2, ..., i_amb) whose fiber has a
    point, where x1s lists the i1 for which (i1,) + rest is a point.  Index
    i stands for the i-th residue of ``residues(ctx)``; coordinate 1 varies
    fastest and the last slowest.  ``digits`` restricts every coordinate to
    the given indices (all of them by default) and keeps their order.  The
    cap bounds the full space of norm^amb tuples whatever ``digits`` is.
    This is the only check of the enumeration cap: it runs when this is
    called, and nothing else, not even the list of residues, is built before
    the first fiber is asked for.

    Every equation is compiled once, as a ``_fiber_form``, and X is swept
    one row at a time: a row is the fibers that share (i3, ..., i_amb), one
    per x2.  For the separable equations a table is built once over
    ``digits`` from their constants c_e: it maps minus the values of their
    x1 parts to the x1 that take them.  Each row takes their c_0 at every x2
    as a whole list, and its hits are one lookup per fiber, all in maps, so
    a fiber with no point costs one step of a loop in C.  A row evaluates
    the coefficients of each c_0 in x2 at its tail (``_coefficients``), and
    builds the list again only when they differ from the last row's, so an
    equation free of the tail costs one list per sweep.  An equation that
    mixes x1 with another variable is taken once per row as a polynomial in
    x2 (``_on_row``); each hit evaluates it at its own x2 into a polynomial
    in x1 (``_at_fiber``) and tests the x1 the table left, one by one
    (``_roots``).  With amb = 1 there is one fiber, (), scanned with no
    table.
    """
    if ctx.norm ** V.amb > cap:
        raise CapExceeded(
            f"{ctx.norm}^{V.amb} candidate points exceed the cap {cap}"
        )

    def fibers():
        ops = arithmetic(ctx)
        forms = [_fiber_form(ctx, eq) for eq in V.equations]
        xs = range(ctx.norm) if digits is None else digits
        if V.amb == 1:
            functions, _ = _powers(ctx, forms, ())
            fiber = [_at_fiber(ops, _on_row(form, (), functions), 0) for form in forms]
            x1s = _roots(ops, fiber, xs)
            if x1s:
                yield (), x1s
            return
        xs = list(xs)
        width = len(xs)
        functions, powers = _powers(ctx, forms, xs)
        separable = [form for form in forms if form.separable]
        mixed = [form for form in forms if not form.separable]
        # the c_e of a separable equation are constants: any tail gives them
        origin = (0,) * (V.amb - 2)
        minus = [
            _sweep(
                ops,
                ops.zero,
                [(ops.neg(d0(origin)), powers[e]) for e, (d0, _) in form.cs],
                width,
            )
            for form in separable
        ]
        table = {}
        for key, i in zip(zip(*minus) if minus else repeat(()), xs):
            table.setdefault(key, []).append(i)
        # per separable equation, the coefficients of its c_0 in x2 on the
        # last row, and its c_0 at every fiber of that row
        keys, rows = [None] * len(separable), [None] * len(separable)
        for t in product(xs, repeat=V.amb - 2):
            tail = t[::-1]
            for s, form in enumerate(separable):
                key = _coefficients(form.c0, tail, powers)
                if key != keys[s]:
                    keys[s], rows[s] = key, list(_sweep(ops, *key, width))
            hits = list(map(table.get, zip(*rows) if rows else repeat((), width)))
            on_row = [_on_row(form, tail, functions) for form in mixed]
            for pos, x1s in compress(enumerate(hits), hits):
                x2 = xs[pos]
                if on_row:
                    x1s = _roots(ops, [_at_fiber(ops, r, x2) for r in on_row], x1s)
                if x1s:
                    yield (x2,) + tail, x1s

    return fibers()


def _rank(ops, rows):
    """Rank over the residue field of a matrix of elements, with no inverse.

    Each row is reduced against every earlier pivot row r, of pivot column c,
    by row <- r[c] * row - row[c] * r.  Over a field this keeps the row space
    and clears column c; a row left nonzero adds a pivot.
    """
    zero, add, neg, mul, reduce = ops.zero, ops.add, ops.neg, ops.mul, ops.reduce
    pivots = []
    for row in rows:
        for r, c in pivots:
            a, b = r[c], row[c]
            if b != zero:
                row = [reduce(add(mul(a, x), neg(mul(b, y)))) for x, y in zip(row, r)]
        col = next((j for j, x in enumerate(row) if x != zero), None)
        if col is not None:
            pivots.append((row, col))
    return len(pivots)


def smooth_points(ctx, V, cap=DEFAULT_CAP):
    """The fibers of X(O_K/p) in enumeration order, every point checked smooth.

    Yields ``(rest, x1s)`` as ``variety_indices`` does.  ``ctx`` is the
    prime's context (``prime_ctx``): whatever else is compiled against it,
    such as f in ``local_counts``, shares its arithmetic, built once.  The
    Jacobian must have the declared codimension as rank at each point; at
    the first point where it has not, the points of its fiber before it are
    yielded, and then BadReduction is raised with ``ctx.prime`` and that
    point as witness.  The cap is checked when this is called; the fibers
    come lazily.

    Every Jacobian entry is compiled once per prime as a ``_fiber_form``.
    Where the columns free of x1 already have rank m, the number of
    equations, the rank is m at every point of the fiber.  With m = 1 that
    is where one of them is nonzero: they are taken along each row of
    fibers with a point, as ``variety_indices`` takes its separable
    equations, and tested for the whole row with maps.  With m >= 2 each
    such row takes them once as polynomials in x2 (``_coefficients``), each
    fiber with a point evaluates those at its x2 alone (``_value``), and
    ``_rank`` tests the fiber.  Only at the other fibers are the entries
    that depend on x1 taken, once per row as ``_on_row`` and at the fiber as
    ``_at_fiber``, and evaluated at each point by ``_value``; the rank is
    taken with no field inversion.  ``jacobian_rank_at`` is the reference
    this agrees with.
    """
    fibers = variety_indices(ctx, V, cap)
    ops = arithmetic(ctx)
    forms = [
        [_fiber_form(ctx, entry) for entry in row] for row in jacobian(ctx.ring, V)
    ]
    m = len(forms)
    free = [j for j in range(V.amb) if not any(row[j].cs for row in forms)]
    x1_cols = [j for j in range(V.amb) if j not in free]

    def checked():
        width = ctx.norm if V.amb > 1 else 1  # the fibers of a row
        entries = [entry for row in forms for entry in row]
        # only the m = 1 test sweeps whole rows
        functions, powers = _powers(ctx, entries, range(width) if m == 1 else ())
        zero = ops.zero
        # with m = 1, the x1-free columns at a fiber where rank1 is False
        zeros = [[zero] * len(free)]
        row_tail = None
        for rest, x1s in fibers:
            x2, tail = (rest[0], rest[1:]) if rest else (0, ())
            if tail != row_tail:  # a new row
                row_tail, x1_rows = tail, None
                if m == 1:  # rank 1 wherever an x1-free column is nonzero
                    c0s = [_coefficients(forms[0][j].c0, tail, powers) for j in free]
                    nonzero = [
                        map(ne, _sweep(ops, *c, width), repeat(zero)) for c in c0s
                    ]
                    # the repeat gives the row its width when no column is free
                    rank1 = list(map(any, zip(repeat(False, width), *nonzero)))
                else:  # the x1-free columns as polynomials in x2 on the row
                    free_rows = [
                        [_coefficients(row[j].c0, tail, functions) for j in free]
                        for row in forms
                    ]
            if m == 1:
                full, here = rank1[x2], zeros
            else:  # the x1-free columns at this fiber alone
                here = [[_value(ops, c, x2) for c in row] for row in free_rows]
                full = _rank(ops, here) == m
            if full:
                if m == V.codim:
                    yield rest, x1s
                    continue
                ranks = repeat(m)
            else:
                if x1_rows is None:  # the columns that depend on x1, once a row
                    x1_rows = [
                        [_on_row(row[j], tail, functions) for j in x1_cols]
                        for row in forms
                    ]
                at = [[_at_fiber(ops, r, x2) for r in row] for row in x1_rows]
                ranks = (
                    _rank(ops, [v + [_value(ops, a, i) for a in es]
                                for v, es in zip(here, at)])
                    for i in x1s
                )
            for k, (i, rank) in enumerate(zip(x1s, ranks)):
                if rank != V.codim:
                    if k:
                        yield rest, x1s[:k]
                    reps = power_table(ctx, 1)
                    raise BadReduction(ctx.prime, tuple(reps[j] for j in (i,) + rest))
            yield rest, x1s

    return checked()


def check_good_reduction(ring, V, prime_factor, cap=DEFAULT_CAP):
    """The first singular point of X(O_K/p), or None under good reduction.

    A point is singular when the Jacobian's rank there is not the declared
    codimension; an empty fiber has none.  Points are tried in enumeration
    order.
    """
    try:
        for _ in smooth_points(prime_ctx(ring, prime_factor), V, cap):
            pass
    except BadReduction as exc:
        return exc.witness
    return None
