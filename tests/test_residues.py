import random
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exunits import (
    EvenCharacteristic,
    VarietySpec,
    brute_force_count,
    ExunitsError,
    NotAUnit,
    NotPrime,
    UnitIdeal,
    factor_ideal,
    field_inverse,
    hnf_from_generators,
    ideal_contains,
    ideal_mul,
    ideal_norm,
    ideal_pow,
    is_unit_mod,
    make_number_ring,
    parse_poly,
    prime_ctx,
    principal_ideal,
    reduce_mod,
    residue_ctx,
    square_class,
    unit_ideal,
)
from exunits.ideals import prime_ideals_above
from exunits.number_ring import elem_mul, elem_sub, is_zero
from exunits.residues import (
    ResidueCtx,
    _CyclicArithmetic,
    _FieldArithmetic,
    _RingArithmetic,
    _field_poly,
    _is_cyclic,
    _resultant_mod_p,
    add_mod,
    arithmetic,
    field_tables,
    index_map,
    mul_mod,
    pow_mod,
    power_table,
    residue_index,
    residues,
    sub_mod,
    unit_flags,
)


@pytest.fixture
def q5():
    return make_number_ring([5, 0, 1])


@pytest.fixture
def p3(q5):
    return factor_ideal(q5, principal_ideal(q5, (3, 0)))[0]


@pytest.fixture
def ctx3(q5, p3):
    return prime_ctx(q5, p3)


class TestReduce:
    def test_theta_reduces_to_two(self, ctx3):
        assert reduce_mod(ctx3, (0, 1)) == (2, 0)

    def test_generator_to_zero(self, ctx3):
        assert reduce_mod(ctx3, (3, 0)) == (0, 0)

    def test_already_canonical(self, ctx3):
        assert reduce_mod(ctx3, (1, 0)) == (1, 0)

    def test_idempotent_and_coset_constant(self, ctx3, q5, p3):
        rng = random.Random(3)
        for _ in range(50):
            a = (rng.randint(-40, 40), rng.randint(-40, 40))
            r = reduce_mod(ctx3, a)
            assert reduce_mod(ctx3, r) == r
            assert ideal_contains(p3.hnf, elem_sub(q5, a, r))


class TestEnumeration:
    def test_contexts_share_no_tables(self, q5):
        """Each context builds its own tables, even for the same modulus."""
        modulus = principal_ideal(q5, (6, 0))
        first, second = residue_ctx(q5, modulus), residue_ctx(q5, modulus)
        power_table(first, 2)
        assert first.tables and second.tables == {}

    def test_prime_three(self, ctx3):
        assert list(residues(ctx3)) == [(0, 0), (1, 0), (2, 0)]

    def test_p3_squared(self, q5, p3):
        sq = ideal_mul(q5, p3.hnf, p3.hnf)
        ctx = residue_ctx(q5, sq)
        assert list(residues(ctx)) == [(k, 0) for k in range(9)]

    def test_norm_four(self, q5):
        ctx = residue_ctx(q5, principal_ideal(q5, (2, 0)))
        assert len(list(residues(ctx))) == 4

    def test_unit_ideal_rejected(self, q5):
        with pytest.raises(UnitIdeal):
            residue_ctx(q5, unit_ideal(q5))


class TestUnits:
    def test_theta_is_unit(self, q5, p3):
        ctx = residue_ctx(q5, p3.hnf)  # non-prime path on purpose
        assert is_unit_mod(ctx, (0, 1))

    def test_ideal_member_not_unit(self, q5, p3):
        ctx = residue_ctx(q5, p3.hnf)
        assert not is_unit_mod(ctx, (1, 1))
        assert not is_unit_mod(ctx, (0, 0))

    def test_prime_unit_count(self, q5):
        for n in (3, 7, 11):
            pf = factor_ideal(q5, principal_ideal(q5, (n, 0)))[0]
            ctx = prime_ctx(q5, pf)
            units = sum(1 for a in residues(ctx) if is_unit_mod(ctx, a))
            assert units == pf.norm - 1

    def test_composite_unit_count_is_totient(self, q5):
        # O/(3) = F3 x F3, so phi = 2*2 = 4
        ctx = residue_ctx(q5, principal_ideal(q5, (3, 0)))
        units = sum(1 for a in residues(ctx) if is_unit_mod(ctx, a))
        assert units == 4


def _moduli(draw):
    """A ring of degree 1 to 4 and a modulus (m, a) of norm 2 to 2000 in it,
    or (m) itself when (m, a) is the unit ideal."""
    min_poly = draw(st.sampled_from(UNIT_RINGS))
    ring = make_number_ring(min_poly)
    d = ring.deg
    m = draw(st.integers(2, int(2000 ** (1 / d))))
    a = tuple(draw(st.integers(-3 * m, 3 * m)) for _ in range(d))
    n = hnf_from_generators(ring, [ring.from_int(m), a])
    if ideal_norm(n) < 2:
        n = principal_ideal(ring, ring.from_int(m))
    return ring, residue_ctx(ring, n)


# Q(sqrt(-5)), Q(i), Q(2^(1/3)), Z[t] with t^3 + t + 3 = 0, Q(2^(1/4)) and Q
UNIT_RINGS = [[5, 0, 1], [1, 0, 1], [-2, 0, 0, 1], [3, 1, 0, 1], [2, 0, 0, 0, 1], [0, 1]]


def _q5_primes(*names):
    """The product of primes of degree 1 of Q(sqrt(-5)), each named (p, i):
    the i-th above p, sorted by h."""
    ring = make_number_ring([5, 0, 1])
    n = unit_ideal(ring)
    for p, i in names:
        pf = [pf for pf in prime_ideals_above(ring, p) if pf.f_res == 1][i]
        n = ideal_mul(ring, n, pf.hnf)
    return ring, n


def _fixed_moduli(name):
    """A modulus by name: the oracle benchmark's moduli of norm 35 to 805 and
    a prime power, where O/n is Z/N, and two moduli where it is not."""
    if name == "(23,[8,1])^3":
        ring = make_number_ring([5, 0, 1])
        pf = [pf for pf in prime_ideals_above(ring, 23) if pf.h_coeffs == (8, 1)][0]
        return ring, ideal_pow(ring, pf.hnf, 3)
    if name == "(5) over Q(sqrt(-5))":
        ring = make_number_ring([5, 0, 1])
        return ring, principal_ideal(ring, ring.from_int(5))
    if name == "(3) over Q(i)":
        ring = make_number_ring([1, 0, 1])
        return ring, principal_ideal(ring, ring.from_int(3))
    return _q5_primes(*{
        "N = 35": [(5, 0), (7, 1)],
        "N = 105": [(3, 0), (5, 0), (7, 0)],
        "N = 345": [(3, 0), (5, 0), (23, 0)],
        "N = 805": [(5, 0), (7, 0), (23, 0)],
    }[name])


class TestUnitFlags:
    """``unit_flags`` decides the units of O/n by gcd when O/n is Z/N, and
    otherwise by walking powers; the HNF of ``is_unit_mod`` is the
    reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_is_unit_mod(self, data):
        _, ctx = _moduli(data.draw)
        assert ctx.norm <= 2000
        flags = unit_flags(ctx)
        assert len(flags) == ctx.norm
        assert list(flags) == [int(is_unit_mod(ctx, a)) for a in residues(ctx)]

    @pytest.mark.parametrize(
        "name, norm, cyclic",
        [
            ("N = 35", 35, True),
            ("N = 105", 105, True),
            ("N = 345", 345, True),
            ("N = 805", 805, True),
            ("(23,[8,1])^3", 23 ** 3, True),
            ("(5) over Q(sqrt(-5))", 25, False),
            ("(3) over Q(i)", 9, False),
        ],
    )
    def test_fixed_moduli_match_is_unit_mod(self, monkeypatch, name, norm, cyclic):
        """Z/N is decided by gcd with no ring product; the other moduli walk
        their powers with the products of the tuple form."""
        ctx = residue_ctx(*_fixed_moduli(name))
        assert ctx.norm == norm and _is_cyclic(ctx) == cyclic
        products = []
        original = _RingArithmetic.__init__

        def counted(self, ctx):
            original(self, ctx)
            mul = self.mul
            self.mul = lambda a, b: products.append(1) or mul(a, b)

        monkeypatch.setattr(_RingArithmetic, "__init__", counted)
        monkeypatch.setattr(
            _CyclicArithmetic,
            "mul",
            staticmethod(lambda a, b: products.append(1) or a * b),
        )
        flags = unit_flags(ctx)
        assert list(flags) == [int(is_unit_mod(ctx, a)) for a in residues(ctx)]
        assert bool(products) != cyclic

    @pytest.mark.parametrize(
        "min_poly, modulus, units",
        [
            ([5, 0, 1], "(3)", 4),  # F3 x F3
            ([5, 0, 1], "P5^2", 20),  # ramified: 25 - 5
            ([0, 1], "(12)", 4),  # phi(12)
        ],
    )
    def test_unit_counts(self, min_poly, modulus, units):
        ring = make_number_ring(min_poly)
        if modulus == "P5^2":
            p5 = factor_ideal(ring, principal_ideal(ring, (5, 0)))[0]
            n = ideal_mul(ring, p5.hnf, p5.hnf)
        else:
            n = principal_ideal(ring, ring.from_int(int(modulus[1:-1])))
        assert sum(unit_flags(residue_ctx(ring, n))) == units


class TestPowMod:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10**6), st.integers(-(10**6), 10**6), st.integers(0, 64))
    def test_degree_one_matches_pow(self, m, a, e):
        ring = make_number_ring([0, 1])
        ctx = residue_ctx(ring, principal_ideal(ring, (m,)))
        assert pow_mod(ctx, (a,), e) == (pow(a, e, m),)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.tuples(*[st.integers(-50, 50)] * 3),
        st.integers(0, 64),
    )
    def test_cubic_matches_repeated_products(self, m, a, e):
        ring = make_number_ring([-2, 0, 0, 1])  # x^3 - 2
        ctx = residue_ctx(ring, principal_ideal(ring, ring.from_int(m)))
        expected = reduce_mod(ctx, ring.one)
        for _ in range(e):
            expected = mul_mod(ctx, expected, a)
        assert pow_mod(ctx, a, e) == expected


class TestFieldOps:
    def test_inverse_of_two(self, ctx3):
        assert field_inverse(ctx3, (2, 0)) == (2, 0)

    def test_inverse_of_one(self, ctx3):
        assert field_inverse(ctx3, (1, 0)) == (1, 0)

    def test_inert_theta_inverse(self, q5):
        pf = factor_ideal(q5, principal_ideal(q5, (11, 0)))[0]
        ctx = prime_ctx(q5, pf)
        inv = field_inverse(ctx, (0, 1))
        assert mul_mod(ctx, (0, 1), inv) == reduce_mod(ctx, q5.one)

    def test_not_a_unit(self, ctx3):
        with pytest.raises(NotAUnit):
            field_inverse(ctx3, (3, 0))

    def test_not_prime_ctx(self, q5):
        ctx = residue_ctx(q5, principal_ideal(q5, (3, 0)))
        with pytest.raises(NotPrime):
            field_inverse(ctx, (1, 0))

    def test_inverse_property_random(self, q5):
        rng = random.Random(5)
        for n in (3, 7, 11):
            pf = factor_ideal(q5, principal_ideal(q5, (n, 0)))[0]
            ctx = prime_ctx(q5, pf)
            one = reduce_mod(ctx, q5.one)
            for _ in range(20):
                a = (rng.randint(-20, 20), rng.randint(-20, 20))
                if is_zero(reduce_mod(ctx, a)):
                    continue
                assert mul_mod(ctx, a, field_inverse(ctx, a)) == one


class TestSquareClass:
    def test_minus_one_mod_three(self, ctx3):
        assert square_class(ctx3, q5_minus_one()) == -1

    def test_minus_one_inert(self, q5):
        pf = factor_ideal(q5, principal_ideal(q5, (11, 0)))[0]
        ctx = prime_ctx(q5, pf)
        assert square_class(ctx, (-1, 0)) == 1

    def test_zero_class(self, ctx3):
        assert square_class(ctx3, (3, 0)) == 0

    def test_even_characteristic(self, q5):
        pf = factor_ideal(q5, principal_ideal(q5, (2, 0)))[0]
        ctx = prime_ctx(q5, pf)
        with pytest.raises(EvenCharacteristic):
            square_class(ctx, (1, 0))

    def test_squares_have_class_one(self, q5):
        for n in (3, 7, 11):
            pf = factor_ideal(q5, principal_ideal(q5, (n, 0)))[0]
            ctx = prime_ctx(q5, pf)
            for a in residues(ctx):
                if is_zero(a):
                    continue
                assert square_class(ctx, mul_mod(ctx, a, a)) == 1


def _degree_one_primes():
    """Every prime of residue degree 1 and norm < 50 over Q, Q(i) and
    Q(sqrt(-5)): split and ramified ones alike."""
    out = []
    for coeffs in ([0, 1], [1, 0, 1], [5, 0, 1]):
        ring = make_number_ring(coeffs)
        for p in range(3, 50):
            if all(p % d for d in range(2, p)):
                out += [
                    (ring, pf) for pf in prime_ideals_above(ring, p) if pf.f_res == 1
                ]
    return out


class TestDegreeOneFieldOps:
    """At a prime of residue degree 1, square classes and inverses are one
    ``pow`` on the residue index; they must equal Euler's criterion and
    a^(q-2) taken with ``pow_mod`` on tuples."""

    def test_matches_tuple_path_on_every_residue(self):
        primes = _degree_one_primes()
        assert {pf.e_ram for _, pf in primes} == {1, 2}
        for ring, pf in primes:
            ctx = prime_ctx(ring, pf)
            one = reduce_mod(ctx, ring.one)
            minus_one = reduce_mod(ctx, ring.from_int(-1))
            for r in list(residues(ctx))[1:]:
                euler = pow_mod(ctx, r, (pf.norm - 1) // 2)
                assert square_class(ctx, r) == (1 if euler == one else -1)
                assert euler in (one, minus_one)
                assert field_inverse(ctx, r) == pow_mod(ctx, r, pf.norm - 2)
            assert square_class(ctx, ring.zero) == 0

    def test_unreduced_input(self, q5):
        """The residue index is read after reduction, not off the raw element."""
        pf = factor_ideal(q5, principal_ideal(q5, (7, 0)))[0]
        ctx = prime_ctx(q5, pf)
        for a in ((3, 2), (-9, 6), (40, -2), (-100, 13)):
            r = reduce_mod(ctx, a)
            assert r != a and not is_zero(r)
            assert square_class(ctx, a) == square_class(ctx, r)
            assert field_inverse(ctx, a) == pow_mod(ctx, r, pf.norm - 2)

    def test_errors_kept(self, ctx3):
        with pytest.raises(NotAUnit):
            field_inverse(ctx3, (6, 0))
        rat = make_number_ring([0, 1])
        with pytest.raises(NotPrime):
            square_class(residue_ctx(rat, principal_ideal(rat, (7,))), (2,))
        p2 = prime_ideals_above(rat, 2)[0]
        with pytest.raises(EvenCharacteristic):
            square_class(prime_ctx(rat, p2), (1,))

    def test_guard_on_a_composite_modulus(self):
        """A context that claims a prime but has modulus 15: 2^7 = 8 mod 15
        is neither 1 nor -1, and the guard raises."""
        rat = make_number_ring([0, 1])
        p3 = prime_ideals_above(rat, 3)[0]
        fake = ResidueCtx(
            ring=rat, modulus=principal_ideal(rat, (15,)), norm=15, prime=p3
        )
        with pytest.raises(ExunitsError, match="neither 1 nor -1"):
            square_class(fake, (2,))


def _higher_degree_primes(rings, max_norm):
    """Every prime of residue degree 2 to 4 and norm <= max_norm over the
    rings given by their minimal polynomials."""
    out = []
    for coeffs in rings:
        ring = make_number_ring(coeffs)
        for p in range(2, int(max_norm ** 0.5) + 1):
            if all(p % d for d in range(2, p)):
                out += [
                    (ring, pf)
                    for pf in prime_ideals_above(ring, p)
                    if 2 <= pf.f_res <= 4 and pf.norm <= max_norm
                ]
    return out


class TestHigherDegreeFieldOps:
    """At a prime (p, h) of residue degree 2 or more, a square class is the
    Legendre symbol of Res(h, a) mod p and an inverse is the extended
    Euclidean algorithm mod (p, h); they must equal Euler's criterion and
    a^(q-2) taken with ``pow_mod`` on tuples."""

    RINGS = ([1, 0, 1], [5, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1])

    def test_matches_tuple_path_on_every_residue(self):
        primes = _higher_degree_primes(self.RINGS, 2000)
        assert {pf.f_res for _, pf in primes} == {2, 3}
        for ring, pf in primes:
            ctx = prime_ctx(ring, pf)
            q, p = pf.norm, pf.p
            one = reduce_mod(ctx, ring.one)
            minus_one = reduce_mod(ctx, ring.from_int(-1))
            for r in list(residues(ctx))[1:]:
                euler = pow_mod(ctx, r, (q - 1) // 2)
                assert euler in (one, minus_one)
                assert square_class(ctx, r) == (1 if euler == one else -1)
                assert field_inverse(ctx, r) == pow_mod(ctx, r, q - 2)
                # Res(h, a) is the norm of a to F_p, a^((q-1)/(p-1))
                norm = _resultant_mod_p(pf.h_coeffs, _field_poly(ctx, r), p)
                assert (norm,) + (0,) * (ring.deg - 1) == pow_mod(
                    ctx, r, (q - 1) // (p - 1)
                )

    def test_characteristic_two_inverse(self):
        """At p = 2, where no square class exists, the inverse still holds."""
        primes = _higher_degree_primes(CHAR2_RINGS, 8)
        assert [pf.norm for _, pf in primes] == [4, 8]
        for ring, pf in primes:
            ctx = prime_ctx(ring, pf)
            for r in list(residues(ctx))[1:]:
                assert field_inverse(ctx, r) == pow_mod(ctx, r, pf.norm - 2)

    def test_unreduced_input(self, q5):
        """a(x) mod (p, h) is read after reduction, not off the raw element."""
        pf = prime_ideals_above(q5, 13)[0]
        assert pf.f_res == 2
        ctx = prime_ctx(q5, pf)
        for a in ((16, 2), (-9, 6), (40, -2), (-100, 13), (14, 27)):
            r = reduce_mod(ctx, a)
            assert r != a and not is_zero(r)
            assert square_class(ctx, a) == square_class(ctx, r)
            assert field_inverse(ctx, a) == pow_mod(ctx, r, pf.norm - 2)
        cubic = make_number_ring([-2, 0, 0, 1])
        pf = next(pf for pf in prime_ideals_above(cubic, 5) if pf.f_res == 2)
        ctx = prime_ctx(cubic, pf)
        for a in ((7, 3, 1), (-4, 11, -6), (0, 0, 9)):
            r = reduce_mod(ctx, a)
            assert r != a and not is_zero(r)
            assert square_class(ctx, a) == square_class(ctx, r)
            assert field_inverse(ctx, a) == pow_mod(ctx, r, pf.norm - 2)

    def test_zero(self, q5):
        """Zero, and any element of P, has class 0 and no inverse."""
        ctx = prime_ctx(q5, prime_ideals_above(q5, 11)[0])
        for a in (q5.zero, (11, 0), (0, 22), (-33, 11)):
            assert square_class(ctx, a) == 0
            with pytest.raises(NotAUnit):
                field_inverse(ctx, a)

    def test_resultant(self):
        """Res over F_p on small cases: a constant, a shared root, and the
        product of b over the roots of a split monic a."""
        assert _resultant_mod_p([1, 0, 1], [3], 7) == 9 % 7
        assert _resultant_mod_p([6, 1], [0, 2], 7) == 2  # b(1), as x + 6 = x - 1
        assert _resultant_mod_p([2, 3, 1], [1, 1], 7) == 0  # both vanish at -1
        # a = (x - 2)(x - 3): Res(a, b) = b(2) b(3)
        for b in ([1, 1], [5, 0, 1], [4, 6, 0, 2]):
            value = [sum(c * x ** i for i, c in enumerate(b)) for x in (2, 3)]
            assert _resultant_mod_p([6, 2, 1], b, 7) == value[0] * value[1] % 7
        assert _resultant_mod_p([1, 0, 1], [], 5) == 0


def q5_minus_one():
    return (-1, 0)


class TestPartitionAndCRT:
    def test_partition_property(self, q5, ctx3, p3):
        reps = list(residues(ctx3))
        rng = random.Random(9)
        for _ in range(30):
            a = (rng.randint(-30, 30), rng.randint(-30, 30))
            matches = [
                r
                for r in reps
                if ideal_contains(p3.hnf, elem_sub(q5, a, r))
            ]
            assert len(matches) == 1
            assert matches[0] == reduce_mod(ctx3, a)

    def test_crt_bijection(self, q5):
        p3 = hnf_from_generators(q5, [(3, 0), (1, 1)])
        p7 = [
            pf.hnf
            for pf in factor_ideal(q5, principal_ideal(q5, (7, 0)))
        ][0]
        prod = ideal_mul(q5, p3, p7)
        ctx_m = residue_ctx(q5, p3)
        ctx_n = residue_ctx(q5, p7)
        ctx_mn = residue_ctx(q5, prod)
        images = {
            (reduce_mod(ctx_m, a), reduce_mod(ctx_n, a))
            for a in residues(ctx_mn)
        }
        assert len(images) == ctx_m.norm * ctx_n.norm == ctx_mn.norm


# Q, Q(i), Q(sqrt(-5)), Z[2^(1/3)], x^4 + 1, and the characteristic-2 fields
# F_4 (x^2 + x + 1 at 2) and F_8 (x^3 + x + 3 at 2)
FIELD_RINGS = [[0, 1], [1, 0, 1], [5, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1]]
CHAR2_RINGS = [[1, 1, 1], [3, 1, 0, 1]]


def _field(min_poly, p, index=0):
    ring = make_number_ring(min_poly)
    pf = prime_ideals_above(ring, p)[index]
    ctx = prime_ctx(ring, pf)
    return ring, ctx, list(residues(ctx))


class TestFieldArithmetic:
    """At a prime of residue degree 2 or more, ``arithmetic`` works on
    residue indices through log, antilog and Zech tables; at degree 1, on
    ints mod p.  The tuple operations are the reference."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_tuple_arithmetic(self, data):
        min_poly = data.draw(st.sampled_from(FIELD_RINGS + CHAR2_RINGS))
        ring = make_number_ring(min_poly)
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
        pf = data.draw(st.sampled_from(prime_ideals_above(ring, p)))  # q <= 2197
        ctx = prime_ctx(ring, pf)
        ops = arithmetic(ctx)
        degree_one = pf.f_res == 1
        assert type(ops) is (_CyclicArithmetic if degree_one else _FieldArithmetic)
        # the int form reduces once at the end; the field form's results are
        # canonical as they come
        read = ops.reduce if degree_one else (lambda x: x)
        reps = list(residues(ctx))
        indices = st.integers(0, ctx.norm - 1)
        a, b = data.draw(indices), data.draw(indices)
        e = data.draw(st.integers(1, 3 * ctx.norm))
        coords = st.integers(-2 * p, 2 * p)
        c = tuple(data.draw(coords) for _ in range(ring.deg))
        x, y = reps[a], reps[b]
        assert reps[read(ops.add(a, b))] == add_mod(ctx, x, y)
        assert reps[read(ops.add(a, ops.neg(b)))] == sub_mod(ctx, x, y)
        assert reps[read(ops.mul(a, b))] == mul_mod(ctx, x, y)
        assert reps[ops.term(ring.one, e)(a)] == pow_mod(ctx, x, e)
        assert reps[ops.term(c, e)(a)] == mul_mod(ctx, c, pow_mod(ctx, x, e))
        assert reps[ops.encode(c)] == reduce_mod(ctx, c)
        assert ops.reduce(a) == a

    @pytest.mark.parametrize(
        "min_poly, p, index, q",
        [
            ([0, 1], 13, 0, 13),  # Q
            ([1, 0, 1], 3, 0, 9),  # Q(i), inert
            ([1, 0, 1], 5, 1, 5),  # Q(i), split
            ([1, 0, 1], 2, 0, 2),  # Q(i), ramified
            ([5, 0, 1], 5, 0, 5),  # Q(sqrt(-5)), ramified
            ([5, 0, 1], 11, 0, 121),  # Q(sqrt(-5)), inert
            ([-2, 0, 0, 1], 7, 0, 343),  # Z[2^(1/3)], inert
            ([-2, 0, 0, 1], 3, 0, 3),  # Z[2^(1/3)], ramified
            ([1, 0, 0, 0, 1], 2, 0, 2),  # x^4 + 1 above 2, ramified
            ([1, 0, 0, 0, 1], 3, 0, 9),  # x^4 + 1 above 3
            ([1, 0, 0, 0, 1], 5, 0, 25),  # x^4 + 1 above 5
            ([1, 0, 0, 0, 1], 17, 0, 17),  # x^4 + 1 above 17, split
            ([1, 1, 1], 2, 0, 4),  # F_4
            ([3, 1, 0, 1], 2, 0, 8),  # F_8
        ],
    )
    def test_every_pair(self, min_poly, p, index, q):
        """Every sum, difference and product.  At q = p they are ints mod p,
        read through ``reduce``; at q > p they are read as they come, and
        the field tables themselves are checked."""
        _, ctx, reps = _field(min_poly, p, index)
        assert ctx.norm == q
        ops = arithmetic(ctx)
        assert type(ops) is (_CyclicArithmetic if q == p else _FieldArithmetic)
        if q > p:
            log, exp, zech = field_tables(ctx)
            assert sorted(exp) == list(range(1, q))
            assert log[0] == -1 and all(exp[log[i]] == i for i in range(1, q))
        read = ops.reduce if q == p else (lambda x: x)
        sample = range(q) if q <= 25 else random.Random(q).sample(range(q), 25)
        for a in sample:
            for b in range(q):
                x, y = reps[a], reps[b]
                assert reps[read(ops.add(a, b))] == add_mod(ctx, x, y)
                assert reps[read(ops.add(a, ops.neg(b)))] == sub_mod(ctx, x, y)
                assert reps[read(ops.mul(a, b))] == mul_mod(ctx, x, y)

    @pytest.mark.parametrize(
        "min_poly, q", [([0, 1], 2), ([1, 1, 1], 4), ([3, 1, 0, 1], 8)]
    )
    def test_characteristic_two(self, min_poly, q):
        """q = 2 has q - 1 = 1; in every characteristic-2 field -1 = 1, so
        -a = a and a + a = 0.  F_2 is ints mod 2, read through ``reduce``;
        F_4 and F_8 are the field form, read as they come."""
        ring, ctx, reps = _field(min_poly, 2)
        assert ctx.norm == q
        ops = arithmetic(ctx)
        assert type(ops) is (_CyclicArithmetic if q == 2 else _FieldArithmetic)
        read = ops.reduce if q == 2 else (lambda x: x)
        for a in range(q):
            assert read(ops.add(a, a)) == 0
            assert read(ops.neg(a)) == a
        one = reduce_mod(ctx, ring.one)
        power = ops.term(ring.one, q - 1)
        assert [reps[power(a)] for a in range(1, q)] == [one] * (q - 1)

    def test_guard_names_p_and_q(self):
        """A context whose modulus is not a prime gets no tables: the powers
        of the element found miss residues, and the guard raises."""
        rat = make_number_ring([0, 1])
        p3 = prime_ideals_above(rat, 3)[0]
        fake = ResidueCtx(
            ring=rat, modulus=principal_ideal(rat, (9,)), norm=9, prime=p3
        )
        with pytest.raises(ExunitsError, match=r"p = 3, q = 9"):
            field_tables(fake)

    def test_composite_stays_on_tuples(self, q5):
        ctx = residue_ctx(q5, principal_ideal(q5, (6, 0)))
        ops = arithmetic(ctx)
        reps = list(residues(ctx))
        assert ops.zero == q5.zero
        for x in reps[:12]:
            for y in reps[::5]:
                assert ops.reduce(ops.add(x, y)) == add_mod(ctx, x, y)
                assert ops.reduce(ops.add(x, ops.neg(y))) == sub_mod(ctx, x, y)
                assert ops.reduce(ops.mul(x, y)) == mul_mod(ctx, x, y)
        assert [ops.term(q5.one, 3)(i) for i in range(ctx.norm)] == [
            pow_mod(ctx, x, 3) for x in reps
        ]


class TestRingArithmetic:
    def test_minus_one_term_makes_no_product(self, q5, monkeypatch):
        """term(-1, e) negates the power table: no ring product, the same
        table as c * x^e."""
        ctx = residue_ctx(q5, principal_ideal(q5, (13, 0)))  # inert: F_169
        ops = arithmetic(ctx)
        assert isinstance(ops, _RingArithmetic)
        minus_one = q5.from_int(-1)
        expected = [mul_mod(ctx, minus_one, x) for x in power_table(ctx, 3)]
        products = []

        def counted(*args):
            products.append(args)
            return elem_mul(*args)

        monkeypatch.setattr("exunits.residues.elem_mul", counted)
        table = ops.term(minus_one, 3)
        assert [table(i) for i in range(ctx.norm)] == expected
        assert products == []


def _split_product(ring, primes):
    """The product of the primes of ``primes``, each ``(p, index, e)`` the
    e-th power of ``prime_ideals_above(ring, p)[index]``."""
    n = principal_ideal(ring, ring.one)
    for p, i, e in primes:
        n = ideal_mul(ring, n, ideal_pow(ring, prime_ideals_above(ring, p)[i].hnf, e))
    return residue_ctx(ring, n)


# Q, Q(sqrt(-5)) and Z[2^(1/3)]
CYCLIC_RINGS = [[0, 1], [5, 0, 1], [-2, 0, 0, 1]]
CYCLIC_NORM = 400


def _cyclic_moduli(draw):
    """A ring of CYCLIC_RINGS and a modulus of norm 2 to CYCLIC_NORM with O/n
    cyclic: a product of powers of primes of degree 1 above distinct p, the
    first power alone where p ramifies."""
    ring = make_number_ring(draw(st.sampled_from(CYCLIC_RINGS)))
    ps = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 23, 29]), min_size=1,
                       max_size=3, unique=True))
    n, norm = principal_ideal(ring, ring.one), 1
    for p in ps:
        pfs = [pf for pf in prime_ideals_above(ring, p) if pf.f_res == 1]
        if not pfs or norm * p > CYCLIC_NORM:
            continue
        pf = draw(st.sampled_from(pfs))
        e = 1 if pf.e_ram > 1 else draw(st.integers(1, 3))
        while norm * p ** e > CYCLIC_NORM:
            e -= 1
        n, norm = ideal_mul(ring, n, ideal_pow(ring, pf.hnf, e)), norm * p ** e
    assume(norm > 1)  # no p drawn has a prime of degree 1
    return ring, residue_ctx(ring, n)


class TestCyclicArithmetic:
    """When O/n is Z/N, ``arithmetic`` works on residue indices as ints mod
    N; the tuple form, and ``is_unit_mod`` for the units, are the
    reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_tuple_arithmetic(self, data):
        ring, ctx = _cyclic_moduli(data.draw)
        ops, tuples = arithmetic(ctx), _RingArithmetic(ctx)
        assert isinstance(ops, _CyclicArithmetic)
        reps = list(residues(ctx))
        b = data.draw(st.integers(0, ctx.norm - 1))
        e = data.draw(st.integers(1, 2 * ctx.norm))
        coords = st.integers(-3 * ctx.norm, 3 * ctx.norm)
        c = data.draw(
            st.sampled_from([ring.one, ring.from_int(-1)])
            | st.tuples(*[coords] * ring.deg)
        )
        term, tuple_term = ops.term(c, e), tuples.term(c, e)

        def same(x, y):
            return ops.index(ops.reduce(x)) == tuples.index(tuples.reduce(y))

        for a in range(ctx.norm):
            x, y = reps[a], reps[b]
            assert same(ops.add(a, b), tuples.add(x, y))
            assert same(ops.mul(a, b), tuples.mul(x, y))
            assert same(ops.neg(a), tuples.neg(x))
            assert same(term(a), tuple_term(a))
        assert ops.index(ops.encode(c)) == tuples.index(tuples.encode(c))
        assert list(unit_flags(ctx)) == [int(is_unit_mod(ctx, a)) for a in reps]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_oracle_matches_tuple_form(self, data):
        ring, ctx = _cyclic_moduli(data.draw)
        amb, src = data.draw(st.sampled_from(
            [(2, "x1^2 + x2^2 - 1"), (1, "x1^3 - x1 - 1"), (2, "x1^2 - 2*x2^3 + 1")]
        ))
        V = VarietySpec(amb=amb, codim=1, equations=(parse_poly(src, ring, amb),),
                        declared_degree=3)
        f = parse_poly(data.draw(st.sampled_from(["x1 - 2", "x1^2 + 1"])), ring, 1)
        count = brute_force_count(ring, V, f, ctx.modulus)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("exunits.residues._CyclicArithmetic", _RingArithmetic)
            assert brute_force_count(ring, V, f, ctx.modulus) == count

    @pytest.mark.parametrize(
        "min_poly, primes, form",
        [
            ([0, 1], [(2, 0, 6)], _CyclicArithmetic),  # (64)
            ([0, 1], [(2, 0, 2), (3, 0, 1), (7, 0, 2)], _CyclicArithmetic),  # (588)
            ([5, 0, 1], [(3, 0, 1)], _CyclicArithmetic),  # split P3
            ([5, 0, 1], [(3, 1, 3)], _CyclicArithmetic),  # P3'^3
            ([5, 0, 1], [(3, 0, 1), (7, 1, 1), (23, 0, 1)], _CyclicArithmetic),
            ([5, 0, 1], [(2, 0, 1), (3, 0, 2)], _CyclicArithmetic),  # N = 18
            ([-2, 0, 0, 1], [(5, 0, 2), (3, 0, 1)], _CyclicArithmetic),
            ([5, 0, 1], [(13, 0, 1)], _RingArithmetic),  # inert (13)
            ([5, 0, 1], [(5, 0, 2)], _RingArithmetic),  # (5) = P5^2
            ([5, 0, 1], [(3, 0, 1), (3, 1, 1)], _RingArithmetic),  # (3)
            ([-2, 0, 0, 1], [(3, 0, 2)], _RingArithmetic),  # ramified P3^2
            # a pair (p, index) is the prime context of that prime
            ([5, 0, 1], (3, 0), _CyclicArithmetic),  # split P3
            ([5, 0, 1], (5, 0), _CyclicArithmetic),  # ramified P5
            ([0, 1], (13, 0), _CyclicArithmetic),  # (13) over Q
            ([5, 0, 1], (11, 0), _FieldArithmetic),  # inert (11)
            ([-2, 0, 0, 1], (7, 0), _FieldArithmetic),  # inert (7)
        ],
    )
    def test_picks_its_form(self, min_poly, primes, form):
        """The form follows the shape of the modulus, whether or not the
        context came from a prime."""
        ring = make_number_ring(min_poly)
        if isinstance(primes, tuple):
            p, index = primes
            ctx = prime_ctx(ring, prime_ideals_above(ring, p)[index])
        else:
            ctx = _split_product(ring, primes)
        assert type(arithmetic(ctx)) is form

    def test_identity_term_builds_no_table(self):
        """term(1, 1) maps the index i to i itself: over Z/21 for every i, and
        over Z/100003 without a list of N ints."""
        rat = make_number_ring([0, 1])
        ctx = residue_ctx(rat, principal_ideal(rat, (21,)))
        term = arithmetic(ctx).term(rat.one, 1)
        assert [term(i) for i in range(21)] == list(range(21))
        ops = arithmetic(residue_ctx(rat, principal_ideal(rat, (100003,))))
        tracemalloc.start()
        try:
            ops.term(rat.one, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_every_modulus_over_q_is_cyclic(self):
        rat = make_number_ring([0, 1])
        for m in range(2, 200):
            ctx = residue_ctx(rat, principal_ideal(rat, (m,)))
            assert type(arithmetic(ctx)) is _CyclicArithmetic

    def test_prime_context_gets_the_field(self, p3, q5):
        """Only a prime of residue degree 2 or more gets the field form: the
        split P3 is Z/3, and the inert (11) is F_121."""
        inert = prime_ideals_above(q5, 11)[0]
        assert type(arithmetic(prime_ctx(q5, p3))) is _CyclicArithmetic
        assert type(arithmetic(prime_ctx(q5, inert))) is _FieldArithmetic


class TestTerm:
    @pytest.mark.parametrize(
        "modulus, form",
        [
            ("P3", _CyclicArithmetic),
            ("inert 11", _FieldArithmetic),
            ("(5)", _RingArithmetic),
        ],
    )
    def test_exponent_below_one_refused(self, q5, p3, modulus, form):
        """Every form refuses term(c, e) for e < 1, where they would differ at
        index 0 (0^0), and gives c * x at e = 1."""
        if modulus == "P3":
            ctx = prime_ctx(q5, p3)
        elif modulus == "inert 11":
            ctx = prime_ctx(q5, prime_ideals_above(q5, 11)[0])
        else:
            ctx = residue_ctx(q5, principal_ideal(q5, (5, 0)))
        ops = arithmetic(ctx)
        assert type(ops) is form
        for e in (0, -1):
            with pytest.raises(ExunitsError, match="exponent"):
                ops.term(q5.one, e)
        two = q5.from_int(2)
        term = ops.term(two, 1)
        reps = list(residues(ctx))
        assert [term(i) for i in range(ctx.norm)] == [
            ops.encode(mul_mod(ctx, two, r)) for r in reps
        ]


class TestIndexMap:
    @pytest.mark.parametrize("p, cyclic", [(3, True), (23, True), (5, False)])
    def test_matches_tuple_map(self, q5, monkeypatch, p, cyclic):
        """The index mod P of each residue mod P^2 over Q(sqrt(-5)): read off
        mod Norm(P) where both rings are Z/N (the split P3 and P23), and by
        reducing tuples at the ramified P5, whose O/P5^2 is not cyclic."""
        pf = prime_ideals_above(q5, p)[0]
        fine = residue_ctx(q5, ideal_pow(q5, pf.hnf, 2))
        coarse = residue_ctx(q5, pf.hnf)
        assert (type(arithmetic(fine)) is _CyclicArithmetic) == cyclic
        expected = [
            residue_index(coarse, reduce_mod(coarse, r)) for r in residues(fine)
        ]
        module = sys.modules["exunits.residues"]
        reductions = []

        def counted(ctx, a):
            reductions.append(a)
            return reduce_mod(ctx, a)

        monkeypatch.setattr(module, "reduce_mod", counted)
        assert index_map(fine, coarse) == expected
        assert bool(reductions) != cyclic
