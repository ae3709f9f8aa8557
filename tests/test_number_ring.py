import operator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exunits import (
    MinPolyTooLarge,
    NotMonic,
    Reducible,
    ZeroDegree,
    elem_add,
    elem_mul,
    ideal_norm,
    make_number_ring,
    principal_ideal,
)
from exunits.errors import DimensionMismatch
from exunits.number_ring import (
    MAX_COEFF,
    MAX_DEGREE,
    is_zero,
    square_and_multiply,
)


@pytest.fixture
def q5():
    return make_number_ring([5, 0, 1])


class TestConstruction:
    def test_degree_one_field(self):
        ring = make_number_ring([0, 1])
        assert ring.deg == 1

    def test_qsqrt_minus5(self, q5):
        assert q5.deg == 2

    def test_rings_are_hashable_values(self, q5):
        again = make_number_ring([5, 0, 1])
        assert again == q5 and hash(again) == hash(q5)
        assert {q5: "Q(sqrt(-5))"}[again] == "Q(sqrt(-5))"
        assert make_number_ring([1, 0, 1]) != q5

    def test_x_squared_minus_one_reducible(self):
        with pytest.raises(Reducible):
            make_number_ring([-1, 0, 1])

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            make_number_ring([1, 2])

    def test_zero_degree(self):
        with pytest.raises(ZeroDegree):
            make_number_ring([1])

    def test_zero_constant_term_reducible(self):
        with pytest.raises(Reducible):
            make_number_ring([0, 0, 1])

    def test_cubic_with_root(self):
        # x^3 - 8 has root 2
        with pytest.raises(Reducible):
            make_number_ring([-8, 0, 0, 1])

    def test_cubic_irreducible(self):
        assert make_number_ring([2, 0, 0, 1]).deg == 3

    def test_degree_bound(self):
        """x^12 + 2 is accepted and x^13 + 2 refused."""
        assert MAX_DEGREE == 12
        assert make_number_ring([2] + [0] * 11 + [1]).deg == 12
        with pytest.raises(MinPolyTooLarge, match="degree 13"):
            make_number_ring([2] + [0] * 12 + [1])

    def test_coefficient_bound(self):
        """|c| = 10^12 is accepted as the constant term (10^6 trial divisions
        for its divisors) and elsewhere; 10^12 + 1 is refused in any position
        and with either sign, before the divisors are listed."""
        assert MAX_COEFF == 10 ** 12
        assert make_number_ring([MAX_COEFF, 0, 1]).deg == 2
        assert make_number_ring([1, -MAX_COEFF, 0, 1]).deg == 3
        for g in (
            [MAX_COEFF + 1, 0, 1],
            [-MAX_COEFF - 1, 0, 1],
            [1, MAX_COEFF + 1, 0, 1],
            [10 ** 16 + 61, 0, 1],
        ):
            with pytest.raises(MinPolyTooLarge, match="larger than 1000000000000"):
                make_number_ring(g)


class TestOperations:
    def test_theta_squared(self, q5):
        assert elem_mul(q5, (0, 1), (0, 1)) == (-5, 0)

    def test_conjugate_product(self, q5):
        assert elem_mul(q5, (1, 1), (1, -1)) == (6, 0)

    def test_add(self, q5):
        assert elem_add(q5, (1, 2), (3, -2)) == (4, 0)

    def test_dimension_mismatch(self, q5):
        with pytest.raises(DimensionMismatch):
            elem_add(q5, (1, 2), (1, 2, 3))

    def test_norm_of_rational_integer(self, q5):
        assert _norm(q5, (3, 0)) == 9

    def test_norm_examples(self, q5):
        assert _norm(q5, (1, 1)) == 6
        assert _norm(q5, (0, 1)) == 5


def _norm(ring, a):
    """|N(a)| for a nonzero a: the index in O of the principal ideal (a)."""
    return ideal_norm(principal_ideal(ring, a))


def _norm_oracle_q5(a):
    # a + b*sqrt(-5) has norm a^2 + 5 b^2
    return a[0] ** 2 + 5 * a[1] ** 2


coords = st.integers(min_value=-30, max_value=30)
elems2 = st.tuples(coords, coords)


class TestProperties:
    @given(elems2, elems2, elems2)
    @settings(max_examples=80)
    def test_ring_axioms(self, a, b, c):
        q5 = make_number_ring([5, 0, 1])
        assert elem_mul(q5, a, b) == elem_mul(q5, b, a)
        assert elem_mul(q5, elem_mul(q5, a, b), c) == elem_mul(
            q5, a, elem_mul(q5, b, c)
        )
        assert elem_mul(q5, a, elem_add(q5, b, c)) == elem_add(
            q5, elem_mul(q5, a, b), elem_mul(q5, a, c)
        )

    @given(elems2, elems2)
    @settings(max_examples=80)
    def test_norm_multiplicative(self, a, b):
        assume(not is_zero(a) and not is_zero(b))
        q5 = make_number_ring([5, 0, 1])
        assert _norm(q5, elem_mul(q5, a, b)) == _norm(q5, a) * _norm(q5, b)

    @given(elems2)
    @settings(max_examples=40)
    def test_norm_matches_quadratic_closed_form(self, a):
        assume(not is_zero(a))
        q5 = make_number_ring([5, 0, 1])
        assert _norm(q5, a) == _norm_oracle_q5(a)

    @pytest.mark.parametrize(
        "min_poly", [[5, 0, 1], [1, 0, 1], [2, 0, 0, 1], [7, 1, 0, 0, 1]]
    )
    def test_theta_is_a_root(self, min_poly):
        ring = make_number_ring(min_poly)
        acc = ring.zero
        power = ring.one
        for c in ring.min_poly:
            acc = elem_add(ring, acc, tuple(c * x for x in power))
            power = elem_mul(ring, power, ring.theta)
        assert is_zero(acc)


@given(st.integers(-50, 50), st.integers(1, 200))
def test_square_and_multiply_is_binary_powering(x, e):
    """x^e with one product per bit past the leading one, plus one per set bit."""
    calls = []

    def mul(a, b):
        calls.append(1)
        return operator.mul(a, b)

    assert square_and_multiply(x, e, mul) == x ** e
    assert len(calls) == (e.bit_length() - 1) + (bin(e).count("1") - 1)
