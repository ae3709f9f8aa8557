"""Count exceptional units on the circle over Q(sqrt(-5)), three ways.

The variety is x^2 + y^2 = 1, the unit-test polynomial is f = x - 2, and the
modulus is (3), which splits into two primes of norm 3.  The brute-force
enumeration, the local-global product formula, and the circle-specific
closed form must all agree; the "strict_paper" variant of the closed form
is also shown because it visibly diverges when c - a^2 is congruent to 0.
"""

from exunits import (
    VarietySpec,
    brute_force_count,
    example25_count,
    factor_ideal,
    make_number_ring,
    parse_poly,
    principal_ideal,
    theorem1_count,
)


def main():
    ring = make_number_ring([5, 0, 1])  # Z[theta], theta^2 = -5
    circle = VarietySpec(
        amb=2,
        codim=1,
        equations=(parse_poly("x1^2 + x2^2 - 1", ring, 2),),
        declared_degree=2,
    )
    f = parse_poly("x1 - 2", ring, 1)
    n_ideal = principal_ideal(ring, ring.from_int(3))

    factors = factor_ideal(ring, n_ideal)  # the two primes above 3

    brute = brute_force_count(ring, circle, f, n_ideal)
    report = theorem1_count(ring, circle, f, factors)
    corrected = example25_count(ring, 2, 1, factors, mode="corrected")
    strict = example25_count(ring, 2, 1, factors, mode="strict_paper")

    print(f"modulus norm        : {report.modulus_norm}")
    for ld in report.locals:
        print(
            f"  prime ({ld.prime.p}, h={list(ld.prime.h_coeffs)}): "
            f"#X = {ld.count_X}, #N = {ld.count_N}, factor = {ld.factor}"
        )
    print(f"brute-force count   : {brute}")
    print(f"product formula     : {report.total}")
    print(f"closed form         : {corrected.total}")
    print(f"closed form (strict): {strict.total}  <- diverges when chi = 0")


if __name__ == "__main__":
    main()
