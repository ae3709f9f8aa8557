"""Scan the density count(n) / norm(n)^(amb - codim) over small primes.

For the circle with f = x - 2 over Q(sqrt(-5)), each good prime contributes
a local factor within O(1/norm) of 1, so the ratio stays bounded away from
0 and 1 while the counts themselves grow linearly in the norm.
"""

from exunits import (
    VarietySpec,
    asympt_series,
    make_number_ring,
    parse_poly,
)
from exunits.ideals import prime_ideals_up_to


def main():
    ring = make_number_ring([5, 0, 1])
    circle = VarietySpec(
        amb=2,
        codim=1,
        equations=(parse_poly("x1^2 + x2^2 - 1", ring, 2),),
        declared_degree=2,
    )
    f = parse_poly("x1 - 2", ring, 1)
    # asympt_series skips the primes of bad reduction
    family = [[pf] for pf in prime_ideals_up_to(ring, 100)]
    print(f"{'modulus':<14}{'N':>5}{'count':>7}{'ratio':>10}{'|dev|':>10}")
    for rec in asympt_series(ring, circle, f, family):
        print(
            f"{rec.description:<14}{rec.N:>5}{rec.count:>7}"
            f"{float(rec.ratio):>10.4f}{rec.max_local_dev:>10.4f}"
        )


if __name__ == "__main__":
    main()
