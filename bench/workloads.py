"""The benchmark's workloads: exunits CLI jobs and the output each must give.

A job is one command a user would run (`count`, `verify` or `asympt`).  The
seed picks `a` in f = x - a and the constant `c` of the quadric.  `c` is
+-1 or +-(a prime between 61 and 997), so no prime in use here and no prime of
norm <= 60 divides 2c: every job has good reduction, and the work in a job
depends only on the residue fields and the moduli, never on the seed.

Expected outputs come from reference.py, never from exunits.
"""

import json
import random
from dataclasses import dataclass

import reference as ref

SQRT_M5 = (5, 0, 1)  # Q(sqrt(-5)), O = Z[sqrt(-5)]
CBRT_2 = (-2, 0, 0, 1)  # Z[2^(1/3)]
CAP = 10 ** 8  # the CLI's default enumeration cap

# name -> (amb, codim, equations with {c} for the constant, closed-form counts)
VARIETIES = {
    "circle": (2, 1, ["x1^2 + x2^2 - ({c})"], ref.circle_counts),
    "sphere": (3, 1, ["x1^2 + x2^2 + x3^2 - ({c})"], ref.sphere_counts),
    "curve": (3, 2, ["x1^2 + x2^2 - ({c})", "x3 - x1"], ref.circle_counts),
}

WORKLOADS = ("fibers", "oracle", "families")


@dataclass
class Job:
    label: str
    argv: list
    expected: str  # the exact stdout the job must print
    moduli: int  # moduli the job is given
    primes: int  # distinct prime ideals dividing them


@dataclass(frozen=True)
class Prime:
    g: tuple
    p: int
    h: tuple
    f_res: int
    e_ram: int

    @property
    def norm(self):
        return self.p ** self.f_res


def prime(g, p, f_res, index=0):
    """The index-th prime ideal above p of residue degree f_res (sorted by h)."""
    found = [
        Prime(g, p, h, f, e) for p_, h, f, e in ref.prime_ideals_above(g, p) if f == f_res
    ]
    return found[index]


def _describe(factors):
    """The modulus as `describe_ideal` writes it: (p,[h])^e joined by `*`."""
    return "*".join(
        f"({pr.p},{list(pr.h)})".replace(" ", "") + (f"^{e}" if e > 1 else "")
        for pr, e in factors
    )


def pick_inputs(seed):
    rng = random.Random(seed)
    big_primes = [p for p in range(61, 1000) if ref.is_prime(p)]
    c = rng.choice([-1, 1]) * rng.choice([1] + big_primes)
    a = rng.randint(-99, 99)
    return a, c


class JobSet:
    """Writes each job's config into a directory and computes its output."""

    def __init__(self, seed, config_dir):
        self.a, self.c = pick_inputs(seed)
        self.config_dir = config_dir
        self.jobs = []

    def _config(self, g, variety, modulus=None):
        amb, codim, equations, _ = VARIETIES[variety]
        cfg = {
            "field": {"min_poly": list(g)},
            "variety": {
                "amb": amb,
                "codim": codim,
                "degree": 2,
                "equations": [eq.format(c=self.c) for eq in equations],
            },
            "f": f"x1 - ({self.a})",
        }
        if modulus is not None:
            cfg["modulus"] = modulus
        path = self.config_dir / f"job{len(self.jobs)}.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def _local(self, variety, pr):
        amb, codim, _, counts = VARIETIES[variety]
        count_x, count_n = counts(self.c, self.a, pr.p, pr.f_res)
        return count_x, count_n, amb - codim

    def _modulus(self, factors, form):
        if form == "generators":  # (p)^e for an inert p
            ((pr, e),) = factors
            return {"generators": [pr.p ** e]}
        return {
            "primes": [{"p": pr.p, "h": list(pr.h), "exponent": e} for pr, e in factors]
        }

    def count(self, variety, factors, method="formula", form="primes"):
        factors = sorted(factors, key=lambda fe: (fe[0].p, fe[0].h))
        g = factors[0][0].g
        locals_, parts, norm = [], [], 1
        for pr, e in factors:
            count_x, count_n, r = self._local(variety, pr)
            factor = ref.local_factor(pr.norm, r, count_x, count_n)
            locals_.append(
                {
                    "p": pr.p,
                    "h": list(pr.h),
                    "f_res": pr.f_res,
                    "e_ram": pr.e_ram,
                    "exponent": e,
                    "norm": pr.norm,
                    "count_X": count_x,
                    "count_N": count_n,
                    "factor": {"num": factor.numerator, "den": factor.denominator},
                }
            )
            parts.append(ref.prime_power_count(pr.norm, r, e, count_x, count_n))
            norm *= pr.norm ** e
        out = {
            "modulus_norm": str(norm),
            "exponent": r,
            "locals": locals_,
            "total": str(ref.crt_total(parts)),
            "method": method,
        }
        if method == "both":
            out["agreement"] = True
        path = self._config(g, variety, self._modulus(factors, form))
        self._add(
            f"count {method} {variety} {_describe(factors)}",
            ["count", "--config", path, "--method", method],
            out,
            1,
            len(factors),
        )

    def verify(self, variety, factors):
        """`verify` on a squarefree modulus within the CLI's enumeration cap."""
        factors = sorted(factors, key=lambda pr: (pr.p, pr.h))
        amb, _, _, _ = VARIETIES[variety]
        checks, parts, norm = [], [], 1
        for pr in factors:
            count_x, count_n, r = self._local(variety, pr)
            checks.append({"name": f"good_reduction p={pr.p} h={list(pr.h)}", "pass": True})
            if pr.norm ** (2 * amb) <= CAP:
                checks.append(
                    {
                        "name": f"lifting_census k=1 p={pr.p} h={list(pr.h)}",
                        "pass": True,
                        "histogram": {str(pr.norm ** r): count_x},
                    }
                )
            parts.append(ref.prime_power_count(pr.norm, r, 1, count_x, count_n))
            norm *= pr.norm
        if len(factors) >= 2 and norm ** amb <= CAP:
            checks.append(
                {
                    "name": "multiplicativity",
                    "pass": True,
                    "count": ref.crt_total(parts),
                    "prime_power_counts": parts,
                }
            )
        path = self._config(
            factors[0].g, variety, self._modulus([(pr, 1) for pr in factors], "primes")
        )
        self._add(
            f"verify {variety} {_describe([(pr, 1) for pr in factors])}",
            ["verify", "--config", path],
            {"checks": checks, "all_pass": True},
            1,
            len(factors),
        )

    def asympt(self, g, max_norm, workers):
        """`asympt --products 2`: the good primes of norm <= max_norm and their
        pairwise products, sorted by (N, modulus)."""
        primes = [Prime(g, *pr) for pr in ref.good_primes(g, self.c, max_norm)]
        family = [(pr,) for pr in primes]
        family += [
            (primes[i], primes[j])
            for i in range(len(primes))
            for j in range(i + 1, len(primes))
        ]
        rows = []
        for members in family:
            members = sorted(members, key=lambda pr: (pr.p, pr.h))
            factors = []
            for pr in members:
                count_x, count_n, r = self._local("circle", pr)
                factors.append((pr.norm, ref.local_factor(pr.norm, r, count_x, count_n)))
            norm = ref.crt_total(q for q, _ in factors)
            ratio = ref.crt_total(fac for _, fac in factors)
            count = ratio * norm ** r
            desc = _describe([(pr, 1) for pr in members])
            rows.append(
                (
                    desc,
                    norm,
                    str(int(count)),
                    format(float(ratio), ".12g"),
                    str(len(members)),
                    format(sum(q ** -0.5 for q, _ in factors), ".12g"),
                    format(sum(1.0 / q for q, _ in factors), ".12g"),
                    format(float(max(abs(fac - 1) for _, fac in factors)), ".12g"),
                )
            )
        rows.sort(key=lambda row: (row[1], row[0]))
        text = "modulus,N,count,ratio,omega,sum_inv_sqrt,sum_inv,max_local_dev\n"
        text += "".join(",".join(str(x) for x in row) + "\n" for row in rows)
        path = self._config(g, "circle")
        argv = ["asympt", "--config", path, "--max-norm", str(max_norm), "--products", "2"]
        argv += ["--workers", str(workers)]
        self.jobs.append(
            Job(f"asympt B={max_norm}", argv, text, len(family), len(primes))
        )

    def _add(self, label, argv, out, moduli, primes):
        expected = json.dumps(out, indent=2) + "\n"
        self.jobs.append(Job(label, argv, expected, moduli, primes))


def build(workload, seed, config_dir):
    """The jobs of one round of `workload`, with configs written to config_dir."""
    b = JobSet(seed, config_dir)
    if workload == "fibers":
        # large residue fields: good reduction and local counts do the work
        b.count("circle", [(prime(SQRT_M5, 13, 2), 1)], form="generators")
        b.count("circle", [(prime(CBRT_2, 11, 2), 2)])
        b.count("circle", [(prime(CBRT_2, 7, 3), 1)], form="generators")
        b.count("sphere", [(prime(SQRT_M5, 29, 1), 1)])
        b.count("curve", [(prime(SQRT_M5, 41, 1), 2)])
    elif workload == "oracle":
        # composite moduli: brute force over O/n and the census mod P^2
        p3, p3b = prime(SQRT_M5, 3, 1, 0), prime(SQRT_M5, 3, 1, 1)
        p5 = prime(SQRT_M5, 5, 1)  # ramified
        p7, p7b = prime(SQRT_M5, 7, 1, 0), prime(SQRT_M5, 7, 1, 1)
        p23 = prime(SQRT_M5, 23, 1)
        b.count("circle", [(p5, 1), (p7b, 1)], method="both")
        b.verify("circle", [p3, p5, p7])
        b.count("circle", [(p3, 1), (p5, 1), (p23, 1)], method="both")
        b.verify("circle", [p3b, p5, p23])
        b.count("circle", [(p5, 1), (p7, 1), (p23, 1)], method="both")
    elif workload == "families":
        # many moduli with small residue fields, and high prime powers
        b.asympt(SQRT_M5, 45, workers=2)
        b.count("circle", [(prime(SQRT_M5, 3, 1, 0), 400)])
        b.count("circle", [(prime(SQRT_M5, 3, 1, 1), 800)])
        b.count("circle", [(prime(SQRT_M5, 7, 1), 300)])
        b.count("circle", [(prime(SQRT_M5, 23, 1), 300)])
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return b.jobs
