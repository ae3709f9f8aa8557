"""Run one benchmark workload against the exunits sources of this checkout.

    python3 bench/run.py --workload fibers|oracle|families --seed N \
        --seconds S --trace 0|1

Set-up builds the workload's configs and expected outputs (bench/workloads.py)
several times and times each, with `import exunits.cli` timed in a fresh
interpreter.  Then the process runs rounds of the workload's jobs, each job
in-process through `exunits.cli.main(argv)` with stdout captured and compared
with the expected output, until S seconds have passed; every round runs the
same jobs.  A job fails when it exits non-zero, raises, or prints anything but
the expected output; a wrong output also makes `correct` false.

Times are reported at reference speed (bench/calibration.py): the machine is
shared, and a CPU runs Python up to 1.7 times slower for stretches of seconds.

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` (jobs), and `metrics`.  With --trace 0 the metrics are end to end,
per round of jobs and with tracing off.  With --trace 1 the first half of the
time runs untraced rounds and the second half traced ones (bench/tracing.py);
the metrics are per layer, per traced round, and the spans go to
bench/out/trace-<workload>-seed<N>.json.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9

# what --trace 1 reports; the trace file has every traced function's figures
PER_LAYER = [
    "cli.load_config_s", "polys.parse_poly_s", "polys.parse_poly_calls",
    "cli.parse_modulus_s", "ideals.ideal_pow_s",
    "ideals.factor_ideal_s", "ideals.factor_ideal_calls",
    "ideals.factor_ideal_calls_per_modulus",
    "ideals.valuation_s", "ideals.valuation_calls", "ideals.ideal_mul_calls",
    "ideals.prime_ideals_above_s", "ideals.prime_ideals_above_calls",
    "polys.check_good_reduction_s", "polys.check_good_reduction_calls",
    "polys.check_good_reduction_calls_per_prime",
    "polys.check_good_reduction_candidates_per_s",
    "polys.jacobian_rank_at_s", "polys.jacobian_rank_at_calls",
    "counting.local_counts_s", "counting.local_counts_calls",
    "counting.local_counts_calls_per_prime", "counting.local_counts_candidates_per_s",
    "counting.theorem1_count_s", "counting.theorem1_count_self_s",
    "counting.brute_force_count_s", "counting.brute_force_count_calls",
    "counting.brute_force_count_tuples_per_s",
    "counting.lifting_census_s", "counting.lifting_census_calls",
    "counting.asympt_series_s", "counting.asympt_series_self_s",
    "counting.good_reduction_primes_s", "counting.describe_ideal_s",
    "trace.overhead_s",
]

sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# times the import at reference speed on the child's own CPU
IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from calibration import calibrate, factor\n"
    "before = calibrate()\n"
    "t = time.perf_counter()\n"
    "import exunits.cli\n"
    "t = time.perf_counter() - t\n"
    "print(t * factor(before, calibrate()))\n"
)


def time_import():
    """Seconds `import exunits.cli` takes in a fresh interpreter, at
    reference speed."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_TIMER, str(SRC), str(BENCH)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing exunits failed:\n{proc.stderr}")
    return float(proc.stdout)


def calibrated(measure):
    """Run `measure()` between calibrations; returns its result and the
    factors that take its times to reference speed, for work done on this
    thread's CPU and for work spread over all CPUs."""
    gc.collect()
    all_before = calibration.calibrate_each_cpu()
    before = calibration.calibrate()
    result = measure()
    after = calibration.calibrate()
    all_after = calibration.calibrate_each_cpu()
    return (
        result,
        calibration.factor(before, after),
        calibration.factor(all_before, all_after),
    )


def setup(workload, seed, config_dir):
    """Median set-up time over SETUP_REPEATS, and the workload's jobs."""
    times, jobs = [], None

    def build():
        nonlocal jobs
        start = time.perf_counter()
        jobs = workloads.build(workload, seed, config_dir)
        return time.perf_counter() - start

    for _ in range(SETUP_REPEATS):
        build_s, k, _ = calibrated(build)
        times.append(time_import() + build_s * k)
    return statistics.median(times), jobs


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Runner:
    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.tracer = None  # a tracing.Tracer makes each job a root span
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.job_walls = {job.label: [] for job in jobs}
        self.raw_job_walls = {job.label: [] for job in jobs}
        self.factors = []

    def run_job(self, job):
        """Run and check one job; returns its (wall, cpu) seconds at
        reference speed.  The job starts from a clean heap, as it would in a
        fresh process.

        When other threads or child processes did more than a tenth of the
        job's CPU time, the work ran on more than one CPU, and it is gauged
        by the mean speed of all CPUs instead of this thread's CPU."""
        out, err = io.StringIO(), io.StringIO()
        rc = None

        def measure():
            nonlocal rc
            if self.tracer:
                self.tracer.open("cli.main")
            cpu0, child0, main0 = time.process_time(), children_cpu(), time.thread_time()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(job.argv))
            except (Exception, SystemExit) as exc:  # a job that escapes main fails
                rc = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0 + children_cpu() - child0
            main = time.thread_time() - main0
            if self.tracer:
                self.tracer.close()
            return wall, cpu, main

        (raw_wall, raw_cpu, main_cpu), k, k_all = calibrated(measure)
        if main_cpu < 0.9 * raw_cpu:
            k = k_all
        wall, cpu = raw_wall * k, raw_cpu * k
        self.attempted += 1
        self.job_walls[job.label].append(wall)
        self.raw_job_walls[job.label].append(raw_wall)
        self.factors.append(k)
        if rc != 0:
            self.failed += 1
            print(f"job failed ({job.label}): {rc} {err.getvalue()[-500:]}", file=sys.stderr)
        elif out.getvalue() != job.expected:
            self.failed += 1
            self.correct = False
            print(f"wrong output ({job.label}):\n{_first_difference(out.getvalue(), job.expected)}",
                  file=sys.stderr)
        return wall, cpu

    def run_rounds(self, seconds):
        """Whole rounds until `seconds` have passed; (wall, cpu) per round."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            times = [self.run_job(job) for job in self.jobs]
            rounds.append((sum(w for w, _ in times), sum(c for _, c in times)))
        return rounds


def _first_difference(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i + 1}: got {g!r}, expected {w!r}"
    return f"got {len(got_lines)} lines, expected {len(want_lines)}"


def end_to_end(runner, rounds, setup_s):
    walls = [w for ws in runner.job_walls.values() for w in ws]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (statistics.median(w for w, _ in rounds), "s"),
        "cpu_s": (statistics.median(c for _, c in rounds), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": ((self_rss + child_rss) / 1024, "MiB"),  # ru_maxrss is KiB
    }


def per_layer(tracer, jobs, n_rounds, overhead_s):
    """Per-layer metrics per traced round, and the bases of their ratios."""
    layers = tracer.summary()
    moduli = sum(job.moduli for job in jobs)
    primes = sum(job.primes for job in jobs)

    def get(name, key):
        return layers.get(name, {}).get(key, 0) / n_rounds

    def rate(name):
        seconds = get(name, "inclusive_s")
        return get(name, "work") / seconds if seconds else 0.0

    m = {}
    for mod, fn in tracing.TRACED:
        name = f"{mod}.{fn}"
        m[f"{name}_s"] = (get(name, "inclusive_s"), "s")
        m[f"{name}_calls"] = (get(name, "calls"), "count")
    for name in ("counting.theorem1_count", "counting.asympt_series"):
        m[f"{name}_self_s"] = (get(name, "self_s"), "s")
    m["ideals.factor_ideal_calls_per_modulus"] = (get("ideals.factor_ideal", "calls") / moduli, "count")
    for name in ("polys.check_good_reduction", "counting.local_counts"):
        m[f"{name}_calls_per_prime"] = (get(name, "calls") / primes, "count")
        m[f"{name}_candidates_per_s"] = (rate(name), "1/s")
    m["counting.brute_force_count_tuples_per_s"] = (rate("counting.brute_force_count"), "1/s")
    m["trace.overhead_s"] = (overhead_s, "s")
    bases = {"rounds": n_rounds, "jobs_per_round": len(jobs), "moduli_per_round": moduli,
             "distinct_primes_per_round": primes}
    return m, layers, bases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exunits" / "__init__.py").is_file():
        print(f"error: no exunits sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="configs-") as config_dir:
        try:
            setup_s, jobs = setup(args.workload, args.seed, Path(config_dir))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        import exunits.cli as cli

        if SRC.resolve() not in Path(cli.__file__).resolve().parents:
            print(f"error: imported exunits from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2

        runner = Runner(cli, jobs)
        if not args.trace:
            rounds = runner.run_rounds(args.seconds)
            metrics = end_to_end(runner, rounds, setup_s)
        else:
            untraced = runner.run_rounds(args.seconds / 2)
            runner.tracer = tracer = tracing.Tracer()
            tracer.install()
            traced = runner.run_rounds(args.seconds / 2)
            overhead = statistics.median(w for w, _ in traced) - statistics.median(
                w for w, _ in untraced
            )
            every, layers, bases = per_layer(tracer, jobs, len(traced), overhead)
            metrics = {name: every[name] for name in PER_LAYER}
            traced_wall = sum(end - start for _, start, end, parent, _, _ in tracer.spans
                              if parent < 0)
            self_sum = sum(entry["self_s"] for entry in layers.values())
            tracer.write(
                OUT / f"trace-{args.workload}-seed{args.seed}.json",
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "bases": bases,
                    "traced_wall_s": traced_wall,
                    "self_sum_s": self_sum,
                    "untraced_round_wall_s": [w for w, _ in untraced],
                    "traced_round_wall_s": [w for w, _ in traced],
                    "other_thread_calls": tracer.other_thread_calls,
                    "metrics": {k: v for k, (v, _) in every.items()},
                },
            )
            print(f"traced wall {traced_wall:.6f} s, sum of self times {self_sum:.6f} s",
                  file=sys.stderr)

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "result": result,
                "job_wall_s": runner.job_walls,
                "raw_job_wall_s": runner.raw_job_walls,
                "scale_factor": runner.factors,
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
