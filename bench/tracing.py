"""Spans around exunits' public functions, recorded from outside the package.

`Tracer.install` rebinds each traced function in every exunits module that
holds it by name (`exunits.polys.check_good_reduction` and
`exunits.counting.check_good_reduction` alike), so calls made through module
globals are seen.  A traced function that no longer exists reports zero
calls.  Spans (name, start, end, parent) stay in memory until `write`.

Only the thread that installed the tracer records spans, so spans nest and
the self times of all spans add up to the duration of the root spans.
`residues` and `number_ring` are not traced: they are per-element arithmetic
inside every enumeration, and their cost shows as self time of the callers.
"""

import importlib
import inspect
import json
import sys
import threading
import time

# (module, function) pairs, named in metrics as "<module>.<function>"
TRACED = [
    ("cli", "load_config"),
    ("cli", "parse_modulus"),
    ("polys", "parse_poly"),
    ("polys", "check_good_reduction"),
    ("polys", "jacobian_rank_at"),
    ("ideals", "factor_ideal"),
    ("ideals", "valuation"),
    ("ideals", "ideal_mul"),
    ("ideals", "ideal_pow"),
    ("ideals", "prime_ideals_above"),
    ("counting", "local_counts"),
    ("counting", "theorem1_count"),
    ("counting", "brute_force_count"),
    ("counting", "lifting_census"),
    ("counting", "asympt_series"),
    ("counting", "good_reduction_primes"),
    ("counting", "describe_ideal"),
]


def _norm(ideal):
    n = 1
    for i, row in enumerate(ideal.basis):
        n *= row[i]
    return n


def _prime_work(bound):
    """q^amb candidate points and the prime, for (V, prime_factor) calls."""
    pf, V = bound.get("prime_factor"), bound.get("V")
    if pf is None or V is None:
        return None, None
    return pf.norm ** V.amb, (pf.p, tuple(pf.h_coeffs))


def _modulus_work(bound):
    n_ideal, V = bound.get("n_ideal"), bound.get("V")
    if n_ideal is None or V is None:
        return None, None
    return _norm(n_ideal) ** V.amb, None


# traced name -> function of the bound arguments giving (work, prime)
WORK = {
    "polys.check_good_reduction": _prime_work,
    "counting.local_counts": _prime_work,
    "counting.brute_force_count": _modulus_work,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work, prime]
        self.stack = []
        self.owner = threading.get_ident()
        self.other_thread_calls = 0

    def open(self, name, work=None, prime=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, work, prime])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        work_of = WORK.get(name)

        def traced(*args, **kwargs):
            if threading.get_ident() != self.owner:
                self.other_thread_calls += 1
                return fn(*args, **kwargs)
            work = prime = None
            if work_of is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = {}
                work, prime = work_of(bound)
            self.open(name, work, prime)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function in every loaded exunits module."""
        modules = [m for n, m in sys.modules.items() if n == "exunits" or n.startswith("exunits.")]
        for mod_name, fn_name in TRACED:
            try:
                home = importlib.import_module(f"exunits.{mod_name}")
            except ImportError:
                continue
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def summary(self):
        """Per name: calls, inclusive seconds (outermost spans only), self
        seconds, and the work and distinct primes recorded with the calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, work, prime) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "work": 0, "primes": set()}
            )
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if not self._inside_same_name(i):
                entry["inclusive_s"] += end - start
            if work is not None:
                entry["work"] += work
            if prime is not None:
                entry["primes"].add(prime)
        return out

    def _inside_same_name(self, i):
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, extra):
        summary = self.summary()
        for entry in summary.values():
            entry["primes"] = sorted([p, list(h)] for p, h in entry["primes"])
        doc = dict(extra)
        doc["layers"] = summary
        doc["spans"] = [
            {"name": name, "start": start, "end": end, "parent": parent, "work": work,
             "prime": None if prime is None else [prime[0], list(prime[1])]}
            for name, start, end, parent, work, prime in self.spans
        ]
        path.write_text(json.dumps(doc))
