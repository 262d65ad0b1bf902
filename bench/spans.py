"""In-memory span recording around the public functions of each eta26 layer.

Each function is replaced, in the module that calls it, by a wrapper that
records one span: name, parent span, start and end.  Spans stay in flat
arrays while the workload runs and are summarised or written out after it.
A layer's self time is its spans' durations minus the time their child
spans cover.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter_ns
from typing import Callable

# (span name, modules whose binding of the function is replaced, attribute).
# A function is wrapped where its callers look it up, so calls from inside
# the package are seen too.  Bindings a given version of the package does
# not have are skipped and reported as such; check_family covers the two
# family checks, whether they are separate functions or one.
WRAP_POINTS = (
    ("arith.factorize", ("hecke", "classify"), "factorize"),
    ("arith.is_prime", ("arith", "hecke", "quadrep"), "is_prime"),
    ("quadrep.two_squares", ("hecke",), "two_squares"),
    ("quadrep.one_three_squares", ("hecke",), "one_three_squares"),
    ("hecke.t_prime", ("hecke", "props", "cli"), "t1_prime"),
    ("hecke.t_prime", ("hecke", "props", "cli"), "t2_prime"),
    ("hecke.t_prime_power", ("hecke", "props"), "t_prime_power"),
    ("hecke.coeff_bundle", ("hecke",), "coeff_bundle"),
    ("hecke.p26_cm", ("classify", "cli"), "p26_cm"),
    ("series.eta_power_series", ("series",), "eta_power_series"),
    ("classify.profile", ("classify",), "profile"),
    ("classify.apply_theorems", ("classify",), "apply_theorems"),
    ("classify.scan", ("classify",), "scan"),
    ("classify.check_family", ("classify",), "check_family"),
    ("classify.check_family", ("classify",), "check_25n_plus_1"),
    ("classify.check_family", ("classify",), "check_49n_plus_3"),
    ("props.verify", ("props",), "run_all"),
)

# The prime-value caches whose cache_info() gives hecke.t_prime.hit_ratio.
CACHED = (("hecke", "t1_prime"), ("hecke", "t2_prime"))

ROOT = "cli"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.primes_checked = 0
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every binding in WRAP_POINTS that exists; return the ones wrapped."""
        wrapped = []
        for name, modules, attr in WRAP_POINTS:
            for mod_name in modules:
                module = importlib.import_module(f"eta26.{mod_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if attr == "run_all":
                    fn = self._counting_primes(fn)
                setattr(module, attr, self.wrap(name, fn))
                wrapped.append(f"{mod_name}.{attr}")
        return wrapped

    def _counting_primes(self, run_all: Callable) -> Callable:
        def counted(*args, **kwargs):
            reports = run_all(*args, **kwargs)
            self.primes_checked += sum(r.checked for r in reports)
            return reports
        return counted

    def summary(self) -> dict[str, dict]:
        """calls, total_s and self_s per span name."""
        child_ns: dict[int, int] = {}
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + self.ends[sid] - self.starts[sid]
        out: dict[str, dict] = {}
        for sid in range(len(self.names)):
            dur = self.ends[sid] - self.starts[sid]
            row = out.setdefault(self.names[sid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child_ns.get(sid, 0)) / 1e9
        return out

    def write(self, path: str) -> None:
        """Write every span as a gzipped TSV row: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, name in enumerate(self.names):
                f.write(f"{sid}\t{self.parents[sid]}\t{name}\t"
                        f"{self.starts[sid]}\t{self.ends[sid]}\n")


def cache_hit_ratio() -> float:
    """Hits over lookups of the prime-value caches, through any wrappers."""
    hits = misses = 0
    for mod_name, attr in CACHED:
        fn = getattr(importlib.import_module(f"eta26.{mod_name}"), attr, None)
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0
