"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

``install`` replaces public monoproof functions with timing wrappers at every
binding where a monoproof module looks them up (``prover.inequality_forms``
and ``expansion.inequality_forms`` alike), so calls made inside the package
are seen, not only the benchmark's own.  Each call becomes one span
``[name, start, end, parent, extra]`` held in memory; the child writes the
list at exit and run.py derives self times from it: a span's self time is
its duration minus the durations of its direct children.

Spans inside pool workers are recorded in the workers' own copies of the
recorder and lost, which is why search-v6 takes its search metrics from its
direct search and only the cli and pool metrics from its pool pass.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

# (defining module, public name) -> span name.  Span names double as the
# prefixes of the per-layer metrics.
WRAPPED = {
    ("tables", "verify_bundled_checksum"): "tables.checksum",
    ("tables", "parse_certificate_table"): "tables.parse",
    ("expansion", "enumerate_systems"): "expansion.enumerate",
    ("expansion", "inequality_forms"): "expansion.forms",
    ("expansion", "weighted_inequality_sum"): "expansion.weighted_sum",
    ("ratcore", "is_positive_definite"): "ratcore.pd_test",
    ("ratcore", "solve_linear"): "ratcore.solve",
    ("prover", "search_certificate"): "prover.search",
    ("prover", "verify_certificate"): "prover.verify",
    ("prover", "prove_unsolvable"): "prover.prove",
    ("equilibria", "count_unstable"): "equilibria.count",
    ("equilibria", "count_stable"): "equilibria.count",
    ("equilibria", "is_hull_vertex"): "equilibria.hull",
    ("cli", "main"): "cli.main",
}

# Per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "tables.checksum_s": "s",
    "tables.parse_s": "s",
    "expansion.enumerate_s": "s",
    "expansion.forms_s": "s",
    "expansion.forms_calls": "count",
    "expansion.weighted_sum_s": "s",
    "expansion.weighted_sum_calls": "count",
    "ratcore.pd_test_s": "s",
    "ratcore.pd_test_calls": "count",
    "ratcore.solve_s": "s",
    "ratcore.solve_calls": "count",
    "prover.search_self_s": "s",
    "prover.search_calls": "count",
    "prover.trials": "count",
    "prover.trial_us": "us",
    "prover.accept_ratio": "ratio",
    "prover.max_system_trials": "count",
    "prover.verify_self_s": "s",
    "prover.verify_calls": "count",
    "prover.prove_self_s": "s",
    "prover.reverify_s": "s",
    "prover.pool_s": "s",
    "prover.serial_frac": "ratio",
    "prover.parallel_efficiency": "ratio",
    "equilibria.count_s": "s",
    "equilibria.hull_s": "s",
    "equilibria.hull_calls": "count",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Recorder:
    """Spans in memory: a list of [name, start, end, parent, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, extra=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[4] = extra
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span[0]} closed out of order")


def _wrap(rec: Recorder, name: str, fn):
    if name == "expansion.enumerate":  # a generator: time each step
        def traced_generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    rec.close(index)
                    return
                rec.close(index)
                yield item
        return traced_generator

    if name == "prover.search":
        from monoproof.prover import Certificate

        def traced_search(*args, **kwargs):
            index = rec.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec.close(index, None if result is None
                          else [result.trials, isinstance(result, Certificate)])
        return traced_search

    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)
    return traced


def install(rec: Recorder) -> None:
    """Wrap every name in WRAPPED, and prover's process pool, in place."""
    package = sys.modules["monoproof"]
    modules = [package] + [sys.modules[f"monoproof.{m}"]
                           for m in ("ratcore", "expansion", "equilibria", "prover",
                                     "tables", "cli")]
    for (home, attr), name in WRAPPED.items():
        fn = getattr(sys.modules[f"monoproof.{home}"], attr)
        wrapper = _wrap(rec, name, fn)
        for module in modules:
            if getattr(module, attr, None) is fn:
                setattr(module, attr, wrapper)

    class TracedPool(ProcessPoolExecutor):
        """The pool's lifetime, from creation to shutdown, as one span."""

        def __init__(self, *args, **kwargs):
            self._span = rec.open("prover.pool")
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                rec.close(self._span)

    sys.modules["monoproof.prover"].ProcessPoolExecutor = TracedPool


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one traced child.

    Every ``*_s`` metric is a self time, except prover.reverify_s and
    prover.pool_s, which are inclusive.  tables.* come from the spans under
    the "bench.setup" root; everything else from those under "bench.job".
    The job's self times add up to trace.wall_s.
    """
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    root = list(range(n))
    under_prove = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
            root[i] = root[parent]
            under_prove[i] = under_prove[parent] or spans[parent][0] == "prover.prove"
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    job_self = 0.0
    job_wall = 0.0
    reverify = pool = prove_wall = 0.0
    trials = certified = max_trials = 0
    for i, (name, _, _, _, extra) in enumerate(spans):
        root_name = spans[root[i]][0]
        own = duration[i] - child_time[i]
        if name == "bench.job":
            job_wall += duration[i]
        if root_name == "bench.job":
            job_self += own
        elif not name.startswith("tables."):
            continue
        self_time[name] = self_time.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if name == "prover.verify" and under_prove[i]:
            reverify += duration[i]
        elif name == "prover.pool":
            pool += duration[i]
        elif name == "prover.prove":
            prove_wall += duration[i]
        elif name == "prover.search" and extra is not None:
            trials += extra[0]
            certified += extra[1]
            max_trials = max(max_trials, extra[0])
    if abs(job_self - job_wall) > 1e-6 * max(1, n):
        raise RuntimeError(f"self times sum to {job_self}, job took {job_wall}")
    search_self = self_time.get("prover.search", 0.0)
    return {
        "tables.checksum_s": self_time.get("tables.checksum", 0.0),
        "tables.parse_s": self_time.get("tables.parse", 0.0),
        "expansion.enumerate_s": self_time.get("expansion.enumerate", 0.0),
        "expansion.forms_s": self_time.get("expansion.forms", 0.0),
        "expansion.forms_calls": calls.get("expansion.forms", 0),
        "expansion.weighted_sum_s": self_time.get("expansion.weighted_sum", 0.0),
        "expansion.weighted_sum_calls": calls.get("expansion.weighted_sum", 0),
        "ratcore.pd_test_s": self_time.get("ratcore.pd_test", 0.0),
        "ratcore.pd_test_calls": calls.get("ratcore.pd_test", 0),
        "ratcore.solve_s": self_time.get("ratcore.solve", 0.0),
        "ratcore.solve_calls": calls.get("ratcore.solve", 0),
        "prover.search_self_s": search_self,
        "prover.search_calls": calls.get("prover.search", 0),
        "prover.trials": trials,
        "prover.trial_us": 1e6 * search_self / trials if trials else 0.0,
        "prover.accept_ratio": certified / trials if trials else 0.0,
        "prover.max_system_trials": max_trials,
        "prover.verify_self_s": self_time.get("prover.verify", 0.0),
        "prover.verify_calls": calls.get("prover.verify", 0),
        "prover.prove_self_s": self_time.get("prover.prove", 0.0),
        "prover.reverify_s": reverify,
        "prover.pool_s": pool,
        "prover.serial_frac": 1.0 - pool / job_wall if job_wall else 0.0,
        "prover.prove_wall_s": prove_wall,
        "equilibria.count_s": self_time.get("equilibria.count", 0.0),
        "equilibria.hull_s": self_time.get("equilibria.hull", 0.0),
        "equilibria.hull_calls": calls.get("equilibria.hull", 0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "bench.self_s": self_time.get("bench.job", 0.0),
        "trace.wall_s": job_wall,
    }
