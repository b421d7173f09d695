"""Smoke test of the benchmark at its tiny size, and of its correctness gate.

    python3 bench/selftest.py

Runs every workload at the tiny size (the V=4 table, the V=4 systems, 6 count
points and a 6-point hull set), timed and traced, at the
default and the held-out seed, and checks that each run is correct and prints
exactly the metrics BENCHMARK.json lists.  Then it tampers with one
coefficient or answer in every repeat of each workload, and with one repeat
only, and checks that each such run fails with no metrics.  Takes about a
minute; exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def _tamper_min(output):
    output[0][3] = "1/7"


def _tamper_row(output):
    output[0][1][0] += 1


def _tamper_hull(output):
    output["hull"][0] = not output["hull"][0]


TAMPER = {
    "verify-bundled": _tamper_min,
    "search-v6": _tamper_row,
    "geometry": _tamper_hull,
}


def bench(workload, seed, trace, tamper=None, only_repeat=None):
    """run.main at the tiny size; returns (exit code, last stdout line)."""
    real_launch = run.launch
    launched = []

    def launch(request, workdir, deadline):
        result = real_launch(request, workdir, deadline)
        if "output" in result:
            launched.append(result)
            if tamper and (only_repeat is None or len(launched) == only_repeat):
                result["output"] = copy.deepcopy(result["output"])
                tamper(result["output"])
        return result

    run.launch = launch
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"])
    finally:
        run.launch = real_launch
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = []

    def expect(condition, what):
        print(("ok   " if condition else "FAIL ") + what)
        if not condition:
            failures.append(what)

    for workload in workloads.NAMES:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            for trace in (0, 1):
                code, result = bench(workload, seed, trace)
                expect(code == 0 and result["correct"] and result["failed"] == 0
                       and set(result["metrics"]) == expected[trace],
                       f"{workload} seed {seed} trace {trace}: correct, all metrics")
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            code, result = bench(workload, seed, 0, TAMPER[workload])
            expect(code == 1 and not result["correct"] and result["failed"] > 0
                   and not result["metrics"],
                   f"{workload} seed {seed}: tampered output fails the run")
        code, result = bench(workload, workloads.HELD_OUT_SEED, 0, TAMPER[workload],
                             only_repeat=2)
        expect(code == 1 and not result["correct"] and not result["metrics"],
               f"{workload}: one tampered repeat fails the run")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
