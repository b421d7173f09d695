"""Run every workload over ten seeds, twice, then once traced, and summarise.

    python3 bench/baseline.py [--out bench/baseline.json]

This runs ``run.py --trace 0`` on every workload in BENCHMARK.json, once per
seed 0..9 at its ``run_seconds``, one run at a time: a first set over all
workloads, then a second set.  For every end-to-end metric of each set it
prints the median over seeds and the spread, which is the distance between
the first and third quartile (``statistics.quantiles`` with n=4) as a share of
the median, next to the bound in BENCHMARK.json, and then how far the second
set's median moved from the first's.  Last, it runs ``run.py --trace 1`` at
the default seed and prints every per-layer metric.  With ``--out`` it writes
all of it, with the run metadata, as JSON.  A wrong output in any run stops it
with exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[0])["meta"]
    print(f"{workload} seed {seed} trace {trace}: {result['meta']['repeats']} repeats",
          file=sys.stderr, flush=True)
    return result


def summarise(runs: list[dict], bound: float, metric: str) -> dict:
    values = [r["metrics"][metric]["value"] for r in runs]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values,
            "repeats": [r["meta"]["repeats"] for r in runs]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [{name: [run(name, seed, seconds, 0) for seed in range(SEEDS)]
             for name in names} for _ in range(SETS)]
    summary = {"run_seconds": seconds, "seeds": list(range(SEEDS)), "sets": SETS,
               "workloads": {}}
    for name in names:
        entry = {"meta": sets[0][name][0]["meta"], "end_to_end": {}}
        print(f"== {name} ({SEEDS} seeds, {seconds} s runs, {SETS} sets)")
        for metric, m in metrics.items():
            per_set = [summarise(runs[name], m["bound"], metric) for runs in sets]
            moved = per_set[-1]["median"] / per_set[0]["median"] - 1
            worse = moved if m["better"] == "lower" else -moved
            entry["end_to_end"][metric] = {"unit": m["unit"], "sets": per_set,
                                           "second_median_moved": moved}
            for k, s in enumerate(per_set):
                flag = "" if s["spread"] < m["bound"] / 3 else (
                    "  (above a third of the bound)" if s["spread"] <= m["bound"]
                    else "  (ABOVE THE BOUND)")
                print(f"  {metric:12s} set {k + 1}: median {s['median']:10.5g} {m['unit']:3s} "
                      f"spread {s['spread']:7.2%} bound {m['bound']:.0%}{flag}")
            print(f"  {metric:12s} second median moved {moved:+7.2%}"
                  f"{'  (WORSE BY MORE THAN THE BOUND)' if worse > m['bound'] else ''}")
        traced = run(name, 0, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_meta"] = traced["meta"]
        for key, v in traced["metrics"].items():
            print(f"  {key:30s} {v['value']:12.6g} {v['unit']}")
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
