"""monoproof benchmark: one workload, timed or traced, with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-bundled, search-v6, geometry (see bench/README.md for
why each exists).  Run from the repository root or anywhere else; the
benchmark imports monoproof from this checkout's src/.

Every repeat runs in a fresh interpreter launched by this process, one at a
time, so module-level state starts cold as it does for each CLI invocation.
A run launches repeats for ``--seconds`` and reports each time from the
fastest repeat of each item of the job (see FASTEST below).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced repeats alternate and it carries the
per-layer metrics.
Outputs are checked outside every timed region; a wrong output makes the run
fail (exit 1, no metrics) instead of reporting a time.
Intermediate files go to ``.bench_run/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"

# FASTEST: a job is cut into items (a bundled row, the search or the
# re-verification of a V=6 system, a count call or a hull query), and so is
# its setup (each module import, and the rest).  Each time a run reports is
# the sum over the items of each item's smallest time over the run's
# repeats.  On a shared host a core runs at one of two speeds about 1.7x
# apart, switching every few to a hundred or so milliseconds, and the share
# of time at the slow speed drifts from under a tenth to over nine tenths
# over minutes, as other tenants come and go.  A median measures that share,
# and the smallest time of a whole one-second repeat measures the longest
# fast stretch: over ten runs, either spread by a fifth to a third.  An item
# of a few milliseconds runs at the fast speed in some of the run's dozens
# of repeats, so its smallest time is steady from run to run.  The program
# is deterministic, so a repeat can only be slowed, never sped up, by what
# else runs on the host.
#
# A run launches timed repeats until --seconds have passed since it began,
# and at least MIN_REPEATS.
MIN_REPEATS = 3
# The traced run alternates untraced and traced repeats the same way, at
# least MIN_TRACE_PAIRS pairs.
MIN_TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 170.0

# The end-to-end metrics of BENCHMARK.json, which the last line carries.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not gated.
ITEM_METRICS = {
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
}


# Per-layer metrics that search-v6's traced run takes from its pass of
# `monoproof prove --jobs 2`, since its direct search uses neither the cli
# nor the pool.
PROVE_PASS_METRICS = ("prover.prove_self_s", "prover.reverify_s", "prover.pool_s",
                      "prover.serial_frac", "cli.self_s")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def launch(request: dict, workdir: Path, deadline: float) -> dict:
    """Run one child repeat to completion and return its result."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("out of time before launching a repeat")
    request = dict(request, workdir=str(workdir), launched=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", str(BENCH / "child.py"), json.dumps(request)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{request['workload']} repeat exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers of a crashed child
        except ProcessLookupError:
            pass
        tail = [line for line in err.decode(errors="replace").splitlines()
                if not line.startswith("import time:")][-15:]
        raise BenchError(f"{request['workload']} repeat failed:\n" + "\n".join(tail))
    result = json.loads((workdir / "result.json").read_text())
    result["setup_items"] = setup_items(err.decode(errors="replace"), result["setup_s"])
    return result


def setup_items(stderr: str, setup_s: float) -> dict:
    """setup_s cut into items: the self time of each module import, as
    ``-X importtime`` reports it on stderr, and the rest (process start,
    interpreter start-up and building the inputs) as "rest"."""
    items = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            own, _, name = line[len("import time:"):].split("|")
            if own.strip().isdigit():
                items[name.strip()] = int(own) * 1e-6
    items["rest"] = setup_s - sum(items.values())
    return items


def percentiles(samples: list[float]) -> tuple[float, float, float]:
    """Median, and the highest percentile with at least 10 samples beyond it,
    with its percentile rank.  Below 21 samples that percentile would not
    exceed the median, so the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 20:
        return statistics.median(ordered), ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), ordered[-1], 100.0


def check_outputs(workloads, name, seed, size, repeats):
    """Check every distinct output once; repeats must match byte for byte."""
    first = workloads.digest(repeats[0]["output"])
    verdicts = {}
    attempted = failed = 0
    problems: list[str] = []
    for r in repeats:
        d = workloads.digest(r["output"])
        if d not in verdicts:
            verdicts[d] = workloads.check(name, seed, size, r["output"])
            problems.extend(verdicts[d][2])
        a, f, _ = verdicts[d]
        attempted += a
        failed += a if d != first else f
    if len(verdicts) > 1:
        problems.append(f"{len(verdicts)} different outputs from {len(repeats)} repeats")
    return attempted, failed, problems


def line_count() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "monoproof").glob("*.py")))


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def repeat_until(seconds: float, deadline: float, minimum: int, step) -> None:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` have passed and
    ``minimum`` calls were made, without starting one that would not end
    before the deadline at the pace so far."""
    started = time.monotonic()
    k = 0
    while True:
        elapsed = time.monotonic() - started
        if k >= minimum and (elapsed >= seconds or time.monotonic() + elapsed / k > deadline):
            return
        step(k)
        k += 1


def timed_run(base: dict, rundir: Path, seconds: int, deadline: float) -> list[dict]:
    results = []

    def step(k):
        results.append(launch(dict(base, mode="timed"), rundir / f"timed-{k}", deadline))

    repeat_until(seconds, deadline, MIN_REPEATS, step)
    return results


def fastest_items(results: list[dict], key: str = "items") -> list[float]:
    """Each item's smallest time over the repeats (FASTEST)."""
    counts = {len(r[key]) for r in results}
    if len(counts) != 1 or 0 in counts:
        raise BenchError(f"repeats timed different item counts: {sorted(counts)}")
    return [min(column) for column in zip(*(r[key] for r in results))]


def fastest_setup(results: list[dict]) -> float:
    """setup_s from each setup item's smallest time over the repeats."""
    names = {name for r in results for name in r["setup_items"]}
    if any(r["setup_items"].keys() != names for r in results):
        raise BenchError("repeats imported different modules")
    return sum(min(r["setup_items"][name] for r in results) for name in names)


def end_to_end_metrics(results):
    """wall_s, cpu_s and setup_s: sums of the items' fastest times;
    peak_rss_mb, which the host does not slow: the median."""
    items = fastest_items(results)
    p50, tail, rank = percentiles(items)
    metrics = {
        "wall_s": sum(items),
        "cpu_s": sum(fastest_items(results, "item_cpu")),
        "setup_s": fastest_setup(results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "item_p50_ms": 1000.0 * p50,
        "item_tail_ms": 1000.0 * tail,
    }
    notes = {"items": len(items), "item_tail_percentile": rank,
             "wall_s_median_repeat": statistics.median(r["wall_s"] for r in results)}
    return metrics, notes


def traced_run(base: dict, rundir: Path, seconds: int, deadline: float, spans, workloads):
    """Untraced and traced repeats, alternately, for ``seconds``.  The
    per-layer metrics are those of the fastest traced repeat, so its self
    times add up to its trace.wall_s; trace.overhead_frac compares the traced
    and the untraced repeats' sums of fastest item times.

    search-v6 then adds one traced pass of ``monoproof prove`` at jobs=2 and
    one at jobs=1, for the cli and pool metrics (PROVE_PASS_METRICS) and
    prover.parallel_efficiency.  They are outside the job, whose self times
    alone add up to trace.wall_s, and their outputs must equal the job's."""
    results, layers, untraced, traced_repeats = [], [], [], []

    def traced(workdir, **extra):
        result = launch(dict(base, mode="traced", **extra), workdir, deadline)
        results.append(result)
        return result, spans.layer_metrics(json.loads((workdir / "spans.json").read_text()))

    def step(k):
        untraced.append(launch(dict(base, mode="timed"), rundir / f"untraced-{k}", deadline))
        result, layer = traced(rundir / f"traced-{k}")
        traced_repeats.append(result)
        layers.append(layer)

    repeat_until(seconds, deadline, MIN_TRACE_PAIRS, step)
    results.extend(untraced)
    metrics = dict(min(layers, key=lambda layer: layer["trace.wall_s"]))
    metrics["trace.overhead_frac"] = (
        sum(fastest_items(traced_repeats)) / sum(fastest_items(untraced)) - 1)
    metrics["prover.parallel_efficiency"] = 0.0
    if base["workload"] == "search-v6":
        pooled = traced(rundir / "traced-prove-jobs2", jobs=workloads.JOBS)[1]
        serial = traced(rundir / "traced-prove-jobs1", jobs=1)[1]
        for key in PROVE_PASS_METRICS:
            metrics[key] = pooled[key]
        metrics["prover.parallel_efficiency"] = (
            serial["prover.prove_wall_s"] / (workloads.JOBS * pooled["prover.prove_wall_s"]))
    return results, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's smoke size")
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + 175.0

    if not (ROOT / "src" / "monoproof" / "__init__.py").is_file():
        print(f"error: no monoproof sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    name = args.workload
    base = {"workload": name, "seed": args.seed, "size": args.size}
    rundir = RUN_DIR / f"{name}-{args.size}-seed{args.seed}-trace{args.trace}"
    if rundir.exists():
        shutil.rmtree(rundir)
    try:
        if args.trace:
            results, metrics = traced_run(base, rundir, args.seconds, deadline, spans,
                                          workloads)
            units = printed = spans.LAYER_METRICS
            notes = {}
        else:
            results = timed_run(base, rundir, args.seconds, deadline)
            metrics, notes = end_to_end_metrics(results)
            units = END_TO_END
            printed = {**END_TO_END, **ITEM_METRICS}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, problems = check_outputs(workloads, name, args.seed, args.size, results)
    correct = failed == 0 and not problems
    output = results[0]["output"]
    meta = {
        "workload": name,
        "seed": args.seed,
        "size": args.size,
        "mode": "traced" if args.trace else "timed",
        "repeats": len(results),
        "items_per_repeat": attempted // len(results),
        "total_trials": workloads.trials(name, output),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": line_count(),
        **notes,
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    for problem in problems[:20]:
        print(f"WRONG: {problem}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    if correct:
        for key, unit in printed.items():
            print(f"{key} = {metrics[key]:.6g} {unit}")
    record = {"meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics if correct else {}, "problems": problems}
    rundir.mkdir(parents=True, exist_ok=True)
    (rundir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": ({key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
                    if correct else {}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
