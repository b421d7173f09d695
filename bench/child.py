"""One repeat of one workload, in a fresh interpreter.

Run by run.py, never by hand:

    python3 bench/child.py '<json request>'

The request names the workload, seed, size, mode and the monotonic time at
which run.py launched this process.  Modes:

* ``timed``: build the inputs, run the job, report memory and the wall and
  CPU times of each item of the job.  Nothing in monoproof is wrapped.
* ``traced``: as timed, with every public monoproof call recorded as a span;
  the spans are written to ``<workdir>/spans.json`` at exit.

The result is written as JSON to ``<workdir>/result.json``.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> None:
    request = json.loads(sys.argv[1])
    launched = request["launched"]
    name, mode = request["workload"], request["mode"]
    workdir = Path(request["workdir"])

    import workloads

    rec = None
    if mode == "traced":
        import spans
        rec = spans.Recorder()
        spans.install(rec)
        setup_span = rec.open("bench.setup")

    inputs = workloads.setup(name, request["seed"], request["size"], workdir,
                             request.get("jobs"))
    if rec is not None:
        rec.close(setup_span)
    setup_s = time.monotonic() - launched
    if rec is not None:
        job_span = rec.open("bench.job")
    returned, items = workloads.job(name, inputs)
    if rec is not None:
        rec.close(job_span)
    result = {
        "setup_s": setup_s,
        "wall_s": sum(items.wall),
        "cpu_s": sum(items.cpu),
        "peak_rss_mb": _peak_rss_mb(),
        "items": items.wall,
        "item_cpu": items.cpu,
        "output": workloads.finish(name, inputs, returned),
    }
    if rec is not None:
        (workdir / "spans.json").write_text(json.dumps(rec.spans))
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
