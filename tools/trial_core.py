"""Time the trial test, coefficient draw and verification, per trial.

For each V = 5..10 the tool draws seeded shadowing systems and coefficient
tuples from the default search range [1, 101], and decides every draw twice:

* with ``prover._tree_trial``, the O(V) integer sweep along the system's
  tree that the search runs, and
* with ``prover.verify_certificate``, the path verification runs: one
  ``ratcore.symmetric_bareiss`` pass on the dense (V-1) x (V-1) matrix
  G(c), then, on a positive definite Hessian, the back substitution and
  the geometric audit.

And it draws the V-1 coefficients of as many trials twice from the stream
random.Random(V): with ``prover._draws``, as the search does, and with
``random.Random.randint`` per coefficient, as the search once did.

It prints the microseconds per trial of each ("sweep", "verify", "draw"
and "randint"; the fastest of five passes over the draws), the number of
stream mismatches ("off-stream": trials whose ``_draws`` tuple differs
from the randint one), and the number of mismatches: draws where the
sweep's verdict, its class or a certificate's exact minimum and
minimizer, differs from ``VerifyResult.outcome``.

    python3 tools/trial_core.py [--draws N]

exits 1 on any mismatch of either kind.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monoproof import prover  # noqa: E402
from monoproof.expansion import ShadowSystem  # noqa: E402

VERTEX_COUNTS = range(5, 11)
REPEATS = 5


def draws(V: int, count: int, rng: random.Random) -> list:
    """``count`` seeded (system, coeffs) pairs at V."""
    return [
        (ShadowSystem.from_choices(V, [rng.randint(1, i - 1) for i in range(3, V + 1)]),
         tuple(rng.randint(1, 101) for _ in range(V - 1)))
        for _ in range(count)
    ]


def measure_draws(V: int, count: int, seed: int) -> tuple[float, float, int]:
    """(_draws us, randint us, stream mismatches) per trial of V - 1
    coefficients, over ``count`` trials from random.Random(seed); each time
    the fastest of REPEATS alternating passes, with the garbage collector
    off as in measure."""
    cfg = prover.SearchConfig()
    low, high, slots = cfg.coeff_min, cfg.coeff_max, range(V - 1)
    direct_s = randint_s = float("inf")
    gc.disable()
    try:
        for _ in range(REPEATS):
            started = time.perf_counter()
            direct = list(itertools.islice(prover._draws(random.Random(seed), cfg, V - 1), count))
            direct_s = min(direct_s, time.perf_counter() - started)
            started = time.perf_counter()
            rng = random.Random(seed)
            drawn = [tuple(rng.randint(low, high) for _ in slots) for _ in range(count)]
            randint_s = min(randint_s, time.perf_counter() - started)
    finally:
        gc.enable()
    mismatches = abs(len(drawn) - len(direct)) + sum(a != b for a, b in zip(direct, drawn))
    return direct_s * 1e6 / count, randint_s * 1e6 / count, mismatches


def measure(cases: list) -> tuple[float, float, int]:
    """(sweep us, verify us, mismatches) over ``cases``.

    Each time is the fastest of REPEATS alternating passes, as the host's
    cores change speed from one pass to the next, and runs with the garbage
    collector off, as in timeit: the draws and results held here would
    otherwise make each collection, and so each path, slower than in a
    search."""
    sweep_s = verify_s = float("inf")
    gc.disable()
    try:
        for _ in range(REPEATS):
            started = time.perf_counter()
            swept = [prover._tree_trial(system.j, coeffs) for system, coeffs in cases]
            sweep_s = min(sweep_s, time.perf_counter() - started)
            started = time.perf_counter()
            checked = [prover.verify_certificate(system.V, system, coeffs)
                       for system, coeffs in cases]
            verify_s = min(verify_s, time.perf_counter() - started)
    finally:
        gc.enable()
    mismatches = sum(got != check.outcome for got, check in zip(swept, checked))
    per_trial = 1e6 / len(cases)
    return sweep_s * per_trial, verify_s * per_trial, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=2000, help="draws per V")
    ns = parser.parse_args(argv)
    if ns.draws < 1:
        parser.error("--draws must be at least 1")
    rng = random.Random(0)
    total = 0
    for V in VERTEX_COUNTS:
        draw_us, randint_us, stream = measure_draws(V, ns.draws, V)
        sweep_us, verify_us, mismatches = measure(draws(V, ns.draws, rng))
        total += stream + mismatches
        print(f"V={V:<3} {ns.draws} draws  sweep {sweep_us:6.1f} us  verify {verify_us:6.1f} us"
              f"  draw {draw_us:5.2f} us  randint {randint_us:5.2f} us"
              f"  off-stream {stream}  mismatches {mismatches}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
