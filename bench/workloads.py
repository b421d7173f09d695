"""The three benchmark workloads: inputs, timed jobs and output checks.

Each workload has three parts that run.py and the per-repeat
child process (child.py) share:

* ``setup(name, seed, size, workdir, jobs)`` builds the inputs.  It runs inside the
  child and counts towards ``setup_s``.
* ``job(name, inputs)`` is the timed region.  It returns the job's result and
  the wall and CPU seconds of each item of the job; ``finish`` turns the
  result into the workload's output (plain JSON data) outside the timed
  region.
* ``check(name, seed, size, output)`` runs in run.py, outside every timed
  region, and returns ``(attempted, failed, problems)``.  It never trusts the
  child: certificates are re-verified, geometry answers are recomputed by a
  direct loop written here, and digests are compared with the recorded ones.

All monoproof functions are called through their module attribute
(``prover.verify_certificate``, not an imported name), so that the tracer in
spans.py sees every call it wraps.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from monoproof import cli, equilibria, expansion, prover, tables

NAMES = ("verify-bundled", "search-v6", "geometry")

DEFAULT_SEED = 0
# Seed for checking a claimed gain on inputs the change was not tuned on; no
# digest is recorded for it, so the gate re-verifies instead.
HELD_OUT_SEED = 1

SEED_MASK = (1 << 64) - 1

# Pool size of the traced run's `monoproof prove` pass; it adds a jobs=1 pass.
JOBS = 2

# "full" is what the benchmark measures; "tiny" is the self-test's smoke size.
# A job takes a few tenths of a second and is cut into items of a few
# milliseconds (see FASTEST in run.py for why).  ``bundled_stride``
# re-verifies every k-th row of a table (default: all), and search-v6
# searches every ``search_stride``-th system.  Geometry counts run on ``count_sets``
# configurations of ``count_points`` points each, and hull tests on
# ``hull_sets`` sets, each the moment curve at ``hull_t`` plus one interior
# point.
SIZES = {
    "full": {
        "bundled": (4, 5, 6, 7),
        "bundled_stride": {5: 4, 6: 6, 7: 48},
        "search_vertices": 6,
        "search_stride": 6,
        "count_sets": 24,
        "count_points": 12,
        "hull_sets": 10,
        "hull_t": range(-2, 3),
    },
    "tiny": {
        "bundled": (4,),
        "bundled_stride": {},
        "search_vertices": 4,
        "search_stride": 1,
        "count_sets": 1,
        "count_points": 6,
        "hull_sets": 1,
        "hull_t": range(-2, 3),
    },
}

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def digest(output) -> str:
    """sha256 of the canonical JSON encoding of a workload output."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digest(name: str, size: str):
    """The digest recorded for (workload, size), or None."""
    doc = json.loads(DIGESTS_PATH.read_text())
    return doc.get(name, {}).get(size)


# ---------------------------------------------------------------- geometry

def geometry_inputs(seed: int, size: str):
    """Seeded geometry inputs: ``(count_sets, hull_sets)``.

    * ``count_sets``: lists of rational p/q points, each used both as vertex
      vectors (for count_unstable) and as face vectors (for count_stable).
    * ``hull_sets``: ``(points, flags)`` pairs.  The points are those
      (t, t^2, t^3) of the moment curve at the integers t in ``hull_t``,
      which are all hull vertices, with the centroid of a seeded four of them
      mixed in at a seeded position, which is not; ``flags`` holds the known
      answer for each point.  The curve itself is fixed because the cost of
      each exact solve grows with the bit length of the coordinates, and
      seeded curve parameters moved it by a tenth between seeds.
    """
    sz = SIZES[size]
    rng = random.Random(seed)
    count_sets = []
    for _ in range(sz["count_sets"]):
        coords = []
        while len(coords) < sz["count_points"]:
            p = [Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(3)]
            if any(p):
                coords.append(p)
        count_sets.append(coords)
    curve = [[Fraction(t), Fraction(t * t), Fraction(t * t * t)] for t in sz["hull_t"]]
    hull_sets = []
    for _ in range(sz["hull_sets"]):
        picks = rng.sample(range(len(curve)), 4)
        points = [(p, True) for p in curve]
        points.insert(rng.randrange(len(curve) + 1),
                      ([sum(curve[k][c] for k in picks) / 4 for c in range(3)], False))
        hull_sets.append(([p for p, _ in points], [flag for _, flag in points]))
    return count_sets, hull_sets


def _oracle_unstable(vs) -> int:
    """Vertices i with (r_i - r_j).r_i > 0 for every j != i."""
    count = 0
    for i, ri in enumerate(vs):
        if all(
            sum((a - b) * a for a, b in zip(ri, rj)) > 0
            for j, rj in enumerate(vs) if j != i
        ):
            count += 1
    return count


def _oracle_stable(qs) -> int:
    """Faces i with (q_j - q_i).q_j > 0 for every j != i."""
    count = 0
    for i, qi in enumerate(qs):
        if all(
            sum((b - a) * b for a, b in zip(qi, qj)) > 0
            for j, qj in enumerate(qs) if j != i
        ):
            count += 1
    return count


# ------------------------------------------------------------------ setup

def bundled_rows(size: str, V: int, table) -> list:
    """The rows of a parsed bundled table that verify-bundled re-verifies."""
    return table.rows[::SIZES[size]["bundled_stride"].get(V, 1)]


def search_systems(size: str) -> list:
    """The systems that search-v6 searches."""
    sz = SIZES[size]
    return list(expansion.enumerate_systems(sz["search_vertices"]))[::sz["search_stride"]]


def setup(name: str, seed: int, size: str, workdir: Path, jobs=None) -> dict:
    """Build a workload's inputs.

    search-v6 always searches with ``prove --seed 0``'s per-system seeds,
    ``(0 + system_id) & (2**64 - 1)``.  Each system's trial count is
    geometric, so the shard's total trial count moves by about an eighth
    from one seed to the next, which would drown every timing change.  So
    its inputs are fixed and its digest is checked on every run.  With
    ``jobs`` it is instead the traced run's pass of
    ``monoproof prove --vertices 6 --seed 0 --jobs <jobs>``.
    """
    sz = SIZES[size]
    if name == "verify-bundled":
        loaded = []
        for V in sz["bundled"]:
            tables.verify_bundled_checksum(V)
            table = tables.parse_certificate_table(tables.bundled_table_path(V))
            loaded.append((V, bundled_rows(size, V, table)))
        return {"tables": loaded}
    if name == "search-v6":
        V = sz["search_vertices"]
        if jobs is not None:
            out = workdir / "report.json"
            argv = ["prove", "--vertices", str(V), "--seed", str(DEFAULT_SEED),
                    "--jobs", str(jobs), "--out", str(out)]
            return {"argv": argv, "out": out, "stride": sz["search_stride"]}
        cfg = prover.SearchConfig(base_seed=DEFAULT_SEED)
        tasks = [
            (system, replace(cfg, base_seed=(cfg.base_seed + system.system_id) & SEED_MASK))
            for system in search_systems(size)
        ]
        return {"V": V, "tasks": tasks}
    if name == "geometry":
        count_sets, hull_sets = geometry_inputs(seed, size)
        return {
            "points": [equilibria.PointConfig(coords) for coords in count_sets],
            "faces": [equilibria.FaceConfig(coords) for coords in count_sets],
            "hull": [equilibria.PointConfig(points) for points, _ in hull_sets],
        }
    raise ValueError(f"unknown workload {name!r}")


# -------------------------------------------------------------------- job

def _cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (pool workers)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


class _Items:
    """Wall and CPU times of consecutive items that tile the timed region:
    each item runs from the end of the one before (or the start) to its
    own end, so the items' times add up to the whole job's."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._wall = perf_counter()
        self._cpu = _cpu_seconds()

    def mark(self) -> None:
        wall, cpu = perf_counter(), _cpu_seconds()
        self.wall.append(wall - self._wall)
        self.cpu.append(cpu - self._cpu)
        self._wall, self._cpu = wall, cpu


def job(name: str, inputs: dict):
    """Run the timed part of a workload; returns ``(result, items)``.

    ``items`` holds the wall and CPU seconds of each item: a bundled row, the
    search or the re-verification of a V=6 system, a count call or a hull
    query.  The `monoproof prove` pass of search-v6 is one item.
    """
    items = _Items()
    if name == "verify-bundled":
        output = []
        for V, rows in inputs["tables"]:
            for row in rows:
                result = prover.verify_certificate(V, row.system, row.coeffs)
                items.mark()
                output.append([V, row.system.system_id, result.hessian_pd,
                               None if result.min_value is None else str(result.min_value)])
        return output, items
    if name == "search-v6" and "argv" in inputs:
        code = cli.main(inputs["argv"])
        items.mark()
        return code, items
    if name == "search-v6":
        V = inputs["V"]
        output = []
        for system, cfg in inputs["tasks"]:
            result = prover.search_certificate(system, cfg)
            items.mark()
            if isinstance(result, prover.Certificate):
                check = prover.verify_certificate(V, system, result.coeffs)
                ok = check.hessian_pd and check.positive and check.min_value == result.min_value
                row = [system.system_id, list(result.coeffs), str(result.min_value),
                       result.trials, ok]
            else:
                row = [system.system_id, None, None, result.trials, False]
            items.mark()
            output.append(row)
        return output, items
    if name == "geometry":
        unstable, stable, hull = [], [], []
        for points, faces in zip(inputs["points"], inputs["faces"]):
            unstable.append(equilibria.count_unstable(points))
            items.mark()
            stable.append(equilibria.count_stable(faces))
            items.mark()
        for cfg in inputs["hull"]:
            for i in range(cfg.V):
                hull.append(equilibria.is_hull_vertex(cfg, i))
                items.mark()
        return {"unstable": unstable, "stable": stable, "hull": hull}, items
    raise ValueError(f"unknown workload {name!r}")


def finish(name: str, inputs: dict, returned):
    """Turn a job's return value into its output, outside the timed region.

    The `monoproof prove` pass's report becomes the rows the direct search
    gives for the systems it searches, so that the gate's byte-for-byte
    comparison of repeats checks it against them; a failing exit code, a
    wrong verdict or a wrong header adds a row that cannot match.  (The
    verdict "unsolvable" means that prove certified and re-verified every
    system.)
    """
    if "argv" not in inputs:
        return returned
    body = json.loads(Path(inputs["out"]).read_text())
    rows = [[r["system_id"], r.get("coeffs"), r.get("min_value"), r["trials"],
             r["status"] == "certified"] for r in body["systems"][::inputs["stride"]]]
    header = [returned, body.get("verdict"), body.get("V"), body.get("base_seed")]
    if header != [0, "unsolvable", int(inputs["argv"][2]), DEFAULT_SEED]:
        rows.append(["prove", header])
    return rows


def trials(name: str, output) -> int:
    """Total search trials in an output (0 for workloads without search)."""
    return sum(row[3] for row in output) if name == "search-v6" else 0


# ------------------------------------------------------------------ check

def _certificate_ok(V: int, system, coeffs, min_value: str) -> bool:
    if not coeffs or min_value is None or any(not isinstance(c, int) or c < 1 for c in coeffs):
        return False
    result = prover.verify_certificate(V, system, tuple(coeffs))
    return (result.hessian_pd and result.positive
            and result.min_value == Fraction(min_value))


def check(name: str, seed: int, size: str, output):
    """Check one output independently; returns (attempted, failed, problems)."""
    sz = SIZES[size]
    problems: list[str] = []
    if name == "verify-bundled":
        expected = []
        for V in sz["bundled"]:
            table = tables.parse_certificate_table(tables.bundled_table_path(V))
            expected.extend((V, row) for row in bundled_rows(size, V, table))
        failed = abs(len(output) - len(expected))
        for (V, row), got in zip(expected, output):
            gV, gid, pd, min_value = got
            ok = (gV == V and gid == row.system.system_id and pd and min_value is not None
                  and Fraction(min_value) > 0 and Fraction(min_value) == row.min_f)
            if not ok:
                failed += 1
                problems.append(f"V={V} system {row.system.system_id}: got {got}")
        return len(expected), failed, problems

    if name == "search-v6":
        V = sz["search_vertices"]
        systems = search_systems(size)
        failed = abs(len(output) - len(systems))
        for system, row in zip(systems, output):
            sid, coeffs, min_value, _, ok = row
            if not (sid == system.system_id and ok and min_value is not None
                    and _certificate_ok(V, system, coeffs, min_value)):
                failed += 1
                problems.append(f"system {system.system_id}: {row}")
        rows = [row[:4] for row in output]
        want = recorded_digest(name, size)
        if want != digest(rows):
            failed += 1
            problems.append(f"certificate digest {digest(rows)} != recorded {want}")
        return len(systems), failed, problems

    if name == "geometry":
        count_sets, hull_sets = geometry_inputs(seed, size)
        expected = {
            "unstable": [_oracle_unstable(coords) for coords in count_sets],
            "stable": [_oracle_stable(coords) for coords in count_sets],
            "hull": [flag for _, flags in hull_sets for flag in flags],
        }
        attempted = failed = 0
        for key, want in expected.items():
            got = output[key]
            attempted += len(want)
            failed += abs(len(got) - len(want))
            for k, (w, g) in enumerate(zip(want, got)):
                if w != g:
                    failed += 1
                    problems.append(f"{key} answer {k}: got {g}, expected {w}")
        return attempted, failed, problems

    raise ValueError(f"unknown workload {name!r}")
