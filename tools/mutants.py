"""Check that the tests kill a fixed table of one-line mutants of the package.

Each mutant replaces one text, which must occur exactly once, in one module
of ``src/monoproof`` by another.  For each mutant the tool copies ``src/``
to a temporary directory, applies the mutant there, and runs the pytest
node ids that the table says kill it in one subprocess, with the copy first
on PYTHONPATH and a timeout of TIMEOUT seconds.  A failing run kills the
mutant, and so does a timeout (a simplex that enters a zero-cost column
never stops).  A mutant the table marks equivalent, with a one-line reason,
is checked to apply and is not run.  Before the mutants, every node id of
the table runs once on an unmutated copy, which must pass and must import
the package from the copy.

    python3 tools/mutants.py

exits 2 if an old text does not occur exactly once in its module or the
unmutated copy fails, 1 on any survivor, and 0 when every mutant is killed
or marked equivalent.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT = 60


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    kills: tuple[str, ...] = ()
    equivalent: str = ""


CLI = "tests/test_cli.py::"
PROVER = "tests/test_prover.py::"
EQUILIBRIA = "tests/test_equilibria.py::"
RATCORE = "tests/test_ratcore.py::"
TABLES = "tests/test_tables.py::"

MUTANTS = (
    Mutant("prover.py", "top == 0 or ", "",
           (PROVER + "test_a_zero_minimum_is_negative_on_both_paths",)),
    Mutant("prover.py", "d_last > 0", "d_last >= 0",
           (PROVER + "test_a_zero_minimum_is_negative_on_both_paths",)),
    Mutant("prover.py", "if not beta or ", "if ",
           (PROVER + "test_the_sweep_decides_a_zero_border_corner[j0]",)),
    Mutant("prover.py", "P, B, C = -e * e * Cz * C, e * Bz * C, 0",
           "P, B, C = -e * e * Cz * C, -e * Bz * C, 0",
           (PROVER + "test_the_sweep_equals_the_dense_path_on_small_coefficients[5]",)),
    Mutant("prover.py", "K = beta * Cz - sn[zero] * C1", "K = beta * Cz",
           (PROVER + "test_the_sweep_equals_the_dense_path_on_small_coefficients[4]",)),
    Mutant("prover.py", "2 * value != D * d_last", "2 * value < D * d_last",
           (PROVER + "test_audit_rejects_the_value_moved_either_way_or_the_minimizer_moved",)),
    Mutant("prover.py", "grad[2:V] != [grad[V]] * (V - 2)", "grad[2:V - 1] != [grad[V]] * (V - 3)",
           (PROVER + "test_audit_checks_the_gradient_in_every_coordinate",)),
    Mutant("prover.py", "V > MAX_PROOF_VERTICES", "V >= MAX_PROOF_VERTICES",
           (PROVER + "test_check_proof_vertices_accepts_both_ends_of_its_range",)),
    Mutant("prover.py", "_SEED_MASK = (1 << 64) - 1", "_SEED_MASK = (1 << 65) - 1",
           (PROVER + "test_system_seeds_wrap_at_two_to_the_64",)),
    Mutant("prover.py", "pool.map(_search_task, tasks,",
           "pool.map(search_certificate, *zip(*tasks),",
           (PROVER + "test_prove_through_the_real_pool_on_any_core_count",)),
    Mutant("prover.py", "isinstance(value, bool) or not isinstance(value, int)",
           "not isinstance(value, int)",
           (PROVER + "test_search_config_refuses_a_non_int",)),
    Mutant("prover.py", "if box <= cfg.max_trials:", "if False:",
           (PROVER + "test_a_small_box_is_searched_once_per_point[below]",)),
    Mutant("prover.py", "box <= cfg.max_trials", "box < cfg.max_trials",
           (PROVER + "test_a_small_box_is_searched_once_per_point[equal]",)),
    Mutant("prover.py", "negatives == 2", "negatives == 3",
           equivalent="past a second negative or zero pivot the final inertia test finds more "
                      "than one negative and returns non_pd"),
    Mutant("prover.py", "if negatives == 2:", "if False:",
           equivalent="the final inertia test returns non_pd on two or more negatives; a second "
                      "zero only overwrites the pending block of a draw already bound for it"),
    Mutant("ratcore.py", 'if q[:1] == "-":', "if False:",
           (RATCORE + "test_parse_rational_rejects",)),
    Mutant("ratcore.py", "cost[c] > 0", "cost[c] >= 0",
           (RATCORE + "test_nonneg_solution_exists_matches_the_subset_oracle",)),
    Mutant("ratcore.py", "while cost[-1]:", "while cost[0]:",
           (RATCORE + "test_nonneg_combination_target_equal_to_a_column",)),
    Mutant("ratcore.py", "basis[i] < basis[r]", "basis[i] > basis[r]",
           (RATCORE + "test_nonneg_combination_ratio_ties_go_to_the_lowest_basis_index",)),
    Mutant("ratcore.py", "a * row_r[e]) // prev", "a * row_r[e]) * prev",
           (RATCORE + "test_jordan_pivot_returns_the_leading_minors",)),
    Mutant("equilibria.py", "(g[a] > x)", "(g[a] >= x)",
           (EQUILIBRIA + "test_shadow_matrices_match_the_definition",)),
    Mutant("equilibria.py", "x > max(col) or x < min(col)", "x > max(col)",
           (EQUILIBRIA + "test_hull_vertex_witness_skips_the_simplex",)),
    Mutant("equilibria.py", "x > max(col) or x < min(col)", "x >= max(col) or x <= min(col)",
           (EQUILIBRIA + "test_hull_vertex_edge_midpoint",)),
    Mutant("equilibria.py", "for e, S, _ in ranked[:start]:", "for e, S, _ in ranked[:p]:",
           (EQUILIBRIA + "test_equilibrium_indices_on_equal_norms",)),
    Mutant("tables.py", "min(coeffs) < 1", "min(coeffs) < 0",
           (TABLES + "test_non_positive_coefficient",)),
    Mutant("tables.py", "row.system.system_id != len(rows)", "row.system.system_id > len(rows)",
           (TABLES + "test_duplicated_row_rejected",)),
    Mutant("tables.py", "rows[-1].system.choices != tuple(range(2, V))",
           "rows[-1].system.choices == tuple(range(2, V))",
           (TABLES + "test_bundled_tables_parse[4]",)),
    Mutant("tables.py", "got != want", "got == want", (TABLES + "test_bundled_tables_parse[4]",)),
    Mutant("tables.py", 'record == [""]', "record == []",
           (TABLES + "test_blank_lines_are_skipped",)),
    Mutant("cli.py", "time.perf_counter() - started", "time.perf_counter() + started",
           (CLI + "test_prove_v4_with_report_file",)),
)


def misplaced() -> list[str]:
    """One line for each mutant whose old text does not occur exactly once
    in its module."""
    lines = []
    for m in MUTANTS:
        count = (SRC / "monoproof" / m.module).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            lines.append(f"{m.module}: {m.old!r} occurs {count} times")
    return lines


def _copy(tmp: Path, mutant: Mutant | None = None) -> Path:
    """A fresh copy of src/ under tmp, with the mutant applied if given."""
    src = Path(tempfile.mkdtemp(dir=tmp)) / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "monoproof" / mutant.module
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
    return src


def _env(src: Path) -> dict:
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def _run(src: Path, node_ids) -> str:
    """"passed", "failed" or "timeout" for the node ids run against src."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=_env(src), capture_output=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    bad = misplaced()
    if bad:
        print("\n".join(bad))
        return 2
    node_ids = sorted({n for m in MUTANTS for n in m.kills})
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(Path(tmp))
        probe = subprocess.run([sys.executable, "-c", "import monoproof; print(monoproof.__file__)"],
                               env=_env(clean), capture_output=True, text=True)
        if not probe.stdout.startswith(str(clean)):
            print(f"the package imports from {probe.stdout.strip() or probe.stderr.strip()}, "
                  f"not from the copy {clean}")
            return 2
        if _run(clean, node_ids) != "passed":
            print("the tests of the table fail on the unmutated copy")
            return 2
        for m in MUTANTS:
            label = f"{m.module}: {m.old!r} -> {m.new!r}"
            if m.equivalent:
                print(f"equivalent  {label}  ({m.equivalent})")
                continue
            start = time.perf_counter()
            outcome = _run(_copy(Path(tmp), m), m.kills)
            seconds = time.perf_counter() - start
            if outcome == "passed":
                survivors += 1
                print(f"SURVIVED    {label}  ({seconds:.1f} s)")
            else:
                print(f"killed      {label}  ({outcome}, {seconds:.1f} s)")
    print(f"{len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
