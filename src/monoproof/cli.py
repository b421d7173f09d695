"""monoproof command line: verify certificate tables, run proofs, count
equilibria, enumerate systems, and check hull extremality.

Exit codes: 0 success/proven, 1 verification mismatch or exhausted proof,
2 usage or input error.  `verify` and `prove` each emit a run manifest
(command, arguments, seed, dataset checksums, artifact version, and for
`prove` the wall-clock seconds): `verify` prints it as its final stdout line,
`prove --out FILE` writes it next to the report as FILE.manifest.json, and
`prove` without --out prints it on stderr, so the report body itself stays
byte-stable.  `count`, `systems` and `check-hull` emit none.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from monoproof import __version__
from monoproof.equilibria import (
    FaceConfig,
    PointConfig,
    equilibrium_indices,
    face_shadow_matrix,
    is_hull_vertex,
    load_config,
    vertex_shadow_matrix,
)
from monoproof.expansion import enumerate_systems, system_count
from monoproof.prover import (
    SearchConfig,
    check_proof_vertices,
    prove_unsolvable,
    verify_certificate,
)
from monoproof.ratcore import parse_integer
from monoproof.tables import (
    BUNDLED_VERTEX_COUNTS,
    ChecksumMismatch,
    ParseError,
    bundled_table_path,
    parse_certificate_table,
    table_checksum,
    verify_bundled_checksum,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _manifest(ns: argparse.Namespace, **extra) -> str:
    """The run manifest: the command, its seed if it takes one, every other
    parsed flag as the arguments, and the keys in ``extra``."""
    doc = {
        "command": ns.command,
        "arguments": {k: v for k, v in vars(ns).items() if k not in ("command", "func", "seed")},
        "seed": getattr(ns, "seed", None),
        "dataset_checksums": {},
        "artifact_version": __version__,
        **extra,
    }
    return json.dumps(doc, sort_keys=True)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _resolve_table(name: str) -> tuple[Path, str]:
    """Table argument resolution: an existing path wins; otherwise a bundled
    dataset name (appendix_v4.csv .. appendix_v7.csv) is loaded from the
    package, with its checksum enforced against the recorded manifest."""
    candidate = Path(name)
    if candidate.exists():
        return candidate, table_checksum(candidate)
    for V in BUNDLED_VERTEX_COUNTS:
        path = bundled_table_path(V)
        if name == path.name:
            return path, verify_bundled_checksum(V)  # ChecksumMismatch propagates
    raise FileNotFoundError(f"table {name!r}: no such file or bundled dataset")


def cmd_verify(ns: argparse.Namespace) -> int:
    try:
        path, digest = _resolve_table(ns.table)
        table = parse_certificate_table(path)
    except ChecksumMismatch as exc:
        return _fail_usage(f"refusing modified bundled dataset: {exc}")
    except OSError as exc:
        return _fail_usage(str(exc))
    except ParseError as exc:
        return _fail_usage(f"{path}: {exc}")
    verified = 0
    for row in table.rows:
        result = verify_certificate(table.V, row.system, row.coeffs)
        ok = result.hessian_pd and result.positive and result.min_value == row.min_f
        j = ",".join(str(v) for v in row.system.choices)
        if not ok:
            computed = (
                result.min_value
                if result.min_value is not None
                else "n/a (Hessian not positive definite)"
            )
            print(f"system #{row.system.system_id} j=({j}): MISMATCH "
                  f"expected {row.min_f}, computed {computed}")
            break
        verified += 1
        print(f"system #{row.system.system_id} j=({j}): "
              f"ok, min = {row.min_f}")
    all_ok = verified == len(table)
    print(f"{verified}/{len(table)} verified" + ("" if all_ok else " before first mismatch"))
    print(_manifest(ns, dataset_checksums={path.name: digest}))
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_prove(ns: argparse.Namespace) -> int:
    if ns.vertices < 4:
        return _fail_usage("--vertices must be at least 4")
    if ns.jobs < 1:
        return _fail_usage("--jobs must be at least 1")
    try:
        cfg = SearchConfig(
            coeff_min=ns.coeff_min,
            coeff_max=ns.coeff_max,
            max_trials=ns.max_trials,
            base_seed=ns.seed,
        )
        check_proof_vertices(ns.vertices)  # a refused V leaves no --out behind
        if ns.out:
            open(ns.out, "a").close()  # an unwritable --out fails before the search
        started = time.perf_counter()
        report = prove_unsolvable(ns.vertices, cfg, jobs=ns.jobs)
        manifest = _manifest(ns, wall_clock_seconds=time.perf_counter() - started)
        body = json.dumps(report.to_json(), indent=2) + "\n"
        if ns.out:
            Path(ns.out).write_text(body)
            Path(ns.out + ".manifest.json").write_text(manifest + "\n")
    except (OSError, ValueError) as exc:
        return _fail_usage(str(exc))
    if ns.out:
        print(f"{report.certified_count}/{len(report.systems)} systems certified; "
              f"verdict: {report.verdict}; report written to {Path(ns.out)}")
    else:
        sys.stdout.write(body)
        print(manifest, file=sys.stderr)
    return EXIT_OK if report.all_certified else EXIT_FAIL


def _describe_row(row: tuple[int, ...], i: int, noun: str) -> str:
    """What keeps row i of a shadow matrix from being an equilibrium."""
    shadowing = [str(j + 1) for j, v in enumerate(row) if v == -1]
    degenerate = [str(j + 1) for j, v in enumerate(row) if v == 0 and j != i]
    parts = []
    if shadowing:
        parts.append(f"shadowed by {noun} {', '.join(shadowing)}")
    if degenerate:
        parts.append(f"degenerate contact with {noun} {', '.join(degenerate)}")
    return "; ".join(parts)


def cmd_count(ns: argparse.Namespace) -> int:
    try:
        cfg = load_config(ns.input)
    except (OSError, ValueError) as exc:
        return _fail_usage(f"{ns.input}: {exc}")
    if isinstance(cfg, FaceConfig):
        label, noun, matrix = "S", "face", face_shadow_matrix(cfg)
    else:
        label, noun, matrix = "U", "vertex", vertex_shadow_matrix(cfg)
    found = equilibrium_indices(cfg)
    # the diagonal is 0, so a second 0 in a row is a degenerate contact
    if any(row.count(0) > 1 for row in matrix):
        print(f"warning: degenerate contacts (zero shadow signs); a {noun} "
              "listed with one is not counted as an equilibrium", file=sys.stderr)
    print(f"{label} = {len(found)}")
    for i, row in enumerate(matrix):
        state = "equilibrium" if i in found else _describe_row(row, i, noun)
        print(f"{noun} {i + 1}: {state}")
    return EXIT_OK


def cmd_systems(ns: argparse.Namespace) -> int:
    if ns.vertices < 3:
        return _fail_usage("--vertices must be at least 3")
    try:
        count = system_count(ns.vertices)
    except ValueError as exc:
        return _fail_usage(f"--vertices {ns.vertices}: {exc}")
    print(f"V = {ns.vertices}: {count} shadowing systems, "
          f"{ns.vertices - 2} free variables each")
    if ns.list:
        for system in enumerate_systems(ns.vertices):
            j = ",".join(str(v) for v in system.j)
            print(f"#{system.system_id} j=({j})")
    return EXIT_OK


def cmd_check_hull(ns: argparse.Namespace) -> int:
    try:
        cfg = load_config(ns.input)
    except (OSError, ValueError) as exc:
        return _fail_usage(f"{ns.input}: {exc}")
    if not isinstance(cfg, PointConfig):
        return _fail_usage("check-hull needs a vertex input (kind: 'vertices')")
    hull = 0
    for i in range(cfg.V):
        if is_hull_vertex(cfg, i):
            hull += 1
            print(f"vertex {i + 1}: hull vertex")
        else:
            print(f"vertex {i + 1}: NOT a hull vertex "
                  "(convex combination of the others)")
    print(f"{hull}/{cfg.V} points are hull vertices")
    return EXIT_OK if hull == cfg.V else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoproof",
        description="Equilibrium counting and unsolvability certificates "
                    "for mono-unstable 0-skeletons.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="recompute and check a certificate table")
    p.add_argument("--table", required=True,
                   help="CSV path, or a bundled name like appendix_v5.csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prove", help="search certificates for all systems of one V")
    p.add_argument("--vertices", type=parse_integer, required=True)
    p.add_argument("--seed", type=parse_integer, required=True)
    p.add_argument("--coeff-min", type=parse_integer, default=SearchConfig.coeff_min)
    p.add_argument("--coeff-max", type=parse_integer, default=SearchConfig.coeff_max)
    p.add_argument("--max-trials", type=parse_integer, default=SearchConfig.max_trials)
    p.add_argument("--jobs", type=parse_integer, default=1)
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("count", help="count equilibria of a configuration")
    p.add_argument("--input", required=True,
                   help="JSON configuration file; its kind picks the count")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("systems", help="enumerate shadowing systems")
    p.add_argument("--vertices", type=parse_integer, required=True)
    p.add_argument("--list", action="store_true", help="print every system")
    p.set_defaults(func=cmd_systems)

    p = sub.add_parser("check-hull", help="test each point for hull extremality")
    p.add_argument("--input", required=True, help="JSON vertex configuration")
    p.set_defaults(func=cmd_check_hull)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    return ns.func(ns)


if __name__ == "__main__":
    sys.exit(main())
