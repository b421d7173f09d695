import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monoproof
import monoproof.tables
from monoproof import prover
from monoproof.cli import build_parser, main
from monoproof.tables import bundled_table_path


README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


TETRA = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]


# ---------------------------------------------------------------- verify


def test_verify_bundled_table(capsys):
    code, out, _ = run(capsys, "verify", "--table", "appendix_v4.csv")
    assert code == 0
    lines = out.strip().splitlines()
    # j columns mirror the table header (j_3..j_V; j_2 = 1 always)
    assert lines[0] == "system #0 j=(1,1): ok, min = 1560613/17904"
    assert lines[-2] == "6/6 verified"
    manifest = json.loads(lines[-1])
    assert manifest["command"] == "verify"
    assert manifest["arguments"] == {"table": "appendix_v4.csv"}
    assert manifest["seed"] is None
    assert "appendix_v4.csv" in manifest["dataset_checksums"]
    assert len(manifest["dataset_checksums"]["appendix_v4.csv"]) == 64
    assert manifest["artifact_version"]


def test_verify_explicit_path(tmp_path, capsys):
    copy = tmp_path / "mine.csv"
    copy.write_text(bundled_table_path(4).read_text("utf-8"), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--table", str(copy))
    assert code == 0
    assert "6/6 verified" in out
    manifest = json.loads(out.strip().splitlines()[-1])
    assert "mine.csv" in manifest["dataset_checksums"]


def test_verify_reports_first_mismatch(tmp_path, capsys):
    lines = bundled_table_path(4).read_text("utf-8").splitlines()
    parts = lines[2].split(",")  # system #1
    parts[-1] = "9999/7"
    lines[2] = ",".join(parts)
    bad = tmp_path / "tampered.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--table", str(bad))
    assert code == 1
    assert "system #1" in out and "MISMATCH" in out
    assert "expected 9999/7, computed " in out
    assert "1/6 verified before first mismatch" in out
    manifest = json.loads(out.strip().splitlines()[-1])  # manifest still emitted
    assert manifest["arguments"] == {"table": str(bad)}
    assert out.count('"command": "verify"') == 1


def test_verify_missing_table(capsys):
    code, _, err = run(capsys, "verify", "--table", "no_such_table.csv")
    assert code == 2
    assert "no such file or bundled dataset" in err


def test_verify_malformed_table(tmp_path, capsys):
    bad = tmp_path / "broken.csv"
    bad.write_text("j_3,c_2,c_3,min_f\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--table", str(bad))
    assert code == 2
    assert "error:" in err


# past Python's int-to-str limit (4,300 digits by default) int() raises,
# and so does formatting (V-1)! for a V = 2,000 header
@pytest.mark.parametrize("line, message", [
    ("1," + "1" * 5000 + ",44,84,26,137704/9511", "line 2: j_4 has 5000 digits"),
    ("2,3,44," + "8" * 5000 + ",26,137704/9511", "line 2: c_3 has 5000 digits"),
    (None, "expected 1999! rows for V=2000, found 0"),
], ids=["j", "c", "header"])
def test_verify_oversized_table_input_exits_2(tmp_path, capsys, line, message):
    if line is None:
        V = 2000
        header = [f"j_{i}" for i in range(3, V + 1)] + [f"c_{i}" for i in range(2, V + 1)]
        text = ",".join([*header, "min_f"]) + "\n"
    else:
        text = f"j_3,j_4,c_2,c_3,c_4,min_f\n{line}\n"
    table = tmp_path / "big.csv"
    table.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--table", str(table))
    assert code == 2 and out == ""
    assert message in err


def test_verify_refuses_tampered_bundled_dataset(tmp_path, monkeypatch, capsys):
    lines = bundled_table_path(4).read_text("utf-8").splitlines()
    parts = lines[1].split(",")
    parts[1] = str(int(parts[1]) + 1)
    lines[1] = ",".join(parts)
    fake = tmp_path / "appendix_v4.csv"
    fake.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(monoproof.tables, "bundled_table_path", lambda V: fake)
    code, _, err = run(capsys, "verify", "--table", "appendix_v4.csv")
    assert code == 2
    assert "refusing modified bundled dataset" in err


# ---------------------------------------------------------------- prove


def test_prove_v4_with_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "prove", "--vertices", "4", "--seed", "1", "--out", str(out_path)
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    assert "6/6 systems certified; verdict: unsolvable" in out
    report = json.loads(out_path.read_text())
    assert report["V"] == 4
    assert report["verdict"] == "unsolvable"
    assert all(row["status"] == "certified" for row in report["systems"])
    assert "wall_clock_seconds" not in report
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["command"] == "prove"
    assert manifest["seed"] == 1
    assert manifest["arguments"] == {"vertices": 4, "coeff_min": 1, "coeff_max": 101,
                                     "max_trials": 100_000, "jobs": 1, "out": str(out_path)}
    assert 0 < manifest["wall_clock_seconds"] <= elapsed


def test_prove_rejects_an_unwritable_out_before_searching(tmp_path, capsys, monkeypatch):
    def fail(V):
        raise AssertionError("systems enumerated")

    monkeypatch.setattr(prover, "enumerate_systems", fail)
    for out_path in (tmp_path / "no" / "such" / "r.json", tmp_path):
        code, out, err = run(capsys, "prove", "--vertices", "4", "--seed", "0",
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(out_path) in err


def test_prove_write_error_after_the_search_exits_2(tmp_path, capsys):
    (tmp_path / "r.json.manifest.json").mkdir()  # the manifest cannot be written
    code, out, err = run(capsys, "prove", "--vertices", "4", "--seed", "0",
                         "--out", str(tmp_path / "r.json"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "r.json.manifest.json" in err


def test_prove_stdout_mode_keeps_manifest_on_stderr(capsys):
    code, out, err = run(capsys, "prove", "--vertices", "4", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "unsolvable"
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["command"] == "prove"
    assert manifest["seed"] == 1
    assert set(manifest["arguments"]) == {"vertices", "coeff_min", "coeff_max",
                                          "max_trials", "jobs", "out"}
    assert manifest["arguments"]["out"] is None


def test_prove_exhausted_budget_exits_nonzero(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "prove", "--vertices", "4", "--seed", "1",
        "--max-trials", "1", "--out", str(out_path),
    )
    assert code == 1
    assert "verdict: undetermined" in out
    report = json.loads(out_path.read_text())
    assert report["verdict"] == "undetermined"
    assert any(row["status"] == "exhausted" for row in report["systems"])


def test_prove_on_a_one_point_box_ends_at_once(tmp_path, capsys):
    """A box smaller than the budget is searched point by point, so a
    budget of 10^9 trials costs one trial per system."""
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "prove", "--vertices", "6", "--seed", "0", "--coeff-min", "1",
        "--coeff-max", "1", "--max-trials", "1000000000", "--out", str(out_path),
    )
    assert code == 1
    assert "104/120 systems certified; verdict: undetermined" in out
    assert {row["trials"] for row in json.loads(out_path.read_text())["systems"]} == {1}


def test_prove_jobs_do_not_change_the_report(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "prove", "--vertices", "4", "--seed", "9",
               "--out", str(a))[0] == 0
    assert run(capsys, "prove", "--vertices", "4", "--seed", "9",
               "--jobs", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_prove_rejects_nonpositive_jobs(capsys):
    for jobs in ("0", "-2"):
        code, _, err = run(capsys, "prove", "--vertices", "4", "--seed", "0",
                           "--jobs", jobs)
        assert code == 2
        assert "--jobs" in err


def test_prove_rejects_small_vertex_count(capsys):
    code, _, err = run(capsys, "prove", "--vertices", "3", "--seed", "0")
    assert code == 2
    assert "--vertices" in err


def test_prove_rejects_a_vertex_count_past_the_cap(capsys, monkeypatch):
    def fail(V):
        raise AssertionError("systems enumerated")

    monkeypatch.setattr(prover, "enumerate_systems", fail)
    code, out, err = run(capsys, "prove", "--vertices", "13", "--seed", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "V = 13" in err


def test_prove_past_the_cap_leaves_no_out_file(tmp_path, capsys):
    """The V cap is checked before the --out write probe: a refused run
    creates no report file and leaves an existing one byte for byte."""
    out_path = tmp_path / "capped.json"
    code, out, err = run(capsys, "prove", "--vertices", "11", "--seed", "0",
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: proof runs stop at V = 10")
    assert not out_path.exists()
    out_path.write_bytes(b'{"an": "earlier report"}\n')
    code, _, _ = run(capsys, "prove", "--vertices", "11", "--seed", "0",
                     "--out", str(out_path))
    assert code == 2
    assert out_path.read_bytes() == b'{"an": "earlier report"}\n'


# int() would take a sign, surrounding spaces, underscores and other
# scripts' digits; every integer flag takes the table parser's spelling
@pytest.mark.parametrize("argv", [
    [*flag, spelling]
    for flag, digit in ((["systems", "--vertices"], 5), (["prove", "--vertices", "4", "--seed"], 3))
    for spelling in (f"+{digit}", f" {digit}", f"{digit}_0", chr(0x0660 + digit))
])
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_prove_takes_a_negative_seed(capsys):
    code, out, _ = run(capsys, "prove", "--vertices", "4", "--seed", "-1")
    assert code == 0
    assert json.loads(out)["base_seed"] == -1


def test_prove_rejects_bad_coeff_range(capsys):
    code, _, err = run(capsys, "prove", "--vertices", "4", "--seed", "0",
                       "--coeff-min", "7", "--coeff-max", "3")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------- count


def test_count_regular_tetrahedron(tmp_path, capsys):
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices", "coords": TETRA})
    code, out, err = run(capsys, "count", "--input", cfg)
    assert code == 0
    assert out.splitlines()[0] == "U = 4"
    assert out.count("equilibrium") == 4
    # all four vertices share one squared norm, but no two are in contact
    assert err == ""


@pytest.mark.parametrize("kind, noun", [("vertices", "vertex"), ("faces", "face")])
def test_count_warns_of_a_contact_between_distinct_norms(tmp_path, capsys, kind, noun):
    # the squared norms 1, 2, 5, 25 differ, yet (r_1 - r_2).r_1 = 0: vertex 1
    # and, read as faces, face 2 have a degenerate contact
    coords = [[1, 0, 0], [1, 1, 0], [-2, -1, 0], [0, 0, 5]]
    cfg = write_json(tmp_path, {"d": 3, "kind": kind, "coords": coords})
    code, out, err = run(capsys, "count", "--input", cfg)
    assert code == 0
    assert "degenerate contact" in out
    assert err == CONTACT_WARNING.format(noun=noun)


def test_count_generic_configuration_no_warning(tmp_path, capsys):
    coords = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices", "coords": coords})
    code, out, err = run(capsys, "count", "--input", cfg)
    assert code == 0
    assert out.splitlines()[0] == "U = 3"
    assert err == ""


def test_count_reports_shadowing_vertex(tmp_path, capsys):
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices",
                                "coords": [[3, 0, 0], [2, 0, 0]]})
    code, out, _ = run(capsys, "count", "--input", cfg)
    assert code == 0
    assert "U = 1" in out
    assert "vertex 2: shadowed by vertex 1" in out


def test_count_faces(tmp_path, capsys):
    coords = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    cfg = write_json(tmp_path, {"d": 3, "kind": "faces", "coords": coords})
    code, out, _ = run(capsys, "count", "--input", cfg)
    assert code == 0
    assert out.splitlines()[0] == "S = 4"
    assert out.count("equilibrium") == 4


def test_count_kind_flag_mismatch(tmp_path, capsys):
    """The input's kind picks the count; there is no flag to disagree with it."""
    vertices = write_json(tmp_path, {"d": 3, "kind": "vertices", "coords": TETRA},
                          name="v.json")
    faces = write_json(tmp_path, {"d": 3, "kind": "faces", "coords": TETRA},
                       name="f.json")
    code, out, _ = run(capsys, "count", "--input", vertices)
    assert code == 0 and out.startswith("U = 4\nvertex 1: ")
    code, out, err = run(capsys, "count", "--input", faces)
    assert code == 0 and out.startswith("S = 4\nface 1: ") and err == ""
    for path in (vertices, faces):
        with pytest.raises(SystemExit) as info:
            main(["count", "--input", path, "--faces"])
        assert info.value.code == 2
        assert "unrecognized arguments: --faces" in capsys.readouterr().err


def test_count_rejects_float_coordinates(tmp_path, capsys):
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices",
                                "coords": [[1.5, 0, 0], [0, 1, 0]]})
    code, _, err = run(capsys, "count", "--input", cfg)
    assert code == 2
    assert "error:" in err


def test_count_missing_input(capsys):
    code, _, err = run(capsys, "count", "--input", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


NON_NUMERIC = [None, [1], {"p": 1}]


@pytest.mark.parametrize("bad", NON_NUMERIC)
def test_count_rejects_non_numeric_coordinates(tmp_path, capsys, bad):
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices",
                                "coords": [[1, 2, bad], [0, 0, 1]]})
    code, out, err = run(capsys, "count", "--input", cfg)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and repr(bad) in err


# Golden outputs, recorded before the integer shadow kernel replaced the
# Fraction sign loop.  MIXED has a degenerate contact (vertex 1 and vertex 2,
# (r_1 - r_2).r_1 = 0) and a doubly shadowed row; as face vectors it has a
# degenerate contact (face 2 with face 1) next to a shadowing.  TIED has
# equal squared norms, a degenerate contact, and a point inside the hull of
# the others.  Each contact makes `count` warn on stderr.
MIXED = [["1", "0", "0"], ["1", "1", "0"], ["-2", "-1", "0"], ["0", "0", "5"],
         ["1/2", "1/3", "-1/6"], ["-3/2", "2", "1/4"]]
TIED = [[2, 0, 0], [0, 2, 0], [1, 1, 0], [-1, -1, -1], ["1/3", "-2/3", "0"],
        ["-2", "0", "0"]]
CONTACT_WARNING = ("warning: degenerate contacts (zero shadow signs); a {noun} "
                   "listed with one is not counted as an equilibrium\n")


@pytest.mark.parametrize("coords, kind, flags, stdout, stderr", [
    (MIXED, "vertices", [],
     "U = 4\n"
     "vertex 1: degenerate contact with vertex 2\n"
     "vertex 2: equilibrium\n"
     "vertex 3: equilibrium\n"
     "vertex 4: equilibrium\n"
     "vertex 5: shadowed by vertex 1, 2\n"
     "vertex 6: equilibrium\n", CONTACT_WARNING.format(noun="vertex")),
    (MIXED, "faces", [],
     "S = 4\n"
     "face 1: shadowed by face 5\n"
     "face 2: shadowed by face 5; degenerate contact with face 1\n"
     "face 3: equilibrium\n"
     "face 4: equilibrium\n"
     "face 5: equilibrium\n"
     "face 6: equilibrium\n", CONTACT_WARNING.format(noun="face")),
    (TIED, "vertices", [],
     "U = 4\n"
     "vertex 1: equilibrium\n"
     "vertex 2: equilibrium\n"
     "vertex 3: degenerate contact with vertex 1, 2\n"
     "vertex 4: equilibrium\n"
     "vertex 5: shadowed by vertex 1\n"
     "vertex 6: equilibrium\n", CONTACT_WARNING.format(noun="vertex")),
], ids=["vertices", "faces", "tied-vertices"])
def test_count_golden_output(tmp_path, capsys, coords, kind, flags, stdout, stderr):
    cfg = write_json(tmp_path, {"d": 3, "kind": kind, "coords": coords})
    code, out, err = run(capsys, "count", "--input", cfg, *flags)
    assert code == 0
    assert out == stdout
    assert err == stderr


def deep_json(tmp_path, depth=100_000):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    return str(path)


def test_count_rejects_deeply_nested_json(tmp_path, capsys):
    code, out, err = run(capsys, "count", "--input", deep_json(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- systems


def test_systems_summary(capsys):
    code, out, _ = run(capsys, "systems", "--vertices", "5")
    assert code == 0
    assert out.strip() == "V = 5: 24 shadowing systems, 3 free variables each"


def test_systems_rejects_a_count_too_long_to_print(capsys):
    # 1999! has more digits than Python converts from int to str by default
    code, out, err = run(capsys, "systems", "--vertices", "2000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "1999!" in err
    assert "Traceback" not in err
    # the edge: 1558! has exactly 4,300 digits and prints, 1559! has 4,303
    code, out, _ = run(capsys, "systems", "--vertices", "1559")
    assert code == 0 and len(out.split()[3]) == 4300
    code, _, err = run(capsys, "systems", "--vertices", "1560")
    assert code == 2 and "1559!" in err


def test_systems_refuses_a_huge_count_before_computing_it(capsys, monkeypatch):
    """999,999! is refused from its digit count alone: no factorial is
    computed, on every Python."""
    def factorial(n):
        raise AssertionError("factorial computed")

    monkeypatch.setattr(math, "factorial", factorial)
    code, out, err = run(capsys, "systems", "--vertices", "1000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "999999!" in err
    assert "Traceback" not in err


def test_systems_listing(capsys):
    code, out, _ = run(capsys, "systems", "--vertices", "4", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "V = 4: 6 shadowing systems, 2 free variables each"
    assert lines[1] == "#0 j=(1,1,1)"
    assert lines[-1] == "#5 j=(1,2,3)"
    assert len(lines) == 1 + 6


def test_systems_rejects_tiny_vertex_count(capsys):
    code, _, err = run(capsys, "systems", "--vertices", "2")
    assert code == 2
    assert "--vertices" in err


# ---------------------------------------------------------------- check-hull


def test_check_hull_all_extreme(tmp_path, capsys):
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices", "coords": TETRA})
    code, out, _ = run(capsys, "check-hull", "--input", cfg)
    assert code == 0
    assert "4/4 points are hull vertices" in out


def test_check_hull_flags_interior_point(tmp_path, capsys):
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices",
                                "coords": TETRA + [[0, 0, 0]]})
    code, out, _ = run(capsys, "check-hull", "--input", cfg)
    assert code == 1
    assert "vertex 5: NOT a hull vertex" in out
    assert "4/5 points are hull vertices" in out


def test_check_hull_rejects_face_input(tmp_path, capsys):
    cfg = write_json(tmp_path, {"d": 3, "kind": "faces", "coords": TETRA})
    code, _, err = run(capsys, "check-hull", "--input", cfg)
    assert code == 2
    assert "vertices" in err


@pytest.mark.parametrize("bad", NON_NUMERIC)
def test_check_hull_rejects_non_numeric_coordinates(tmp_path, capsys, bad):
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices",
                                "coords": [[1, 2, bad], [0, 0, 1]]})
    code, out, err = run(capsys, "check-hull", "--input", cfg)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and repr(bad) in err


@pytest.mark.parametrize("coords, code, stdout", [
    (MIXED, 0,
     "vertex 1: hull vertex\n"
     "vertex 2: hull vertex\n"
     "vertex 3: hull vertex\n"
     "vertex 4: hull vertex\n"
     "vertex 5: hull vertex\n"
     "vertex 6: hull vertex\n"
     "6/6 points are hull vertices\n"),
    (TIED, 1,
     "vertex 1: hull vertex\n"
     "vertex 2: hull vertex\n"
     "vertex 3: NOT a hull vertex (convex combination of the others)\n"
     "vertex 4: hull vertex\n"
     "vertex 5: hull vertex\n"
     "vertex 6: hull vertex\n"
     "5/6 points are hull vertices\n"),
], ids=["mixed", "tied"])
def test_check_hull_golden_output(tmp_path, capsys, coords, code, stdout):
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices", "coords": coords})
    assert run(capsys, "check-hull", "--input", cfg) == (code, stdout, "")


def counted_clearings(monkeypatch) -> list:
    """A list that grows by one for each clear_denominators call."""
    calls = []
    clear = monoproof.ratcore.clear_denominators

    def counting(rows):
        calls.append(rows)
        return clear(rows)

    for module in (monoproof.ratcore, monoproof.equilibria):
        monkeypatch.setattr(module, "clear_denominators", counting)
    return calls


@pytest.mark.parametrize("command, code", [("check-hull", 1), ("count", 0)])
def test_a_vertex_configuration_is_cleared_once(tmp_path, capsys, monkeypatch, command, code):
    """check-hull and count clear the configuration's denominators once,
    as load_config builds the configuration: no hull query, simplex
    tableau, equilibrium count or shadow kernel clears them again."""
    calls = counted_clearings(monkeypatch)
    cfg = write_json(tmp_path, {"d": 3, "kind": "vertices", "coords": TIED})
    assert run(capsys, command, "--input", cfg)[0] == code
    assert len(calls) == 1


def test_a_face_configuration_is_cleared_once(tmp_path, capsys, monkeypatch):
    """count on faces clears the denominators once, as load_config builds
    the configuration, and not again for the equilibria or the shadow
    kernel."""
    calls = counted_clearings(monkeypatch)
    cfg = write_json(tmp_path, {"d": 3, "kind": "faces", "coords": TIED})
    assert run(capsys, "count", "--input", cfg)[0] == 0
    assert len(calls) == 1


def test_check_hull_rejects_deeply_nested_json(tmp_path, capsys):
    code, out, err = run(capsys, "check-hull", "--input", deep_json(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- misc


def test_readme_command_lines_parse():
    """Every README line that starts with ``monoproof `` parses with the
    current command line (nothing is run)."""
    lines = [line for line in README.read_text("utf-8").splitlines()
             if line.startswith("monoproof ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_library_block_runs():
    """The README's Library example runs, and each line marked ``# ->``
    evaluates to the repr after the arrow."""
    section = README.read_text("utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines, checked = [], 0
    for line in block.splitlines():
        code, arrow, expected = line.partition("# ->")
        if arrow:
            code = code.strip()
            line = f"assert repr({code}) == {expected.strip()!r}, {code!r}"
            checked += 1
        lines.append(line)
    exec("\n".join(lines), {})
    assert checked == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "monoproof" in capsys.readouterr().out


def run_python(*args):
    """A fresh interpreter that imports monoproof from this checkout's src."""
    src = str(Path(monoproof.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    result = run_python("-m", "monoproof", "--version")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("monoproof ")


def test_import_does_not_load_the_process_pool():
    """Only a pooled prove needs multiprocessing; importing the package and
    its command line must leave it, and the process pool, unloaded."""
    result = run_python(
        "-c",
        "import sys, monoproof, monoproof.cli; print(monoproof.__file__); "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))",
    )
    assert result.returncode == 0, result.stderr
    loaded_from, pool_modules = result.stdout.splitlines()
    assert Path(loaded_from).resolve() == Path(monoproof.__file__).resolve()
    assert pool_modules == "[]"
