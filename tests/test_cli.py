"""End-to-end CLI runs, all in process through main(argv)."""

import json
from pathlib import Path

import numpy as np
import pytest

from melzak import random_convex, read_off, write_off
from melzak.cli import main
from melzak.shapes import PRISM_EDGE_LENGTH, TETRA_RATIO


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def prism_off(tmp_path, capsys):
    path = tmp_path / "prism.off"
    code, out, _ = run(capsys, "build", "--shape", "prism", "--out", str(path))
    assert code == 0
    assert out == f"wrote 6 vertices, 5 faces to {path}\n"
    return path


@pytest.fixture
def cube_off(tmp_path, capsys):
    path = tmp_path / "cube.off"
    assert run(capsys, "build", "--shape", "cube", "--out", str(path))[0] == 0
    return path


# ---------------------------------------------------------------------------
# build / ratio
# ---------------------------------------------------------------------------

def test_build_and_ratio(prism_off, capsys):
    code, out, _ = run(capsys, "ratio", str(prism_off))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e = 11.8962193695"
    assert lines[1] == "v = 0.999999999999"
    assert lines[2] == "m = 1683.55338496"
    assert float(lines[0].split(" = ")[1]) == pytest.approx(PRISM_EDGE_LENGTH, rel=1e-11)


def test_build_parametrized_shapes(tmp_path, capsys):
    path = tmp_path / "pyr.off"
    code, out, _ = run(capsys, "build", "--shape", "pyramid:5,1.0,0.8",
                       "--out", str(path))
    assert code == 0
    assert read_off(path).n_faces == 6
    # an unknown name, a wrong parameter count, a non-numeric or non-finite
    # parameter and a non-integral n are each one error line and exit 2
    for spec in ("gyroid", "tetra:3", "cube:1", "pyramid:5,1", "box:1,2,3,4",
                 "pyramid:x,1,1", "box:1,b,2", "box:nan,1,1", "pyramid:5,inf,1",
                 "pyramid:5.5,1,1"):
        code, out, err = run(capsys, "build", "--shape", spec, "--out", str(path))
        assert (code, out) == (2, ""), spec
        assert err.startswith("error:") and err.count("\n") == 1, spec
    assert read_off(path).n_faces == 6


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_candidate(prism_off, tmp_path, capsys):
    js = tmp_path / "report.json"
    code, out, _ = run(capsys, "audit", str(prism_off), "--mode", "candidate",
                       "--json", str(js))
    assert code == 0
    assert "is_candidate_minimizer: true" in out
    assert all(": fail" not in line for line in out.splitlines())
    payload = json.loads(js.read_text())
    assert list(payload) == ["criteria", "summary", "notes"]


@pytest.mark.parametrize("bound", ["nan", "inf", "0", "-1"])
def test_audit_bound_must_be_finite_and_positive(prism_off, capsys, bound):
    code, out, err = run(capsys, "audit", str(prism_off), "--bound", bound)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "finite and positive" in err


def test_ratio_of_a_non_finite_vertex_is_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.off"
    path.write_text("OFF\n4 4 6\nnan 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n")
    code, out, err = run(capsys, "ratio", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3:")


def test_audit_notes_mention_doubling(prism_off, capsys):
    # with no explicit bound the audit uses the mesh's own edge length,
    # which for the prism is where the two published thresholds disagree
    _, out, _ = run(capsys, "audit", str(prism_off), "--mode", "candidate")
    assert any(line.startswith("note:") and "doubles the argument" in line
               for line in out.splitlines())


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

def test_perturb_cube_translate(cube_off, capsys):
    code, out, _ = run(capsys, "perturb", str(cube_off), "--kind", "translate",
                       "--target", "0", "--fd")
    assert code == 0
    got = dict(line.split(" = ") for line in out.splitlines())
    assert got["E0"] == "12"
    assert got["V0"] == "1"
    assert got["M0"] == "1728"
    assert got["dE"] == "4"
    assert got["dV"] == "1"
    assert float(got["dM"]) == pytest.approx(0.0, abs=1e-8)
    assert "fd_step" in got and "fd_dM" in got


def test_perturb_hinge_requires_edge(cube_off, capsys):
    code, _, err = run(capsys, "perturb", str(cube_off), "--kind", "hinge",
                       "--target", "0")
    assert code == 2
    assert "need --edge" in err


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_box_to_cube(tmp_path, capsys):
    src = tmp_path / "box.off"
    assert run(capsys, "build", "--shape", "box:0.8,1.0,1.25",
               "--out", str(src))[0] == 0
    dst = tmp_path / "opt.off"
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "optimize", str(src), "--out", str(dst),
                       "--trace", str(trace))
    assert code == 0
    got = dict(line.split(" = ") for line in out.splitlines())
    assert float(got["m"]) == pytest.approx(1728.0, rel=1e-9)
    assert got["combinatorics_changed"] == "false"
    rows = trace.read_text().splitlines()
    assert rows[0] == "iter,ratio"
    assert len(rows) == int(got["iterations"]) + 2
    assert read_off(dst).n_faces == 6


def test_optimize_defaults_reach_a_converged_tetrahedron(tmp_path, capsys):
    # the defaults are OptimizeOptions'; the run reaches the regular
    # tetrahedron and stops at the gradient tolerance
    src = tmp_path / "tetra.off"
    write_off(src, random_convex(np.random.default_rng(1), n_faces=4))
    code, out, _ = run(capsys, "optimize", str(src), "--out", str(tmp_path / "opt.off"))
    assert code == 0
    got = dict(line.split(" = ") for line in out.splitlines())
    assert float(got["m"]) == pytest.approx(TETRA_RATIO, rel=1e-9)
    assert got["converged"] == "true"
    assert got["stop_reason"] == "grad_tol"


def test_optimize_non_simple_start_is_exit_2(tmp_path, capsys):
    src = tmp_path / "pyr.off"
    assert run(capsys, "build", "--shape", "pyramid:5,1.0,0.8", "--out", str(src))[0] == 0
    P = read_off(src)
    apex = next(v for v in range(P.n_vertices) if P.vertex_degree(v) == 5)
    code, out, err = run(capsys, "optimize", str(src), "--out", str(tmp_path / "opt.off"))
    assert (code, out) == (2, "")
    assert f"vertex {apex} has degree 5" in err


def test_bad_optimize_tolerance_is_exit_2(tmp_path, capsys):
    src = tmp_path / "box.off"
    assert run(capsys, "build", "--shape", "box:0.8,1.0,1.25",
               "--out", str(src))[0] == 0
    dst = tmp_path / "opt.off"
    for tol in ("nan", "inf"):
        code, out, err = run(capsys, "optimize", str(src), "--out", str(dst),
                             "--tol", tol, "--iters", "20")
        assert code == 2 and out == ""
        assert err.startswith("error:")
    assert not dst.exists()


# ---------------------------------------------------------------------------
# sequence and quad-scan
# ---------------------------------------------------------------------------

def test_sequence_output(capsys):
    code, out, _ = run(capsys, "sequence", "--max-faces", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "faces best_type ratio carried tie"
    assert lines[1] == "4 tetrahedron 1832.82077684 false false"
    assert lines[2] == "5 triangular_prism 1683.55338496 false false"
    assert any(l.startswith("type square_pyramid") for l in lines)


def test_quad_scan_deterministic(tmp_path, capsys):
    js1, js2 = tmp_path / "a.json", tmp_path / "b.json"
    code, out1, _ = run(capsys, "quad-scan", "--samples", "20", "--seed", "1",
                        "--json", str(js1))
    assert code == 0
    got = dict(line.split(" = ") for line in out1.splitlines())
    assert got["samples"] == "20"
    assert int(got["solutions"]) >= 1
    assert int(got["counterexamples"]) <= int(got["solutions"])
    # perfbench/workloads.py reads these with _printed, the first line that
    # starts with "key = ", and int: each must be one `key = <int>` line
    for key in ("samples", "solutions", "counterexamples", "origin_inside",
                "two_adjacent_acute"):
        lines = [line for line in out1.splitlines() if line.startswith(key + " = ")]
        assert lines == [f"{key} = {int(got[key])}"]
    code, out2, _ = run(capsys, "quad-scan", "--samples", "20", "--seed", "1",
                        "--json", str(js2))
    assert out1 == out2
    assert js1.read_text() == js2.read_text()


def test_perfbench_quadscan_items_pass_its_check(tmp_path, monkeypatch):
    # perfbench/run.py fails a quadscan run when an item raises or when
    # QuadScan.check finds a printed root off its residual bound or a
    # re-scan that differs; run its items and its check for three seeds
    import melzak

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    scan = WORKLOADS["quadscan"]
    for seed in (1, 2, 3):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        items = scan.inputs(melzak, None, seed, 5, work)
        outputs = [it.call() for it in items]
        assert scan.check(melzak, items, outputs) == []
        assert scan.guards(items, outputs)["scan_solutions"] >= len(items)
        assert set(scan.details(items, outputs)) == {
            "solutions", "counterexamples", "origin_inside", "two_adjacent_acute"}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_is_exit_1(capsys):
    assert run(capsys, "ratio")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "quad-scan", "--samples", "5")[0] == 1
    # the descent and the sweep are deterministic and take no seed
    assert run(capsys, "optimize", "cube.off", "--out", "opt.off", "--seed", "1")[0] == 1
    assert run(capsys, "sequence", "--max-faces", "5", "--seed", "1")[0] == 1


def test_negative_seed_is_exit_2(capsys):
    code, out, err = run(capsys, "quad-scan", "--samples", "5", "--seed", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_bad_scan_tolerance_is_exit_2(tmp_path, capsys):
    js = tmp_path / "kept.json"
    js.write_text("earlier scan\n")
    for tol in ("nan", "0", "-1", "inf"):
        code, out, err = run(capsys, "quad-scan", "--samples", "5", "--seed", "1",
                             "--tol", tol, "--json", str(js))
        assert code == 2 and out == ""
        assert err.startswith("error:")
    assert js.read_text() == "earlier scan\n"


def test_unwritable_scan_json_fails_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before --json was opened")

    monkeypatch.setattr("melzak.cli.cleancond_scan", no_scan)
    code, out, err = run(capsys, "quad-scan", "--samples", "5", "--seed", "1",
                         "--json", str(tmp_path / "absent" / "scan.json"))
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_perturb_index_out_of_range_is_exit_2(cube_off, capsys):
    for argv in (("--kind", "translate", "--target", "99"),
                 ("--kind", "translate", "--target", "-1"),
                 ("--kind", "hinge", "--target", "0", "--edge", "99"),
                 ("--kind", "hinge", "--target", "0", "--edge", "-1"),
                 ("--kind", "truncate", "--target", "8")):
        code, out, err = run(capsys, "perturb", str(cube_off), *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "out of range" in err


def test_missing_file_is_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "ratio", str(tmp_path / "absent.off"))
    assert code == 2
    assert err.startswith("error:")
