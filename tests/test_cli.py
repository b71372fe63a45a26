"""CLI: subcommand dispatch, JSON contracts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcvx
from qcvx import quadrature
from qcvx.cli import main

SQUARE = {"type": "polytope", "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}
EXP_DISC = {"type": "radial", "base": {"type": "ball", "radius": 1.0, "dim": 2},
            "profile": {"kind": "exp", "c": 1.0}}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_mixed_volume_two_squares(workdir, capsys):
    bodies = _write(workdir / "bodies.json", [SQUARE, SQUARE])
    assert main(["mixed-volume", bodies]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.0, rel=1e-10)
    assert out["rel_err"] < 1e-8


def test_quermass_radial_exp(workdir, capsys):
    fn = _write(workdir / "f.json", EXP_DISC)
    assert main(["quermass", "--k", "1", fn]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(math.pi, rel=1e-10)


def test_integral_and_mixed_integral(workdir, capsys):
    fn = _write(workdir / "f.json", EXP_DISC)
    assert main(["integral", fn]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
        2 * math.pi, rel=1e-10)
    fns = _write(workdir / "fns.json", [EXP_DISC, EXP_DISC])
    assert main(["mixed-integral", fns]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
        2 * math.pi, rel=1e-10)


def test_oplus_emit_levels(workdir, capsys):
    stack = {"type": "stack", "levels": [{"t": 1.0, "body": SQUARE}]}
    f = _write(workdir / "f.json", stack)
    g = _write(workdir / "g.json", stack)
    assert main(["oplus", f, g, "--emit-levels"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "stack"
    verts = np.array(out["levels"][0]["body"]["vertices"])
    assert verts.max() == pytest.approx(2.0)


def test_oracle_compare(workdir, capsys):
    stack = {"type": "stack", "levels": [{"t": 1.0, "body": SQUARE}]}
    f = _write(workdir / "f.json", stack)
    g = _write(workdir / "g.json", stack)
    assert main(["oracle-compare", f, g, "--grid-size", "21"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"]


def test_oracle_compare_on_polygons_with_hundreds_of_vertices(workdir, capsys):
    ang = 2.0 * math.pi * np.arange(300) / 300
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def stack(*levels):
        return {"type": "stack", "levels": [
            {"t": t, "body": {"type": "polytope", "vertices": (ring * s).tolist()}}
            for t, s in levels]}

    f = _write(workdir / "f.json", stack((1.0, [1.0, 1.0])))
    g = _write(workdir / "g.json", stack((1.0, [2.0, 0.5]), (0.5, [3.0, 1.0])))
    assert main(["oracle-compare", f, g, "--grid-size", "21"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["fat_height"] == 0.5


def test_oracle_compare_without_certified_height_fails(workdir, capsys):
    square = {"type": "polytope", "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]}
    f = _write(workdir / "f.json", {"type": "stack", "levels": [{"t": 1.0, "body": square}]})
    assert main(["oracle-compare", f, f, "--grid-size", "3"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["fat_height"] == 0.0
    assert not out["ok"]


def test_rearrange_roundtrip(workdir, capsys):
    stack = {"type": "stack", "levels": [{"t": 1.0, "body": SQUARE}]}
    fn = _write(workdir / "f.json", stack)
    assert main(["rearrange", fn, "--functional", "vol"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["levels"][0]["body"]["type"] == "ball"
    assert out["levels"][0]["body"]["radius"] == pytest.approx(
        1 / math.sqrt(math.pi), rel=1e-10)


def test_duality_check(workdir, capsys):
    phi = _write(workdir / "phi.json",
                 {"slopes": [[1.0], [-1.0]], "offsets": [0.0, 0.0], "domain": None})
    assert main(["duality-check", phi, "--t-values", "0.5,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 2
    assert all(r["verdict"] == "holds" for r in out)


def test_duality_check_one_sided_and_domain(workdir, capsys):
    lopsided = _write(workdir / "lop.json",
                      {"slopes": [[2.0], [-0.5]], "offsets": [-0.3, 0.0]})
    assert main(["duality-check", lopsided]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["details"]["t"] for r in out] == [0.5, 1.0, 2.0]
    assert all(r["margin"] >= -1e-9 for r in out)
    domain = {"type": "polytope",
              "vertices": [[-1, -0.5], [1.2, -0.7], [0.8, 1.1], [-0.6, 0.9]]}
    phi = _write(workdir / "dom.json", {"slopes": [[1.0, 0.5], [-0.5, 1.0]],
                                        "offsets": [-0.1, 0.0], "domain": domain})
    assert main(["duality-check", phi, "--t-values", "0.5,1,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 3 and all(r["verdict"] == "holds" for r in out)
    assert all(r["margin"] >= -1e-9 for r in out)


def test_check_writes_jsonl_and_csv(workdir, capsys):
    assert main(["check", "af-bodies", "--trials", "4", "--seed", "7"]) == 0
    assert (workdir / "qcvx-check.jsonl").exists()
    assert (workdir / "qcvx-check.csv").exists()
    lines = (workdir / "qcvx-check.jsonl").read_text().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["verdict"] in ("holds", "holds-with-equality")
               for line in lines)


def test_check_deterministic_bytes(workdir, capsys):
    main(["check", "gen-bm-bodies", "--trials", "3", "--seed", "5", "--out", "a"])
    main(["check", "gen-bm-bodies", "--trials", "3", "--seed", "5", "--out", "b"])
    assert (workdir / "a.jsonl").read_bytes() == (workdir / "b.jsonl").read_bytes()
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_rescale_subcommand(workdir, capsys):
    gauss = {"type": "radial", "base": {"type": "ball", "radius": 1.0, "dim": 2},
             "profile": {"kind": "gauss", "c": 1.0}}
    f = _write(workdir / "f.json", gauss)
    g = _write(workdir / "g.json", EXP_DISC)
    assert main(["rescale", f, "--match", g]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["verdict"] in ("holds", "holds-with-equality")
    assert out["function"]["type"] == "radial"


def test_dilate_subcommand(workdir, capsys):
    f = _write(workdir / "f.json", EXP_DISC)
    assert main(["dilate", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["function"]["profile"]["kind"] == "exp"
    assert out["report"]["verdict"] == "holds"


def test_bad_input_exits_two(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["integral", str(bad)]) == 2
    assert main(["integral", str(workdir / "missing.json")]) == 2
    wrong_arity = _write(workdir / "one.json", [SQUARE])
    assert main(["mixed-volume", wrong_arity]) == 2


def test_malformed_specs_and_values_exit_two_with_their_message(workdir, capsys):
    phi = _write(workdir / "phi.json", {"slopes": [[1.0], [-1.0]]})
    no_slopes = _write(workdir / "no_slopes.json", {"offsets": [0.0]})
    assert main(["duality-check", no_slopes]) == 2
    assert capsys.readouterr().err == "input error: 'slopes'\n"
    assert main(["duality-check", phi, "--t-values", "0.5,two"]) == 2
    assert "could not convert string to float: 'two'" in capsys.readouterr().err
    assert main(["integral", _write(workdir / "list.json", [EXP_DISC])]) == 2
    assert main(["integral", _write(workdir / "kind.json", {"type": "cone"})]) == 2
    assert "unknown function type 'cone'" in capsys.readouterr().err
    assert main(["check", "no-such-check", "--trials", "1"]) == 2
    assert "unknown check 'no-such-check'" in capsys.readouterr().err


def test_an_internal_value_error_exits_one(workdir, capsys, monkeypatch):
    from qcvx import cli

    def broken(args, config):
        raise ValueError("a fault of the program")

    monkeypatch.setattr(cli, "cmd_integral", broken)
    assert main(["integral", _write(workdir / "f.json", EXP_DISC)]) == 1
    err = capsys.readouterr().err
    assert "input error" not in err and "ValueError: a fault of the program" in err


def test_radial_base_without_the_origin_inside_exits_two(workdir, capsys):
    fn = _write(workdir / "f.json", {"type": "radial", "base": SQUARE,
                                     "profile": {"kind": "exp", "c": 1.0}})
    assert main(["integral", fn]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "0 in its interior" in err


def test_non_finite_body_exits_two_naming_the_value(workdir, capsys):
    bodies = _write(workdir / "nan.json", [SQUARE, {"type": "polytope",
                                                    "vertices": [[0, 0], [1, 0], [0, math.nan]]}])
    assert main(["mixed-volume", bodies]) == 2
    assert "must be finite, got nan" in capsys.readouterr().err


def test_zero_panels_exits_two(workdir, capsys):
    fn = _write(workdir / "f.json", EXP_DISC)
    assert main(["integral", fn, "--panels", "0"]) == 2
    assert "panels" in capsys.readouterr().err
    with pytest.raises(ValueError):
        with quadrature.node_cap(0):
            pass


@pytest.mark.parametrize("flag", ["--tol-exact", "--tol-quad"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_a_tolerance_that_is_not_finite_and_positive_exits_two(workdir, capsys, flag, value):
    assert main(["check", "gen-bm", "--trials", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("parent", ["missing", "a-file"])
def test_check_into_a_missing_directory_exits_two_before_running(workdir, capsys,
                                                                 monkeypatch, parent):
    from qcvx import cli

    (workdir / "a-file").write_text("", encoding="utf-8")
    real, runs = cli.run_all, []
    monkeypatch.setattr(cli, "run_all", lambda *args: runs.append(args) or real(*args))
    out = str(workdir / parent / "run")
    assert main(["check", "gen-bm", "--trials", "1", "--out", out]) == 2
    assert runs == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err
    assert main(["check", "gen-bm", "--trials", "1", "--out", str(workdir / "run")]) == 0
    assert len(runs) == 1 and (workdir / "run.jsonl").exists()


def test_overflowing_mixed_volume_exits_one(workdir, capsys):
    bodies = _write(workdir / "bodies.json", [
        {"type": "polytope", "vertices": [[0, 0], [1e300, 0], [0, 1]]},
        {"type": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]]},
    ])
    assert main(["mixed-volume", bodies]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a mixed volume" in captured.err


def test_csv_format(workdir, capsys):
    fn = _write(workdir / "f.json", EXP_DISC)
    assert main(["integral", fn, "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "key,value"
    key, value = out[1].split(",")
    assert key == "value"
    assert float(value) == pytest.approx(2 * math.pi, rel=1e-10)


def _tols(path):
    return {json.loads(line)["tol"] for line in path.read_text(encoding="utf-8").splitlines()}


def test_tolerance_flags_are_wired(workdir, capsys):
    flags = ["--trials", "2", "--tol-exact", "1e-7", "--tol-quad", "1e-4"]
    # af-bodies is judged at the exact tolerance, lc-isoperimetric at the quadrature one
    assert main(["check", "af-bodies", "--out", "exact"] + flags) == 0
    assert main(["check", "lc-isoperimetric", "--out", "quad"] + flags) == 0
    assert _tols(workdir / "exact.jsonl") == {1e-7}
    assert _tols(workdir / "quad.jsonl") == {1e-4}


# a mixed integral of two radial functions on different bases needs a height
# integral from t = 0: four panels of nodes, so a cap of 128 cannot settle it
NEEDS_QUADRATURE = [
    {"type": "radial", "base": {"type": "ball", "radius": 1.0, "dim": 2},
     "profile": {"kind": "stretched", "c": 1.0, "p": 1.5}},
    {"type": "radial", "base": {"type": "polytope",
                                "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]},
     "profile": {"kind": "exp", "c": 1.0}}]


def test_flags_do_not_leak_into_later_calls(workdir, capsys):
    from qcvx.checks import run_all
    run = ["check", "af-bodies", "--trials", "2", "--seed", "3"]
    assert main(run + ["--out", "fresh"]) == 0
    assert main(run + ["--out", "flagged", "--tol-exact", "1e-7",
                       "--tol-quad", "1e-4"]) == 0
    assert main(run + ["--out", "after"]) == 0
    assert (workdir / "after.jsonl").read_bytes() == (workdir / "fresh.jsonl").read_bytes()
    assert _tols(workdir / "flagged.jsonl") == {1e-7}
    assert _tols(workdir / "after.jsonl") == {1e-9}
    library = run_all(seed=3, trials=1, names=["af-bodies", "lc-isoperimetric"])
    assert [rep.tol for reps in library.values() for rep in reps] == [1e-9, 1e-6]

    fns = _write(workdir / "fns.json", NEEDS_QUADRATURE)
    assert main(["mixed-integral", fns, "--panels", "128"]) == 1
    assert "node cap" in capsys.readouterr().err
    assert main(["mixed-integral", fns]) == 0
    assert json.loads(capsys.readouterr().out)["value"] > 0.0


def test_node_cap_is_scoped_to_the_block():
    from qcvx.profiles import TableProfile
    prof = TableProfile([0.0, 1.0, 2.0, 4.0], [1.0, 0.5, 0.1, 0.0])
    full = prof.moment(1.0)
    with quadrature.node_cap(64):
        capped = prof.moment(1.0)
    assert capped != full
    assert prof.moment(1.0) == full


def test_grid_size_below_two_exits_two(workdir, capsys):
    from qcvx.grids import GridSpec
    stack = {"type": "stack", "levels": [{"t": 1.0, "body": SQUARE}]}
    f = _write(workdir / "f.json", stack)
    phi = _write(workdir / "phi.json",
                 {"slopes": [[1.0], [-1.0]], "offsets": [0.0, 0.0], "domain": None})
    assert main(["oracle-compare", f, f, "--grid-size", "1"]) == 2
    assert capsys.readouterr().out == ""
    # the ratio transform is exact, so duality-check has no lattice to size
    with pytest.raises(SystemExit) as exc:
        main(["duality-check", phi, "--grid-size", "1"])
    assert exc.value.code == 2
    with pytest.raises(ValueError):
        GridSpec.cube(1.0, 2, 1)


@pytest.mark.parametrize("half", ["0", "-1", "nan", "inf"])
def test_a_half_width_that_is_not_finite_and_positive_exits_two(workdir, capsys, half):
    stack = {"type": "stack", "levels": [{"t": 1.0, "body": SQUARE}]}
    f = _write(workdir / "f.json", stack)
    assert main(["oracle-compare", f, f, "--half-width", half]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--half-width" in captured.err


def test_a_positive_half_width_is_the_lattice_box(workdir, capsys):
    stack = {"type": "stack", "levels": [{"t": 1.0, "body": SQUARE}]}
    f = _write(workdir / "f.json", stack)
    assert main(["oracle-compare", f, f, "--half-width", "2.5", "--grid-size", "21"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_workloads_leave_the_heavy_scipy_subpackages_unloaded(tmp_path):
    """A fresh interpreter runs the harness in the plane and one sup-min
    bracket without importing scipy.interpolate, scipy.optimize or
    scipy.ndimage (each costs start-up time and memory in every process)."""
    script = f"""
import sys
import qcvx, qcvx.cli
from qcvx.generators import random_stack
from qcvx.grids import GridSpec
from qcvx.qc import supmin_bracket
import numpy as np

code = qcvx.cli.main(["check", "all", "--dim", "2", "--trials", "1",
                      "--out", {str(tmp_path / "run")!r}])
rng = np.random.default_rng(3)
f, g = random_stack(rng, 2), random_stack(rng, 2)
reach = 1.1 * max(f.support_radius(), g.support_radius())
assert supmin_bracket(f, g, GridSpec.cube(reach, 2, 41))["fat_height"] > 0.0
heavy = ("scipy.interpolate", "scipy.optimize", "scipy.ndimage")
print(code, [m for m in heavy if m in sys.modules])
"""
    src = str(Path(qcvx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


def test_compare_script_tags_round_off_moves_without_forgiving_them(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_check_outputs.py"
    records = {"old": [{"name": "r", "tiny": 4.7e-16, "big": 1.0, "ok": True}],
               "new": [{"name": "r", "tiny": 4.3e-16, "big": 2.0, "ok": True}]}
    for side, recs in records.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "reports.json").write_text(json.dumps(recs), encoding="utf-8")
    out = subprocess.run([sys.executable, str(script), "diff", str(tmp_path / "old"),
                          str(tmp_path / "new")], capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "reports.json: differs; every verdict unchanged",
        "  r#0 big: 1.0 -> 2.0",
        "  r#0 tiny: 4.7e-16 -> 4.3e-16 (round-off)",
        "  1 listed move(s) are round-off (old and new magnitudes below 1e-12)",
        "  0 unlisted numeric move(s) of at most 1e-12 relative",
        "summary: 1 file(s) differ, 0 verdict(s) changed, "
        "1 listed move(s) not tagged round-off",
    ]


def test_compare_script_names_the_largest_move_below_the_threshold(tmp_path):
    # nothing moves by more than 1e-12 relative, so nothing is listed; the
    # summary still counts the numbers that moved and names the largest
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_check_outputs.py"
    records = {"old": [{"name": "r", "x": 1.0, "ys": [2.0, 3.0], "ok": True, "tag": "a"},
                       {"name": "r", "x": 5.0, "ys": [], "ok": True, "tag": "a"}],
               "new": [{"name": "r", "x": 1.0 + 4e-16, "ys": [2.0, 3.0 * (1 + 5e-13)],
                        "ok": True, "tag": "a"},
                       {"name": "r", "x": 5.0 - 5e-15, "ys": [], "ok": True, "tag": "a"}]}
    for side, recs in records.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "reports.json").write_text(json.dumps(recs), encoding="utf-8")
    out = subprocess.run([sys.executable, str(script), "diff", str(tmp_path / "old"),
                          str(tmp_path / "new")], capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "reports.json: differs; every verdict unchanged",
        "  0 listed move(s) are round-off (old and new magnitudes below 1e-12)",
        "  3 unlisted numeric move(s) of at most 1e-12 relative; "
        "largest 5e-13 at r#0 ys[1]",
        "summary: 1 file(s) differ, 0 verdict(s) changed, "
        "0 listed move(s) not tagged round-off",
    ]


def test_compare_script_lists_moved_heights_of_a_levelwise_row_not_its_argmin(tmp_path):
    # heights 1 and 0.5 tie at round-off; the argmin, and with it left/right,
    # jumps from the first to the second while no entry moves by 1e-12
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_check_outputs.py"
    ulp5, ulp4 = math.ulp(5.0), math.ulp(4.0)
    rows = {"old": {"left": 5.0, "right": 5.0 + ulp5,
                    "lhs": [5.0, 4.0, 3.0], "rhs": [5.0 + ulp5, 4.0, 2.0]},
            "new": {"left": 4.0, "right": 4.0 + ulp4,
                    "lhs": [5.0, 4.0, 3.5], "rhs": [5.0, 4.0 + ulp4, 2.0]}}
    for side, row in rows.items():
        record = {"name": "gen-bm", "left": row["left"], "right": row["right"],
                  "margin": -1e-16, "verdict": "holds-with-equality",
                  "details": {"heights": [1.0, 0.5, 0.25],
                              "lhs": row["lhs"], "rhs": row["rhs"]}}
        (tmp_path / side).mkdir()
        (tmp_path / side / "check.jsonl").write_text(json.dumps(record) + "\n",
                                                     encoding="utf-8")
    out = subprocess.run([sys.executable, str(script), "diff", str(tmp_path / "old"),
                          str(tmp_path / "new")], capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "check.jsonl: differs; every verdict unchanged",
        "  gen-bm#0 details.lhs[2]: 3.0 -> 3.5",
        "  0 listed move(s) are round-off (old and new magnitudes below 1e-12)",
        # left/right are not compared, so their jump is not an unlisted move
        "  2 unlisted numeric move(s) of at most 1e-12 relative; "
        "largest 2.22e-16 at gen-bm#0 details.rhs[1]",
        "summary: 1 file(s) differ, 0 verdict(s) changed, "
        "1 listed move(s) not tagged round-off",
    ]


def test_compare_script_summary_counts_files_verdicts_and_listed_moves(tmp_path):
    # one file changes a verdict and moves a value, one is only in the new
    # run, one is byte-identical: the last line counts each kind once
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_check_outputs.py"
    rows = {"old": {"name": "c", "verdict": "holds", "margin": 0.5, "tiny": 1e-16},
            "new": {"name": "c", "verdict": "violated", "margin": -0.5, "tiny": 2e-16}}
    for side, row in rows.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "check.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
        (tmp_path / side / "same.json").write_text("[]", encoding="utf-8")
    (tmp_path / "new" / "extra.json").write_text("[]", encoding="utf-8")
    out = subprocess.run([sys.executable, str(script), "diff", str(tmp_path / "old"),
                          str(tmp_path / "new")], capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout.splitlines()[-1] == (
        "summary: 2 file(s) differ, 1 verdict(s) changed, 2 listed move(s) not tagged round-off")


@pytest.mark.parametrize("case", ["absent", "broken"])
def test_compare_script_run_stops_before_writing_when_qcvx_does_not_import(tmp_path, case):
    # absent: no site directory and no PYTHONPATH, so no qcvx to find;
    # broken: PYTHONPATH puts a qcvx that fails to import ahead of any other
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_check_outputs.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    flags = ["-S"] if case == "absent" else []
    if case == "broken":
        (tmp_path / "shadow" / "qcvx").mkdir(parents=True)
        (tmp_path / "shadow" / "qcvx" / "__init__.py").write_text(
            "raise ImportError('broken checkout')\n", encoding="utf-8")
        env["PYTHONPATH"] = str(tmp_path / "shadow")
    out = subprocess.run([sys.executable, *flags, str(script), "run", str(tmp_path / "out")],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "PYTHONPATH" in out.stderr
    assert out.stdout == ""
    assert not (tmp_path / "out").exists()
