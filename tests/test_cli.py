"""CLI: subcommand dispatch, JSON contracts, exit codes, determinism."""

import csv
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
from qcvx.cli import RunConfig, build_parser, main
from qcvx.qc import fn_from_json, fn_to_json

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


BIG_SQUARE = {"type": "polytope", "vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2]]}
UNIT_SQUARE = {"type": "polytope", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
TWO_SQUARES = {"type": "stack", "levels": [{"t": 1.0, "body": UNIT_SQUARE},
                                           {"t": 0.5, "body": BIG_SQUARE}]}


def _sum_from_json(obj):
    """The SumQC that a printed ``sum`` form describes."""
    from qcvx.bodies import body_from_json
    from qcvx.profiles import profile_from_json
    from qcvx.qc import Band, SumQC
    return SumQC([Band(b["lo"], b["hi"], tuple(
        (profile_from_json(p["coef"]) if isinstance(p["coef"], dict) else p["coef"],
         body_from_json(p["body"])) for p in b["parts"])) for b in obj["bands"]])


def test_oplus_of_two_stacks_prints_every_level(workdir, capsys):
    f = _write(workdir / "f.json", TWO_SQUARES)
    g = _write(workdir / "g.json", {"type": "stack", "levels": [
        {"t": 1.0, "body": SQUARE}, {"t": 0.25, "body": UNIT_SQUARE}]})
    assert main(["oplus", f, g]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "stack"
    assert [lv["t"] for lv in out["levels"]] == [1.0, 0.5, 0.25]
    # [-1,1]^2 + [0,1]^2, [-2,2]^2 + [0,1]^2, [-2,2]^2 + [-1,1]^2
    assert [np.array(lv["body"]["vertices"]).max() for lv in out["levels"]] == [2.0, 3.0, 3.0]


def test_oplus_of_a_stack_and_a_disc_prints_the_exact_sum(workdir, capsys):
    from qcvx.qc import fn_from_json, integral, oplus
    f = _write(workdir / "f.json", TWO_SQUARES)
    g = _write(workdir / "g.json", EXP_DISC)
    assert main(["oplus", f, g]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "sum"
    assert [(b["lo"], b["hi"]) for b in out["bands"]] == [(0.5, 1.0), (0.0, 0.5)]
    exact = integral(oplus(fn_from_json(TWO_SQUARES), fn_from_json(EXP_DISC)))
    assert integral(_sum_from_json(out)) == exact


def test_a_printed_sum_is_not_an_input(workdir, capsys):
    f = _write(workdir / "f.json", TWO_SQUARES)
    g = _write(workdir / "g.json", EXP_DISC)
    assert main(["oplus", f, g]) == 0
    printed = workdir / "sum.json"
    printed.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["integral", str(printed)]) == 2
    assert "input error: unknown function type 'sum'" in capsys.readouterr().err


def test_dilate_of_a_square_prints_one_exponential_band(workdir, capsys):
    f = _write(workdir / "f.json", {"type": "stack", "levels": [{"t": 1.0, "body": UNIT_SQUARE}]})
    assert main(["dilate", f]) == 0
    out = json.loads(capsys.readouterr().out)
    (band,) = out["function"]["bands"]
    (part,) = band["parts"]
    assert out["function"]["type"] == "sum" and (band["lo"], band["hi"]) == (0.0, 1.0)
    # exp(-2 |x|_K / sqrt(pi)) over the square K of area 4: its level set at
    # t has the area pi log(1/t)^2 of the exponential law
    assert part["coef"]["kind"] == "exp"
    assert part["coef"]["c"] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    assert part["body"]["vertices"] == [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]


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


PROFILES = {
    "exp": {"kind": "exp", "c": 1.3},
    "gauss": {"kind": "gauss", "c": 0.7},
    "stretched": {"kind": "stretched", "c": 1.1, "p": 1.5},
    "powerlaw": {"kind": "powerlaw", "a": 4.5, "s": 0.8},
    "table": {"kind": "table", "knots": [0.0, 1.0, 2.0], "values": [1.0, 0.5, 0.0]},
}


@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_rearrange_prints_every_profile_kind_back(workdir, capsys, kind):
    """A radial function over a square rearranges to its profile over a
    disc: the profile prints back as it was read, the printed JSON reads and
    prints again to the same bytes, and it integrates as the input does."""
    fn = _write(workdir / "f.json", {"type": "radial", "base": UNIT_SQUARE,
                                     "profile": PROFILES[kind]})
    assert main(["rearrange", fn]) == 0
    printed = capsys.readouterr().out
    out = json.loads(printed)
    assert out["base"]["type"] == "ball" and out["profile"] == PROFILES[kind]
    assert json.dumps(fn_to_json(fn_from_json(out)), sort_keys=True, indent=2) + "\n" == printed
    values = []
    for path in (fn, _write(workdir / "g.json", out)):
        assert main(["integral", path]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values[1] == pytest.approx(values[0], rel=1e-12, abs=0.0)


def test_a_profile_without_a_json_form_raises():
    from qcvx.profiles import exponential_profile
    from qcvx.qc import RadialQC, oplus
    from qcvx.rearrange import sdr

    disc = RadialQC(qcvx.ConvexBody.ball(1.0, 2), exponential_profile(1.0))
    square = RadialQC(qcvx.ConvexBody.box([-1, -1], [1, 1]), exponential_profile(1.0))
    with pytest.raises(ValueError, match="PhiBallProfile has no JSON form"):
        fn_to_json(sdr(oplus(disc, square)))


def test_dilate_of_a_table_with_compact_support(workdir, capsys):
    """The table [0, 1, 2] -> [1, 0.5, 0] interpolates h = 1 - r/2, which
    is log-concave, so it dilates to the exponential law."""
    fn = _write(workdir / "f.json", {"type": "radial", "base": {
        "type": "ball", "radius": 1.0, "dim": 2}, "profile": PROFILES["table"]})
    assert main(["dilate", fn]) == 0
    assert json.loads(capsys.readouterr().out)["function"]["profile"]["kind"] == "exp"


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


def test_report_epsilon_table_is_the_steiner_polynomial(workdir, capsys):
    # exp(-|x|) over the unit disc grows by eps D: int f_eps = 2pi + 2pi eps + pi eps^2
    assert main(["report", "--trials", "1", "--seed", "7", "--out", "run"]) == 0
    with (workdir / "run" / "epsilon_integral.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41
    for row in rows:
        eps = float(row["eps"])
        steiner = 2 * math.pi + 2 * math.pi * eps + math.pi * eps ** 2
        assert float(row["integral"]) == pytest.approx(steiner, rel=1e-10, abs=0.0), row


CROSS_SLOPES = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


@pytest.mark.parametrize("spec,t_values,message", [
    ({"slopes": CROSS_SLOPES, "domain": {"type": "polytope", "vertices": [[-1, 0], [1, 0]]}},
     "1", "full-dimensional polytope"),
    ({"slopes": CROSS_SLOPES, "domain": {"type": "ball", "radius": 1.0, "dim": 2}},
     "1", "full-dimensional polytope"),
    ({"slopes": [[1.0, 0.0], [0.0, 1.0]]}, "1", "not coercive"),
    ({"slopes": CROSS_SLOPES}, "0", "finite and positive"),
    ({"slopes": CROSS_SLOPES}, "0.5,-1", "finite and positive"),
    ({"slopes": CROSS_SLOPES}, "inf", "finite and positive"),
    ({"slopes": CROSS_SLOPES}, "nan", "finite and positive"),
])
def test_duality_check_rejects_bad_input_with_exit_two(workdir, capsys, spec, t_values,
                                                       message):
    phi = _write(workdir / "phi.json", spec)
    assert main(["duality-check", phi, "--t-values", t_values]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


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


DISC = {"type": "ball", "radius": 1.0, "dim": 2}


def _radial(profile):
    return {"type": "radial", "base": DISC, "profile": profile}


@pytest.mark.parametrize("command,payload,flags,message", [
    ("integral", _radial({"kind": "exp", "c": math.nan}), [], "got c = nan"),
    ("integral", _radial({"kind": "stretched", "c": 1.0, "p": math.nan}), [], "p = nan"),
    ("integral", _radial({"kind": "powerlaw", "a": math.inf, "s": 1.0}), [], "got a = inf"),
    ("mixed-integral", [_radial({"kind": "exp", "c": math.inf}), EXP_DISC], [],
     "got c = inf"),
    ("integral", {"type": "stack", "levels": [{"t": math.nan, "body": DISC}]}, [],
     "top height to be 1"),
    ("integral", {"type": "stack", "levels": [{"t": 1.0, "body": DISC}, {"t": math.nan, "body": {
        "type": "ball", "radius": 2.0, "dim": 2}}]}, [], "strictly decrease"),
    ("integral", _radial({"kind": "table", "knots": [], "values": []}), [], "two knots"),
    ("quermass", EXP_DISC, ["--k", "7"], "--k must lie in [0, 2], got 7"),
    ("quermass", EXP_DISC, ["--k", "-1"], "--k must lie in [0, 2], got -1"),
    ("rearrange", EXP_DISC, ["--functional", "W2"], "must lie in [0, 2), got 2"),
    ("rescale", EXP_DISC, ["--phi", "W2", "--match", "f.json"], "must lie in [0, 2), got 2"),
    ("dilate", EXP_DISC, ["--phi", "W2"], "must lie in [0, 2), got 2"),
])
def test_bad_numbers_and_flags_exit_two(workdir, capsys, command, payload, flags, message):
    """A non-finite profile parameter, a NaN stack height, an empty table, a
    quermassintegral index outside [0, n] and a W_k flag with k = n are bad
    input: exit 2 with an input error, never a NaN printed or a traceback."""
    fn = _write(workdir / "f.json", payload)
    assert main([command, fn, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and message in captured.err


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


TETRAHEDRON = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("bodies, value", [
    ([{"type": "polytope", "vertices": [[0, 0], [1e300, 0], [0, 1]]},
      {"type": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]]}], "1e+300"),
    ([{"type": "polytope", "vertices": (1e100 * np.array(TETRAHEDRON)).tolist()}] * 3, "1e+100"),
], ids=["sliver-1e300", "tetrahedra-1e100"])
def test_coordinates_beyond_the_range_exit_two(workdir, capsys, bodies, value):
    """Coordinates past ``COORD_LIMIT`` would overflow in the kernel (a 1e300
    sliver gave a negative mixed volume) or fail in Qhull (a tetrahedron
    from about 1e80): they are bad input, rejected at ``polytope``."""
    path = _write(workdir / "bodies.json", bodies)
    assert main(["mixed-volume", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.strip().endswith(value)


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
# integral from t = 0 (the power-law radius keeps it off the stretched-
# exponential closed form): four panels of nodes, so a cap of 128 cannot
# settle it
NEEDS_QUADRATURE = [
    {"type": "radial", "base": {"type": "ball", "radius": 1.0, "dim": 2},
     "profile": {"kind": "stretched", "c": 1.0, "p": 1.5}},
    {"type": "radial", "base": {"type": "polytope",
                                "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]},
     "profile": {"kind": "powerlaw", "a": 4.0, "s": 1.0}}]


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


@pytest.mark.parametrize("argv", [
    # bench/worker.py
    ["check", "all", "--dim", "3", "--seed", "1", "--trials", "2", "--out", "run"],
    # scripts/compare_check_outputs.py, with and without its tolerance flags
    ["check", "all", "--dim", "3", "--trials", "2", "--seed", "1", "--out", "run"],
    ["check", "all", "--dim", "3", "--trials", "2", "--seed", "1", "--out", "run",
     "--tol-exact", "1e-7", "--tol-quad", "1e-4"],
    # scripts/run_verification.py
    ["report", "--seed", "1", "--trials", "2", "--dim", "3", "--out", "run"],
])
def test_the_scripted_argv_forms_parse_into_the_run_config(argv):
    args = build_parser().parse_args(argv)
    config = RunConfig.from_args(args)
    assert (config.seed, config.trials, config.dimension, args.out) == (1, 2, 3, "run")
    flagged = "--tol-exact" in argv
    assert (config.tol_exact, config.tol_quad) == ((1e-7, 1e-4) if flagged else (1e-9, 1e-6))


@pytest.mark.parametrize("argv", [
    ["integral", "f.json", "--trials", "0"],      # read by no handler but check/report
    ["integral", "f.json", "--dim", "3"],
    ["duality-check", "phi.json", "--seed", "1"],
    ["oplus", "f.json", "f.json", "--panels", "8"],  # oplus never reaches quadrature
    ["oplus", "f.json", "f.json", "--emit-levels"],  # oplus prints every level
    ["oracle-compare", "f.json", "f.json", "--panels", "8"],
    ["check", "all", "--format", "csv"],          # check writes JSONL and CSV itself
    ["report", "--format", "csv"],
    ["--seed", "1", "check", "all"],              # no flag lives above the subcommand
])
def test_a_flag_its_subcommand_does_not_read_is_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_the_traced_benchmark_binds_every_name_it_traces(tmp_path):
    """``Tracer.install`` raises when a function it traces is bound nowhere in
    the package, so renaming or folding one breaks the traced benchmark."""
    root = Path(__file__).resolve().parents[1]
    script = "from tracer import Tracer\nTracer().install()\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "bench"), str(root / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


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
