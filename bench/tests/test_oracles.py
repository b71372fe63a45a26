"""Self-test of the benchmark's checks: they pass the program as it is and
fail a run whose results are wrong.

    python3 -m pytest bench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calculus  # noqa: E402
import oracles as orc  # noqa: E402


@pytest.fixture(scope="module")
def calculus_round():
    ops = calculus.build_ops(seed=3, sets=1)
    results = []
    for op in ops:
        try:
            results.append((op, op.run(), None))
        except Exception as exc:  # a known fault may raise
            results.append((op, None, exc))
    return results


@pytest.fixture(scope="module")
def check_output(tmp_path_factory):
    from qcvx.checks import CHECKS
    from qcvx.cli import main

    outs = []
    for k in range(2):
        prefix = tmp_path_factory.mktemp(f"run{k}") / "out"
        assert main(["check", "all", "--dim", "2", "--seed", "7", "--trials", "1",
                     "--out", str(prefix)]) == 0
        outs.append((Path(f"{prefix}.jsonl").read_bytes(), Path(f"{prefix}.csv").read_bytes()))
    return sorted(CHECKS), outs


def test_calculus_checks_pass_todays_program(calculus_round):
    for op, out, err in calculus_round:
        problems = [repr(err)] if err is not None else op.check(out)
        if op.name in calculus.KNOWN_FAULTS:
            assert problems, f"{op.name} no longer fails; drop it from KNOWN_FAULTS"
        else:
            assert problems == [], (op.name, problems)


def test_closed_form_off_by_1e4_fails(calculus_round):
    scalar = [(op, out) for op, out, err in calculus_round
              if err is None and isinstance(out, float) and op.kind != "rescaled"
              and op.name not in calculus.KNOWN_FAULTS]
    assert len(scalar) >= 10
    for op, out in scalar:
        assert op.check(out * (1.0 + 1e-4)), op.name
        assert op.check(out + 1e-4 * max(abs(out), 1.0)), op.name


def test_compute_twice_paths_catch_wrong_values(calculus_round):
    byname = {op.name: (op, out) for op, out, err in calculus_round}
    op, (value, oracle) = byname["mixed-volume-3d"]
    assert op.check((value * (1 + 1e-6), oracle))
    assert op.check((value, oracle * (1 + 1e-6)))
    op, out = byname["supmin-bracket-indicators"]
    bad = dict(out, field=type(out["field"])(out["field"].grid, 1.0 - out["field"].values))
    assert op.check(bad)
    assert op.check(dict(out, ok=False))
    assert op.check(dict(out, fat_height=0.0))
    op, (levels, section) = byname["dilation-parabolic-cap"]
    assert op.check((levels, np.exp(-(-np.log(section)) ** 1.05)))  # exponent 0.84
    assert op.check(([v * 1.001 for v in levels], section))
    op, margin = byname["rescaled-bm-2d"]
    assert op.check(-1e-6)


def test_check_rows_pass_todays_program(check_output):
    names, outs = check_output
    for jsonl, csv_bytes in outs:
        rows = orc.read_rows(jsonl.decode())
        assert orc.check_rows(rows, names, 1) == []
        assert orc.check_summary(rows, csv_bytes.decode()) == []
    assert orc.check_identical([orc.digest(*o) for o in outs]) == []


def test_verdict_contradicting_margin_fails(check_output):
    names, outs = check_output
    rows = orc.read_rows(outs[0][0].decode())
    flipped = [dict(r) for r in rows]
    flipped[0]["verdict"] = "violated"
    assert orc.check_rows(flipped, names, 1)
    worse = [dict(r) for r in rows]
    worse[1]["margin"] = -10.0 * worse[1]["tol"]
    assert orc.check_rows(worse, names, 1)
    assert orc.check_rows(rows[1:], names, 1)  # a missing row


def test_summary_disagreeing_with_rows_fails(check_output):
    names, outs = check_output
    jsonl, csv_bytes = outs[0]
    rows = orc.read_rows(jsonl.decode())
    lines = csv_bytes.decode().splitlines()
    name, trials, min_margin, eq, viol = lines[1].split(",")
    lines[1] = ",".join([name, trials, repr(float(min_margin) + 1e-12), eq, viol])
    assert orc.check_summary(rows, "\n".join(lines) + "\n")


def test_jsonl_differing_between_same_seed_runs_fails(check_output):
    _, outs = check_output
    jsonl, csv_bytes = outs[0]
    changed = jsonl.replace(b'"margin": ', b'"margin":  ', 1)
    assert changed != jsonl
    assert orc.check_identical([orc.digest(jsonl, csv_bytes), orc.digest(changed, csv_bytes)])


def test_polarization_oracle_on_known_bodies():
    square = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    assert orc.mixed_volume([square, 2 * square]) == pytest.approx(2.0, rel=1e-12)
    cube = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
    assert orc.mixed_volume([cube, cube, cube]) == pytest.approx(1.0, rel=1e-12)
    assert orc.perimeter(square) == pytest.approx(4.0)
    assert orc.close(math.pi, math.pi, 1e-9) == []


def test_self_time_subtracts_child_spans():
    from array import array

    from tracer import Tracer

    tr = Tracer()
    a, b = tr._intern("a"), tr._intern("b")
    tr.name_id, tr.parent = array("i", [a, b, b]), array("i", [-1, 0, 0])
    tr.start, tr.end = array("d", [0.0, 2.0, 6.0]), array("d", [10.0, 5.0, 7.0])
    tr.op_id = array("i", [0, 0, 0])
    stats = tr.layer_stats()
    assert stats["a"] == {"calls": 1, "incl_s": 10.0, "self_s": 6.0}
    assert stats["b"] == {"calls": 2, "incl_s": 4.0, "self_s": 4.0}
