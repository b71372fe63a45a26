#!/usr/bin/env python3
"""qcvx benchmark: one command, three workloads, end-to-end or traced.

    python3 bench/run.py --workload check-2d --seed 1 --seconds 30 --trace 0

Run from the root of a qcvx checkout.  Each round of the workload runs in a
fresh interpreter (``worker.py``) with one BLAS thread and one harness
worker, so no cache, ``lru_cache`` or module global carries over between
rounds.  Rounds repeat while the next one is expected to end within
``--seconds`` (at least two).  Before the first round and after each one this
process times the fixed kernel of ``reference.py``; a round's times are
rescaled by the machine speed measured around it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each metric is the
median over the run's rounds.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("check-2d", "check-3d", "calculus")
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 120

CHECK_NAMES = ("af", "af-bodies", "alexandrov-rearrangement", "bm-rearrangement",
               "gen-bm", "gen-bm-bodies", "isoperimetric-qc", "lc-alexandrov",
               "lc-isoperimetric", "moment-logconcavity", "polarity-sandwich",
               "sandwich")

# per-layer metrics: (metric name, source, unit); source is a span name,
# a tracer counter, or a derived ratio
PER_LAYER = (
    [(f"bodies.{f}.{m}", ("span", f"bodies.{f}", m), "count" if m == "calls" else "s")
     for f in ("minkowski_sum", "polytope", "volume", "contains", "contains_point", "facets")
     for m in ("calls", "self_s")]
    + [("bodies.qhull.builds", ("counter", "bodies.qhull.builds"), "count"),
       ("bodies.qhull.qj_retries", ("counter", "bodies.qhull.qj_retries"), "count")]
    + [(f"mixed_volumes.{f}.{m}", ("span", f"mixed_volumes.{f}", m),
        "count" if m == "calls" else "s")
       for f in ("mixed_volume", "minkowski_polynomial") for m in ("calls", "self_s")]
    + [("mixed_volumes.sum_volume.hit_ratio", ("ratio", "mixed_volumes.sum_volume"), "ratio")]
    + [(f"quadrature.{f}.{m}", ("span", f"quadrature.{f}", m), "count" if m == "calls" else "s")
       for f in ("integrate_height", "integrate_interval") for m in ("calls", "self_s")]
    + [("quadrature.gl_panel.calls", ("span", "quadrature.gl_panel", "calls"), "count")]
    + [(f"profiles.inv.{m}", ("span", "profiles.inv", m), "count" if m == "calls" else "s")
       for m in ("calls", "self_s")]
    + [(f"qc.{f}.{m}", ("span", f"qc.{f}", m), "count" if m == "calls" else "s")
       for f in ("oplus", "integral", "mixed_integral", "supmin_arrays", "supmin_bracket")
       for m in ("calls", "self_s")]
    + [(f"rearrange.{f}.{m}", ("span", f"rearrange.{f}", m), "count" if m == "calls" else "s")
       for f in ("ball_rearrange", "phi_rearrange") for m in ("calls", "self_s")]
    + [(f"reshape.{f}.self_s", ("span", f"reshape.{f}", "self_s"), "s")
       for f in ("rescale_to_match", "rescaled_af", "dilate_to_exponential", "phi_profile")]
    + [(f"duality.{f}.{m}", ("span", f"duality.{f}", m), "count" if m == "calls" else "s")
       for f in ("a_transform_values", "lower_level_set", "sandwich_check",
                 "polarity_sandwich_check")
       for m in ("calls", "self_s")]
    + [(f"checks.{c}.ms_per_trial", ("per_call_ms", f"checks.{c}"), "ms") for c in CHECK_NAMES]
    + [("report.to_json.self_s", ("span", "report.to_json", "self_s"), "s")]
)


def layer_value(source, layers: dict, counters: dict) -> float:
    kind = source[0]
    if kind == "counter":
        return float(counters.get(source[1], 0))
    if kind == "ratio":
        lookups = counters.get(f"{source[1]}.lookups", 0)
        return counters.get(f"{source[1]}.hits", 0) / lookups if lookups else 0.0
    span = layers.get(source[1], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    if kind == "per_call_ms":
        return 1000.0 * span["incl_s"] / span["calls"] if span["calls"] else 0.0
    return float(span[source[2]])


def run_round(workload, seed, trace, rnd, out_dir, env) -> dict:
    result = out_dir / f"round{rnd}.json"
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--round", str(rnd), "--trace", str(trace),
         "--spawn-time", repr(spawn), "--out-dir", str(out_dir), "--result", str(result)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"round {rnd} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qcvx" / "__init__.py").is_file():
        sys.stderr.write(f"no qcvx sources under {ROOT / 'src'}; run from a qcvx checkout\n")
        return 2
    # byte-compile once, so that no round pays for it inside its set-up time
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", QCVX_THREADS="1",
               PYTHONHASHSEED="0")
    out_dir = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    rounds, round_walls = [], []
    start = time.monotonic()
    reference.kernel()  # warm-up
    probe = reference.probe()
    while (len(rounds) < MIN_ROUNDS or time.monotonic() - start
           + statistics.median(round_walls) <= args.seconds):
        t0 = time.monotonic()
        try:
            r = run_round(args.workload, args.seed, args.trace, len(rounds), out_dir, env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"{exc}\n")
            return 1
        after = reference.probe()
        r["speed"] = reference.speed(probe + after)
        probe = after
        rounds.append(r)
        round_walls.append(time.monotonic() - t0)

    problems = [p for r in rounds for p in r["problems"]]
    problems += orc.check_identical([r["digest"] for r in rounds if r["digest"] is not None])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    # wall figures, and the same rescaled to the reference machine speed
    wall_ops_per_s = statistics.median((r["attempted"] - r["failed"]) / r["timed_s"]
                                       for r in rounds)
    ops_per_s = statistics.median((r["attempted"] - r["failed"]) / (r["timed_s"] * r["speed"])
                                  for r in rounds)

    env_info = dict(rounds[0]["env"], nproc=os.cpu_count(), harness_workers=1,
                    src_lines=sum(len(p.read_text(encoding="utf-8").splitlines())
                                  for p in (ROOT / "src" / "qcvx").glob("*.py")),
                    workload=args.workload, seed=args.seed, rounds=len(rounds))
    print("environment " + json.dumps(env_info, sort_keys=True))
    print("wall " + json.dumps({
        "ops_per_s": wall_ops_per_s,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "speed": statistics.median(r["speed"] for r in rounds),
        "speed_range": [min(r["speed"] for r in rounds), max(r["speed"] for r in rounds)]}))
    if rounds[0]["kinds"]:
        share = {k: statistics.median(r["kinds"][k] / r["timed_s"] for r in rounds)
                 for k in rounds[0]["kinds"]}
        print("time_share " + json.dumps(share, sort_keys=True))
    for p in problems[:20]:
        print(f"problem: {p}")

    if args.trace:
        print(f"traced ops_per_s {ops_per_s:.6g} op/s")
        metrics = {name: {"value": statistics.median(
                              layer_value(source, r["layers"], r["counters"]) for r in rounds),
                          "unit": unit}
                   for name, source, unit in PER_LAYER}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "setup_s": {"value": statistics.median(r["setup_s"] * r["speed"] for r in rounds),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
