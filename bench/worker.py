"""One measured round of a workload, in a fresh interpreter.

Started by ``run.py`` with ``--spawn-time`` set to the monotonic clock just
before the interpreter was launched, so that ``setup_s`` covers interpreter
start, importing qcvx and building the inputs.  The timed phase follows; the
outputs are checked after it, untimed.  The round's figures go to the JSON
file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# `qcvx check all` at a fixed harness seed and trial count: the trial set is
# the same in every run, because the cost of one 3-D harness trial set varies
# by 32 % (coefficient of variation) across harness seeds, more than a run
# can average away (see README).
CHECK_SEED = 7
CHECK_TRIALS = {"check-2d": (2, 4), "check-3d": (3, 1)}  # workload -> (dim, trials)


def blas_threads():
    """Thread count reported by the OpenBLAS loaded into this process."""
    try:
        import numpy  # noqa: F401  (loads the bundled OpenBLAS)

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except (OSError, ImportError):
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas.get("version"),
            "blas_threads": blas_threads()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_check(workload: str, out_dir: Path, rnd: int) -> dict:
    from qcvx.checks import CHECKS, MIN_DIM
    from qcvx.cli import main

    import oracles as orc

    dim, trials = CHECK_TRIALS[workload]
    prefix = out_dir / f"round{rnd}"
    argv = ["check", "all", "--dim", str(dim), "--seed", str(CHECK_SEED),
            "--trials", str(trials), "--out", str(prefix)]
    names = [n for n in CHECKS if dim >= MIN_DIM.get(n, 1)]
    setup_done = time.monotonic()

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    timed = time.perf_counter() - t0

    jsonl = Path(f"{prefix}.jsonl").read_bytes()
    csv_bytes = Path(f"{prefix}.csv").read_bytes()
    rows = orc.read_rows(jsonl.decode("utf-8"))
    problems = [] if code == 0 else [f"qcvx check exited {code}"]
    problems += orc.check_rows(rows, names, trials)
    problems += orc.check_summary(rows, csv_bytes.decode("utf-8"))
    attempted = len(names) * trials
    bad_rows = sum(1 for r in rows if r.get("verdict") == "violated")
    failed = min(attempted, bad_rows + max(0, attempted - len(rows)))
    return {"setup_done": setup_done, "timed_s": timed, "attempted": attempted,
            "failed": failed, "problems": problems, "kinds": {},
            "digest": orc.digest(jsonl, csv_bytes)}


def run_calculus(seed: int, tracer) -> dict:
    import calculus

    ops = calculus.build_ops(seed)
    setup_done = time.monotonic()

    clock = time.perf_counter
    timed = 0.0
    kinds: dict[str, float] = {}
    results = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = k
        t0 = clock()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an operation's failure is a counted outcome
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        timed += dt
        kinds[op.kind] = kinds.get(op.kind, 0.0) + dt
        results.append((op, out, err))

    problems, failed = [], 0
    for op, out, err in results:
        op_problems = [err] if err else op.check(out)
        if op_problems:
            failed += 1
            if op.name not in calculus.KNOWN_FAULTS:
                problems += [f"{op.name}: {p}" for p in op_problems]
    return {"setup_done": setup_done, "timed_s": timed, "attempted": len(ops),
            "failed": failed, "problems": problems, "kinds": kinds, "digest": None}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import qcvx  # noqa: F401
    import qcvx.cli  # noqa: F401

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_dir = Path(args.out_dir)
    try:
        if args.workload == "calculus":
            res = run_calculus(args.seed, tracer)
        else:
            res = run_check(args.workload, out_dir, args.round)
    except Exception:
        res = {"setup_done": time.monotonic(), "timed_s": 0.0, "attempted": 0,
               "failed": 0, "kinds": {}, "digest": None,
               "problems": ["round aborted:\n" + traceback.format_exc()]}
    res["setup_s"] = res.pop("setup_done") - args.spawn_time
    res["peak_rss_mb"] = peak_rss_mb()
    res["env"] = environment()
    if tracer is not None:
        res["layers"] = tracer.layer_stats()
        res["counters"] = dict(tracer.counters)
        tracer.save(str(out_dir / f"spans-round{args.round}.npz"))
    Path(args.result).write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    # at most one BLAS thread is set by run.py; refuse to measure otherwise
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.stderr.write("worker.py is started by run.py\n")
        sys.exit(2)
    sys.exit(main())
