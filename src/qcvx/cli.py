"""Single entry point: parse JSON specs, dispatch computations and checks.

Exit codes: 0 on success with every verdict in {holds, holds-with-equality},
1 when any check is violated or the program fails, 2 on malformed input only
(``InputParse``, raised at the JSON boundary by ``errors.parsing_input``).
Identical seed and configuration produce byte-identical output files (keys
sorted, no timestamps).  Each subcommand takes only the flags its handler
reads, so any other flag is an argparse error (exit 2).  Every flag applies
to its own call only: handlers read the validated ``RunConfig``, the
tolerances travel into the checks as arguments and ``--panels`` caps
quadrature inside a ``quadrature.node_cap`` block.  ``oplus`` and ``dilate``
print a banded result exactly, in the output-only ``sum`` form.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import quadrature
from .bodies import ConvexBody, body_from_json
from .checks import CHECKS, Tolerances, _validate, run_all, summarize
from .duality import GeomConvexFn, lower_level_set, polarity_sandwich_check
from .errors import ArityMismatch, DimensionMismatch, InputParse, QcvxError, parsing_input
from .grids import GridSpec
from .mixed_volumes import minkowski_polynomial, mixed_volume
from .profiles import exponential_profile
from .qc import (
    RadialQC,
    epsilon_extension,
    fn_from_json,
    fn_to_json,
    integral,
    mixed_integral,
    oplus,
    quermassintegral_fn,
    supmin_bracket,
)
from .rearrange import (
    PhiBallProfile,
    SizeFunctional,
    phi_rearrange,
    size_functional_from_json,
)
from .reshape import dilate_to_exponential, dilation_nesting_report, rescaled_bm


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    seed: int = 0
    trials: int = 100
    dimension: int = 2
    node_cap: Optional[int] = None
    tol_exact: float = 1e-9
    tol_quad: float = 1e-6

    def __post_init__(self):
        if self.trials < 1:
            raise InputParse("trials must be at least 1")
        for flag, tol in (("--tol-exact", self.tol_exact), ("--tol-quad", self.tol_quad)):
            if not (math.isfinite(tol) and tol > 0.0):
                raise InputParse(f"{flag} must be finite and positive, got {tol}")
        if self.dimension not in (1, 2, 3):
            raise InputParse("dimension must be 1, 2 or 3")
        if self.node_cap is not None and self.node_cap < 1:
            raise InputParse("--panels must be at least 1")

    @property
    def tolerances(self) -> Tolerances:
        return Tolerances(self.tol_exact, self.tol_quad)

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        """The fields whose flags the subcommand takes; the rest keep their
        defaults."""
        flags = {"seed": "seed", "trials": "trials", "dimension": "dim",
                 "node_cap": "panels", "tol_exact": "tol_exact", "tol_quad": "tol_quad"}
        return cls(**{field: getattr(args, flag) for field, flag in flags.items()
                      if hasattr(args, flag)})


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParse(f"cannot read {path}: {exc}") from exc


def _flatten(payload, prefix=""):
    if isinstance(payload, dict):
        for key in sorted(payload):
            yield from _flatten(payload[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(payload, (list, tuple)):
        for k, item in enumerate(payload):
            yield from _flatten(item, f"{prefix}{k}.")
    else:
        yield prefix.rstrip("."), payload


def _emit(payload, args) -> None:
    if args.format == "csv":
        lines = ["key,value"] + [f"{k},{v}" for k, v in _flatten(payload)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


@parsing_input()
def _functional_from_flag(flag: str, dim: int) -> SizeFunctional:
    if flag == "vol":
        return SizeFunctional.vol(dim)
    if flag in ("W1", "W2"):
        return SizeFunctional.quermass(dim, int(flag[1]))
    return size_functional_from_json(_load_json(flag))


def _grid_size(args) -> int:
    if args.grid_size < 2:
        raise InputParse("--grid-size must be at least 2")
    return args.grid_size


def _half_width(args) -> Optional[float]:
    """The --half-width flag: None when absent, else a finite positive width
    (``GridSpec.cube`` would take 0 as a lattice of coincident points)."""
    half = args.half_width
    if half is not None and not (math.isfinite(half) and half > 0.0):
        raise InputParse(f"--half-width must be finite and positive, got {half}")
    return half


# -- subcommand handlers -----------------------------------------------------

def cmd_mixed_volume(args, config: RunConfig) -> int:
    bodies = [body_from_json(obj) for obj in _load_json(args.bodies)]
    value = mixed_volume(bodies)
    poly = minkowski_polynomial(bodies)
    oracle = poly.coefficient(tuple(range(len(bodies))))
    rel = abs(value - oracle) / max(abs(value), abs(oracle), 1e-300)
    _emit({"value": value, "oracle": oracle, "rel_err": rel}, args)
    return 0


def cmd_integral(args, config: RunConfig) -> int:
    f = fn_from_json(_load_json(args.fn))
    _emit({"value": integral(f)}, args)
    return 0


def cmd_mixed_integral(args, config: RunConfig) -> int:
    fs = [fn_from_json(obj) for obj in _load_json(args.fns)]
    _emit({"value": mixed_integral(fs)}, args)
    return 0


def cmd_quermass(args, config: RunConfig) -> int:
    f = fn_from_json(_load_json(args.fn))
    if not 0 <= args.k <= f.dim:
        raise InputParse(f"--k must lie in [0, {f.dim}], got {args.k}")
    _emit({"value": quermassintegral_fn(f, args.k), "k": args.k}, args)
    return 0


def cmd_oplus(args, config: RunConfig) -> int:
    f = fn_from_json(_load_json(args.f))
    g = fn_from_json(_load_json(args.g))
    _emit(fn_to_json(oplus(f, g)), args)
    return 0


def cmd_oracle_compare(args, config: RunConfig) -> int:
    half = _half_width(args)
    f = fn_from_json(_load_json(args.f))
    g = fn_from_json(_load_json(args.g))
    if half is None:
        half = 1.2 * max(f.support_radius(), g.support_radius())
    grid = GridSpec.cube(half, f.dim, _grid_size(args))
    result = supmin_bracket(f, g, grid)
    _emit({"max_abs_error": result["max_abs_error"],
           "bound": "oracle <= exact, and reaches every level thicker than "
                    "sqrt(2) lattice steps up to a two-cell band",
           "fat_height": result["fat_height"],
           "ok": result["ok"], "grid_size": args.grid_size}, args)
    return 0 if result["ok"] else 1


def cmd_rearrange(args, config: RunConfig) -> int:
    f = fn_from_json(_load_json(args.fn))
    phi = _functional_from_flag(args.functional, f.dim)
    out = phi_rearrange(phi, f)
    _emit(fn_to_json(out), args)
    return 0


def cmd_duality_check(args, config: RunConfig) -> int:
    spec = _load_json(args.phi)
    with parsing_input():
        domain = body_from_json(spec["domain"]) if spec.get("domain") else None
        phi = GeomConvexFn.from_pieces(spec["slopes"], spec.get("offsets"), domain)
        t_values = [float(t) for t in args.t_values.split(",")]
        if not all(math.isfinite(t) and t > 0.0 for t in t_values):
            raise ValueError(f"--t-values must be finite and positive, got {args.t_values}")
        lower_level_set(phi, 1.0)  # raises unless phi is coercive
    reports = [polarity_sandwich_check(phi, t) for t in t_values]
    _emit([json.loads(r.to_json()) for r in reports], args)
    return 0 if all(r.ok for r in reports) else 1


def _write_results(results, jsonl: Path, csv_path: Path) -> list[dict]:
    """Write every report as one JSONL row and the per-check summary as CSV;
    return the summary rows."""
    with jsonl.open("w", encoding="utf-8") as fh:
        for name in sorted(results):
            for rep in results[name]:
                fh.write(rep.to_json() + "\n")
    rows = summarize(results)
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["name", "trials", "min_margin",
                                                "equality_hits", "violations"])
        writer.writeheader()
        writer.writerows(rows)
    return rows


def cmd_check(args, config: RunConfig) -> int:
    names = sorted(CHECKS) if args.name == "all" else [args.name]
    if args.name != "all":
        with parsing_input():
            _validate(args.name, config.dimension)
    out_prefix = args.out or "qcvx-check"
    jsonl, csv_path = Path(f"{out_prefix}.jsonl"), Path(f"{out_prefix}.csv")
    # a run can take minutes: a bad --out is bad input, known before it starts
    folder = jsonl.parent
    if not folder.is_dir() or not os.access(folder, os.W_OK | os.X_OK):
        raise InputParse(f"--out directory {folder} does not exist or is not writable")
    results = run_all(config.seed, config.trials, config.dimension, names, config.tolerances)
    rows = _write_results(results, jsonl, csv_path)
    violations = sum(row["violations"] for row in rows)
    for row in rows:
        sys.stdout.write(
            f"{row['name']:28s} trials={row['trials']:4d} "
            f"min_margin={row['min_margin']:+.3e} eq={row['equality_hits']:3d} "
            f"violations={row['violations']}\n")
    sys.stdout.write(f"wrote {jsonl} and {csv_path}\n")
    return 1 if violations else 0


def cmd_rescale(args, config: RunConfig) -> int:
    f = fn_from_json(_load_json(args.fn))
    g = fn_from_json(_load_json(args.match))
    phi = _functional_from_flag(args.phi, f.dim)
    ft, report = rescaled_bm(phi, f, g, normalize=args.normalize)
    _emit({"function": fn_to_json(ft), "report": json.loads(report.to_json())}, args)
    return 0 if report.ok else 1


def cmd_dilate(args, config: RunConfig) -> int:
    f = fn_from_json(_load_json(args.fn))
    phi = _functional_from_flag(args.phi, f.dim)
    ft = dilate_to_exponential(phi, f)
    report = dilation_nesting_report(ft)
    _emit({"function": fn_to_json(ft), "report": json.loads(report.to_json())}, args)
    return 0 if report.ok else 1


def cmd_report(args, config: RunConfig) -> int:
    outdir = Path(args.out or "qcvx-report")
    outdir.mkdir(parents=True, exist_ok=True)

    results = run_all(config.seed, config.trials, config.dimension,
                      tols=config.tolerances)
    rows = _write_results(results, outdir / "checks.jsonl", outdir / "summary.csv")

    # profile table: t vs Phi(level set) for exp(-|x|) under Vol and W1
    f = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))
    ts = np.geomspace(0.999, 1e-3, 64)
    with (outdir / "phi_profile.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "phi_vol", "phi_W1"])
        vol = PhiBallProfile(SizeFunctional.vol(2), f.bands()[0].parts).size(ts)
        w1 = PhiBallProfile(SizeFunctional.quermass(2, 1), f.bands()[0].parts).size(ts)
        for row in zip(ts, vol, w1):
            writer.writerow([f"{x:.12g}" for x in row])

    # epsilon-extension table: eps vs integral of f_eps
    with (outdir / "epsilon_integral.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "integral"])
        for eps in np.linspace(0.0, 2.0, 41):
            writer.writerow([f"{eps:.12g}",
                             f"{integral(epsilon_extension(f, float(eps))):.12g}"])

    violations = sum(row["violations"] for row in rows)
    sys.stdout.write(f"report written to {outdir}/ (violations: {violations})\n")
    return 1 if violations else 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcvx",
        description="level-set calculus for quasi-concave functions: mixed "
                    "integrals, rearrangements, and inequality checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, *, emits=True, panels=False, runs=False):
        """A subcommand with the flags its handler reads: --format where it
        prints through ``_emit``, --panels where it can reach quadrature,
        the seed, trial, dimension and tolerance flags where it runs checks."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", type=str, default=None)
        if emits:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if panels:
            p.add_argument("--panels", type=int, default=None,
                           help="cap on quadrature nodes (default 2^14); closed-form "
                                "integrals take none")
        if runs:
            p.add_argument("--seed", type=int, default=RunConfig.seed)
            p.add_argument("--trials", type=int, default=RunConfig.trials)
            p.add_argument("--dim", type=int, choices=(1, 2, 3), default=RunConfig.dimension)
            p.add_argument("--tol-exact", type=float, default=RunConfig.tol_exact)
            p.add_argument("--tol-quad", type=float, default=RunConfig.tol_quad)
        return p

    p = command("mixed-volume", cmd_mixed_volume, "mixed volume of a JSON list of bodies")
    p.add_argument("bodies")

    p = command("integral", cmd_integral, "Lebesgue integral of a function", panels=True)
    p.add_argument("fn")

    p = command("mixed-integral", cmd_mixed_integral, "mixed integral of n functions",
                panels=True)
    p.add_argument("fns")

    p = command("quermass", cmd_quermass, "quermassintegral W_k of a function",
                panels=True)
    p.add_argument("fn")
    p.add_argument("--k", type=int, required=True)

    p = command("oplus", cmd_oplus, "level-set sum of two functions")
    p.add_argument("f")
    p.add_argument("g")

    p = command("oracle-compare", cmd_oracle_compare,
                "level-set oplus vs brute-force sup-min lattice oracle")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--grid-size", type=int, default=41)
    p.add_argument("--half-width", type=float, default=None)

    p = command("rearrange", cmd_rearrange, "ball rearrangement under a size functional")
    p.add_argument("fn")
    p.add_argument("--functional", default="vol",
                   help="vol | W1 | W2 | path to a functional JSON")

    p = command("duality-check", cmd_duality_check, "level-set polarity sandwich checks")
    p.add_argument("phi", help="JSON with slopes/offsets/domain")
    p.add_argument("--t-values", default="0.5,1,2")

    p = command("check", cmd_check, "run a named inequality check (or 'all')",
                emits=False, panels=True, runs=True)
    p.add_argument("name")

    p = command("rescale", cmd_rescale, "rescale a function to match another's size profile",
                panels=True)
    p.add_argument("fn")
    p.add_argument("--match", required=True)
    p.add_argument("--phi", default="vol")
    p.add_argument("--normalize", choices=("phi", "integral"), default=None)

    p = command("dilate", cmd_dilate, "dilate a log-concave function to the exponential law")
    p.add_argument("fn")
    p.add_argument("--phi", default="vol")

    command("report", cmd_report, "full verification bundle: checks + plot tables",
            emits=False, panels=True, runs=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        with quadrature.node_cap(config.node_cap or quadrature.DEFAULT_MAX_NODES):
            return args.handler(args, config)
    except (InputParse, ArityMismatch, DimensionMismatch) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except QcvxError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception:  # bad input is InputParse by now, so this is a fault of qcvx
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
