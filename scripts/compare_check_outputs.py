#!/usr/bin/env python3
"""Run `qcvx check all` on the standard seed set, or compare two such runs.

    compare_check_outputs.py run OUTDIR
        Writes one JSONL and one CSV file per run into OUTDIR:
        `--dim 3 --trials 1` at seeds 7, 1, 2, 3 and 11, `--dim 3 --trials 3`
        at seed 7 (checks at trials after the first share draws in space
        too), `--dim 2 --trials 2` at seeds 7, 1 and 2, once more at seed 7
        with `--tol-exact 1e-7 --tol-quad 1e-4`, and `--dim 1 --trials 3`
        at seed 7, whose `sandwich` trials draw 3, 3 and 2 functions, so
        the pairwise fold of the exact sums is covered.  It also writes
        `dilation.json`, the worked example of `scripts/dilation_example.py`
        in full-precision floats: the vertices of the `ParabolicCapQC(64)`
        level sets at that script's heights and the volume-law dilation's
        values on the section y = 0, plus a `sum_section` row: the values
        of one seeded 2-D and one seeded 3-D sum (oplus of two exponential
        radial functions over different polytopes) at 25 seeded points
        each, the heights that `SumQC.evaluate_many` searches for, and a
        `stack_values` row: `LevelStack.evaluate_many` on a seeded 2-D
        stack of 3 polygons at 25 seeded points, and on the stack
        {1: [-1,1]^2, 0.5: [-100,100]^2} and the one-level stack over a
        disc of radius 100 at (100 + 5e-8, 0), just outside both large
        bodies but within their membership slack.  And it writes
        `oracle.json`: the lattice sup-min bracket
        (`qc.supmin_bracket`) on one seeded pair of polygon stacks and one
        seeded pair of polygon indicators, with its `max_abs_error`,
        `fat_height` and `ok` and the full-precision lattice (`field`) and
        exact (`exact`) values.  And `reports.json`:
        the full `to_json` record of the verdict sites `check all` does not
        reach, on fixed seeded inputs (`rescaled_bm`, `rescaled_af`,
        `dilated_checks`, `dilated_af`, `dilation_nesting_report` and
        `polarity_sandwich_check`).  And `kernel.json`: the 3-D body kernel
        on seeded polytopes, their pairwise Minkowski sums and homothets,
        one record per body with its full-precision `volume`, facet-measure
        total (`surface`), W1 and W2, one record with V(K, L, M) of the
        first three polytopes, and one with the full-precision coefficients
        of their `minkowski_polynomial` grid fit, keyed by multiset ("0,1,2"
        is V(K, L, M)), then one record per seeded planar set that is not
        in strictly convex position (interior points, duplicates, joints
        turning near the flat-joint threshold either way, points collinear
        with the mean) with its full-precision vertices, affine rank and
        area.  And `quadrature.json`: full-precision height integrals,
        by quadrature or in closed form, which no check run reaches
        (`integral`, `mixed_integral`, `quermassintegral_fn` and `odot` on
        seeded radial, summed and banded functions in 2-D and 3-D, `moment`
        and `height_integral` of a table and a rescaled profile, a
        generalized `weight_constant`, and a run inside `node_cap(256)`),
        with the integral of `sdr` and the W1 of `phi_rearrange(W1, .)` of
        the summed and banded functions and of the stack
        {1: [-1,1]^2, 0.5: [-2,2]^2} plus exp(-|x|) over the unit disc;
        then the seeded 2-D sum rescaled to match exp(-|x|) over the unit
        disc (its `match_residual` and integral), the integral of
        `odot(1.7, sdr(.))` of the 2-D and 3-D sums and of `sdr` of that
        stack extended by 0.5, and the `is_log_concave` flags of the
        table profiles [0, 1, 2] -> [1, 0.5, 0], (1 + r)^-3 and exp(-r),
        the last two at 17 knots on [0, 8]; then the closed forms of
        stretched-exponential bands: the mixed integral of [-1, 1]^2 and
        exp(-|x|^p) over the unit disc at p = 2 and 3, the integral of that
        square plus a Gaussian over the disc, those of seeded sums of two
        exponential radial functions over different polytopes in 2-D and
        3-D, and a `weight_constant` of two stretched weights.
        The qcvx package is the one Python imports, so set
        PYTHONPATH to pick a checkout; when qcvx does not import, it writes
        nothing and exits 2 with a message that names PYTHONPATH.

    compare_check_outputs.py diff OLD NEW
        Reports which files are byte-identical and, on the same line,
        whether every verdict is unchanged (the JSONL `verdict` field, the
        CSV `equality_hits` and `violations` tallies, a bracket's `ok`).
        `dilation.json`, `oracle.json`, `reports.json`, `kernel.json` and
        `quadrature.json` are compared like the JSONL, one row per level
        set, section, bracket, report, body or integral record.  For each
        row that differs
        it lists the check, the trial, the field and the old and new values
        of every field whose relative change exceeds 1e-12 (strings and
        other non-numbers when they differ at all); numeric lists are
        compared element by element, so `details.lhs[3]` names one entry.
        A levelwise row (one with `details.lhs` and `details.rhs`) lists
        the per-height entries that moved, never its `left`/`right`: those
        are the entries at the worst height, which can jump to another
        height when two heights tie at round-off.
        A listed move whose old and new values are both below 1e-12 in
        magnitude is tagged `(round-off)`, and each differing file ends with
        its count of such moves, then with its count of unlisted numeric
        moves (values that differ by at most 1e-12 relative) and the
        largest relative one among them, with its row and field, so a file
        that differs only below the threshold still says how far it moved.
        Neither line forgives anything: every move above the threshold is
        still listed and the exit code does not depend on them.
        The last line sums up the run for the exact/consistent-rule gate:
        how many files differ, how many verdicts changed and how many
        listed moves are not tagged `(round-off)`.
        Exits 0 when every file is byte-identical and 1 otherwise.

Typical use, parent commit against a working tree:

    PYTHONPATH=parent/src python3 scripts/compare_check_outputs.py run out/old
    PYTHONPATH=src python3 scripts/compare_check_outputs.py run out/new
    python3 scripts/compare_check_outputs.py diff out/old out/new
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import subprocess
import sys
from pathlib import Path

STANDARD_RUNS = [(3, 1, seed, "") for seed in (7, 1, 2, 3, 11)] + \
                [(3, 3, 7, "")] + \
                [(2, 2, seed, "") for seed in (7, 1, 2)] + \
                [(2, 2, 7, "-tol")] + \
                [(1, 3, 7, "")]
TOL_FLAGS = ["--tol-exact", "1e-7", "--tol-quad", "1e-4"]
REL_TOL = 1e-12
ROUND_OFF = 1e-12
VERDICT_FIELDS = ("verdict", "equality_hits", "violations", "ok")


def run(outdir: Path) -> int:
    try:
        import qcvx  # noqa: F401  (the checkout every run below measures)
    except ImportError as exc:
        print(f"error: cannot import qcvx ({exc}); set PYTHONPATH to the src "
              "directory of the checkout to run, e.g. PYTHONPATH=src; nothing "
              "was written", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for dim, trials, seed, flagged in STANDARD_RUNS:
        prefix = outdir / f"check-d{dim}-t{trials}-s{seed}{flagged}"
        cmd = [sys.executable, "-m", "qcvx.cli", "check", "all", "--dim", str(dim),
               "--trials", str(trials), "--seed", str(seed), "--out", str(prefix)]
        cmd += TOL_FLAGS if flagged else []
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        print(f"{prefix.name}: exit {code}")
        status = max(status, code)
    (outdir / "dilation.json").write_text(json.dumps(_dilation_records()) + "\n",
                                          encoding="utf-8")
    print("dilation.json: written")
    (outdir / "oracle.json").write_text(json.dumps(_oracle_records()) + "\n",
                                        encoding="utf-8")
    print("oracle.json: written")
    (outdir / "reports.json").write_text(json.dumps(_report_records()) + "\n",
                                         encoding="utf-8")
    print("reports.json: written")
    (outdir / "kernel.json").write_text(json.dumps(_kernel_records()) + "\n",
                                        encoding="utf-8")
    print("kernel.json: written")
    (outdir / "quadrature.json").write_text(json.dumps(_quadrature_records()) + "\n",
                                            encoding="utf-8")
    print("quadrature.json: written")
    return status


def _dilation_records() -> list[dict]:
    """The dilation worked example at the heights and section points of
    `scripts/dilation_example.py`, one record per level set plus the section,
    and the values of two seeded sums at seeded points."""
    # imported here so that `diff` runs without qcvx on the path
    import numpy as np

    from qcvx.bodies import ConvexBody
    from qcvx.generators import random_polytope, random_stack
    from qcvx.profiles import exponential_profile
    from qcvx.qc import LevelStack, RadialQC, oplus
    from qcvx.rearrange import SizeFunctional
    from qcvx.reshape import ParabolicCapQC, dilate_to_exponential

    f = ParabolicCapQC(64)
    records = [{"name": "level_set", "t": float(t),
                "vertices": f.level_set(float(t)).vertices.tolist()}
               for t in np.geomspace(0.9, 1e-3, 10)]
    xs = np.geomspace(0.3, 6.0, 25)
    values = dilate_to_exponential(SizeFunctional.vol(2), f).evaluate_many(
        np.stack([xs, np.zeros_like(xs)], axis=1))
    records.append({"name": "section", "x": xs.tolist(), "values": values.tolist()})
    rng = np.random.default_rng(1412)
    sums = {"name": "sum_section"}
    for dim in (2, 3):
        f = oplus(*(RadialQC(random_polytope(rng, dim, 8, origin_interior=True),
                             exponential_profile(1.0)) for _ in range(2)))
        pts = rng.normal(0.0, 1.5, (25, dim))
        sums[f"points_{dim}d"] = pts.tolist()
        sums[f"values_{dim}d"] = f.evaluate_many(pts).tolist()
    records.append(sums)
    rng = np.random.default_rng(1415)
    stack = random_stack(rng, 2, 3)
    pts = rng.normal(0.0, 0.3 * stack.support_radius(), (25, 2))
    edge = np.array([[100.0 + 5e-8, 0.0]])
    wide = [LevelStack([(1.0, ConvexBody.box([-1, -1], [1, 1])),
                        (0.5, ConvexBody.box([-100, -100], [100, 100]))]),
            LevelStack([(1.0, ConvexBody.ball(100.0, 2))])]
    records.append({"name": "stack_values", "points": pts.tolist(),
                    "values": stack.evaluate_many(pts).tolist(),
                    "edge_point": edge[0].tolist(),
                    "edge_values": [float(g.evaluate_many(edge)[0]) for g in wide]})
    return records


def _oracle_records() -> list[dict]:
    """`supmin_bracket` on a seeded pair of polygon stacks and a seeded pair
    of polygon indicators, on 41-point lattices covering both supports."""
    import numpy as np

    from qcvx.generators import random_polytope, random_stack
    from qcvx.grids import GridSpec
    from qcvx.qc import indicator, supmin_bracket

    rng = np.random.default_rng(2012)
    pairs = [("stacks", random_stack(rng, 2, 3), random_stack(rng, 2, 3)),
             ("indicators",
              indicator(random_polytope(rng, 2, 7, origin_interior=True)),
              indicator(random_polytope(rng, 2, 7, origin_interior=True)))]
    records = []
    for name, f, g in pairs:
        reach = max(f.support_radius(), g.support_radius())
        out = supmin_bracket(f, g, GridSpec.cube(1.1 * reach, 2, 41))
        records.append({"name": name, "max_abs_error": out["max_abs_error"],
                        "fat_height": out["fat_height"], "ok": out["ok"],
                        "field": out["field"].values.tolist(),
                        "exact": out["exact"].tolist()})
    return records


def _report_records() -> list[dict]:
    """The reshape and polarity reports on fixed seeded inputs, as the
    records their `to_json` writes."""
    from qcvx.bodies import ConvexBody
    from qcvx.duality import GeomConvexFn, polarity_sandwich_check
    from qcvx.generators import conditioned_geom_convex_fn, random_radial, rng_for
    from qcvx.profiles import GaussianProfile, exponential_profile
    from qcvx.qc import RadialQC, indicator
    from qcvx.rearrange import SizeFunctional
    from qcvx.reshape import (ParabolicCapQC, dilate_to_exponential, dilated_af,
                              dilated_checks, dilation_nesting_report,
                              rescaled_af, rescaled_bm)

    vol2 = SizeFunctional.vol(2)
    exp2 = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))
    gauss2 = RadialQC(ConvexBody.ball(1.0, 2), GaussianProfile(1.0))
    diamond = ConvexBody.polytope([[1, 0], [-1, 0], [0, 1], [0, -1]])
    reports = []
    for seed in range(2):
        rng = rng_for(100, seed)
        f, g = (random_radial(rng, 2, log_concave=False) for _ in range(2))
        reports.append(rescaled_bm(vol2, f, g)[1])
    rng = rng_for(101, 0)
    reports.append(rescaled_af([], [random_radial(rng, 2, log_concave=True)
                                    for _ in range(2)]))
    reports.append(dilated_checks(vol2, exp2, exp2))
    reports.append(dilated_checks(vol2, gauss2, RadialQC(diamond, exponential_profile(1.0))))
    reports.append(dilated_af([ConvexBody.box([-0.5] * 3, [0.5] * 3)],
                              [RadialQC(ConvexBody.ball(1.0, 3), GaussianProfile(1.0)),
                               RadialQC(ConvexBody.box([-1] * 3, [1] * 3),
                                        exponential_profile(1.0))]))
    reports.append(dilation_nesting_report(
        dilate_to_exponential(vol2, indicator(ConvexBody.box([-1, -1], [1, 1])))))
    reports.append(dilation_nesting_report(dilate_to_exponential(vol2, ParabolicCapQC(64))))
    phis = [GeomConvexFn.abs_value()] + \
        [conditioned_geom_convex_fn(rng_for(910, trial), 2) for trial in range(2)]
    reports += [polarity_sandwich_check(phi, t) for phi in phis for t in (0.5, 1.0, 2.0)]
    return [json.loads(rep.to_json()) for rep in reports]


def _kernel_records() -> list[dict]:
    """Volume, facet-measure total, W1 and W2 of seeded 3-D polytopes, their
    pairwise sums and homothets, and V(K, L, M) and the Minkowski-polynomial
    fit of the first three."""
    import numpy as np

    from qcvx.bodies import facet_measure, minkowski_sum, scale, volume
    from qcvx.generators import random_polytope
    from qcvx.mixed_volumes import minkowski_polynomial, mixed_volume, quermassintegral_body

    rng = np.random.default_rng(1210)
    polys = [random_polytope(rng, 3, npts) for npts in (5, 8, 13, 21)]
    named = [(f"polytope {i}", k) for i, k in enumerate(polys)]
    named += [(f"sum {i}+{j}", minkowski_sum(polys[i], polys[j]))
              for i in range(len(polys)) for j in range(i, len(polys))]
    named += [(f"homothet {lam}*{i}", scale(k, lam))
              for i, k in enumerate(polys) for lam in (0.25, 3.0)]
    records = [{"name": name, "volume": volume(k),
                "surface": float(facet_measure(k)[1].sum()),
                "W1": quermassintegral_body(k, 1), "W2": quermassintegral_body(k, 2)}
               for name, k in named]
    records.append({"name": "V(K,L,M)", "value": mixed_volume(polys[:3])})
    fit = minkowski_polynomial(polys[:3]).coefficients
    records.append({"name": "minkowski_polynomial",
                    "coefficients": {",".join(map(str, ms)): c for ms, c in fit.items()}})
    return records + _planar_records()


def _quadrature_records() -> list[dict]:
    """Integrals that go through the adaptive quadrature, which no check run
    reaches: `integral`, `mixed_integral`, `quermassintegral_fn` and the
    integral of an `odot` on a seeded radial function, a sum of two and a
    stack plus a radial function, in 2-D and 3-D; `moment` and
    `height_integral` of a table and a rescaled profile; a generalized
    `weight_constant`; and the 2-D functions and the profiles once more
    inside `node_cap(256)`, with the error of a call that does not settle
    there.  The sums and the stack plus a radial function over the disc
    also give the integral of their symmetric decreasing rearrangement and
    the W1 of their W1-rearrangement, which keep those of the function.
    Last come the paths no other record reaches: the 2-D sum matched to
    exp(-|x|) over the unit disc (`rescale_to_match`, whose heights come
    from a root search) with its `match_residual` and integral, the
    integral of 1.7 . sdr of the 2-D and 3-D sums (a scaled rearrangement
    profile), that of sdr of the stack extended by 0.5 (bands of constant
    factors alone) and the `is_log_concave` flags of three tables.  And the
    closed forms of stretched-exponential bands: the mixed integral of the
    square [-1, 1]^2 and exp(-|x|^p) over the unit disc at p = 2 and 3, the
    integral of the square plus a Gaussian over that disc, the integrals of
    two seeded sums of exponential radial functions over different
    polytopes (2-D and 3-D), and a `weight_constant` of two stretched
    weights of shapes 1.6 and 3."""
    import numpy as np

    from qcvx.bodies import ConvexBody
    from qcvx.generators import random_polytope, random_stack
    from qcvx.profiles import (GaussianProfile, PowerLawProfile, RescaledProfile,
                               StretchedExponentialProfile, TableProfile, exponential_profile)
    from qcvx.qc import (LevelStack, RadialQC, epsilon_extension, indicator, integral,
                         mixed_integral, odot, oplus, quermassintegral_fn)
    from qcvx.quadrature import node_cap
    from qcvx.rearrange import SizeFunctional, phi_rearrange, sdr
    from qcvx.reshape import match_residual, rescale_to_match

    def functions(dim):
        rng = np.random.default_rng(1428 + dim)
        radial = RadialQC(random_polytope(rng, dim, 8, origin_interior=True),
                          StretchedExponentialProfile(float(rng.uniform(0.5, 2.0)), 1.6))
        other = RadialQC(random_polytope(rng, dim, 6, origin_interior=True),
                         PowerLawProfile(float(rng.uniform(dim + 2.0, 7.0)), 0.8))
        return {"radial": radial, "summed": oplus(radial, other),
                "banded": oplus(random_stack(rng, dim, 3), other)}

    def outcome(call):
        try:
            return call()
        except Exception as exc:  # a call that fails is recorded, not fatal
            return f"{type(exc).__name__}: {exc}"

    def rearranged(f):
        w1 = SizeFunctional.quermass(f.dim, 1)
        return {"sdr integral": outcome(lambda: integral(sdr(f))),
                "W1 rearranged": outcome(lambda: w1.eval_fn(phi_rearrange(w1, f)))}

    def function_records(dim, tag=""):
        records = []
        for name in ("radial", "summed", "banded"):
            rec = {"name": f"{name} {dim}d{tag}",
                   "integral": outcome(lambda: integral(functions(dim)[name])),
                   "odot": outcome(lambda: integral(odot(1.7, functions(dim)[name])))}
            for k in range(1, dim + 1):
                rec[f"W{k}"] = outcome(lambda: quermassintegral_fn(functions(dim)[name], k))
            if name != "radial":
                rec.update(rearranged(functions(dim)[name]))
            records.append(rec)
        fs = functions(dim)
        records.append({"name": f"mixed {dim}d{tag}", "value": outcome(
            lambda: mixed_integral([fs["banded"], fs["summed"], fs["radial"]][:dim]))})
        return records

    def profile_records(tag=""):
        profiles = {"table": TableProfile([0.0, 0.4, 1.1, 2.0, 3.5],
                                          [1.0, 0.85, 0.4, 0.15, 0.0]),
                    "rescaled": RescaledProfile(GaussianProfile(1.3), np.sqrt, np.square)}
        return [{"name": f"profile {name}{tag}",
                 **{f"moment {p}": outcome(lambda: prof.moment(p)) for p in (0.5, 2.0)},
                 **{f"height_integral {p}": outcome(lambda: prof.height_integral(p))
                    for p in (1.5, 3.0)}}
                for name, prof in profiles.items()]

    records = function_records(2) + function_records(3) + profile_records()
    stack = LevelStack([(1.0, ConvexBody.box([-1.0] * 2, [1.0] * 2)),
                        (0.5, ConvexBody.box([-2.0] * 2, [2.0] * 2))])
    pair = oplus(stack, RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0)))
    records.append({"name": "stack+disc 2d", "integral": outcome(lambda: integral(pair)),
                    "W1": outcome(lambda: quermassintegral_fn(pair, 1)), **rearranged(pair)})
    weights = (RadialQC(ConvexBody.ball(1.0, 3), GaussianProfile(0.9)),
               RadialQC(ConvexBody.box([-1] * 3, [1] * 3), exponential_profile(1.4)))
    records.append({"name": "weight_constant", "value": outcome(
        lambda: SizeFunctional(dim=3, degree=1, weights=weights).weight_constant)})
    with node_cap(256):
        records += function_records(2, " node_cap 256") + profile_records(" node_cap 256")
    vol2 = SizeFunctional.vol(2)
    disc = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))
    matched = outcome(lambda: rescale_to_match(vol2, functions(2)["summed"], disc))
    records.append({"name": "summed 2d matched to exp disc",
                    "match_residual": outcome(lambda: match_residual(vol2, matched, disc)),
                    "integral": outcome(lambda: integral(matched))})
    records += [{"name": f"1.7 . sdr of summed {dim}d", "integral": outcome(
        lambda: integral(odot(1.7, sdr(functions(dim)["summed"]))))} for dim in (2, 3)]
    records.append({"name": "stack extended by 0.5 2d", "sdr integral": outcome(
        lambda: integral(sdr(epsilon_extension(stack, 0.5))))})
    r = np.linspace(0.0, 8.0, 17)
    tables = {"linear": TableProfile([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]),
              "(1 + r)^-3": TableProfile(r, (1.0 + r) ** -3.0),
              "exp(-r) at 17 knots": TableProfile(r, np.exp(-r))}
    records.append({"name": "table is_log_concave",
                    **{name: outcome(prof.is_log_concave) for name, prof in tables.items()}})
    square = indicator(ConvexBody.box([-1.0] * 2, [1.0] * 2))
    records.append({"name": "square and stretched disc 2d", **{
        f"mixed p={p}": outcome(lambda: mixed_integral(
            [square, RadialQC(ConvexBody.ball(1.0, 2), StretchedExponentialProfile(1.0, p))]))
        for p in (2.0, 3.0)}, "square plus Gaussian disc integral": outcome(lambda: integral(
            oplus(square, RadialQC(ConvexBody.ball(1.0, 2), GaussianProfile(1.0)))))})
    rng = np.random.default_rng(1431)
    for dim in (2, 3):
        exps = [RadialQC(random_polytope(rng, dim, 8, origin_interior=True),
                         exponential_profile(float(rng.uniform(0.5, 2.0)))) for _ in range(2)]
        records.append({"name": f"exp plus exp {dim}d",
                        "integral": outcome(lambda: integral(oplus(*exps)))})
    weights = (RadialQC(ConvexBody.ball(1.0, 3), StretchedExponentialProfile(1.2, 1.6)),
               RadialQC(ConvexBody.box([-1] * 3, [1] * 3), StretchedExponentialProfile(0.7, 3.0)))
    records.append({"name": "stretched weight_constant", "value": outcome(
        lambda: SizeFunctional(dim=3, degree=1, weights=weights).weight_constant)})
    return records


PLANAR_KINDS = ("interior", "duplicates", "joint-out", "joint-in", "mean-collinear")


def _planar_records() -> list[dict]:
    """Vertices, affine rank and area of seeded planar sets that are not in
    strictly convex position: a convex polygon at a scale from 1e-3 to 1e6,
    some far from the origin, plus interior points, exact and near
    duplicates, a joint turning 0.5, 1 or 2 times dist * e out or in (the
    flat-joint rule of ``bodies._resolution``), or points on the rays from
    the mean through vertices; rows permuted."""
    import numpy as np

    from qcvx.bodies import ConvexBody, _resolution, volume

    rng = np.random.default_rng(1226)
    records = []
    for kind in PLANAR_KINDS:
        for k in range(6):
            m = int(rng.integers(3, 10))
            ang = 2.0 * np.pi * (np.arange(m) + rng.uniform(0.1, 0.9, m)) / m
            size = 10.0 ** rng.uniform(-3, 6)
            pts = size * np.stack([np.cos(ang), np.sin(ang)], axis=1) * rng.uniform(0.3, 1.5, 2)
            pts = pts + size * rng.uniform(-1, 1, 2) * (1e3 if k % 3 == 2 else float(k % 3))
            dist, e = _resolution(pts)
            at = rng.integers(0, m, 3)
            if kind == "interior":
                pts = np.vstack([pts, rng.dirichlet(np.ones(m), 3) @ pts])
            elif kind == "duplicates":
                near = rng.uniform(-1, 1, (3, 2)) * dist * np.array([[0.0], [0.5], [0.99]])
                pts = np.vstack([pts, pts[at] + near])
            elif kind == "mean-collinear":
                c = pts.mean(axis=0)
                t = rng.uniform(0.05, 0.95, (3, 1))
                pts = np.vstack([pts, c + t * (pts[at] - c), c - t * (pts[at] - c)])
            else:
                a, b = pts[at[0]], pts[(at[0] + 1) % m]
                normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
                turn = (0.5, 1.0, 2.0)[k % 3] * (1.0 if kind == "joint-out" else -1.0)
                pts = np.vstack([pts, 0.5 * (a + b) + turn * dist * e / np.linalg.norm(b - a) * normal])
            body = ConvexBody.polytope(pts[rng.permutation(len(pts))])
            records.append({"name": f"planar {kind} {k}", "vertices": body.vertices.tolist(),
                            "rank": body.affine_rank(), "area": volume(body)})
    return records


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{k}]")
    else:
        yield prefix, value


def _as_number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _relative_change(old, new):
    """|old - new| / max(|old|, |new|) for two numbers: 0 when they are
    equal (or both NaN), inf when they differ and one is not finite, and
    None when either is not a number."""
    a, b = _as_number(old), _as_number(new)
    if a is None or b is None:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _rows(path: Path) -> list[dict]:
    """Rows keyed by (check name, trial index within that check)."""
    if path.suffix == ".jsonl":
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
                   if line.strip()]
    elif path.suffix == ".json":
        records = json.loads(path.read_text(encoding="utf-8"))
    else:
        with path.open(encoding="utf-8", newline="") as fh:
            records = list(csv.DictReader(fh))
    seen: dict[str, int] = {}
    out = []
    for rec in records:
        name = rec.get("name", "?")
        out.append({"check": name, "trial": seen.get(name, 0),
                    "fields": dict(_flatten(rec))})
        seen[name] = seen.get(name, 0) + 1
    return out


def _round_off(old, new) -> bool:
    """Both values are numbers of magnitude below ROUND_OFF."""
    a, b = _as_number(old), _as_number(new)
    return a is not None and b is not None and abs(a) < ROUND_OFF and abs(b) < ROUND_OFF


def _diff_file(old: Path, new: Path) -> tuple[list[str], int, int, int, list]:
    """(report lines, number of changed verdicts, number of listed moves,
    number of those that are round-off, unlisted moves) for two differing
    files; an unlisted move is (relative change, row, field) for a number
    that moved by at most REL_TOL relative."""
    old_rows, new_rows = _rows(old), _rows(new)
    lines = []
    listed = round_off = 0
    unlisted = []
    verdicts = abs(len(old_rows) - len(new_rows))
    if len(old_rows) != len(new_rows):
        lines.append(f"  row count {len(old_rows)} -> {len(new_rows)}")
    for a, b in zip(old_rows, new_rows):
        where = f"{a['check']}#{a['trial']}"
        if (a["check"], a["trial"]) != (b["check"], b["trial"]):
            lines.append(f"  {where}: row is {b['check']}#{b['trial']} in the new run")
            verdicts += 1
            continue
        keys = set(a["fields"]) | set(b["fields"])
        if "details.lhs[0]" in keys and "details.rhs[0]" in keys:
            # left/right copy the worst height's entries, listed on their own
            keys -= {"left", "right"}
        for key in sorted(keys):
            va, vb = a["fields"].get(key, "<absent>"), b["fields"].get(key, "<absent>")
            rel = _relative_change(va, vb)
            moved = va != vb if rel is None else rel > REL_TOL
            if moved:
                tiny = _round_off(va, vb)
                lines.append(f"  {where} {key}: {va!r} -> {vb!r}"
                             + (" (round-off)" if tiny else ""))
                verdicts += key in VERDICT_FIELDS
                listed += 1
                round_off += tiny
            elif rel:
                unlisted.append((rel, where, key))
    return lines, verdicts, listed, round_off, unlisted


def diff(old_dir: Path, new_dir: Path) -> int:
    for d in (old_dir, new_dir):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    differ = changed = significant = 0
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {old_dir if old.is_file() else new_dir}")
            differ += 1
        elif old.read_bytes() == new.read_bytes():
            print(f"{name}: byte-identical; every verdict unchanged")
        else:
            differ += 1
            lines, verdicts, listed, round_off, unlisted = _diff_file(old, new)
            changed += verdicts
            significant += listed - round_off
            print(f"{name}: differs; " + (f"{verdicts} verdict(s) changed" if verdicts
                                          else "every verdict unchanged"))
            for line in lines:
                print(line)
            print(f"  {round_off} listed move(s) are round-off "
                  f"(old and new magnitudes below {ROUND_OFF:g})")
            summary = f"  {len(unlisted)} unlisted numeric move(s) of at most {REL_TOL:g} relative"
            if unlisted:
                rel, where, key = max(unlisted)
                summary += f"; largest {rel:.3g} at {where} {key}"
            print(summary)
    print(f"summary: {differ} file(s) differ, {changed} verdict(s) changed, "
          f"{significant} listed move(s) not tagged round-off")
    return 0 if differ == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the standard seed set into a directory")
    p.add_argument("outdir", type=Path)
    p = sub.add_parser("diff", help="compare two run directories")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args()
    if args.command == "run":
        return run(args.outdir)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
