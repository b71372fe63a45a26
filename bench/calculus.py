"""The `calculus` workload: a fixed, seeded mix of qcvx library calls.

Every operation is a pair (run, check).  ``run`` calls the program and is
timed; ``check`` compares what it returned against a closed form or an
independent computation from ``oracles`` and is not timed.  The inputs are
drawn from the seed with a fixed size (every generated polygon or polytope
has exactly the requested number of vertices), so the work per round varies
little from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as orc

# Operations that fail every time on today's program.  ROADMAP item 4: the
# sampled `as_stack` branch of `qc.oplus` for a stack plus a radial function.
KNOWN_FAULTS = {
    "oplus-stack-radial-square": "sampled as_stack branch of qc.oplus returns "
                                 "18.916 for the exact 20.0",
    "oplus-stack-radial-ball": "sampled as_stack branch of qc.oplus raises "
                               "UnsupportedMix; exact value 12 + 2 pi",
}

SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
SECTION_XS = np.geomspace(0.3, 6.0, 9)
CAP_HEIGHTS = np.geomspace(0.9, 1e-3, 6)
# independent input draws per round for the cheap function-calculus operations
FUNCTION_SETS = 6


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def ellipse_polygon(rng, m: int, lo: float = 0.6, hi: float = 1.4) -> np.ndarray:
    """m points on a random centred ellipse, one per angular sector, so all m
    are vertices and the origin is interior."""
    ang = 2.0 * np.pi * (np.arange(m) + rng.uniform(0.1, 0.9, m)) / m
    axes = rng.uniform(lo, hi, 2)
    theta = rng.uniform(0.0, np.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    return (np.stack([np.cos(ang), np.sin(ang)], axis=1) * axes) @ rot.T


def ellipsoid_polytope(rng, m: int, lo: float = 0.6, hi: float = 1.4) -> np.ndarray:
    """m jittered Fibonacci-sphere points mapped onto a random centred ellipsoid."""
    k = np.arange(m) + 0.5
    z = 1.0 - 2.0 * k / m
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k + rng.uniform(-0.15, 0.15, m)
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return (pts * rng.uniform(lo, hi, 3)) @ q.T


def build_ops(seed: int, sets: int = FUNCTION_SETS) -> list[Op]:
    """One round: the function-calculus operations on ``sets`` independent
    input draws, then the fixed closed forms, the known faults, the
    rescalings, the dilation and the two compute-it-twice paths."""
    import qcvx as q
    from qcvx.grids import GridSpec
    from qcvx.rearrange import SizeFunctional
    from qcvx.reshape import ParabolicCapQC, dilate_to_exponential, rescaled_af, rescaled_bm

    rng = np.random.default_rng([20121016, seed % 2 ** 63])
    poly = q.ConvexBody.polytope
    vol2 = SizeFunctional.vol(2)
    ops: list[Op] = []

    def add(name, kind, run, check):
        ops.append(Op(name, kind, run, check))

    def exp_radial(base, c):
        return q.RadialQC(base, q.StretchedExponentialProfile(float(c), 1.0))

    # -- integral, mixed_integral, quermassintegral_fn, oplus and odot on
    #    radial, summed (different bases) and banded functions --------------
    def function_set(k):
        v2a, v2b = ellipse_polygon(rng, 12), ellipse_polygon(rng, 12)
        v3a, v3b, v3c = (ellipsoid_polytope(rng, 14) for _ in range(3))
        p2a, p2b, p3a, p3b, p3c = (poly(v) for v in (v2a, v2b, v3a, v3b, v3c))
        c1, c2, c3 = rng.uniform(0.6, 1.8, 3)
        lam = float(rng.uniform(0.5, 2.0))
        r2a, r2b = exp_radial(p2a, c1), exp_radial(p2b, c2)
        r3a, r3b, r3c = exp_radial(p3a, c1), exp_radial(p3b, c2), exp_radial(p3c, c3)
        ball2, ball3 = q.ConvexBody.ball(1.0, 2), q.ConvexBody.ball(1.0, 3)

        def banded():
            return q.oplus(dilate_to_exponential(vol2, q.indicator(p2a)), r2b)

        def banded_base():
            # the dilated indicator of p2a has level sets s log(1/t) p2a
            return math.sqrt(math.pi / orc.hull_volume(v2a)) * v2a

        # exp(-c1 r) (+) exp(-c2 r) over one base is exp(-ch r)
        ch = 1.0 / (1.0 / c1 + 1.0 / c2)
        vol = orc.hull_volume
        for name, kind, run, want, tol in (
            ("integral-radial-2d", "integral", lambda: q.integral(r2a),
             lambda: vol(v2a) * 2.0 / c1 ** 2, orc.TOL_EXACT),
            ("integral-radial-3d", "integral", lambda: q.integral(r3a),
             lambda: vol(v3a) * 6.0 / c1 ** 3, orc.TOL_EXACT),
            ("odot-radial-2d", "odot", lambda: q.integral(q.odot(lam, r2a)),
             lambda: lam ** 2 * vol(v2a) * 2.0 / c1 ** 2, orc.TOL_EXACT),
            ("mixed-integral-radial-2d", "mixed_integral",
             lambda: q.mixed_integral([r2a, r2b]),
             lambda: 2.0 / (c1 * c2) * orc.mixed_volume([v2a, v2b]), orc.TOL_QUAD),
            ("mixed-integral-radial-3d", "mixed_integral",
             lambda: q.mixed_integral([r3a, r3b, r3c]),
             lambda: 6.0 / (c1 * c2 * c3) * orc.mixed_volume([v3a, v3b, v3c]), orc.TOL_QUAD),
            ("oplus-summed-2d", "oplus", lambda: q.integral(q.oplus(r2a, r2b)),
             lambda: 2.0 * vol(v2a / c1, v2b / c2), orc.TOL_QUAD),
            ("oplus-summed-3d", "oplus", lambda: q.integral(q.oplus(r3a, r3b)),
             lambda: 6.0 * vol(v3a / c1, v3b / c2), orc.TOL_QUAD),
            ("odot-summed-2d", "odot", lambda: q.integral(q.odot(lam, q.oplus(r2a, r2b))),
             lambda: lam ** 2 * 2.0 * vol(v2a / c1, v2b / c2), orc.TOL_QUAD),
            ("oplus-banded-2d", "oplus", lambda: q.integral(banded()),
             lambda: 2.0 * vol(banded_base(), v2b / c2), orc.TOL_QUAD),
            ("odot-banded-2d", "odot", lambda: q.integral(q.odot(lam, banded())),
             lambda: lam ** 2 * 2.0 * vol(banded_base(), v2b / c2), orc.TOL_QUAD),
            ("mixed-integral-banded-2d", "mixed_integral",
             lambda: q.mixed_integral([banded(), r2a]),
             lambda: 2.0 / c1 * orc.mixed_volume(
                 [orc.sum_cloud(banded_base(), v2b / c2), v2a]), orc.TOL_QUAD),
            ("quermass-summed-2d", "quermassintegral_fn",
             lambda: q.quermassintegral_fn(q.oplus(exp_radial(ball2, c1),
                                                   exp_radial(ball2, c2)), 1),
             lambda: math.pi * math.gamma(2) / ch, orc.TOL_QUAD),
            ("quermass-summed-3d", "quermassintegral_fn",
             lambda: q.quermassintegral_fn(q.oplus(exp_radial(ball3, c1),
                                                   exp_radial(ball3, c2)), 1),
             lambda: 4.0 * math.pi / 3.0 * math.gamma(3) / ch ** 2, orc.TOL_QUAD),
            ("quermass-radial-polygon", "quermassintegral_fn",
             lambda: q.quermassintegral_fn(r2a, 1),
             lambda: 0.5 * orc.perimeter(v2a) / c1, orc.TOL_EXACT),
        ):
            add(f"{name}.{k}", kind, run, lambda v, want=want, tol=tol: orc.close(v, want(), tol))

    for k in range(sets):
        function_set(k)

    # -- W_k(exp(-|x|)) = omega_n Gamma(n - k + 1) ---------------------------
    for n in (2, 3):
        omega = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        for k in range(1, n):
            add(f"quermass-radial-{n}d-k{k}", "quermassintegral_fn",
                lambda n=n, k=k: q.quermassintegral_fn(
                    exp_radial(q.ConvexBody.ball(1.0, n), 1.0), k),
                lambda v, omega=omega, n=n, k=k: orc.close(
                    v, omega * math.gamma(n - k + 1), orc.TOL_EXACT))

    # -- stack (+) radial: the known faults ---------------------------------
    square = poly(SQUARE)
    add("oplus-stack-radial-square", "oplus",
        lambda: q.integral(q.oplus(q.indicator(square), exp_radial(square, 1.0))),
        lambda v: orc.close(v, 20.0, orc.TOL_QUAD))
    add("oplus-stack-radial-ball", "oplus",
        lambda: q.integral(q.oplus(q.indicator(square),
                                   exp_radial(q.ConvexBody.ball(1.0, 2), 1.0))),
        lambda v: orc.close(v, 12.0 + 2.0 * math.pi, orc.TOL_QUAD))

    # -- rescalings: a radial pair in the plane, a log-concave triple in space
    def radial_profile(log_concave):
        kind = int(rng.integers(3 if log_concave else 4))
        if kind == 3:
            return q.PowerLawProfile(float(rng.uniform(3.5, 8.0)), float(rng.uniform(0.5, 2.0)))
        c = float(rng.uniform(0.5, 2.0))
        return q.StretchedExponentialProfile(c, (1.0, 2.0, float(rng.uniform(1.0, 3.0)))[kind])

    bm_phi = SizeFunctional.quermass(2, 1) if rng.integers(2) else vol2
    bm_f = q.RadialQC(poly(ellipse_polygon(rng, 10)), radial_profile(False))
    bm_g = q.RadialQC(q.ConvexBody.ball(float(rng.uniform(0.5, 1.5)), 2), radial_profile(False))
    af_fs = [q.RadialQC(poly(ellipsoid_polytope(rng, 10)), radial_profile(True))
             for _ in range(3)]
    add("rescaled-bm-2d", "rescaled", lambda: rescaled_bm(bm_phi, bm_f, bm_g)[1].margin,
        lambda v: orc.at_least(v, -orc.TOL_MARGIN, "margin"))
    add("rescaled-af-3d", "rescaled", lambda: rescaled_af([], af_fs).margin,
        lambda v: orc.at_least(v, -orc.TOL_MARGIN, "margin"))

    # -- the dilation worked example ----------------------------------------
    def cap_run():
        cap = ParabolicCapQC(64)
        levels = [cap.level_set(float(t)).vertices for t in CAP_HEIGHTS]
        ft = dilate_to_exponential(vol2, cap)
        section = ft.evaluate_many(np.stack([SECTION_XS, np.zeros_like(SECTION_XS)], axis=1))
        return levels, section

    def cap_check(out):
        levels, section = out
        problems = []
        for t, verts in zip(CAP_HEIGHTS, levels):
            law = (8.0 / 3.0) * math.log(1.0 / t) ** 1.5
            problems += orc.close(orc.hull_volume(verts), law, 1e-3, f"cap area at t={t:.4g}")
        exponent = orc.section_exponent(SECTION_XS, section)
        if abs(exponent - 0.8) > 0.01:
            problems.append(f"section exponent {exponent!r}, expected 4/5 within 0.01")
        return problems

    add("dilation-parabolic-cap", "dilation", cap_run, cap_check)

    # -- compute-it-twice paths: `qcvx mixed-volume` and `oracle-compare` ----
    def mv_check(verts):
        def check(out):
            want = orc.mixed_volume(verts)
            return (orc.close(out[0], want, 1e-8, "mixed_volume")
                    + orc.close(out[1], want, 1e-8, "grid-fit oracle"))
        return check

    for n, make in ((2, lambda: ellipse_polygon(rng, 12)), (3, lambda: ellipsoid_polytope(rng, 14))):
        verts = [make() for _ in range(n)]
        bodies = [poly(v) for v in verts]
        add(f"mixed-volume-{n}d", "mixed_volume_oracle",
            lambda bodies=bodies, n=n: (
                q.mixed_volume(bodies),
                q.minkowski_polynomial(bodies).coefficient(tuple(range(n)))),
            mv_check(verts))

    def nested_stack():
        base = ellipse_polygon(rng, 6, 0.6, 0.9)
        grow = np.cumprod(np.concatenate([[1.0], rng.uniform(1.2, 1.5, 2)]))
        heights = np.concatenate([[1.0], np.sort(rng.uniform(0.1, 0.9, 2))[::-1]])
        return q.LevelStack([(float(t), poly(base * g)) for t, g in zip(heights, grow)])

    def bracket_check(out):
        problems = [] if out["ok"] else ["supmin_bracket reports not ok"]
        if not out["fat_height"] > 0.0:
            problems.append("supmin_bracket certified no height (fat_height 0)")
        return problems

    st_f, st_g = nested_stack(), nested_stack()
    st_grid = GridSpec.cube(1.1 * max(st_f.support_radius(), st_g.support_radius()), 2, 41)
    add("supmin-bracket-stacks", "supmin", lambda: q.supmin_bracket(st_f, st_g, st_grid),
        bracket_check)

    vk, vt = ellipse_polygon(rng, 7), ellipse_polygon(rng, 7)

    def indicator_check(out):
        # the documented bound: never above 1_(K+T), equal to it off a
        # two-cell band (a one-cell band misses points on some seeds)
        problems = bracket_check(out)
        field = out["field"]
        exact = orc.inside_sum(field.grid.points(), vk, vt).astype(float)
        exact = exact.reshape(field.values.shape)
        above = int(np.count_nonzero(field.values > exact))
        missed = int(np.count_nonzero((field.values != exact)
                                      & orc.off_boundary_band(exact, cells=2)))
        if above or missed:
            problems.append(f"lattice sup-min above 1_(K+T) at {above} points and "
                            f"different off the two-cell band at {missed}")
        return problems

    add("supmin-bracket-indicators", "supmin",
        lambda: q.supmin_bracket(q.indicator(poly(vk)), q.indicator(poly(vt)),
                                 GridSpec.cube(3.0, 2, 41)),
        indicator_check)
    return ops
