"""Convex-function side: inf-convolution vs inf-max sum, ratio transform,
level-set polarity."""

import math

import numpy as np
import pytest

from qcvx.bodies import (
    ConvexBody,
    _ccw_order,
    approx_equal,
    contains,
    direction_net,
    minkowski_sum,
    polar,
)
from qcvx.duality import (
    GeomConvexFn,
    _DualView,
    _epigraph_vertices,
    _folded,
    _inf_convolution,
    _inf_max,
    a_transform_level_set,
    a_transform_values,
    lower_level_set,
    polarity_sandwich_check,
    sandwich_check,
    star_dual,
)
from qcvx.errors import OriginNotInterior
from qcvx.generators import conditioned_geom_convex_fn, random_geom_convex_fn, rng_for
from qcvx.grids import GridSpec, SampledField, lattice_convolution

ABS = GeomConvexFn.abs_value()


# -- the lattice oracle for the two sums ------------------------------------------

def _sampled(phi, grid):
    return phi.evaluate_many(grid.points()).reshape((grid.npts,) * grid.dim)


def _iterated_lattice(op, phis, grid):
    """op-convolution of the sampled functions, reduced by min, on the lattice
    doubled once per function after the first: an inf over the lattice
    decompositions x = x_1 + ... + x_k, so never below the exact sum."""
    acc = _sampled(phis[0], grid)
    cur = grid
    for phi in phis[1:]:
        acc = lattice_convolution(acc, _sampled(phi, cur), op, np.minimum, np.inf)
        cur = cur.doubled()
    return SampledField(cur, acc)


def inf_convolution(phi, psi, grid):
    """Discrete min-plus convolution; output on the doubled lattice."""
    return _iterated_lattice(np.add, [phi, psi], grid)


def oplus_cvx(phi, psi, grid):
    """Discrete inf-max convolution (the level-set sum on convex functions)."""
    return _iterated_lattice(np.maximum, [phi, psi], grid)


def net_a_transform(phi, x, y_halfwidth=8.0, y_npts=97, ndirs=64):
    """Sampled ratio transform, the oracle for the exact one.

    A sup over a y-net of (<x,y> - 1)/phi(y), +inf where a net point of the
    zero cell has <x,y> > 1, and ray terms <x,u>/slope(u) over a direction
    net (0 with a domain).  Every term is one the exact sup bounds, so the
    net never exceeds ``a_transform_values``; nets with y_npts - 1 and ndirs
    multiples of each other are nested, so the finer never falls below the
    coarser.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if phi.domain is not None:
        y_halfwidth = min(y_halfwidth, phi.domain.bounding_radius() * 1.01)
    Y = GridSpec.cube(y_halfwidth, phi.dim, y_npts).points()
    vals = phi.evaluate_many(Y)
    finite = np.isfinite(vals)
    pos, zero = finite & (vals > 1e-12), finite & (vals <= 1e-12)
    out = np.full(len(x), -np.inf)
    if pos.any():
        out = np.max((x @ Y[pos].T - 1.0) / vals[pos], axis=1)
    if zero.any():
        out = np.where(np.any(x @ Y[zero].T > 1.0 + 1e-12, axis=1), np.inf, out)
    if phi.domain is not None:
        return np.maximum(out, 0.0)
    U = direction_net(phi.dim, ndirs)
    slope_u = np.max(U @ phi.slopes.T, axis=1)
    grows = slope_u > 1e-12
    if grows.any():
        out = np.maximum(out, np.max((x @ U[grows].T) / slope_u[grows], axis=1))
    if (~grows).any():
        out = np.where(np.any(x @ U[~grows].T > 1e-12, axis=1), np.inf, out)
    return out


def _gap(net, exact):
    """Pointwise shortfall of the net below the exact value, capped at 1."""
    with np.errstate(invalid="ignore"):
        return np.minimum(np.where(net == exact, 0.0, exact - net), 1.0)


SKEW_QUAD = ConvexBody.polytope([[-1, -0.5], [1.2, -0.7], [0.8, 1.1], [-0.6, 0.9]])


def test_geometric_normalization():
    phi = GeomConvexFn.from_pieces([[1.0, 0.5]], [-0.25])
    assert phi([0.0, 0.0]) == 0.0
    assert np.all(phi.evaluate_many(np.random.default_rng(0).normal(size=(50, 2))) >= 0)
    with pytest.raises(ValueError):
        GeomConvexFn.from_pieces([[1.0]], [0.5])  # positive offset breaks phi(0)=0


def test_indicator_evaluation():
    ind = GeomConvexFn.indicator(ConvexBody.interval(-1, 1))
    assert ind([0.5]) == 0.0
    assert math.isinf(ind([2.0]))


# -- lower level sets ----------------------------------------------------------

def test_lower_level_set_abs():
    body = lower_level_set(ABS, 2.0)
    assert approx_equal(body, ConvexBody.interval(-2, 2))


def test_lower_level_set_unbounded_rejected():
    one_sided = GeomConvexFn.from_pieces([[1.0]])
    with pytest.raises(ValueError):
        lower_level_set(one_sided, 1.0)
    # phi = 0 on a wedge of half-angle 1e-3 that falls between the directions
    # of a 256-direction net, so only an exact test sees the recession ray
    axis, half = math.pi / 256, 1e-3
    wedge = GeomConvexFn.from_pieces(
        [[math.cos(axis + half + math.pi / 2), math.sin(axis + half + math.pi / 2)],
         [math.cos(axis - half - math.pi / 2), math.sin(axis - half - math.pi / 2)]])
    with pytest.raises(ValueError):
        lower_level_set(wedge, 1.0)


def test_lower_level_set_2d():
    gauge = GeomConvexFn.from_pieces([[1, 0], [-1, 0], [0, 1], [0, -1]])
    body = lower_level_set(gauge, 1.5)
    assert approx_equal(body, ConvexBody.box([-1.5, -1.5], [1.5, 1.5]))


# -- convolutions ---------------------------------------------------------------

def test_inf_convolution_with_indicator_is_distance_like():
    # phi box 1_K = inf over K of phi(x - y); both operations coincide here
    ind = GeomConvexFn.indicator(ConvexBody.interval(-1, 1))
    grid = GridSpec.cube(3.0, 1, 121)
    box = inf_convolution(ABS, ind, grid)
    osum = oplus_cvx(ABS, ind, grid)
    xs = box.grid.axes()[0]
    mask = np.abs(xs) <= 3
    expected = np.maximum(np.abs(xs[mask]) - 1, 0.0)
    assert np.max(np.abs(box.values[mask] - expected)) < 1e-12
    assert np.max(np.abs(box.values[mask] - osum.values[mask])) < 1e-12


def test_inf_convolution_with_zero():
    zero = GeomConvexFn.from_pieces([[0.0]])
    field = inf_convolution(zero, zero, GridSpec.cube(2.0, 1, 41))
    assert np.max(np.abs(field.values)) == 0.0


def test_oplus_cvx_indicator_sum():
    K = ConvexBody.box([-1, -1], [0.5, 0.5])
    T = ConvexBody.box([-0.5, -0.5], [1, 1])
    field = oplus_cvx(GeomConvexFn.indicator(K), GeomConvexFn.indicator(T),
                      GridSpec.cube(1.2, 2, 25))
    s = minkowski_sum(K, T)
    pts = field.grid.points()
    vals = field.values.ravel()
    A, b = s.facets()
    depth = np.max(pts @ A.T - b, axis=1)
    band = 2.5 * float(np.max(field.grid.step))
    off_band = np.abs(depth) > band
    inside = depth <= 0
    assert np.all(np.isfinite(vals[off_band]) == inside[off_band])


def test_oplus_cvx_midpoint_convex():
    rng = np.random.default_rng(5)
    phi, psi = random_geom_convex_fn(rng, 1), random_geom_convex_fn(rng, 1)
    field = oplus_cvx(phi, psi, GridSpec.cube(4.0, 1, 161))
    v = field.values
    lip = max(float(np.max(np.linalg.norm(f.slopes, axis=1))) for f in (phi, psi))
    step_bound = 4 * float(np.max(field.grid.step)) * lip
    mid = 0.5 * (v[:-2] + v[2:]) - v[1:-1]
    assert np.min(mid) > -step_bound


def test_oplus_cvx_matches_level_set_route():
    # lower level sets of the inf-max sum are the sums of the lower level sets
    rng = np.random.default_rng(11)
    phi, psi = random_geom_convex_fn(rng, 2), random_geom_convex_fn(rng, 2)
    field = oplus_cvx(phi, psi, GridSpec.cube(4.0, 2, 41))
    for s in (0.5, 1.0):
        expected = minkowski_sum(lower_level_set(phi, s), lower_level_set(psi, s))
        pts = field.grid.points()
        inside = field.values.ravel() <= s
        cell = float(np.linalg.norm(field.grid.step))
        for p in pts[inside][::7]:
            assert contains(expected, ConvexBody.polytope([p]), cell)


# -- sandwich -------------------------------------------------------------------

def test_sandwich_single_function_identity():
    rep = sandwich_check([ABS], [1.0], GridSpec.cube(3.0, 1, 81))
    assert rep.verdict == "holds-with-equality"


def test_sandwich_pair_factor_two():
    psi = GeomConvexFn.from_pieces([[2.0], [-2.0]])
    rep = sandwich_check([ABS, psi], [1.0, 1.0], GridSpec.cube(3.0, 1, 121))
    assert rep.ok
    assert rep.details["lower_margin"] >= 0.0
    assert rep.details["upper_margin"] >= 0.0


@pytest.mark.parametrize("seed", range(6))
def test_sandwich_random_triples(seed):
    rng = np.random.default_rng(seed)
    fns = [random_geom_convex_fn(rng, 1) for _ in range(3)]
    lams = rng.uniform(0.5, 2.0, 3).tolist()
    rep = sandwich_check(fns, lams, GridSpec.cube(4.0, 1, 81))
    assert rep.ok, rep.to_json()


def _lp_sum(fns, x, combine):
    """inf over x_1 + ... + x_k = x of the sum (combine "sum") or the max
    (combine "max") of the f_i(x_i), as one LP in x_1 .. x_{k-1} and the
    epigraph heights."""
    from scipy.optimize import linprog

    k, n = len(fns), len(x)
    heights = k if combine == "sum" else 1
    nvar = (k - 1) * n + heights
    rows, rhs = [], []
    for i, f in enumerate(fns):
        for a, b in zip(f.slopes, f.offsets):
            row, bound = np.zeros(nvar), -b
            if i < k - 1:
                row[i * n:(i + 1) * n] = a
            else:  # x_k = x - x_1 - ... - x_{k-1}
                for j in range(k - 1):
                    row[j * n:(j + 1) * n] = -a
                bound -= a @ x
            row[(k - 1) * n + (i if combine == "sum" else 0)] = -1.0
            rows.append(row)
            rhs.append(bound)
    cost = np.zeros(nvar)
    cost[(k - 1) * n:] = 1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(None, None)] * nvar, method="highs")
    assert res.status == 0, res.message
    return res.fun


def _exact_sums(fns, lams):
    views = [_DualView.of(f) for f in fns]
    return (_folded(_inf_convolution, [v.epi_scaled(l) for v, l in zip(views, lams)]),
            _folded(_inf_max, [v.arg_scaled(l) for v, l in zip(views, lams)]))


def _sandwich_draws(seed):
    """Seeded sandwich inputs: 2-D pairs at even seeds, 1-D triples at odd."""
    rng = rng_for(2525, seed)
    dim, k = (2, 2) if seed % 2 == 0 else (1, 3)
    fns = [random_geom_convex_fn(rng, dim) for _ in range(k)]
    return fns, rng.uniform(0.5, 2.0, k).tolist(), rng


@pytest.mark.parametrize("seed", range(8))
def test_exact_sums_match_linprog(seed):
    fns, lams, rng = _sandwich_draws(seed)
    g1, g2 = _exact_sums(fns, lams)
    pts = rng.uniform(-4.0 * len(fns), 4.0 * len(fns), (12, fns[0].dim))
    lp1 = [_lp_sum([f.epi_scaled(l) for f, l in zip(fns, lams)], p, "sum") for p in pts]
    lp2 = [_lp_sum([f.arg_scaled(l) for f, l in zip(fns, lams)], p, "max") for p in pts]
    for g, lp in ((g1, lp1), (g2, lp2)):
        scale_val = max(1.0, float(np.max(np.abs(lp))))
        assert np.max(np.abs(g.evaluate_many(pts) - lp)) <= 1e-12 * scale_val


@pytest.mark.parametrize("seed", range(6))
def test_exact_sums_never_above_the_lattice_oracle(seed):
    # the lattice takes its inf over fewer decompositions than the exact sum
    fns, lams, _ = _sandwich_draws(seed)
    g1, g2 = _exact_sums(fns, lams)
    grid = GridSpec.cube(4.0, fns[0].dim, 81 if fns[0].dim == 1 else 21)
    for op, g, scaled in ((np.add, g1, [f.epi_scaled(l) for f, l in zip(fns, lams)]),
                          (np.maximum, g2, [f.arg_scaled(l) for f, l in zip(fns, lams)])):
        field = _iterated_lattice(op, scaled, grid)
        lattice = field.values.ravel()
        exact = g.evaluate_many(field.grid.points())
        assert np.all(exact <= lattice + 1e-12 * max(1.0, float(np.max(np.abs(lattice)))))


def test_sandwich_rejects_a_domain():
    boxed = GeomConvexFn.from_pieces([[1.0], [-1.0]], domain=ConvexBody.interval(-2, 2))
    with pytest.raises(ValueError, match="domain"):
        sandwich_check([ABS, boxed], [1.0, 1.0], GridSpec.cube(3.0, 1, 41))


# -- ratio transform ------------------------------------------------------------

def test_a_transform_abs_is_self_dual():
    grid = GridSpec.cube(3.0, 1, 61)
    xs = grid.axes()[0]
    values = a_transform_values(ABS, grid.points())
    assert np.max(np.abs(values - np.abs(xs))) < 1e-9


def test_a_transform_at_origin_is_zero():
    rng = np.random.default_rng(3)
    for _ in range(5):
        phi = random_geom_convex_fn(rng, 2)
        assert a_transform_values(phi, [[0.0, 0.0]])[0] == pytest.approx(0.0, abs=1e-12)


def test_a_transform_indicator_gives_polar_indicator():
    ind = GeomConvexFn.indicator(ConvexBody.interval(-1, 1))
    vals = a_transform_values(ind, [[0.5], [0.99], [1.5]])
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(vals[2])


def test_a_transform_against_fine_net():
    rng = np.random.default_rng(8)
    phi = random_geom_convex_fn(rng, 2)
    xs = rng.normal(size=(10, 2))
    exact = a_transform_values(phi, xs)
    coarse = net_a_transform(phi, xs, y_npts=49)
    fine = net_a_transform(phi, xs, y_npts=193, ndirs=1024)
    assert np.all(fine >= coarse - 1e-12)  # finer nets only improve the sup
    assert np.all(fine <= exact + 1e-12)   # and never pass the exact value
    assert np.max(np.abs(exact - fine) / np.maximum(np.abs(exact), 1.0)) < 1e-2


def _oracle_cases():
    rng = np.random.default_rng(21)
    cases = [(random_geom_convex_fn(rng, 2), rng.normal(size=(40, 2)), True)
             for _ in range(3)]
    rng = np.random.default_rng(200)
    cases.append((random_geom_convex_fn(rng, 1), 2.0 * rng.normal(size=(50, 1)), False))
    rng = np.random.default_rng(1)
    cases.append((GeomConvexFn.indicator(SKEW_QUAD), rng.normal(size=(50, 2)), True))
    return cases


@pytest.mark.parametrize("case", range(5))
def test_net_oracle_below_exact_and_gap_shrinks(case):
    phi, xs, strict = _oracle_cases()[case]
    exact = a_transform_values(phi, xs)
    coarse = net_a_transform(phi, xs, y_npts=49, ndirs=64)
    fine = net_a_transform(phi, xs, y_npts=193, ndirs=256)
    assert np.all(coarse <= exact + 1e-12)
    assert np.all(fine <= exact + 1e-12)
    gap_coarse, gap_fine = _gap(coarse, exact), _gap(fine, exact)
    assert np.all(gap_fine <= gap_coarse + 1e-12)
    if strict:
        assert gap_fine.sum() < gap_coarse.sum()


def test_a_transform_one_sided_and_lineal():
    # max(y, 0): the zero cell is the half-line y <= 0, so x < 0 gives +inf
    one_sided = GeomConvexFn.from_pieces([[1.0]])
    assert a_transform_values(one_sided, [[-1.0], [0.0], [0.5], [3.0]]).tolist() == \
        [math.inf, 0.0, 0.5, 3.0]
    # max(|y_1| - 1/2, 0) in the plane is constant along y_2
    strip = GeomConvexFn.from_pieces([[1.0, 0.0], [-1.0, 0.0]], [-0.5, -0.5])
    vals = a_transform_values(strip, [[1.0, 0.0], [3.0, 0.0], [1.0, 1e-3]])
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert math.isinf(vals[1]) and math.isinf(vals[2])


@pytest.mark.parametrize("seed", range(4))
def test_a_transform_level_set_boundary(seed):
    rng = np.random.default_rng(seed)
    phis = [conditioned_geom_convex_fn(rng, 2),
            GeomConvexFn.from_pieces([[1.0, 0.5], [-0.5, 1.0]], [-0.1, 0.0], SKEW_QUAD),
            random_geom_convex_fn(rng, 1)]
    for phi in phis:
        for t in (0.5, 1.0, 2.0):
            pts = a_transform_level_set(phi, t).vertices
            if phi.dim == 2:  # edge midpoints too
                ring = _ccw_order(pts)
                pts = np.vstack([pts, 0.5 * (ring + np.roll(ring, -1, axis=0))])
            vals = a_transform_values(phi, pts)
            beyond = a_transform_values(phi, (1.0 + 1e-7) * pts)
            assert np.all(vals <= t * (1.0 + 1e-9))
            assert np.all(beyond > t)
            # A phi = t on the boundary, except on the faces <x, y_v> = 1 of
            # zero-cell vertices, past which it jumps to +inf
            at_height = np.abs(vals - t) <= 1e-9 * t
            assert np.all(at_height | np.isinf(beyond))
            assert at_height.any()


# -- polarity -------------------------------------------------------------------

def test_star_dual_abs_self_dual():
    for t in (0.5, 1.0, 2.0):
        [body] = star_dual(ABS, [t])
        assert approx_equal(body, ConvexBody.interval(-t, t), 1e-9)


def test_star_dual_involution():
    rng = np.random.default_rng(4)
    phi = random_geom_convex_fn(rng, 2)
    for t in (0.5, 1.0, 2.0):
        # applying the level-set duality twice returns the original level set
        [kt_star] = star_dual(phi, [1.0 / t])        # = polar of K_t(phi)
        recovered = polar(kt_star)
        assert approx_equal(recovered, lower_level_set(phi, t), 1e-7)


def test_star_dual_monotone_in_height():
    rng = np.random.default_rng(6)
    phi = random_geom_convex_fn(rng, 2)
    bodies = star_dual(phi, [0.5, 1.0, 2.0])
    assert contains(bodies[1], bodies[0], 1e-9)
    assert contains(bodies[2], bodies[1], 1e-9)


def test_star_dual_needs_origin_interior():
    ind = GeomConvexFn.indicator(ConvexBody.polytope([[0, 0], [1, 0], [0, 1]]))
    with pytest.raises(OriginNotInterior):
        star_dual(ind, [1.0])


def test_polarity_sandwich_abs():
    rep = polarity_sandwich_check(ABS, 1.0)
    assert rep.ok
    assert rep.details["left_margin"] >= -rep.tol


@pytest.mark.parametrize("seed", range(5))
def test_polarity_sandwich_random(seed):
    from qcvx.generators import conditioned_geom_convex_fn

    rng = np.random.default_rng(seed)
    phi = conditioned_geom_convex_fn(rng, 2)
    for t in (0.5, 1.0, 2.0):
        rep = polarity_sandwich_check(phi, t)
        assert rep.ok, rep.to_json()
        assert rep.details["right_margin"] >= -rep.tol  # factor 2 never violated


def test_polarity_sandwich_abs_is_exact():
    for t in (0.5, 1.0, 2.0):
        rep = polarity_sandwich_check(ABS, t)
        assert rep.details["left_margin"] == 0.0
        assert rep.details["right_margin"] == pytest.approx(t, rel=1e-15)
        assert rep.margin == 0.0 and rep.tol == 1e-9
        # a zero margin holds: the factor-2 sandwich never reports equality
        assert rep.verdict == "holds"


def test_polarity_margins_on_criterion_9_instances():
    for trial in range(30):
        rng = rng_for(910, trial)
        phi = conditioned_geom_convex_fn(rng, 2)
        t = float(rng.choice([0.5, 1.0, 2.0]))
        rep = polarity_sandwich_check(phi, t)
        # the relative margin is the smaller of the two support slacks
        assert rep.margin >= -1e-9, (trial, rep.to_json())
        assert rep.details["right_margin"] > 0.0  # factor 2 is never tight here


def test_epigraph_vertex_values_are_the_pointwise_values():
    """phi at the epigraph vertices is what ``evaluate_many`` gives at them,
    snapped at 1e-12 the same way, bitwise: one evaluation rule."""
    for trial in range(40):
        phi = conditioned_geom_convex_fn(rng_for(910, trial), 2)
        Y, vals = _epigraph_vertices(phi)
        direct = phi.evaluate_many(Y)
        assert vals.tobytes() == np.where(direct > 1e-12, direct, 0.0).tobytes(), trial


def test_polarity_sandwich_with_domain():
    phi = GeomConvexFn.from_pieces([[1.0, 0.5], [-0.5, 1.0]], [-0.1, 0.0], SKEW_QUAD)
    for t in (0.5, 1.0, 2.0):
        rep = polarity_sandwich_check(phi, t)
        assert rep.ok, rep.to_json()
        assert rep.margin >= -1e-9
