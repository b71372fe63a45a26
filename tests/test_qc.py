"""Level-set calculus: oplus/odot, integrals, mixed integrals, the grid oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import maximum_filter, minimum_filter

from qcvx.bodies import (
    _BLOCK,
    ConvexBody,
    approx_equal,
    contains_point,
    minkowski_sum,
    scale,
    volume,
)
from qcvx.duality import GeomConvexFn
from qcvx.errors import (
    ArityMismatch,
    DimensionMismatch,
    GridTooCoarse,
    HeightOutOfRange,
    IndexOutOfRange,
    InputParse,
    NonpositiveScale,
)
from qcvx import qc
from qcvx.generators import random_polytope as gen_polytope
from qcvx.grids import GridSpec, lattice_convolution
from qcvx.mixed_volumes import mixed_volume
from qcvx.profiles import GaussianProfile, PowerLawProfile, Profile, exponential_profile
from qcvx.qc import (
    Band,
    LevelStack,
    RadialQC,
    SumQC,
    _band_at,
    _eroded,
    band_terms,
    certify_log_concave,
    epsilon_extension,
    evaluate,
    generalized_surface_area,
    grid_sup_min,
    indicator,
    integral,
    level_set,
    merged_heights,
    minkowski_polynomial_fn,
    mixed_integral,
    odot,
    oplus,
    quermassintegral_fn,
    supmin_arrays,
    surface_area_fn,
    terms_at,
)

SQUARE = ConvexBody.box([-0.5, -0.5], [0.5, 0.5])
EXP_DISC = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))


def random_stack(rng, dim=2, nlevels=3, npts=6):
    heights = [1.0] + np.sort(rng.uniform(0.05, 0.95, nlevels - 1))[::-1].tolist()
    body = ConvexBody.polytope(rng.uniform(-1, 1, (npts, dim)))
    bodies = [body]
    for _ in range(nlevels - 1):
        bump = ConvexBody.polytope(np.vstack([rng.uniform(-1, 1, (4, dim)),
                                              np.zeros((1, dim))]))
        body = minkowski_sum(body, bump)
        bodies.append(body)
    return LevelStack(list(zip(heights, bodies)))


# -- construction ------------------------------------------------------------

def test_stack_requires_geometric_normalization():
    with pytest.raises(ValueError):
        LevelStack([(0.9, SQUARE)])
    with pytest.raises(ValueError):
        LevelStack([(1.0, SQUARE), (0.5, scale(SQUARE, 0.5))])  # shrinking bodies


def test_radial_needs_origin_interior():
    bases = [ConvexBody.box([1, 1], [2, 2]),            # origin outside
             ConvexBody.box([0, 0], [1, 1]),            # origin on the boundary
             ConvexBody.polytope([[-1, 0], [1, 0]]),    # flat: no interior
             ConvexBody.ball(0.0, 2), ConvexBody.empty(2)]
    for base in bases:
        with pytest.raises(InputParse, match="0 in its interior"):
            RadialQC(base, exponential_profile())


# -- level sets and evaluation -----------------------------------------------

def test_indicator_level_sets_constant():
    f = indicator(SQUARE)
    for t in (0.1, 0.5, 1.0):
        assert approx_equal(level_set(f, t), SQUARE)
    with pytest.raises(HeightOutOfRange):
        level_set(f, 0.0)
    with pytest.raises(HeightOutOfRange):
        level_set(f, 1.1)


def test_radial_exponential_level_sets():
    assert level_set(EXP_DISC, math.exp(-1.0)).radius == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(4)
    for t in rng.uniform(0.01, 1.0, 10):
        assert level_set(EXP_DISC, t).radius == pytest.approx(math.log(1 / t), rel=1e-12)


def test_evaluate_examples():
    assert evaluate(indicator(SQUARE), [0, 0]) == 1.0
    assert evaluate(indicator(SQUARE), [2, 2]) == 0.0
    assert evaluate(EXP_DISC, [2, 0]) == pytest.approx(math.exp(-2), rel=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_evaluate_agrees_with_level_sets(seed):
    rng = np.random.default_rng(seed)
    f = random_stack(rng)
    pts = rng.uniform(-3, 3, (20, 2))
    vals = f.evaluate_many(pts)
    for p, v in zip(pts, vals):
        # definition cross-check: f(x) = sup{t : x in K_t}
        ts = [t for t in f.heights if _point_in(f, float(t), p)]
        assert v == pytest.approx(max(ts) if ts else 0.0, abs=1e-12)


# the harness's lattices (41 x 41 and 81 x 81 points) and one batch that
# takes a block of its own per facet row in ``bodies.affine_values``
BATCH_SIZES = (1, 2, 7, 1681, 6561, _BLOCK + 1)


def _batch_free_functions():
    rng = np.random.default_rng(43)
    spread = rng.normal(0.0, 1.5, (97, 2))
    # one point the height search must bracket, the peak, the rest past the support
    far = rng.normal(size=(97, 2))
    far *= 500.0 / np.linalg.norm(far, axis=1, keepdims=True)
    far[:2] = [[0.7, -0.4], [0.0, 0.0]]
    slopes = rng.normal(size=(5, 2))
    domain = scale(gen_polytope(rng, 2, 7, origin_interior=True), 2.0)
    phi = GeomConvexFn.from_pieces(slopes, -rng.uniform(0.0, 0.5, 5), domain)
    radial = [RadialQC(gen_polytope(rng, 2, 8, origin_interior=True), exponential_profile(1.0))
              for _ in range(2)]
    return {
        "stack-2d": (random_stack(rng), spread),
        "stack-3d": (random_stack(rng, 3, 3, 8), rng.normal(0.0, 1.5, (97, 3))),
        "radial-polygon": (radial[0], spread),
        "radial-disc": (EXP_DISC, spread),
        "radial-solid": (RadialQC(gen_polytope(rng, 3, 8, origin_interior=True),
                                  GaussianProfile(1.0)), rng.normal(0.0, 1.5, (97, 3))),
        "radial-ball": (RadialQC(ConvexBody.ball(1.5, 3), GaussianProfile(1.0)),
                        rng.normal(0.0, 1.5, (97, 3))),
        "sum": (oplus(*radial), far),
        "geom-convex": (phi, spread),
        "geom-convex-free": (GeomConvexFn.from_pieces(slopes), spread),
    }


@pytest.mark.parametrize("name", list(_batch_free_functions()))
def test_value_of_a_point_does_not_depend_on_its_batch(name):
    """``evaluate`` (``GeomConvexFn.__call__``) of a point alone equals, bitwise,
    its row of ``evaluate_many`` in every batch; the batches tile 97
    distinct points, so row i holds point i mod 97."""
    f, points = _batch_free_functions()[name]
    alone = f if isinstance(f, GeomConvexFn) else (lambda x: evaluate(f, x))
    want = np.array([alone(x) for x in points])
    if name == "sum":
        assert isinstance(f, SumQC) and 0.0 < want[0] < 1.0 and want[1] == 1.0
    for size in BATCH_SIZES:
        rows = np.arange(size) % len(points)
        assert f.evaluate_many(points[rows]).tobytes() == want[rows].tobytes(), size


def _point_in(f, t, p):
    from qcvx.bodies import contains_point
    return contains_point(level_set(f, t), p)


# -- oplus / odot ------------------------------------------------------------

def test_indicator_sum_rule():
    T = ConvexBody.polytope([[0, 0], [1, 0], [0, 1]])
    s = oplus(indicator(SQUARE), indicator(T))
    assert approx_equal(level_set(s, 0.7), minkowski_sum(SQUARE, T))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_oplus_level_set_identity_and_commutativity(seed):
    rng = np.random.default_rng(seed)
    f, g = random_stack(rng), random_stack(rng)
    s = oplus(f, g)
    for t in merged_heights(f, g):
        t = float(t)
        assert approx_equal(level_set(s, t),
                            minkowski_sum(level_set(f, t), level_set(g, t)), 1e-8)
    assert _stacks_equal(s, oplus(g, f))


def _stacks_equal(a, b, tol=1e-8):
    if len(a.heights) != len(b.heights):
        return False
    return (np.allclose(a.heights, b.heights, atol=1e-12)
            and all(approx_equal(x, y, tol) for x, y in zip(a.bodies, b.bodies)))


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_oplus_associative_on_stacks(seed):
    rng = np.random.default_rng(seed)
    f, g, h = (random_stack(rng, nlevels=2) for _ in range(3))
    assert _stacks_equal(oplus(oplus(f, g), h), oplus(f, oplus(g, h)), 1e-7)


def test_double_is_self_sum():
    rng = np.random.default_rng(8)
    f = random_stack(rng)
    assert _stacks_equal(oplus(f, f), odot(2.0, f))


def test_odot_identity_and_indicator():
    f = indicator(SQUARE)
    assert approx_equal(level_set(odot(1.0, f), 0.5), SQUARE)
    assert approx_equal(level_set(odot(3.0, f), 0.5), scale(SQUARE, 3.0))
    with pytest.raises(NonpositiveScale):
        odot(0.0, f)


@pytest.mark.parametrize("make", [
    lambda: indicator(SQUARE),
    lambda: EXP_DISC,
    lambda: epsilon_extension(indicator(SQUARE), 0.5),  # a band of constant parts only
    lambda: oplus(EXP_DISC, indicator(SQUARE)),
], ids=["stack", "radial", "constant-band", "sum"])
def test_odot_is_the_one_scale_check_for_functions(make):
    """``odot`` rejects a factor that is not finite (ValueError) or not
    positive (NonpositiveScale) for a stack, a radial function and banded
    sums, before any ``scale_space`` builds a NaN level set."""
    f = make()
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            odot(lam, f)
    for lam in (0.0, -2.0):
        with pytest.raises(NonpositiveScale):
            odot(lam, f)


@given(st.integers(0, 10_000), st.floats(0.2, 3.0))
@settings(max_examples=15, deadline=None)
def test_odot_distributes_over_oplus(seed, lam):
    rng = np.random.default_rng(seed)
    f, g = random_stack(rng, nlevels=2), random_stack(rng, nlevels=2)
    assert _stacks_equal(odot(lam, oplus(f, g)), oplus(odot(lam, f), odot(lam, g)), 1e-7)


@given(st.integers(0, 10_000), st.floats(0.2, 3.0))
@settings(max_examples=15, deadline=None)
def test_integral_homogeneous_under_odot(seed, lam):
    rng = np.random.default_rng(seed)
    f = random_stack(rng)
    assert integral(odot(lam, f)) == pytest.approx(lam ** 2 * integral(f), rel=1e-9)


def test_sum_of_radial_functions_rotation_invariance_and_support_radius():
    discs = oplus(EXP_DISC, RadialQC(ConvexBody.ball(2.0, 2), GaussianProfile(1.0)))
    assert isinstance(discs, SumQC) and discs.is_rotation_invariant()
    # r(1e-3) = log 1e3 on the unit disc plus 2 sqrt(log 1e3) on the disc of radius 2
    reach = math.log(1e3) + 2.0 * math.sqrt(math.log(1e3))
    assert discs.support_radius() == pytest.approx(reach, rel=1e-12)
    assert discs.support_radius() == pytest.approx(
        discs.level_set(1e-3).bounding_radius(), rel=1e-12)
    square = oplus(EXP_DISC, RadialQC(ConvexBody.box([-1, -1], [1, 1]), GaussianProfile(1.0)))
    assert isinstance(square, SumQC) and not square.is_rotation_invariant()


def test_oplus_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        oplus(indicator(SQUARE), indicator(ConvexBody.interval(0, 1)))


# -- integrals ---------------------------------------------------------------

def test_integral_examples():
    assert integral(indicator(SQUARE)) == pytest.approx(1.0, abs=1e-12)
    assert integral(EXP_DISC) == pytest.approx(2 * math.pi, rel=1e-12)
    pl = RadialQC(ConvexBody.ball(1.0, 2), PowerLawProfile(3.0, math.sqrt(2.0)))
    assert integral(pl) == pytest.approx(2 * math.pi, rel=1e-10)


def test_integral_of_a_stack_whose_top_rounds_below_one():
    # a top height within HEIGHT_TOL of 1 is stored as 1
    f = LevelStack([(1.0 - 1e-13, SQUARE), (0.5, scale(SQUARE, 2.0))])
    assert f.heights[0] == 1.0
    assert integral(f) == pytest.approx(0.5 * 1.0 + 0.5 * 4.0, rel=1e-15)


def test_mixed_integrals_with_a_stack_whose_top_rounds_below_one():
    # with its top stored as 1, the stack covers every band up to 1
    square = ConvexBody.box([-1, -1], [1, 1])
    stack = LevelStack([(1.0 - 1e-13, square)])
    assert mixed_integral([stack, indicator(square)]) == pytest.approx(4.0, abs=1e-12)
    # the disc's radius is log(1/t), so the integral is 4 + 8 * 1 + pi * 2
    f = oplus(stack, RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0)))
    assert integral(f) == pytest.approx(12.0 + 2.0 * math.pi, abs=1e-12)


def test_divergent_integral():
    from qcvx.errors import DivergentIntegral
    f3 = RadialQC(ConvexBody.ball(1.0, 3), PowerLawProfile(2.5, 1.0))
    with pytest.raises(DivergentIntegral):
        integral(f3)  # (1+r)^(-2.5) r^2 tail not integrable


def test_mixed_integral_of_indicators_is_mixed_volume():
    rng = np.random.default_rng(13)
    a = ConvexBody.polytope(rng.uniform(-1, 1, (6, 2)))
    b = ConvexBody.polytope(rng.uniform(-1, 1, (6, 2)))
    assert mixed_integral([indicator(a), indicator(b)]) == pytest.approx(
        mixed_volume([a, b]), rel=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_mixed_integral_diagonal(seed):
    rng = np.random.default_rng(seed)
    f = random_stack(rng)
    assert mixed_integral([f, f]) == pytest.approx(integral(f), rel=1e-12)


def test_mixed_integral_gamma_normalization():
    rng = np.random.default_rng(21)
    a = ConvexBody.polytope(rng.uniform(-1, 1, (6, 2)))
    b = ConvexBody.polytope(rng.uniform(-1, 1, (6, 2)))
    f = RadialQC(a, exponential_profile(1.0))        # exp(-gauge^1)
    g = RadialQC(b, exponential_profile(1.0))
    assert mixed_integral([f, g]) == pytest.approx(2.0 * mixed_volume([a, b]), rel=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_mixed_integral_symmetric_and_multilinear(seed):
    rng = np.random.default_rng(seed)
    f, g, h = (random_stack(rng, nlevels=2) for _ in range(3))
    assert mixed_integral([f, g]) == pytest.approx(mixed_integral([g, f]), rel=1e-10)
    lhs = mixed_integral([oplus(f, g), h])
    rhs = mixed_integral([f, h]) + mixed_integral([g, h])
    assert lhs == pytest.approx(rhs, rel=1e-9)
    lam = 1.0 + rng.uniform(0.2, 2.0)
    assert mixed_integral([odot(lam, f), h]) == pytest.approx(
        lam * mixed_integral([f, h]), rel=1e-9)


def test_mixed_integral_arity():
    with pytest.raises(ArityMismatch):
        mixed_integral([indicator(SQUARE)])


# -- polynomial fit ----------------------------------------------------------

def test_polynomial_single_function():
    poly = minkowski_polynomial_fn([EXP_DISC])
    assert poly.coefficient((0, 0)) == pytest.approx(2 * math.pi, rel=1e-9)


def test_polynomial_indicators_reduce_to_bodies():
    rng = np.random.default_rng(2)
    a = ConvexBody.polytope(rng.uniform(-1, 1, (6, 2)))
    b = ConvexBody.polytope(rng.uniform(-1, 1, (6, 2)))
    poly = minkowski_polynomial_fn([indicator(a), indicator(b)])
    assert poly.coefficient((0, 1)) == pytest.approx(mixed_volume([a, b]), rel=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_polynomial_matches_mixed_integral(seed):
    rng = np.random.default_rng(seed)
    f, g = random_stack(rng), random_stack(rng)
    poly = minkowski_polynomial_fn([f, g])
    assert poly.coefficient((0, 1)) == pytest.approx(mixed_integral([f, g]), rel=1e-8)
    eps = rng.uniform(0.3, 2.5, 2)
    direct = integral(oplus(odot(eps[0], f), odot(eps[1], g)))
    assert poly.evaluate(eps) == pytest.approx(direct, rel=1e-8)


# -- epsilon extension and quermassintegrals ----------------------------------

def test_epsilon_extension_recovers_f():
    fe = epsilon_extension(EXP_DISC, 1e-9)
    assert level_set(fe, 0.5).radius == pytest.approx(
        level_set(EXP_DISC, 0.5).radius, abs=1e-8)


def test_epsilon_extension_polynomial_in_eps():
    # closed form for exp profile on the unit disc: 2pi + 2pi e + pi e^2
    for e in (0.25, 0.5, 1.0, 2.0):
        val = integral(epsilon_extension(EXP_DISC, e))
        assert val == pytest.approx(2 * math.pi + 2 * math.pi * e + math.pi * e ** 2,
                                    rel=1e-10)


def test_epsilon_extension_stack_polynomial_fit():
    rng = np.random.default_rng(3)
    f = random_stack(rng)
    eps = np.arange(3.0)
    vals = [integral(epsilon_extension(f, float(e))) for e in eps]
    coeffs = np.linalg.solve(np.vander(eps, increasing=True), vals)
    for e in (0.4, 1.3, 2.7):
        fitted = float(np.polyval(coeffs[::-1], e))
        assert integral(epsilon_extension(f, e)) == pytest.approx(fitted, rel=1e-8)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_epsilon_extension_stack_is_the_steiner_polynomial(dim, eps):
    # each band of f_eps holds K + eps D, whose volume is the Steiner
    # polynomial sum_k C(n, k) W_k(K) eps^k; a polytope stand-in for D
    # misses it by 5e-6 in the plane and 1e-3 in space
    from qcvx.mixed_volumes import quermassintegral_body
    f = random_stack(np.random.default_rng(40 + dim), dim=dim)
    lows = np.append(f.heights[1:], 0.0)
    steiner = sum((hi - lo) * sum(math.comb(dim, k) * quermassintegral_body(body, k) * eps ** k
                                  for k in range(dim + 1))
                  for hi, lo, body in zip(f.heights, lows, f.bodies))
    assert integral(epsilon_extension(f, eps)) == pytest.approx(steiner, rel=1e-12)


def test_quermass_radial_closed_forms():
    # exp profile c=1 on the unit disc: W_0 = 2pi, W_1 = pi, W_2 = pi
    assert quermassintegral_fn(EXP_DISC, 0) == pytest.approx(2 * math.pi, rel=1e-12)
    assert quermassintegral_fn(EXP_DISC, 1) == pytest.approx(math.pi, rel=1e-12)
    assert quermassintegral_fn(EXP_DISC, 2) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(IndexOutOfRange):
        quermassintegral_fn(EXP_DISC, 3)


def test_quermass_consistency_stack_vs_bands():
    rng = np.random.default_rng(5)
    f = random_stack(rng)
    from qcvx.mixed_volumes import quermassintegral_body
    lows = np.append(f.heights[1:], 0.0)
    exact = sum((hi - lo) * quermassintegral_body(b, 1)
                for hi, lo, b in zip(f.heights, lows, f.bodies))
    assert quermassintegral_fn(f, 1) == pytest.approx(exact, rel=1e-12)


def test_surface_area_examples():
    from qcvx.mixed_volumes import surface_area_body
    assert surface_area_fn(indicator(SQUARE)) == pytest.approx(
        surface_area_body(SQUARE), rel=1e-12)
    assert surface_area_fn(EXP_DISC) == pytest.approx(2 * math.pi, rel=1e-12)


def test_generalized_surface_area():
    from qcvx.errors import NotRotationInvariant
    rng = np.random.default_rng(9)
    f = random_stack(rng)
    ball_ind = indicator(ConvexBody.ball(1.0, 2))
    assert generalized_surface_area(f, ball_ind) == pytest.approx(
        quermassintegral_fn(f, 1), rel=1e-12)
    pts = rng.uniform(-1, 1, (4, 2))
    skew = RadialQC(ConvexBody.polytope(np.vstack([pts, -pts])), exponential_profile())
    with pytest.raises(NotRotationInvariant):
        generalized_surface_area(f, skew)


# -- sup-min oracle ----------------------------------------------------------

def test_supmin_indicators_reproduce_sum_off_boundary():
    K = ConvexBody.box([-1, -1], [0, 0])
    T = ConvexBody.box([0, 0], [1, 1])
    field = grid_sup_min(indicator(K), indicator(T), GridSpec.cube(1.5, 2, 41))
    pts = field.grid.points()
    exact = indicator(minkowski_sum(K, T)).evaluate_many(pts).reshape(field.values.shape)
    boundary = maximum_filter(exact, size=3) != minimum_filter(exact, size=3)
    assert np.all((field.values == exact) | boundary)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_supmin_matches_oplus_within_grid_bound(seed):
    from qcvx.qc import supmin_bracket

    rng = np.random.default_rng(seed)
    f, g = random_stack(rng), random_stack(rng)
    reach = 1.1 * max(f.support_radius(), g.support_radius())
    result = supmin_bracket(f, g, GridSpec.cube(reach, 2, 41))
    assert result["ok"], (result["max_abs_error"], result["fat_height"])


@pytest.mark.parametrize("shape", [(7,), (5, 4)])
def test_lattice_convolution_matches_every_pair(shape):
    """Reference: reduce op(F[j], G[k]) into out[j + k] over all index pairs,
    skipping none, for the sup-min oracle and both inf-convolutions."""
    rng = np.random.default_rng(len(shape))
    F, G = rng.uniform(0, 1, shape), rng.uniform(0, 1, shape)
    F[rng.random(shape) < 0.4] = 0.0
    P, Q = np.where(F == 0.0, np.inf, 3 * F), np.where(rng.random(shape) < 0.3, np.inf, 3 * G)
    for op, reduce, identity, a, b in ((np.minimum, np.maximum, 0.0, F, G),
                                       (np.add, np.minimum, np.inf, P, Q),
                                       (np.maximum, np.minimum, np.inf, P, Q)):
        out = np.full(tuple(2 * n - 1 for n in shape), identity)
        for j in np.ndindex(shape):
            for k in np.ndindex(shape):
                i = tuple(x + y for x, y in zip(j, k))
                out[i] = reduce(out[i], op(a[j], b[k]))
        np.testing.assert_array_equal(lattice_convolution(a, b, op, reduce, identity), out)


def _per_entry_convolution(F, G, op, reduce, identity):
    """Reference: one fold of op(F[j], G) into the block of out at j for each
    j with F[j] != identity, in C order of j."""
    out = np.full(tuple(a + b - 1 for a, b in zip(F.shape, G.shape)), identity)
    for j in zip(*np.nonzero(F != identity)):
        block = out[tuple(slice(k, k + n) for k, n in zip(j, G.shape))]
        reduce(block, op(F[j], G), out=block)
    return out


_CONVOLUTIONS = {"sup-min": (np.minimum, np.maximum, 0.0),
                 "min-plus": (np.add, np.minimum, np.inf),
                 "inf-max": (np.maximum, np.minimum, np.inf)}


def _tie_field(rng, shape, identity):
    """Values that tie often: signed zeros, both infinities, identity and a
    few repeated finite values; -inf stays out of the min-plus operands,
    where -inf + inf has no value."""
    pool = [0.0, -0.0, 0.5, -0.5, 1.0, np.inf, identity] + ([] if identity == np.inf else [-np.inf])
    values = rng.choice(pool, size=shape)
    return np.where(rng.random(shape) < 0.3, rng.normal(size=shape).round(1), values)


def _assert_bitwise(F, G, use):
    op, reduce, identity = _CONVOLUTIONS[use]
    ref = _per_entry_convolution(F, G, op, reduce, identity)
    assert lattice_convolution(F, G, op, reduce, identity).tobytes() == ref.tobytes()


@pytest.mark.parametrize("use", sorted(_CONVOLUTIONS))
def test_lattice_convolution_is_bitwise_the_per_entry_fold(use):
    """Ragged 1-D and 2-D shapes with size-1 axes, where signed-zero ties,
    infinities and identity entries in F (skipped) and G (kept) decide the
    sign of zero results: a fold in another order moves them."""
    rng = np.random.default_rng(sorted(_CONVOLUTIONS).index(use))
    identity = _CONVOLUTIONS[use][2]
    for _ in range(600):
        ndim = int(rng.integers(1, 3))
        F = _tie_field(rng, tuple(rng.integers(1, 8, ndim)), identity)
        G = _tie_field(rng, tuple(rng.integers(1, 8, ndim)), identity)
        _assert_bitwise(F, G, use)


@pytest.mark.parametrize("use", sorted(_CONVOLUTIONS))
def test_lattice_convolution_blocks_are_bitwise_the_per_entry_fold(use, monkeypatch):
    """A scratch bound of 12 cells splits the convolutions into blocks of F
    columns and, for the longer G rows, of G rows; the fold order must
    survive the blocking."""
    from qcvx import grids

    monkeypatch.setattr(grids, "_SCRATCH_BYTES", 96)
    rng = np.random.default_rng(10 + sorted(_CONVOLUTIONS).index(use))
    identity = _CONVOLUTIONS[use][2]
    for _ in range(100):
        ndim = int(rng.integers(1, 3))
        F = _tie_field(rng, tuple(rng.integers(1, 9, ndim)), identity)
        G = _tie_field(rng, tuple(rng.integers(1, 9, ndim)), identity)
        _assert_bitwise(F, G, use)


@pytest.mark.parametrize("shape", [(2, 400), (3, 700)])
def test_lattice_convolution_thin_lattice_spans_scratch_blocks(shape):
    """A long axis whose unblocked scratch exceeds the bound, for each use."""
    rng = np.random.default_rng(shape[1])
    for use, (_, _, identity) in _CONVOLUTIONS.items():
        _assert_bitwise(_tie_field(rng, shape, identity), _tie_field(rng, shape, identity), use)


def test_lattice_convolution_sparse_indicator_field():
    """A disk indicator on 41² (most F entries skipped, and each row cropped
    to its live span) against a field with signed zeros, for the sup-min
    oracle."""
    x = np.linspace(-1.0, 1.0, 41)
    F = (np.add.outer(x ** 2, (x - 0.3) ** 2) <= 0.08).astype(float)
    assert 50 < np.count_nonzero(F) < 200
    G = _tie_field(np.random.default_rng(3), (41, 41), 0.0)
    _assert_bitwise(F, G, "sup-min")
    _assert_bitwise(F, np.abs(G) + 1.0, "sup-min")


def test_lattice_convolution_scratch_is_bounded():
    """At 121² an unblocked scratch buffer would take 28 MB; the kernel's own
    allocations stay within the output plus about 2 MiB."""
    import tracemalloc

    rng = np.random.default_rng(7)
    F, G = rng.uniform(0, 1, (121, 121)), rng.uniform(0, 1, (121, 121))
    tracemalloc.start()
    try:
        out = lattice_convolution(F, G, np.minimum, np.maximum, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + G.nbytes + (2 << 20) + (1 << 18)


def test_lattice_convolution_restores_the_ufunc_buffer_size():
    """The kernel shrinks numpy's ufunc buffer while it runs; the caller's
    size comes back after a normal return and after a raising op."""
    def failing_op(*args, **kwargs):
        raise ZeroDivisionError

    F = np.ones((3, 3))
    with np.errstate():  # scopes the size set here to this test
        np.setbufsize(4096)
        lattice_convolution(F, F, np.minimum, np.maximum, 0.0)
        assert np.getbufsize() == 4096
        with pytest.raises(ZeroDivisionError):
            lattice_convolution(F, F, failing_op, np.maximum, 0.0)
        assert np.getbufsize() == 4096


@pytest.mark.parametrize("shapes", [((3, 3, 3), (3, 3, 3)), ((4,), (4, 4)), ((), ())])
def test_lattice_convolution_rejects_other_dimensions(shapes):
    F, G = np.ones(shapes[0]), np.ones(shapes[1])
    with pytest.raises(GridTooCoarse):
        lattice_convolution(F, G, np.minimum, np.maximum, 0.0)


@pytest.mark.parametrize("shape", [(1,), (3,), (40,), (1, 6), (2, 2), (9, 13), (41, 41),
                                   (81, 81)])
def test_erosion_matches_minimum_filter_bitwise(shape):
    """Reference: scipy's grey erosion over a 5-point window per axis with
    the edge values repeated, on fields with plateaus, signed zeros and both
    infinities; every other field has no negative finite values, so many
    windows bottom out at a zero of either sign."""
    rng = np.random.default_rng(sum(shape))
    for k in range(6):
        values = rng.choice([0.0, -0.0, 0.25, 1.0, np.inf, -np.inf], size=shape)
        noise = rng.normal(size=shape)
        values = np.where(rng.random(shape) < 0.5, np.abs(noise) if k % 2 else noise, values)
        ref = minimum_filter(values, size=5, mode="nearest")
        out = _eroded(values, cells=2)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def test_supmin_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        grid_sup_min(EXP_DISC, EXP_DISC, GridSpec.cube(0.5, 2, 11))


def test_noncompact_pair_breaks_level_set_formula():
    # heights approach 1 but never reach it: on any finite lattice the sup-min
    # stays strictly below the level-set prediction at the top height
    xs = np.linspace(-40, 40, 4001)
    f = 0.5 + np.arctan(xs) / math.pi
    g = 0.5 - np.arctan(xs) / math.pi
    conv = supmin_arrays(f, g)
    # level sets K_t(f) + K_t(g) = R for every t < 1, so the formula yields 1
    level_set_value = 1.0
    assert np.max(conv) < level_set_value - 1e-3
    # while on compact stacks the formula is exact (contrast)
    rng = np.random.default_rng(0)
    h = random_stack(rng)
    assert evaluate(oplus(h, h), [0, 0]) == 1.0


# -- log-concavity certification ----------------------------------------------

def test_certify_log_concave():
    assert certify_log_concave(indicator(SQUARE))
    assert certify_log_concave(EXP_DISC, heights=np.geomspace(1, 1e-3, 8))
    rng = np.random.default_rng(12)
    # generic multi-level stacks are step functions, hence not log-concave
    f = random_stack(rng, nlevels=4)
    assert not certify_log_concave(f)


def test_sum_preserves_log_concavity_flag():
    g2 = RadialQC(ConvexBody.ball(2.0, 2), GaussianProfile(1.0))
    s = oplus(EXP_DISC, g2)
    assert isinstance(s, SumQC) or isinstance(s, RadialQC)
    assert s.is_log_concave()


def test_epsilon_extension_over_a_ball_is_flagged_log_concave(monkeypatch):
    # the constant part eps * D is a log-concave indicator, so the one-band
    # rule decides without the sampled certificate
    def refuse(*args, **kwargs):
        raise AssertionError("certify_log_concave called")

    monkeypatch.setattr(qc, "certify_log_concave", refuse)
    fe = epsilon_extension(EXP_DISC, 0.5)
    assert isinstance(fe, SumQC) and fe.is_log_concave()


# -- banded sums of stacks, radial and dilated functions -------------------------

BOX2 = ConvexBody.box([-1, -1], [1, 1])
DIAMOND = ConvexBody.polytope([[1, 0], [-1, 0], [0, 1], [0, -1]])


def _dilated_box():
    from qcvx.rearrange import SizeFunctional
    from qcvx.reshape import dilate_to_exponential
    return dilate_to_exponential(SizeFunctional.vol(2), indicator(BOX2))


def test_oplus_stack_radial_is_exact():
    # int (1_K (+) exp(-|x|_L)) = |K| + 2 V(K, L) + 2 |L| by the Steiner-type
    # expansion of |K + r L| integrated against the exponential height law
    square = oplus(indicator(BOX2), RadialQC(BOX2, exponential_profile(1.0)))
    assert integral(square) == pytest.approx(20.0, rel=1e-9)
    disc = oplus(indicator(BOX2), EXP_DISC)
    assert integral(disc) == pytest.approx(12.0 + 2.0 * math.pi, rel=1e-9)


@pytest.mark.parametrize("make", [lambda: indicator(BOX2), _dilated_box])
def test_odot_scales_banded_sum_integral(make):
    s = oplus(make(), RadialQC(DIAMOND, exponential_profile(1.0)))
    lam = 1.7
    assert integral(odot(lam, s)) == pytest.approx(lam ** 2 * integral(s), rel=1e-9)


def test_mixed_integral_of_dilated_sum_keeps_its_value():
    # the band integrates exp and Gaussian radii in closed form; the value is
    # the band expansion integrated term by term by mpmath at 40 digits
    # (the adaptive quadrature gave 8.472331392316487, 1.7e-12 below)
    s = oplus(_dilated_box(), RadialQC(DIAMOND, exponential_profile(1.0)))
    g = RadialQC(ConvexBody.ball(1.0, 2), GaussianProfile(1.0))
    assert mixed_integral([s, g]) == pytest.approx(8.4723313923311909, rel=1e-12)


def _phi_by_band_terms(phi, f, t):
    """Phi(level set of f at t): the band at t expanded afresh, then evaluated."""
    parts = _band_at(f.bands(), t).parts
    const, profiles, terms = band_terms([parts] * phi.degree
                                        + [((1.0, ref),) for ref in phi.references])
    return phi.weight_constant * float(const + terms_at(profiles, terms, t))


def test_band_terms_phi_matches_level_set_on_multipart_sum():
    # the 3-D functionals give m = 3, 2 and 1 part slots with 0, 1 and 2
    # reference slots; a weighted functional multiplies by the integral of
    # its weight profiles
    from qcvx.rearrange import SizeFunctional
    cube = ConvexBody.box([-0.5] * 3, [0.5] * 3)
    octa = ConvexBody.polytope(np.vstack([np.eye(3), -np.eye(3)]))
    weighted2 = SizeFunctional(dim=2, degree=1, weights=(
        RadialQC(ConvexBody.ball(1.0, 2), GaussianProfile(1.0)),))
    weighted3 = SizeFunctional(dim=3, degree=1, weights=(
        RadialQC(ConvexBody.ball(1.0, 3), GaussianProfile(1.0)),
        RadialQC(cube, exponential_profile(1.0))))
    # integral of sqrt(log 1/t) * log(1/t) dt = Gamma(5/2)
    assert weighted3.weight_constant == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-10)
    cases = [
        (oplus(LevelStack([(1.0, SQUARE), (0.4, DIAMOND)]),
               RadialQC(BOX2, exponential_profile(2.0))),
         (SizeFunctional.vol(2), SizeFunctional.quermass(2, 1), weighted2)),
        (oplus(LevelStack([(1.0, cube), (0.4, scale(octa, 2.0))]),
               RadialQC(octa, exponential_profile(2.0))),
         (SizeFunctional.vol(3), SizeFunctional.quermass(3, 1),
          SizeFunctional.quermass(3, 2), weighted3)),
    ]
    for f, phis in cases:
        assert len(f.bands()) == 2
        assert all(len(band.parts) == 2 for band in f.bands())
        for phi in phis:
            for t in (0.9, 0.4, 0.2, 0.05):
                assert _phi_by_band_terms(phi, f, t) == pytest.approx(
                    phi.eval_body(f.level_set(t)), rel=1e-10)


class _CountingProfile(Profile):
    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def inv(self, t):
        self.calls += 1
        return self.inner.inv(t)


def test_terms_at_inverts_each_distinct_profile_once():
    """V(S, S, S) over one band of a 3-D two-part sum expands to 8 terms over
    2 distinct profiles; terms_at inverts each once per call and returns the
    term-by-term products bitwise, at one height and at 64 nodes."""
    cube = ConvexBody.box([-0.5] * 3, [0.5] * 3)
    octa = ConvexBody.polytope(np.vstack([np.eye(3), -np.eye(3)]))
    p, q = _CountingProfile(exponential_profile(1.0)), _CountingProfile(GaussianProfile(2.0))
    parts = ((p, cube), (q, octa))
    const, profiles, terms = band_terms([parts] * 3)
    assert const == 0.0 and profiles == [p, q] and len(terms) == 8
    assert [picks for _, picks in terms] == [
        (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    for t in (0.37, np.geomspace(1e-6, 1.0, 64)):
        p.calls = q.calls = 0
        got = terms_at(profiles, terms, t)
        assert (p.calls, q.calls) == (1, 1)
        want = 0.0  # one product per choice of parts, each factor inverted afresh
        for choice in itertools.product(parts, repeat=3):
            prod = mixed_volume([base for _, base in choice])
            for coef, _ in choice:
                prod = prod * coef.inner.inv(t)
            want = want + prod
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# -- height search ------------------------------------------------------------

def _reference_bisect(f, x):
    """Reference: sup{t : x in K_t} by 60 geometric halvings of [1e-12, 1],
    each deciding containment on a freshly built level set."""
    if not contains_point(f.level_set(1e-12), x):
        return 0.0
    if contains_point(f.level_set(1.0), x):
        return 1.0
    lo, hi = 1e-12, 1.0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if contains_point(f.level_set(mid), x):
            lo = mid
        else:
            hi = mid
    return lo


def _assert_within_ulps(new, ref, ulps):
    """Heights are nonnegative, so their bit patterns order like the floats."""
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    assert np.all(np.abs(new.view(np.int64) - ref.view(np.int64)) <= ulps)


def _count_level_sets(f):
    """Count the level sets f builds from now on."""
    built = [0]
    level_set = f.level_set

    def counted(t):
        built[0] += 1
        return level_set(t)

    f.level_set = counted
    return built


def _parabolic_cap_section(npts):
    from qcvx.rearrange import SizeFunctional
    from qcvx.reshape import ParabolicCapQC, dilate_to_exponential
    xs = np.geomspace(0.3, 6.0, npts)
    return (dilate_to_exponential(SizeFunctional.vol(2), ParabolicCapQC(64)),
            np.stack([xs, np.zeros_like(xs)], axis=1))


@pytest.mark.parametrize("npts", [9, 25])
def test_dilated_section_is_bitwise_the_reference_bisection(npts):
    f, pts = _parabolic_cap_section(npts)
    ref = np.array([_reference_bisect(f, p) for p in pts])
    assert f.evaluate_many(pts).tobytes() == ref.tobytes()


def test_dilated_section_builds_few_level_sets():
    """The 9 section points take at most 200 level sets, against the 558 of
    62 per point that bisection builds."""
    f, pts = _parabolic_cap_section(9)
    built = _count_level_sets(f)
    f.evaluate_many(pts)
    assert built[0] <= 200


@pytest.mark.parametrize("dim", [2, 3])
def test_sum_heights_match_the_reference_bisection(dim):
    """Seeded points, the origin (1) and a point outside every level set (0)
    land within 8 ulps of bisection: both end in the few-ulp band where
    rounding in the level sets can flip membership."""
    from qcvx.generators import random_polytope
    rng = np.random.default_rng(40 + dim)
    f = oplus(*(RadialQC(random_polytope(rng, dim, 8, origin_interior=True),
                         exponential_profile(1.0)) for _ in range(2)))
    assert isinstance(f, SumQC)
    pts = np.vstack([np.zeros(dim), np.full(dim, 1e3), rng.normal(0.0, 2.0, (10, dim))])
    values = f.evaluate_many(pts)
    assert values[0] == 1.0 and values[1] == 0.0
    _assert_within_ulps(values, [_reference_bisect(f, p) for p in pts], 8)


def test_segment_sum_heights_match_the_reference_bisection():
    """Level sets that are segments give only the sign of the margin."""
    seg_a = ConvexBody.polytope([[-1.0, 0.0], [1.0, 0.0]])
    seg_b = ConvexBody.polytope([[-0.5, 0.0], [2.0, 0.0]])
    f = SumQC([Band(0.0, 1.0, ((exponential_profile(1.0), seg_a),
                               (GaussianProfile(1.0), seg_b)))])
    xs = np.random.default_rng(5).normal(0.0, 3.0, 12)
    pts = np.vstack([np.stack([xs, np.zeros_like(xs)], axis=1), [[0.0, 0.5]]])
    values = f.evaluate_many(pts)
    assert values[-1] == 0.0
    _assert_within_ulps(values, [_reference_bisect(f, p) for p in pts], 8)


@pytest.mark.parametrize("dim", [2, 3])
def test_step_function_heights_are_exact_at_bisection_cost(dim):
    """A stack's bands as a sum: the margin jumps at every stack height, the
    search lands on the height itself, and a point costs at most 3 level
    sets more than bisection's 60."""
    stack = random_stack(np.random.default_rng(dim), dim, nlevels=4)
    f = SumQC(stack.bands())
    pts = np.random.default_rng(9).normal(0.0, 0.8, (20, dim))
    built = _count_level_sets(f)
    np.testing.assert_array_equal(f.evaluate_many(pts), stack.evaluate_many(pts))
    assert built[0] <= 2 + 63 * len(pts)


@pytest.mark.parametrize("body", [ConvexBody.box([-100.0, -100.0], [100.0, 100.0]),
                                  ConvexBody.ball(100.0, 2)])
def test_stack_and_its_bands_agree_at_a_large_boundary(body):
    """A point 5e-8 outside a body of radius 100 lies within the slack
    1e-9 * 100 that every membership test gives it, whether the stack
    evaluates itself or its bands are searched as a sum."""
    levels = [(1.0, body)] if body.is_ball else [(1.0, BOX2), (0.5, body)]
    stack = LevelStack(levels)
    x = np.array([[100.0 + 5e-8, 0.0]])
    want = levels[-1][0]
    assert stack.evaluate_many(x)[0] == want
    assert SumQC(stack.bands()).evaluate_many(x)[0] == want
