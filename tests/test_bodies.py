"""Body arithmetic: Minkowski sums, volume, support, polarity, containment."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

from qcvx import bodies
from qcvx.bodies import (
    VERTEX_TOL,
    ConvexBody,
    _affine_frame,
    _ccw_order,
    _dedupe_rows,
    _merged_ring,
    _polygon_edges,
    _prune_convex_ring,
    _resolution,
    _sort_lex,
    approx_equal,
    body_from_json,
    body_to_json,
    contains,
    contains_point,
    direction_net,
    facet_measure,
    inradius,
    membership_margin,
    minkowski_sum,
    polar,
    polygon_ring,
    scale,
    support,
    volume,
)
from qcvx.errors import (
    DimensionMismatch,
    EmptyBody,
    NonpositiveScale,
    NumericalFailure,
    OriginNotInterior,
    UnsupportedMix,
)
from qcvx.mixed_volumes import mixed_volume, quermassintegral_body
from qcvx.qc import LevelStack, evaluate

UNIT_SQUARE = ConvexBody.box([0, 0], [1, 1])
SYM_SQUARE = ConvexBody.box([-1, -1], [1, 1])


def random_polytope(rng, dim, npts=8, spread=1.0):
    return ConvexBody.polytope(rng.uniform(-spread, spread, (npts, dim)))


# -- construction and canonicalization --------------------------------------

def test_polytope_canonicalization_drops_interior_points():
    body = ConvexBody.polytope([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.25, 0.75]])
    assert len(body.vertices) == 4
    assert approx_equal(body, UNIT_SQUARE)


def test_vertices_sorted_lexicographically():
    body = ConvexBody.polytope([[1, 1], [0, 0], [1, 0], [0, 1]])
    assert body.vertices.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_degenerate_polytopes_survive():
    seg = ConvexBody.polytope([[0, 0], [2, 2], [1, 1]])
    assert len(seg.vertices) == 2
    point = ConvexBody.polytope([[0.5, 0.5], [0.5, 0.5]])
    assert point.is_point
    assert volume(seg) == 0.0


def test_ball_and_empty_variants():
    ball = ConvexBody.ball(2.0, 2)
    assert ball.radius == 2.0
    assert ConvexBody.empty(3).is_empty
    with pytest.raises(ValueError):
        ConvexBody.ball(-1.0, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected_at_the_constructors(bad):
    name = str(bad)
    with pytest.raises(ValueError, match=name):
        ConvexBody.polytope([[0, 0], [1, 0], [0, bad]])
    with pytest.raises(ValueError, match=name):
        ConvexBody.ball(bad, 2)
    with pytest.raises(ValueError, match=name):
        scale(UNIT_SQUARE, bad)


def _vertex_rows(body, points):
    """Indices of the input rows that are vertices of the body, bitwise."""
    keys = {v.tobytes() for v in body.vertices}
    return [i for i, x in enumerate(points) if x.tobytes() in keys]


@given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.sampled_from(["round", "thin", "flat"]),
       st.floats(-3.0, 4.0), st.floats(-6.0, 0.0))
@settings(max_examples=100, deadline=None)
def test_canonical_polytope_is_free_of_scale_and_position(seed, dim, shape, log_lam, log_shift):
    """``polytope`` of P, P + c and lam P keeps the same vertex count, the
    same rank and the same input rows (moved) as vertices, for lam in
    [1e-3, 1e4] and |c| up to 1e6.  P is round, thin (solid, its width 1e-6
    to 1e-3 of its size) or flat (width 1e-16 to 1e-13, below the rule's
    1e-10), at sizes 1e-3 to 1e3 and turned at random."""
    rng = np.random.default_rng(seed)
    size = 10.0 ** rng.uniform(-3, 3)
    width = {"round": 1.0, "thin": 10.0 ** rng.uniform(-6, -3),
             "flat": 10.0 ** rng.uniform(-16, -13)}[shape]
    pts = rng.uniform(-1, 1, (int(rng.integers(dim + 2, 16)), dim))
    pts[:, -1] *= width
    turn, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    pts = size * pts @ turn.T
    # rounding P + c moves each coordinate by up to ulp(|c|) / 2, and the
    # rule's floor of 64 ulps of |c| grows with it; a thin set keeps every
    # vertex decision only while that floor stays far below its width, so
    # for thin sets alone |c| stops at 1e9 times the width (at 1e10 and
    # above, a few in 10^4 of them lose or gain a vertex or their rank)
    reach = min(1e6, 1e9 * size * width) if shape == "thin" else 1e6
    u = rng.normal(size=dim)
    shift = reach * 10.0 ** log_shift * u / np.linalg.norm(u)
    seen = []
    for points in (pts, pts + shift, 10.0 ** log_lam * pts):
        body = ConvexBody.polytope(points)
        seen.append((len(body.vertices), body.affine_rank(), _vertex_rows(body, points)))
    assert seen[0] == seen[1] == seen[2]
    assert len(seen[0][2]) == seen[0][0]  # every vertex is an input row
    assert seen[0][1] == (dim - 1 if shape == "flat" else dim)


def test_a_far_solid_keeps_its_vertices():
    # twelve points 1e-5 apart at 1e6: the centred extent sets the rule,
    # and max|x| only its floor of 64 ulps
    rng = np.random.default_rng(0)
    pts = 1e6 + 1e-5 * rng.uniform(-1, 1, (12, 3))
    body = ConvexBody.polytope(pts)
    hull = ConvexHull(pts)
    _assert_bitwise(body.vertices, _sort_lex(pts[hull.vertices]))
    assert len(body.vertices) == 9 and body.affine_rank() == 3
    # moving by a point of the set is exact, so that hull's volume is
    # the set's to round-off; Qhull's own on the far points is 6e-7 off
    assert volume(body) == pytest.approx(ConvexHull(pts - pts[0]).volume, rel=1e-14)
    assert volume(body) == pytest.approx(hull.volume, rel=1e-5)


@pytest.mark.parametrize("length", [1e5, 4e5, 1e6])
def test_a_vertex_beside_a_collinear_point_stays(length):
    # (0, L) lies on the edge from (0, 0) to (0, L + 1), and the vertex
    # (0, L + 1) beside it turns by L + 1, 1.6e4 times dist * e at L = 1e6
    pts = np.array([[0, 0], [length, 0], [0, length], [0, length + 1], [1, length + 4]])
    body = ConvexBody.polytope(pts)
    assert body.vertices.tolist() == [[0, 0], [0, length + 1], [1, length + 4], [length, 0]]
    assert volume(body) == pytest.approx(ConvexHull(pts).volume, rel=1e-14)


# -- minkowski sum -----------------------------------------------------------

def test_interval_sum():
    a = ConvexBody.interval(0, 1)
    s = minkowski_sum(a, a)
    assert approx_equal(s, ConvexBody.interval(0, 2))


def test_square_plus_square_is_double_square():
    s = minkowski_sum(UNIT_SQUARE, UNIT_SQUARE)
    assert approx_equal(s, ConvexBody.box([0, 0], [2, 2]))
    assert len(s.vertices) == 4


def test_square_plus_segment_hexagon_vs_pairwise_hull():
    seg = ConvexBody.polytope([[0, 0], [1, 1]])
    hexagon = minkowski_sum(UNIT_SQUARE, seg)
    assert len(hexagon.vertices) == 6
    pairwise = (UNIT_SQUARE.vertices[:, None, :] + seg.vertices[None, :, :]).reshape(-1, 2)
    assert approx_equal(hexagon, ConvexBody.polytope(pairwise))


def test_ball_plus_ball_and_absorbing_empty():
    assert minkowski_sum(ConvexBody.ball(1, 2), ConvexBody.ball(0.5, 2)).radius == 1.5
    assert minkowski_sum(ConvexBody.empty(2), UNIT_SQUARE).is_empty


def test_ball_polytope_mix_rejected():
    with pytest.raises(UnsupportedMix):
        minkowski_sum(ConvexBody.ball(1, 2), UNIT_SQUARE)


def test_zero_ball_is_neutral():
    assert approx_equal(minkowski_sum(ConvexBody.ball(0.0, 2), UNIT_SQUARE), UNIT_SQUARE)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        minkowski_sum(UNIT_SQUARE, ConvexBody.interval(0, 1))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sum_commutative_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_polytope(rng, 2, 5) for _ in range(3))
    assert approx_equal(minkowski_sum(a, b), minkowski_sum(b, a))
    left = minkowski_sum(minkowski_sum(a, b), c)
    right = minkowski_sum(a, minkowski_sum(b, c))
    assert approx_equal(left, right, 1e-8)


# -- scale and volume --------------------------------------------------------

def test_scale_examples():
    assert scale(ConvexBody.ball(1, 2), 2).radius == 2
    tripled = scale(UNIT_SQUARE, 3)
    assert approx_equal(tripled, ConvexBody.box([0, 0], [3, 3]))
    with pytest.raises(NonpositiveScale):
        scale(UNIT_SQUARE, 0.0)


def test_volume_examples():
    assert volume(UNIT_SQUARE) == 1.0
    assert volume(ConvexBody.ball(1, 2)) == pytest.approx(math.pi, rel=1e-15)
    assert volume(ConvexBody.ball(1, 3)) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert volume(ConvexBody.empty(2)) == 0.0
    cube = ConvexBody.box([0, 0, 0], [1, 1, 1])
    assert volume(cube) == pytest.approx(1.0, rel=1e-12)


def test_volume_monte_carlo_3d():
    rng = np.random.default_rng(7)
    body = random_polytope(rng, 3, 10)
    lo = body.vertices.min(axis=0)
    hi = body.vertices.max(axis=0)
    nsamples = 1_000_000
    pts = rng.uniform(lo, hi, (nsamples, 3))
    A, b = body.facets()
    inside = np.all(pts @ A.T <= b + 1e-12, axis=1)
    box = float(np.prod(hi - lo))
    p = inside.mean()
    estimate = box * p
    sigma = box * math.sqrt(p * (1 - p) / nsamples)
    assert abs(volume(body) - estimate) < 3 * sigma


@given(st.integers(0, 10_000), st.floats(0.1, 5.0))
@settings(max_examples=25, deadline=None)
def test_volume_homogeneity(seed, lam):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    body = random_polytope(rng, dim, 8)
    assert volume(scale(body, lam)) == pytest.approx(lam ** dim * volume(body), rel=1e-9)


# -- support -----------------------------------------------------------------

def test_support_examples():
    assert support(UNIT_SQUARE, [1, 0]) == 1.0
    assert support(ConvexBody.ball(2.5, 2), [0, 1]) == 2.5
    with pytest.raises(EmptyBody):
        support(ConvexBody.empty(2), [1, 0])
    with pytest.raises(ValueError):
        support(UNIT_SQUARE, [1, 1])  # not a unit vector


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_support_additive_under_sum(seed):
    rng = np.random.default_rng(seed)
    a = random_polytope(rng, 2, 6)
    b = random_polytope(rng, 2, 6)
    s = minkowski_sum(a, b)
    for u in direction_net(2, 16):
        assert support(s, u) == pytest.approx(support(a, u) + support(b, u), abs=1e-9)


@given(st.integers(0, 10_000), st.floats(0.1, 4.0))
@settings(max_examples=25, deadline=None)
def test_support_positively_homogeneous(seed, lam):
    rng = np.random.default_rng(seed)
    a = random_polytope(rng, 3, 6)
    for u in direction_net(3, 8):
        assert support(scale(a, lam), u) == pytest.approx(lam * support(a, u), rel=1e-10)


# -- polar -------------------------------------------------------------------

def test_polar_examples():
    assert polar(ConvexBody.ball(2, 2)).radius == 0.5
    cross = polar(SYM_SQUARE)
    expected = ConvexBody.polytope([[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert approx_equal(cross, expected)
    with pytest.raises(OriginNotInterior):
        polar(ConvexBody.box([1, 1], [2, 2]))
    with pytest.raises(OriginNotInterior):
        polar(ConvexBody.ball(0.0, 2))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_polar_involution_on_symmetric_hexagons(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (3, 2))
    body = ConvexBody.polytope(np.vstack([pts, -pts]))
    if body.affine_rank() < 2:
        return
    assert approx_equal(polar(polar(body)), body, 1e-8)


def test_polar_reverses_containment():
    rng = np.random.default_rng(3)
    small = ConvexBody.polytope(np.vstack([p := rng.uniform(-1, 1, (4, 2)), -p]))
    big = minkowski_sum(small, SYM_SQUARE)
    assert contains(big, small)
    assert contains(polar(small), polar(big))


def test_polar_involution_3d():
    cube = ConvexBody.box([-1, -1, -1], [1, 1, 1])
    octa = polar(cube)
    assert len(octa.vertices) == 6
    assert approx_equal(polar(octa), cube, 1e-9)


# -- containment -------------------------------------------------------------

def test_contains_examples():
    k = SYM_SQUARE
    assert contains(scale(k, 2), k)
    assert contains(k, k)
    assert contains(SYM_SQUARE, ConvexBody.ball(1.0, 2))
    assert not contains(ConvexBody.ball(1.0, 2), SYM_SQUARE)
    assert contains(k, ConvexBody.empty(2))
    assert not contains(ConvexBody.empty(2), k)


def test_volume_monotone_under_containment():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_polytope(rng, 2, 8)
        b = random_polytope(rng, 2, 8)
        if contains(a, b):
            assert volume(a) >= volume(b) - 1e-12


def test_contains_point_degenerate():
    seg = ConvexBody.polytope([[0, 0], [1, 1]])
    assert contains_point(seg, [0.5, 0.5])
    assert not contains_point(seg, [0.5, 0.6])


def _dot(a, x):
    """<a, x> written out as the coordinate sum ((a_0 x_0 + a_1 x_1) + a_2 x_2),
    one rounding per operation: the membership rule's product."""
    total = float(a[0]) * float(x[0])
    for k in range(1, len(a)):
        total += float(a[k]) * float(x[k])
    return total


def _reference_in_hull(verts, x, tol):
    """x within tol of conv(verts), a hull of affine rank at most 2, one
    point at a time: the projection onto its affine frame, every product
    and norm a written-out coordinate sum."""
    if len(verts) == 1:
        return bool(np.max(np.abs(verts[0] - x)) <= tol)
    origin, basis = _affine_frame(verts)
    d = x - origin
    coords = [_dot(u, d) for u in basis.T]
    resid = [d[k] - _dot(basis[k], coords) for k in range(len(d))]
    if math.sqrt(_dot(resid, resid)) > tol:
        return False
    ends = np.array([[_dot(u, v - origin) for u in basis.T] for v in verts])
    if len(coords) == 1:
        return ends.min() - tol <= coords[0] <= ends.max() + tol
    ring = _ccw_order(ends)
    A, _ = _polygon_edges(ring)
    return all(_dot(a, coords) - off <= tol
               for a, off in zip(A, np.einsum("ij,ij->i", A, ring)))


def _reference_contains(body, x, tol):
    """Reference: the thresholded slacks, compared without a subtraction."""
    x = np.asarray(x, dtype=float)
    if body.is_empty:
        return False
    if body.is_ball:
        return math.sqrt(_dot(x, x)) <= body.radius + tol * max(1.0, body.radius)
    slack = tol * max(1.0, body.bounding_radius(), float(np.max(np.abs(x))))
    if body.affine_rank() == body.dim:
        return all(_dot(a, x) - off <= slack for a, off in zip(*body.facets()))
    return _reference_in_hull(body.vertices, x, slack)


def _knife_edges(x):
    """x and the points one ulp off it along every axis, both ways."""
    x = np.asarray(x, dtype=float)
    out = [x]
    for k in range(len(x)):
        for toward in (-np.inf, np.inf):
            y = x.copy()
            y[k] = np.nextafter(y[k], toward)
            out.append(y)
    return out


@pytest.mark.parametrize("tol", [2.0 ** -20, 1e-9, 1e-6])
def test_membership_margin_sign_is_contains_point(tol):
    """The margin is at most 0 exactly where the thresholded slack admits x,
    on points placed on b + tol * scale and one ulp to either side; with a
    dyadic tol the boxes, balls and segment put x exactly on it."""
    rng = np.random.default_rng(17)
    cases = []
    for body, edge in [(ConvexBody.box([-0.5, -0.5], [0.5, 0.5]), [0.5 + tol, 0.0]),
                       (ConvexBody.box([-0.5] * 3, [0.5] * 3), [0.0, 0.0, 0.5 + tol]),
                       (ConvexBody.ball(0.5, 2), [0.5 + tol, 0.0]),
                       (ConvexBody.ball(4.0, 3), [0.0, 4.0 + 4.0 * tol, 0.0]),
                       (ConvexBody.polytope([[-0.5, 0.0], [0.5, 0.0]]), [0.5 + tol, 0.0])]:
        edge = np.asarray(edge)
        cases.append((body, edge))
        if tol == 2.0 ** -20:
            beyond = np.nextafter(edge, 2.0 * edge)
            assert membership_margin(body, edge, tol) <= 0.0 < membership_margin(body, beyond, tol)
    # a segment whose scale is its bounding radius 4, and a point
    cases.append((ConvexBody.polytope([[-4.0, 0.0], [1.0, 0.0]]), np.array([1.0 + 4.0 * tol, 0.0])))
    cases.append((ConvexBody.polytope([[0.25, -0.5]]), np.array([0.25 + tol, -0.5])))
    cases.append((ConvexBody.empty(2), np.zeros(2)))
    for dim in (2, 3):
        for _ in range(6):
            body = random_polytope(rng, dim, 9, spread=3.0)
            A, b = body.facets()
            slack = tol * max(1.0, body.bounding_radius())
            for a, off in zip(A, b):
                p = body.vertices[0]
                cases.append((body, p + (off + slack - a @ p) * a))
    for body, edge in cases:
        for x in _knife_edges(edge):
            want = _reference_contains(body, x, tol)
            assert (membership_margin(body, x, tol) <= 0.0) == want
            assert contains_point(body, x, tol) == want


def _reference_contains_body(a, b, tol):
    """Reference: the vertex test of ``contains`` written out, the facet
    slacks of every vertex against tol times its own scale on a
    full-dimensional ``a``, else the projection onto ``a``'s affine hull."""
    V = b.vertices
    scales = np.maximum(max(1.0, a.bounding_radius()), np.max(np.abs(V), axis=1))
    if a.affine_rank() == a.dim:
        return all(_dot(u, v) - off <= tol * s
                   for v, s in zip(V, scales) for u, off in zip(*a.facets()))
    return all(_reference_in_hull(a.vertices, v, tol * s) for v, s in zip(V, scales))


@pytest.mark.parametrize("tol", [2.0 ** -20, 1e-9])
def test_contains_polytope_is_the_vertex_formula(tol):
    """``contains`` answers as the written-out vertex test, bitwise, on
    polytopes with one vertex planted on b + tol * scale of a facet of a
    full-dimensional ``a`` (or past an end of a flat one) and one ulp to
    either side of it along every axis."""
    rng = np.random.default_rng(23)
    cases = []
    for dim in (2, 3):
        for _ in range(5):
            a = random_polytope(rng, dim, 9, spread=3.0)
            A, off = a.facets()
            slack = tol * max(1.0, a.bounding_radius())
            inner = 0.9 * a.vertices.mean(axis=0) + 0.1 * a.vertices[:dim]
            for u, c in zip(A, off):
                p = a.vertices[0]
                cases.append((a, p + (c + slack - u @ p) * u, inner))
    # with a dyadic tol the boxes and the segment put the vertex exactly on it
    for dim in (2, 3):
        edge = np.zeros(dim)
        edge[-1] = 0.5 + tol
        cases.append((ConvexBody.box([-0.5] * dim, [0.5] * dim), edge, np.zeros((1, dim))))
    segment = ConvexBody.polytope([[-4.0, 0.0], [1.0, 0.0]])
    cases.append((segment, np.array([1.0 + 4.0 * tol, 0.0]), np.zeros((1, 2))))
    square = ConvexBody.polytope([[x, y, 0.0] for x in (-1, 1) for y in (-1, 1)])
    cases.append((square, np.array([1.0 + 1.5 * tol, 0.5, 0.0]), np.zeros((1, 3))))
    cases.append((square, np.array([0.5, 0.5, 1.5 * tol]), np.zeros((1, 3))))
    answers = []
    for a, edge, inner in cases:
        for v in _knife_edges(edge):
            b = ConvexBody.polytope(np.vstack([v, inner]))
            assert any(np.array_equal(w, v) for w in b.vertices)
            want = _reference_contains_body(a, b, tol)
            assert contains(a, b, tol) == want
            answers.append(want)
    assert any(answers) and not all(answers)


# batch sizes of the batch-free tests: the harness's lattices (41 x 41 and
# 81 x 81 points) and one batch that takes a block of its own per facet row
BATCH_SIZES = (1, 2, 7, 1681, 6561, bodies._BLOCK + 1)


def _batch_free_bodies():
    rng = np.random.default_rng(31)
    flat = ConvexBody.polytope(rng.uniform(-1, 1, (6, 2)) @ [[1.0, 0.0, 0.5], [0.0, 1.0, -0.25]])
    return {"polygon": random_polytope(rng, 2, 9, spread=3.0),
            "solid": random_polytope(rng, 3, 12, spread=3.0),
            "disc": ConvexBody.ball(0.5, 2),
            "ball": ConvexBody.ball(4.0, 3),
            "segment": ConvexBody.polytope([[-4.0, 0.0], [1.0, 0.0]]),
            "flat-polygon": flat,
            "point": ConvexBody.polytope([[0.25, -0.5]]),
            "empty": ConvexBody.empty(2)}


@pytest.mark.parametrize("name", list(_batch_free_bodies()))
def test_membership_margin_of_a_point_does_not_depend_on_its_batch(name):
    """Every row of every batch has, bitwise, the margin of the point alone.
    The batches tile 97 distinct points (random ones, and points on the body
    or its boundary, where flat bodies answer -1), so row i holds point
    i mod 97."""
    body = _batch_free_bodies()[name]
    rng = np.random.default_rng(37)
    if body.is_polytope:
        near = rng.dirichlet(np.ones(len(body.vertices)), 48) @ body.vertices
        near[::2] = body.vertices[np.arange(24) % len(body.vertices)]  # on the boundary
    else:
        near = rng.normal(size=(48, body.dim))
        near *= max(body.radius, 1.0) * rng.uniform(0.9, 1.1, (48, 1)) / np.linalg.norm(
            near, axis=1, keepdims=True)
    points = np.vstack([near, rng.normal(0.0, 2.0, (49, body.dim))])
    for tol in (1e-9, 2.0 ** -20):
        alone = np.array([membership_margin(body, x, tol) for x in points])
        if body.is_polytope and body.affine_rank() < body.dim:
            assert set(alone) == {-1.0, 1.0}
        for size in BATCH_SIZES:
            rows = np.arange(size) % len(points)
            got = membership_margin(body, points[rows], tol)
            assert got.tobytes() == alone[rows].tobytes(), (name, tol, size)


def test_planted_knife_edge_points_read_alike_alone_and_in_a_batch():
    """Points planted on b + tol * scale of every facet of 40 random 9-gons,
    and one ulp to either side along each axis, get the same margin and the
    same stack value alone as in one batch: 0 disagreements."""
    rng = np.random.default_rng(7)
    disagree = total = 0
    for _ in range(40):
        body = random_polytope(rng, 2, 9, spread=3.0)
        A, b = body.facets()
        planted = []
        for a, off in zip(A, b):
            for w in np.linspace(0.0, 1.0, 5):
                q = w * body.vertices[0] + (1.0 - w) * body.vertices[-1]
                edge = q + (off + 1e-9 * max(1.0, body.bounding_radius()) - a @ q) * a
                planted.extend(_knife_edges(edge))
        X = np.array(planted)
        stack = LevelStack([(1.0, body)])
        margins, values = membership_margin(body, X), stack.evaluate_many(X)
        for x, m, v in zip(X, margins, values):
            total += 1
            disagree += membership_margin(body, x) != m or evaluate(stack, x) != v
    assert total > 4000
    assert disagree == 0


def _point_in_reference_hull(verts, x, tol):
    """x in conv(verts): a fresh Qhull build's planes when the hull is solid
    in 3-space, else the projection onto the affine hull."""
    if verts.shape[1] == 3 and _affine_frame(verts)[1].shape[1] == 3:
        A = ConvexHull(verts).equations
        return bool(np.all(A[:, :-1] @ x + A[:, -1] <= tol))
    return _reference_in_hull(verts, x, tol)


def _contains_per_vertex(a, b, tol=1e-9):
    """Reference: one affine-hull membership test per vertex of b."""
    return all(_point_in_reference_hull(a.vertices, v,
                                        tol * max(1.0, a.bounding_radius(),
                                                  float(np.max(np.abs(v)))))
               for v in b.vertices)


def _shifted(body, offset):
    return ConvexBody.polytope(body.vertices + offset)


@pytest.mark.parametrize("dim", [2, 3])
def test_contains_matches_per_vertex_reference(dim):
    rng = np.random.default_rng(40 + dim)
    outcomes = set()
    for trial in range(12):
        a = random_polytope(rng, dim, 10)
        if trial % 3 == 2:  # coordinates near 1e4: the max|v| term sets the slack
            a = _shifted(a, 1e4 * rng.uniform(0.5, 1.5, dim))
        center = a.vertices.mean(axis=0)
        cands = [random_polytope(rng, dim, 6, 0.5), _shifted(a, 1e-3 * rng.normal(size=dim))]
        for lam in (1 - 1e-8, 1 - 1e-10, 1.0, 1 + 1e-10, 1 + 1e-8):
            cands.append(scale(a, lam))
            cands.append(_shifted(scale(_shifted(a, -center), lam), center))
        for b in cands:
            got = contains(a, b)
            assert got == _contains_per_vertex(a, b)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_contains_lower_dimensional_container_in_3d():
    seg = ConvexBody.polytope([[0, 0, 0], [1, 2, 3]])
    tri = ConvexBody.polytope([[0, 0, 1], [2, 0, 1], [0, 2, 1]])
    cases = [
        (seg, scale(seg, 0.5), True),
        (seg, scale(seg, 1 + 1e-8), False),
        (seg, ConvexBody.polytope([[0.1, 0.2, 0.3], [0.1, 0.2, 0.31]]), False),
        (tri, ConvexBody.polytope([[0.5, 0.5, 1], [1, 0.5, 1], [0.5, 1, 1]]), True),
        (tri, ConvexBody.polytope([[0.5, 0.5, 1], [1.5, 0.6, 1]]), False),
        (tri, ConvexBody.polytope([[0.5, 0.5, 1], [0.6, 0.5, 1.01]]), False),
        (tri, ConvexBody.polytope([[0.5, 0.5, 1 + 1e-12]]), True),
    ]
    for a, b, expected in cases:
        assert a.affine_rank() < 3
        assert contains(a, b) is expected
        assert _contains_per_vertex(a, b) is expected


def _dedupe_rows_loop(points, tol):
    """Reference: keep a row unless it is within tol of an earlier kept row."""
    keep = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= tol for q in keep):
            keep.append(p)
    return np.array(keep)


def test_dedupe_rows_keeps_chain_ends():
    tol = 1e-10
    a = np.array([0.3, -0.2, 0.7])
    b = a + np.array([0.6, 0.0, -0.3]) * tol
    c = b + np.array([0.6, 0.1, -0.3]) * tol  # within tol of b, not of a
    chain = np.array([a, b, c])
    np.testing.assert_array_equal(_dedupe_rows(chain, tol), np.array([a, c]))
    np.testing.assert_array_equal(_dedupe_rows(chain, tol), _dedupe_rows_loop(chain, tol))


@pytest.mark.parametrize("seed", range(5))
def test_dedupe_rows_matches_loop(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-10
    base = rng.uniform(-1, 1, (6, 3))
    # random walks of steps up to 0.7 tol make overlapping near-duplicate chains
    walks = base[rng.integers(0, 6, 40)] + np.cumsum(
        rng.uniform(-0.7, 0.7, (40, 3)) * tol, axis=0) * (rng.random((40, 1)) < 0.8)
    for pts in (walks, walks[::-1], base):
        np.testing.assert_array_equal(_dedupe_rows(pts, tol), _dedupe_rows_loop(pts, tol))


def test_dedupe_rows_above_48_rows_keeps_first_of_each_rounded_key():
    rng = np.random.default_rng(3)
    tol = 1e-10
    base = rng.uniform(-1, 1, (40, 2))
    pts = np.vstack([base, base[rng.integers(0, 40, 30)] + rng.uniform(-0.2, 0.2, (30, 2)) * tol])
    keys = np.round(pts / tol).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    np.testing.assert_array_equal(_dedupe_rows(pts, tol), pts[np.sort(first)])


# -- the 2-D kernel: fast path, hull, merge, rank ------------------------------

def _chain_2d_loop(points, tol):
    """Reference: the rule of ``_resolution`` as a plain loop, with no Qhull.
    An exact monotone chain keeps the points that turn left, in ccw order
    from the lexicographically first; near duplicates go in lexicographic
    order (``_dedupe_rows``), and then the flat joints, flattest first."""
    dist, e = _resolution(points, tol)
    pts = sorted(map(tuple, points.tolist()))

    def turn(o, a, p):
        return (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    ring = build(pts)[:-1] + build(pts[::-1])[:-1]
    kept = set(map(tuple, _dedupe_rows(np.array(sorted(ring)), dist).tolist()))
    ring = [p for p in ring if p in kept]
    while len(ring) > 3:
        turns = [turn(ring[k - 1], ring[k], ring[(k + 1) % len(ring)])
                 for k in range(len(ring))]
        k = min(range(len(ring)), key=turns.__getitem__)
        if turns[k] > dist * e:
            break
        del ring[k]
    return np.array(ring)


def sector_polygon(rng, m, spread=1.0):
    """m points on a random ellipse, one per angular sector: all extreme."""
    ang = 2.0 * np.pi * (np.arange(m) + rng.uniform(0.1, 0.9, m)) / m
    theta = rng.uniform(0.0, np.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return spread * (np.stack([np.cos(ang), np.sin(ang)], axis=1) * rng.uniform(0.3, 1.5, 2)) @ rot.T


def _assert_bitwise(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.integers(0, 10_000), st.sampled_from(["permuted", "duplicates", "on-edges", "near-flat"]))
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_monotone_chain(seed, case):
    """Construction (the fast path, or Qhull and the rule) keeps bitwise the
    vertices of the plain-loop reference."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 70))
    pts = sector_polygon(rng, m, 10.0 ** rng.uniform(-3, 4))
    dist, e = _resolution(pts, VERTEX_TOL)
    k = rng.integers(0, m, 3)
    if case == "duplicates":
        jitter = rng.uniform(-1, 1, (3, 2)) * dist * rng.choice([0.0, 0.5, 2.0])
        pts = np.vstack([pts, pts[k] + jitter])
    elif case == "on-edges":
        t = rng.uniform(0, 1, (3, 1))
        pts = np.vstack([pts, t * pts[k] + (1 - t) * pts[(k + 1) % m]])
    elif case == "near-flat":
        # push an edge midpoint out until its turn is within a factor 4 of dist * e
        a, b = pts[k[0]], pts[(k[0] + 1) % m]
        normal = np.array([b[1] - a[1], a[0] - b[0]])
        normal /= np.linalg.norm(normal)
        height = rng.uniform(0.25, 4.0) * dist * e / np.linalg.norm(b - a)
        pts = np.vstack([pts, 0.5 * (a + b) + height * normal])
    pts = pts[rng.permutation(len(pts))]
    _assert_bitwise(ConvexBody.polytope(pts).vertices, _sort_lex(_chain_2d_loop(pts, VERTEX_TOL)))
    if case == "permuted":
        # convex input takes the fast path and caches the ring facets use
        body = ConvexBody.polytope(pts)
        assert "_ring" in body.__dict__
        _assert_bitwise(polygon_ring(body), _ccw_order(body.vertices))


@given(st.integers(0, 10_000), st.sampled_from(["random", "homothet", "K+K", "boxes", "near-1e4"]))
@settings(max_examples=60, deadline=None)
def test_merge_matches_all_pairs_hull_bitwise(seed, case):
    rng = np.random.default_rng(seed)
    a = ConvexBody.polytope(sector_polygon(rng, int(rng.integers(3, 40))))
    if case == "random":
        b = ConvexBody.polytope(sector_polygon(rng, int(rng.integers(3, 40)), rng.uniform(0.2, 5)))
    elif case == "homothet":
        b = scale(a, float(rng.uniform(0.1, 10.0)))
    elif case == "K+K":
        b = a
    elif case == "boxes":
        a = ConvexBody.box(*np.sort(rng.uniform(-2, 2, (2, 2)), axis=0))
        b = ConvexBody.box(*np.sort(rng.uniform(-2, 2, (2, 2)), axis=0))
    else:
        a = ConvexBody.polytope(a.vertices * 1e4)
        b = ConvexBody.polytope(sector_polygon(rng, int(rng.integers(3, 40)), 1e4))
    # parallel edges leave a joint mid-edge, which the merge drops without a hull
    ring = _merged_ring(polygon_ring(a), polygon_ring(b))
    assert _prune_convex_ring(ring, *_resolution(ring)) is not None
    pairs = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, 2)
    _assert_bitwise(minkowski_sum(a, b).vertices, ConvexBody.polytope(pairs).vertices)


def test_a_flat_lexicographic_end_is_dropped_and_the_merge_settles_the_sum():
    # the corner at the origin lies 1.5e-11 from its chord, a turn of 3e-11
    # against dist * e = 2.25e-10, so it is flat like any other joint
    a = ConvexBody.polytope([[0, 0], [1e-11, 1], [2e-11, -1], [2, 0]])
    assert a.vertices.tolist() == [[1e-11, 1], [2e-11, -1], [2, 0]]
    ring = _merged_ring(polygon_ring(a), polygon_ring(a))
    assert _prune_convex_ring(ring, *_resolution(ring)) is not None
    pairs = (a.vertices[:, None, :] + a.vertices[None, :, :]).reshape(-1, 2)
    _assert_bitwise(minkowski_sum(a, a).vertices, ConvexBody.polytope(pairs).vertices)


@given(st.integers(0, 10_000), st.floats(-12, 6), st.floats(-10, -6), st.floats(-6, 6))
@settings(max_examples=80, deadline=None)
def test_cached_rank_matches_a_fresh_frame(seed, log_size, log_width, log_lam):
    rng = np.random.default_rng(seed)

    def thin_ellipse():
        m = int(rng.integers(3, 30))
        ang = 2.0 * np.pi * (np.arange(m) + rng.uniform(0.1, 0.9, m)) / m
        # thin ellipses straddle the rank threshold, about 1e-9 times the extent
        pts = 10.0 ** log_size * np.stack([np.cos(ang), 10.0 ** log_width * np.sin(ang)], axis=1)
        return pts[rng.permutation(m)]

    pts, other = thin_ellipse(), ConvexBody.polytope(thin_ellipse())
    ellipse = ConvexBody.polytope(pts)
    # the sums of two polygons take the edge merge, which carries rank 2
    for body in (ellipse, ConvexBody.polytope(pts[:2]),
                 minkowski_sum(ellipse, ellipse), minkowski_sum(ellipse, other)):
        for b in (body, scale(body, 10.0 ** log_lam)):
            fresh = _affine_frame(b.vertices)[1].shape[1] if len(b.vertices) > 1 else 0
            assert b.affine_rank() == fresh


# -- the 3-D hull kept from canonicalization ----------------------------------

def _kept_hull_bodies():
    """Random 3-D polytopes, boxes, their pairwise sums and homothets (built
    by ``polytope``, so each carries its canonicalizing hull)."""
    rng = np.random.default_rng(2024)
    base = [random_polytope(rng, 3, npts) for npts in (5, 8, 14, 30)]
    base += [ConvexBody.box([-1, -2, 0], [1, 0, 3]), ConvexBody.box([0, 0, 0], [1, 1, 1])]
    sums = [minkowski_sum(a, b) for k, a in enumerate(base) for b in base[k:]]
    homothets = [ConvexBody.polytope(lam * a.vertices) for a in base for lam in (0.3, 7.0)]
    return base + sums + homothets


def _fresh(body):
    """The same vertices with nothing cached, so the hull is built on them."""
    return ConvexBody(dim=body.dim, kind="polytope", vertices=body.vertices.copy())


def _count_hull_builds(monkeypatch):
    """Route ``bodies.ConvexHull`` through a counter of the calling function."""
    builds = []
    real = bodies.ConvexHull

    def counted(points, *args, **kwargs):
        builds.append(sys._getframe(1).f_code.co_name)
        return real(points, *args, **kwargs)

    monkeypatch.setattr(bodies, "ConvexHull", counted)
    return builds


def test_kept_hull_planes_pass_through_vertices_and_bound_them():
    for body in _kept_hull_bodies():
        hull = body.__dict__["_hull"]
        verts = body.vertices
        slack = 1e-12 * max(1.0, body.bounding_radius())
        dist = verts @ hull.equations[:, :3].T + hull.equations[:, 3]
        assert np.all(dist <= slack)
        assert np.all(np.sum(np.abs(dist) <= slack, axis=0) >= 3)
        assert np.allclose(np.linalg.norm(hull.equations[:, :3], axis=1), 1.0, atol=1e-14)
        # each triangle lies on its own plane, and its neighbour across the
        # edge opposite vertex k shares that edge
        facet = np.arange(len(hull.simplices))[:, None]
        assert np.all(np.abs(dist[hull.simplices, facet]) <= slack)
        for f, tri in enumerate(hull.simplices):
            for k in range(3):
                edge = set(tri) - {tri[k]}
                assert edge <= set(hull.simplices[hull.neighbors[f, k]])


def test_kept_hull_gives_the_values_of_a_fresh_build():
    for body in _kept_hull_bodies():
        fresh = _fresh(body)
        assert volume(body) == pytest.approx(volume(fresh), rel=1e-13, abs=0)
        assert facet_measure(body)[1].sum() == pytest.approx(
            facet_measure(fresh)[1].sum(), rel=1e-13, abs=0)
        assert quermassintegral_body(body, 2) == pytest.approx(
            quermassintegral_body(fresh, 2), rel=1e-13, abs=0)
        assert mixed_volume([body, body, body]) == volume(body)


def test_kept_hull_needs_no_second_build(monkeypatch):
    bodies_ = _kept_hull_bodies()
    builds = _count_hull_builds(monkeypatch)
    for body in bodies_:
        volume(body)
        quermassintegral_body(body, 1)  # the facet measure
        quermassintegral_body(body, 2)  # the edge angles
        body.facets()
    assert builds == []


def test_a_dropped_near_duplicate_vertex_rebuilds_the_hull(monkeypatch):
    cube = ConvexBody.box([0, 0, 0], [1, 1, 1]).vertices
    body = ConvexBody.polytope(np.vstack([cube, cube[-1] + [5e-11, 3e-11, -2e-11]]))
    assert len(body.vertices) == 8 and "_hull" not in body.__dict__
    builds = _count_hull_builds(monkeypatch)
    assert volume(body) == pytest.approx(1.0, rel=1e-14)
    assert quermassintegral_body(body, 2) == pytest.approx(math.pi, rel=1e-14)
    assert builds == ["convex_hull"]


def test_a_qj_retry_is_not_kept(monkeypatch):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (12, 3))
    real = bodies.ConvexHull

    def refuse_plain(points, *args, **kwargs):
        if "QJ" not in str(kwargs.get("qhull_options") or ""):
            raise QhullError("refused for the test")
        return real(points, *args, **kwargs)

    monkeypatch.setattr(bodies, "ConvexHull", refuse_plain)
    body = ConvexBody.polytope(pts)
    monkeypatch.undo()
    assert "_hull" not in body.__dict__
    builds = _count_hull_builds(monkeypatch)
    expected = ConvexHull(pts)
    assert volume(body) == pytest.approx(expected.volume, rel=1e-13)
    assert builds == ["convex_hull"]


def test_a_qj_retry_settles_polygons_as_a_plain_build(monkeypatch):
    rng = np.random.default_rng(1)
    plane = np.vstack([rng.uniform(-1, 1, (10, 2)), [[0.0, 0.0]]])
    turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    space = np.column_stack([plane, np.zeros(len(plane))]) @ turn.T + 5.0
    plain = [ConvexBody.polytope(pts).vertices for pts in (plane, space)]
    real = bodies.ConvexHull

    def refuse_plain(points, *args, **kwargs):
        if "QJ" not in str(kwargs.get("qhull_options") or ""):
            raise QhullError("refused for the test")
        return real(points, *args, **kwargs)

    monkeypatch.setattr(bodies, "ConvexHull", refuse_plain)
    for pts, want in zip((plane, space), plain):
        assert len(want) < len(pts)
        _assert_bitwise(ConvexBody.polytope(pts).vertices, want)


def test_flat_and_scaled_bodies_carry_no_hull(monkeypatch):
    flat = ConvexBody.polytope([[0, 0, 1], [2, 0, 1], [0, 2, 1], [2, 2, 1], [1, 1, 1]])
    solid = ConvexBody.box([0, 0, 0], [1, 2, 3])
    image = scale(solid, 2.0)
    assert "_hull" not in flat.__dict__ and "_hull" not in image.__dict__
    builds = _count_hull_builds(monkeypatch)
    assert volume(flat) == 0.0
    assert facet_measure(flat)[1].tolist() == [4.0, 4.0]
    assert builds == []
    assert volume(image) == pytest.approx(8.0 * volume(solid), rel=1e-14)
    assert builds == ["convex_hull"]


def test_check_all_in_space_builds_each_hull_once(monkeypatch, tmp_path, capsys):
    from qcvx.cli import main

    builds = _count_hull_builds(monkeypatch)
    assert main(["check", "all", "--dim", "3", "--trials", "1", "--seed", "7",
                 "--out", str(tmp_path / "run")]) == 0
    # every body this round measures kept the hull that canonicalized it
    assert builds and set(builds) == {"_extreme_points"}


def test_check_all_in_the_plane_builds_hulls_only_to_canonicalize(monkeypatch, tmp_path, capsys):
    from qcvx.cli import main

    builds = _count_hull_builds(monkeypatch)
    assert main(["check", "all", "--dim", "2", "--trials", "4", "--seed", "7",
                 "--out", str(tmp_path / "run")]) == 0
    # Qhull finds the vertices of sets not in strictly convex position; rings,
    # facets and areas are the polygon's own and need no hull
    assert builds and set(builds) == {"_extreme_points"}


# -- approximate equality ----------------------------------------------------

def _all_pairs_equal(a, b, tol):
    """approx_equal on two polytopes by the all-pairs distance test alone."""
    if len(a.vertices) != len(b.vertices):
        return False
    slack = tol * max(1.0, a.bounding_radius(), b.bounding_radius())
    d = np.linalg.norm(a.vertices[:, None, :] - b.vertices[None, :, :], axis=2)
    return bool(np.all(d.min(axis=1) <= slack) and np.all(d.min(axis=0) <= slack))


@given(st.integers(0, 10_000), st.sampled_from([2, 3]),
       st.sampled_from([0.0, 1e-16, 1e-12, 1e-9]),
       st.sampled_from(["permuted", "scattered", "radial"]),
       st.sampled_from([0.5, 0.999, 1.0, 1.001, 1.999, 2.001, 3.0]),
       st.floats(-3.0, 3.0))
@settings(max_examples=150, deadline=None)
def test_approx_equal_radius_shortcut_agrees_with_all_pairs(seed, dim, tol, move, factor,
                                                            log_extent):
    """Permuted copies, and copies whose vertices move by factor * slack, at
    and near the slack and twice it: in scattered directions, or straight out
    from the origin so the bounding radii part by about that much.  With
    tol = 0 a move above the slack is one ulp."""
    rng = np.random.default_rng(seed)
    extent = 10.0 ** log_extent
    a = ConvexBody.polytope(extent * (rng.uniform(-1, 1, (8, dim)) + rng.uniform(-3, 3, dim)))
    v = a.vertices
    if move == "permuted":
        moved = rng.permutation(v)
    elif tol == 0.0:
        moved = np.nextafter(v, np.inf) if factor > 1.0 else v.copy()
    else:
        if move == "scattered":
            u = rng.normal(size=v.shape)
        else:
            u = v.copy()
        u /= np.linalg.norm(u, axis=1)[:, None]
        moved = v + factor * tol * max(1.0, a.bounding_radius()) * u
    b = ConvexBody.polytope(moved)
    assert approx_equal(a, b, tol) == _all_pairs_equal(a, b, tol)
    assert approx_equal(b, a, tol) == _all_pairs_equal(b, a, tol)
    if move == "permuted":
        assert approx_equal(a, b, tol)


# -- json --------------------------------------------------------------------

def test_json_round_trip():
    for body in (UNIT_SQUARE, ConvexBody.ball(1.5, 3), ConvexBody.empty(1)):
        clone = body_from_json(body_to_json(body))
        assert approx_equal(body, clone, 1e-15)
    encoded = body_to_json(UNIT_SQUARE)
    assert encoded["type"] == "polytope"
    assert body_to_json(ConvexBody.ball(1.5, 3)) == {"type": "ball", "radius": 1.5, "dim": 3}


# -- inradius ----------------------------------------------------------------

def linprog_inradius(body):
    """Reference: the Chebyshev-centre LP, max r subject to A x + r <= b on
    the facets, solved with HiGHS."""
    from scipy.optimize import linprog

    A, b = body.facets()
    n = body.dim
    res = linprog(c=[0.0] * n + [-1.0], A_ub=np.hstack([A, np.ones((len(A), 1))]), b_ub=b,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    assert res.success, res.message
    return float(res.x[-1])


def regular_polygon(m, radius=1.0):
    ang = 2.0 * math.pi * np.arange(m) / m
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


@pytest.mark.parametrize("verts, closed_form", [
    ([[0, 0], [1, 0], [0, 1]], 1.0 / (2.0 + math.sqrt(2.0))),
    ([[0, 0], [1, 0], [1, 1], [0, 1]], 0.5),
    ([[0, 0], [1, 0], [1, 10], [0, 10]], 0.5),          # the centre is not unique
    ([[0, 0], [100, 0], [100, 1e-3], [0, 1e-3]], 5e-4),  # a thin strip
    ([[0, 0], [1, 0], [1, 1 - 5e-10], [0, 1 - 5e-10]], (1 - 5e-10) / 2),
    (regular_polygon(128), math.cos(math.pi / 128)),
    (regular_polygon(512), math.cos(math.pi / 512)),
])
def test_polygon_inradius_examples(verts, closed_form):
    body = ConvexBody.polytope(verts)
    r = inradius(body)
    assert r == pytest.approx(linprog_inradius(body), rel=1e-12)
    assert r == pytest.approx(closed_form, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_polygon_inradius_matches_the_lp(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 24)), 2))
        pts = pts * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-5, 5, 2)
        body = ConvexBody.polytope(pts)
        if body.affine_rank() < 2:
            continue
        assert inradius(body) == pytest.approx(linprog_inradius(body), rel=1e-12)


def test_polygon_inradius_keeps_its_digits_far_from_the_origin():
    # a dyadic triangle moves exactly; its facet offsets b are ~1e4 times its
    # size, which costs an LP on (A, b) about 1e-12 of the radius
    a = 2.0 ** -10
    tri = np.array([[0.0, 0.0], [a, 0.0], [0.0, a]])
    r = inradius(ConvexBody.polytope(tri + [5.0, -3.0]))
    assert r == pytest.approx(a / (2.0 + math.sqrt(2.0)), rel=1e-15)
    assert r == inradius(ConvexBody.polytope(tri))


def test_inradius_closed_forms_and_degenerate_bodies():
    assert inradius(ConvexBody.polytope([[-1.0], [3.0]])) == 2.0
    assert inradius(ConvexBody.ball(1.5, 3)) == 1.5
    assert inradius(ConvexBody.empty(2)) == 0.0
    assert inradius(ConvexBody.polytope([[0, 0], [1, 1]])) == 0.0
    assert inradius(ConvexBody.box([0, 0, 0], [1, 2, 3])) == pytest.approx(0.5, rel=1e-12)


def test_inradius_raises_when_the_lp_fails(monkeypatch):
    import scipy.optimize

    class Failed:
        success = False
        message = "iteration limit reached"

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: Failed())
    with pytest.raises(NumericalFailure, match="iteration limit"):
        inradius(ConvexBody.box([0, 0, 0], [1, 1, 1]))
