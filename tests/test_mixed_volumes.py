"""Mixed volumes: facet-measure formula vs inclusion-exclusion and grid fit,
quermassintegrals, Steiner data."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcvx.bodies import (
    ConvexBody,
    contains,
    facet_measure,
    minkowski_sum,
    scale,
    volume,
)
from qcvx.errors import ArityMismatch, IndexOutOfRange
from qcvx.mixed_volumes import (
    minkowski_polynomial,
    mixed_volume,
    quermassintegral_body,
    surface_area_body,
    unit_ball_polytope,
)

UNIT_SQUARE = ConvexBody.box([0, 0], [1, 1])


def random_polytope(rng, dim, npts=8):
    while True:
        body = ConvexBody.polytope(rng.uniform(-1, 1, (npts, dim)))
        if body.affine_rank() == dim:
            return body


def steiner_fit_quermass(body, i):
    """Independent oracle: fit Vol(K + eps * D~) at eps = 0..n and read W_i."""
    n = body.dim
    ball = unit_ball_polytope(n)
    eps = np.arange(n + 1, dtype=float)
    vols = [volume(body) if e == 0 else volume(minkowski_sum(body, scale(ball, e)))
            for e in eps]
    coeffs = np.linalg.solve(np.vander(eps, increasing=True), vols)
    return coeffs[i] / math.comb(n, i)


# -- mixed volume ------------------------------------------------------------

def test_diagonal_is_volume():
    assert mixed_volume([UNIT_SQUARE, UNIT_SQUARE]) == pytest.approx(1.0, abs=1e-12)
    cube = ConvexBody.box([0, 0, 0], [1, 1, 1])
    assert mixed_volume([cube] * 3) == pytest.approx(1.0, abs=1e-12)


def test_square_ball_steiner_value():
    v = mixed_volume([UNIT_SQUARE, ConvexBody.ball(1.0, 2)])
    assert v == pytest.approx(2.0, rel=1e-12)  # Vol(K+eD) = 1 + 4e + pi e^2


def test_square_vs_rotated_square_matches_fit():
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    other = ConvexBody.polytope(ConvexBody.box([-0.5, -0.5], [0.5, 0.5]).vertices @ rot.T)
    v = mixed_volume([UNIT_SQUARE, other])
    fit = minkowski_polynomial([UNIT_SQUARE, other]).coefficient((0, 1))
    assert v == pytest.approx(fit, rel=1e-9)


def test_arity_checks():
    with pytest.raises(ArityMismatch):
        mixed_volume([UNIT_SQUARE])
    with pytest.raises(ArityMismatch):
        mixed_volume([UNIT_SQUARE] * 3)


def test_empty_body_gives_zero():
    assert mixed_volume([UNIT_SQUARE, ConvexBody.empty(2)]) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_symmetry_and_multilinearity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_polytope(rng, 2, 6) for _ in range(3))
    assert mixed_volume([a, b]) == pytest.approx(mixed_volume([b, a]), rel=1e-10)
    lhs = mixed_volume([minkowski_sum(a, b), c])
    rhs = mixed_volume([a, c]) + mixed_volume([b, c])
    assert lhs == pytest.approx(rhs, rel=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_monotone_in_each_argument(seed):
    rng = np.random.default_rng(seed)
    a = random_polytope(rng, 2, 6)
    b = random_polytope(rng, 2, 6)
    bump = ConvexBody.polytope(np.vstack([rng.uniform(-1, 1, (4, 2)), [[0, 0]]]))
    bigger = minkowski_sum(a, bump)
    assert contains(bigger, a)
    assert mixed_volume([bigger, b]) >= mixed_volume([a, b]) - 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_body_level_alexandrov_fenchel(seed):
    rng = np.random.default_rng(seed)
    a, b = (random_polytope(rng, 2, 6) for _ in range(2))
    lhs = mixed_volume([a, b]) ** 2
    rhs = volume(a) * volume(b)
    assert lhs >= rhs * (1 - 1e-9)


def inclusion_exclusion(bodies):
    """Independent oracle: (1/n!) sum_S (-1)^(n-|S|) Vol(sum_{i in S} K_i)."""
    n = len(bodies)
    total = 0.0
    for r in range(1, n + 1):
        for subset in itertools.combinations(bodies, r):
            acc = subset[0]
            for body in subset[1:]:
                acc = minkowski_sum(acc, body)
            total += (-1) ** (n - r) * volume(acc)
    return total / math.factorial(n)


MULTIPLICITY_PATTERNS = {
    2: [(0, 0), (0, 1)],
    3: [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 2)],
}


@pytest.mark.parametrize("seed", range(12))
def test_facet_measure_matches_inclusion_exclusion_and_fit(seed):
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 2
    ks = [random_polytope(rng, dim, int(rng.integers(4, 12))) for _ in range(3)]
    for pattern in MULTIPLICITY_PATTERNS[dim]:
        bodies = [ks[i] for i in pattern]
        value = mixed_volume(bodies)
        assert value == pytest.approx(inclusion_exclusion(bodies), rel=1e-12), pattern
        fit = minkowski_polynomial(bodies).coefficient(tuple(range(dim)))
        assert value == pytest.approx(fit, rel=1e-12), pattern


def test_facet_measure_totals_and_closure():
    cube = ConvexBody.box([0, 0, 0], [1, 2, 3])
    normals, areas = facet_measure(cube)
    assert areas.sum() == pytest.approx(22.0, rel=1e-12)
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        normals, areas = facet_measure(random_polytope(rng, dim, 10))
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        # Minkowski's relation: a closed surface has zero vector area
        assert np.abs(areas @ normals).max() < 1e-12


def test_lower_dimensional_operands():
    rng = np.random.default_rng(21)
    seg2 = ConvexBody.polytope([[-0.3, 0.2], [0.9, 0.7]])
    k2 = random_polytope(rng, 2, 7)
    u = np.array([0.5, -1.2]) / 1.3
    width = np.ptp(k2.vertices @ u)
    assert mixed_volume([seg2, k2]) == pytest.approx(0.5 * 1.3 * width, rel=1e-12)
    assert mixed_volume([k2, seg2]) == pytest.approx(inclusion_exclusion([k2, seg2]), rel=1e-12)
    assert mixed_volume([seg2, ConvexBody.ball(2.0, 2)]) == pytest.approx(2.0 * 1.3, rel=1e-12)

    flat = ConvexBody.polytope([[0, 0, 0.4], [1, 0, 0.4], [0, 2, 0.4], [1, 1, 0.4]])
    seg3 = ConvexBody.polytope([[0.1, -0.2, 0.3], [0.5, 0.6, -0.4]])
    point = ConvexBody.polytope([[0.2, 0.3, -0.1]])
    k3, l3 = random_polytope(rng, 3, 8), random_polytope(rng, 3, 9)
    for bodies in ([flat, k3, l3], [seg3, k3, l3], [flat, flat, k3], [flat, seg3, k3],
                   [k3, seg3, flat]):
        assert mixed_volume(bodies) == pytest.approx(inclusion_exclusion(bodies), rel=1e-12)
    assert mixed_volume([seg3, seg3, k3]) == 0.0
    assert mixed_volume([point, k3, l3]) == pytest.approx(0.0, abs=1e-12)
    assert mixed_volume([flat] * 3) == 0.0
    # V(K, K, L) of a flat K is |K| times L's width across K's plane / 3
    assert mixed_volume([flat, flat, k3]) == pytest.approx(
        1.5 * np.ptp(k3.vertices[:, 2]) / 3.0, rel=1e-12)
    # flat polygon and segment edges have exterior angles pi and 2 pi
    perimeter = 4 + math.sqrt(2)
    assert quermassintegral_body(flat, 1) == pytest.approx(2 * 1.5 / 3, rel=1e-12)
    assert quermassintegral_body(flat, 2) == pytest.approx(math.pi * perimeter / 6, rel=1e-12)
    assert quermassintegral_body(seg3, 2) == pytest.approx(
        math.pi * math.sqrt(0.16 + 0.64 + 0.49) / 3, rel=1e-12)
    assert quermassintegral_body(point, 2) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_mixed_volume_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    ks = [random_polytope(rng, 3, int(rng.integers(4, 10))) for _ in range(3)]
    for bodies in (ks, [ks[0], ks[0], ks[1]], [ks[0], ks[1], ConvexBody.ball(0.7, 3)]):
        ref = mixed_volume(bodies)
        for perm in itertools.permutations(bodies):
            assert mixed_volume(list(perm)) == pytest.approx(ref, rel=1e-12)


def test_mean_width_quermass_is_minkowski_additive():
    # A + B has parallelogram facets that Qhull splits in two; the seam edges
    # must add angle 0, not the 1.5e-8 that acos of a one-ulp dot would give
    rng = np.random.default_rng(31)
    for _ in range(5):
        a, b = random_polytope(rng, 3, 8), random_polytope(rng, 3, 8)
        total = quermassintegral_body(a, 2) + quermassintegral_body(b, 2)
        assert quermassintegral_body(minkowski_sum(a, b), 2) == pytest.approx(total, rel=1e-12)


def test_two_boxes_and_a_ball_in_space():
    def box_area(sides):
        a, b, c = sides
        return 2 * (a * b + b * c + c * a)

    for k_sides, l_sides, r in (([1, 2, 3], [0.5, 0.25, 4], 1.0),
                                ([2, 1, 0.3], [1, 1, 1], 0.37)):
        k = ConvexBody.box([0, 0, 0], k_sides)
        l = ConvexBody.box([-1, 0.5, -2], np.add([-1, 0.5, -2], l_sides))
        sum_sides = np.add(k_sides, l_sides)
        exact = r / 6 * (box_area(sum_sides) - box_area(k_sides) - box_area(l_sides))
        value = mixed_volume([k, l, ConvexBody.ball(r, 3)])
        assert value == pytest.approx(exact, rel=1e-12)


# -- minkowski polynomial ----------------------------------------------------

def test_single_body_polynomial():
    poly = minkowski_polynomial([UNIT_SQUARE])
    assert poly.coefficient((0, 0)) == pytest.approx(1.0, rel=1e-10)
    assert poly.evaluate([3.0]) == pytest.approx(9.0, rel=1e-10)


def test_equal_bodies_polynomial_collapses():
    poly = minkowski_polynomial([UNIT_SQUARE, UNIT_SQUARE])
    for ms in poly.multisets():
        assert poly.coefficient(ms) == pytest.approx(1.0, rel=1e-9)
    assert poly.evaluate([1.0, 1.0]) == pytest.approx(4.0, rel=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_cross_coefficient_matches_mixed_volume(seed):
    rng = np.random.default_rng(seed)
    a, b = (random_polytope(rng, 2, 6) for _ in range(2))
    poly = minkowski_polynomial([a, b])
    assert poly.coefficient((0, 1)) == pytest.approx(mixed_volume([a, b]), rel=1e-8)


def test_evaluation_at_unit_vectors_recovers_volume():
    rng = np.random.default_rng(5)
    a, b = (random_polytope(rng, 2, 6) for _ in range(2))
    poly = minkowski_polynomial([a, b])
    assert poly.evaluate([1.0, 1e-9]) == pytest.approx(volume(a), rel=1e-6)


# -- quermassintegrals -------------------------------------------------------

def test_quermass_square():
    assert quermassintegral_body(UNIT_SQUARE, 0) == pytest.approx(1.0, abs=1e-12)
    assert quermassintegral_body(UNIT_SQUARE, 1) == pytest.approx(2.0, rel=1e-12)
    assert quermassintegral_body(UNIT_SQUARE, 2) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(IndexOutOfRange):
        quermassintegral_body(UNIT_SQUARE, 3)


def test_quermass_cube_closed_forms():
    cube = ConvexBody.box([0, 0, 0], [2, 2, 2])
    assert quermassintegral_body(cube, 0) == pytest.approx(8.0, rel=1e-12)
    assert quermassintegral_body(cube, 1) == pytest.approx(8.0, rel=1e-12)   # area 24 / 3
    assert quermassintegral_body(cube, 2) == pytest.approx(2 * math.pi, rel=1e-12)
    assert quermassintegral_body(cube, 3) == pytest.approx(4 * math.pi / 3, rel=1e-12)


def test_quermass_matches_steiner_fit():
    rng = np.random.default_rng(17)
    for dim in (2, 3):
        body = random_polytope(rng, dim, 8)
        for i in range(1, dim):
            exact = quermassintegral_body(body, i)
            fitted = steiner_fit_quermass(body, i)
            assert fitted == pytest.approx(exact, rel=5e-3)


def test_surface_area():
    assert surface_area_body(UNIT_SQUARE) == pytest.approx(4.0, rel=1e-12)
    assert surface_area_body(ConvexBody.ball(2.0, 2)) == pytest.approx(4 * math.pi, rel=1e-12)
    cube = ConvexBody.box([0, 0, 0], [1, 1, 1])
    assert surface_area_body(cube) == pytest.approx(6.0, rel=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_isoperimetric_inequality_bodies(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    body = random_polytope(rng, dim, 8)
    s = surface_area_body(body)
    wn = volume(ConvexBody.ball(1.0, dim))
    bound = dim * wn ** (1 / dim) * volume(body) ** ((dim - 1) / dim)
    assert s >= bound * (1 - 1e-9)


# -- unit ball substitute ----------------------------------------------------

def test_ball_substitute_volume_matched():
    for dim in (1, 2, 3):
        ball = unit_ball_polytope(dim)
        assert volume(ball) == pytest.approx(volume(ConvexBody.ball(1.0, dim)), rel=1e-12)


def test_ball_substitute_support_bounds():
    from qcvx.bodies import direction_net

    d2 = unit_ball_polytope(2)
    h2 = np.max(d2.vertices @ direction_net(2, 2048).T, axis=0)
    assert np.max(np.abs(h2 - 1)) < 1e-4
    d3 = unit_ball_polytope(3)
    h3 = np.max(d3.vertices @ direction_net(3, 2048).T, axis=0)
    assert np.max(np.abs(h3 - 1)) < 5e-3
