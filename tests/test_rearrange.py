"""Size functionals, ball rearrangements, and their preservation properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcvx.bodies import ConvexBody, minkowski_sum, scale, volume
from qcvx.errors import ArityMismatch, DimensionMismatch
from qcvx.generators import random_ball, random_polytope, random_profile, random_stack
from qcvx.profiles import GaussianProfile, exponential_profile
from qcvx.qc import (LevelStack, RadialQC, epsilon_extension, evaluate, indicator, integral,
                     mixed_integral, odot, oplus)
from qcvx.rearrange import (
    SizeFunctional,
    ball_radius,
    ball_rearrange,
    phi_rearrange,
    sdr,
)
from qcvx.reshape import ParabolicCapQC, dilate_to_exponential

UNIT_SQUARE = ConvexBody.box([0, 0], [1, 1])


def test_functional_construction_guards():
    with pytest.raises(ValueError):
        SizeFunctional(dim=2, degree=0)
    with pytest.raises(ValueError):
        SizeFunctional(dim=2, degree=1)  # missing reference
    with pytest.raises(ValueError):
        SizeFunctional(dim=2, degree=1,
                       references=(ConvexBody.polytope([[0, 0], [1, 1]]),))
    with pytest.raises(DimensionMismatch):
        SizeFunctional(dim=2, degree=1, references=(ConvexBody.ball(1.0, 3),))


def test_eval_body_examples():
    assert SizeFunctional.vol(2).eval_body(UNIT_SQUARE) == pytest.approx(1.0)
    w1 = SizeFunctional.quermass(2, 1)
    assert w1.eval_body(UNIT_SQUARE) == pytest.approx(2.0, rel=1e-12)


@given(st.integers(0, 10_000), st.floats(0.3, 3.0))
@settings(max_examples=20, deadline=None)
def test_eval_body_homogeneity(seed, lam):
    rng = np.random.default_rng(seed)
    phi = SizeFunctional.quermass(2, 1)
    a = random_polytope(rng, 2)
    from qcvx.bodies import scale
    assert phi.eval_body(scale(a, lam)) == pytest.approx(
        lam ** phi.degree * phi.eval_body(a), rel=1e-9)


def test_ball_rearrange_examples():
    ball = ConvexBody.ball(0.7, 2)
    assert ball_rearrange(SizeFunctional.vol(2), ball).radius == pytest.approx(0.7)
    square2 = ConvexBody.box([-1, -1], [1, 1])
    out = ball_rearrange(SizeFunctional.vol(2), square2)
    assert out.radius == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)
    seg = ConvexBody.polytope([[0, 0], [1, 1]])
    assert ball_rearrange(SizeFunctional.vol(2), seg).radius == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_ball_rearrange_preserves_value(seed):
    rng = np.random.default_rng(seed)
    phi = SizeFunctional.quermass(2, 1) if seed % 2 else SizeFunctional.vol(2)
    a = random_polytope(rng, 2)
    b = ball_rearrange(phi, a)
    assert phi.eval_body(b) == pytest.approx(phi.eval_body(a), rel=1e-10)


def test_sdr_examples():
    rng = np.random.default_rng(1)
    f = random_stack(rng, 2)
    fstar = sdr(f)
    assert fstar.is_rotation_invariant()
    assert integral(fstar) == pytest.approx(integral(f), rel=1e-12)
    for t, body in zip(f.heights, f.bodies):
        assert volume(fstar.level_set(float(t))) == pytest.approx(
            volume(body), rel=1e-10)


def test_sdr_fixes_rotation_invariant():
    f = RadialQC(ConvexBody.ball(1.3, 2), exponential_profile(1.0))
    fstar = sdr(f)
    assert isinstance(fstar, RadialQC)
    assert fstar.base.radius == pytest.approx(1.3, rel=1e-12)


def test_rectangle_stack_to_disc_stack():
    rect = ConvexBody.box([0, 0], [4, 1])
    f = LevelStack([(1.0, rect), (0.5, ConvexBody.box([-1, -1], [5, 2]))])
    fstar = sdr(f)
    assert fstar.level_set(1.0).radius == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)
    assert fstar.level_set(0.4).radius == pytest.approx(math.sqrt(18 / math.pi), rel=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_phi_rearrange_preserves_eval_fn(seed):
    rng = np.random.default_rng(seed)
    phi = SizeFunctional.quermass(2, 1)
    f = random_stack(rng, 2)
    assert phi.eval_fn(phi_rearrange(phi, f)) == pytest.approx(
        phi.eval_fn(f), rel=1e-10)


def test_phi_rearrange_levelwise_preservation_and_idempotence():
    rng = np.random.default_rng(7)
    phi = SizeFunctional.quermass(2, 1)
    f = random_stack(rng, 2)
    g = phi_rearrange(phi, f)
    for t, body in zip(f.heights, f.bodies):
        assert phi.eval_body(g.level_set(float(t))) == pytest.approx(
            phi.eval_body(body), rel=1e-10)
    gg = phi_rearrange(phi, g)
    for a, b in zip(g.bodies, gg.bodies):
        assert a.radius == pytest.approx(b.radius, rel=1e-12)


def test_phi_rearrange_keeps_log_concavity():
    f = RadialQC(ConvexBody.box([-1, -1], [1, 1]), GaussianProfile(1.0))
    assert f.is_log_concave()
    g = phi_rearrange(SizeFunctional.quermass(2, 1), f)
    assert g.is_log_concave()
    # midpoint log-concavity of the output profile on sampled pairs
    rng = np.random.default_rng(0)
    rs = rng.uniform(0.0, 4.0, (200, 2))
    h = g.profile
    for a, b in rs:
        mid = h.value(0.5 * (a + b))
        assert mid * mid >= h.value(a) * h.value(b) * (1 - 1e-9)


@given(st.integers(0, 10_000), st.sampled_from([2, 3]),
       st.sampled_from(["sum", "stack plus radial", "extended stack"]))
@settings(max_examples=20, deadline=None)
def test_phi_rearrange_of_a_banded_function_is_exact(seed, dim, kind):
    """A sum of radial functions over two random polytopes, a stack plus a
    radial function over a ball, or a stack grown by a ball (bands of
    constant factors alone) rearranges band by band: vol and W1 of the
    rearrangement are those of the function, it takes equal values on a
    sphere, and its lam-homothety integrates to lam^n times the integral.

    A stack band with a profile has a constant part, which the input
    integrates in closed form and the rearrangement, inside the Phi-ball
    radius, by the adaptive quadrature, whose panels stop at 1e-10
    relative; so the stack plus radial sums agree to 1e-10, the others to
    round-off."""
    rng = np.random.default_rng(seed)
    rel = 1e-10 if kind == "stack plus radial" else 1e-12
    if kind == "sum":
        s = oplus(*(RadialQC(random_polytope(rng, dim, origin_interior=True),
                             random_profile(rng, dim)) for _ in range(2)))
    elif kind == "stack plus radial":
        s = oplus(random_stack(rng, dim), RadialQC(random_ball(rng, dim),
                                                   random_profile(rng, dim)))
    else:
        s = epsilon_extension(random_stack(rng, dim), float(rng.uniform(0.1, 1.0)))
    for phi in (SizeFunctional.vol(dim), SizeFunctional.quermass(dim, 1)):
        g = phi_rearrange(phi, s)
        assert g.is_rotation_invariant()
        assert phi.eval_fn(g) == pytest.approx(phi.eval_fn(s), rel=rel, abs=0.0)
    x = rng.normal(size=dim)
    x *= rng.uniform(0.1, 2.0) / np.linalg.norm(x)
    rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    assert evaluate(g, rotation @ x) == pytest.approx(evaluate(g, x), rel=1e-9, abs=1e-12)
    lam = float(rng.uniform(0.3, 3.0))
    assert integral(odot(lam, sdr(s))) == pytest.approx(lam ** dim * integral(s),
                                                        rel=rel, abs=0.0)


def test_phi_rearrange_of_a_function_without_bands_raises():
    with pytest.raises(TypeError):
        sdr(ParabolicCapQC())


def test_eval_fn_examples():
    f = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))
    assert SizeFunctional.vol(2).eval_fn(f) == pytest.approx(integral(f), rel=1e-12)
    assert SizeFunctional.quermass(2, 1).eval_fn(f) == pytest.approx(
        math.pi, rel=1e-12)


def test_generalized_functional_reduces_to_constant_times_plain():
    rng = np.random.default_rng(9)
    w = RadialQC(ConvexBody.box([-1, -1], [1, 1]), exponential_profile(2.0))
    gen = SizeFunctional(dim=2, degree=1, weights=(w,))
    plain = SizeFunctional(dim=2, degree=1, references=(w.base,))
    c = gen.weight_constant
    assert c == pytest.approx(0.5, rel=1e-10)  # integral of log(1/t)/2 dt
    for _ in range(5):
        a = random_polytope(rng, 2)
        assert gen.eval_body(a) == pytest.approx(c * plain.eval_body(a), rel=1e-10)
        # definitional route through the mixed integral agrees
        assert gen.eval_body(a) == pytest.approx(
            mixed_integral([indicator(a), w]), rel=1e-9)
        # and the rearrangements coincide
        assert ball_rearrange(gen, a).radius == pytest.approx(
            ball_rearrange(plain, a).radius, rel=1e-12)


def test_generalized_rejects_non_homothetic_weights():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        SizeFunctional(dim=2, degree=1, weights=(random_stack(rng, 2),))


# -- sizes of sums by multilinearity -------------------------------------------

def _functionals(rng, dim):
    """vol, every W_k, and in the plane and space a weighted (generalized)
    functional; in space also a degree-2 functional with a polytope
    reference and a degree-1 one with two weights."""
    out = [SizeFunctional.vol(dim)]
    if dim >= 2:
        out += [SizeFunctional.quermass(dim, k) for k in range(1, dim)]
        weight = RadialQC(random_polytope(rng, dim, origin_interior=True),
                          exponential_profile(1.5))
        out.append(SizeFunctional(dim=dim, degree=dim - 1, weights=(weight,)))
    if dim == 3:
        out.append(SizeFunctional(dim=3, degree=2, references=(
            random_polytope(rng, 3, origin_interior=True),)))
        out.append(SizeFunctional(dim=3, degree=1, weights=tuple(
            RadialQC(random_polytope(rng, 3, origin_interior=True), GaussianProfile(1.0))
            for _ in range(2))))
    return out


@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["polytopes", "balls", "homothetic", "same"]), st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_eval_sum_is_phi_of_the_hull_built_sum(seed, dim, pair, log_lam):
    rng = np.random.default_rng(seed)
    if pair == "balls":
        k, l = (ConvexBody.ball(float(rng.uniform(0.1, 3.0)), dim) for _ in range(2))
    else:
        k = random_polytope(rng, dim, int(rng.integers(dim + 1, 12)))
        l = {"polytopes": lambda: random_polytope(rng, dim, int(rng.integers(dim + 1, 12))),
             "homothetic": lambda: scale(k, 10.0 ** log_lam),
             "same": lambda: k}[pair]()
    hulled = minkowski_sum(k, l)
    for phi in _functionals(rng, dim):
        expected = phi.eval_body(hulled)
        assert phi.eval_sum([k, l]) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert ball_radius(phi, [k, l]) == pytest.approx(
            ball_rearrange(phi, hulled).radius, rel=1e-12, abs=0.0)


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_eval_sum_of_functions_is_phi_of_their_oplus(seed, dim):
    rng = np.random.default_rng(seed)
    f, g = random_stack(rng, dim), random_stack(rng, dim)
    s = oplus(f, g)
    assert SizeFunctional.vol(dim).eval_sum([f, g]) == pytest.approx(
        integral(s), rel=1e-12, abs=0.0)
    # the weights' quadrature runs on the same bands either way
    for phi in _functionals(rng, dim):
        assert phi.eval_sum([f, g]) == pytest.approx(phi.eval_fn(s), rel=1e-12, abs=0.0)


def test_eval_sum_rejects_bad_parts():
    phi = SizeFunctional.vol(2)
    with pytest.raises(ArityMismatch):
        phi.eval_sum([])
    with pytest.raises(TypeError):
        phi.eval_sum([UNIT_SQUARE, indicator(UNIT_SQUARE)])
    with pytest.raises(DimensionMismatch):
        phi.eval_sum([UNIT_SQUARE, ConvexBody.ball(1.0, 3)])


def test_a_shared_base_and_an_equal_copy_give_one_sum():
    """oplus of two radial functions over one polygon builds the same bands
    whether the operands share the base object or hold equal copies: the
    integral and the rearrangements agree bit for bit, the rearrangement
    keeps the integral, and both sums dilate to bands."""
    base = random_polytope(np.random.default_rng(8), 2, 8, origin_interior=True)
    copy = ConvexBody.polytope(base.vertices.copy())
    f = RadialQC(base, exponential_profile(1.0))
    w1 = SizeFunctional.quermass(2, 1)
    sums = [oplus(f, RadialQC(other, exponential_profile(2.5))) for other in (base, copy)]
    results = [(integral(s), integral(sdr(s)), integral(phi_rearrange(w1, s))) for s in sums]
    assert results[0] == results[1]
    total, rearranged, _ = results[0]
    assert rearranged == pytest.approx(total, rel=1e-12, abs=0.0)
    for s in sums:
        assert dilate_to_exponential(SizeFunctional.vol(2), s).bands() is not None
