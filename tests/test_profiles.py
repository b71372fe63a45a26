"""Profiles and quadrature: moments, generalized inverses, adaptive panels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gamma

from qcvx.bodies import ConvexBody
from qcvx.errors import DivergentIntegral, NonpositiveScale
from qcvx.profiles import (
    GaussianProfile,
    PowerLawProfile,
    RescaledProfile,
    StretchedExponentialProfile,
    TableProfile,
    exponential_profile,
)
from qcvx.quadrature import (
    _panel_edges,
    integrate_height,
    integrate_interval,
    integrate_radial,
)
from qcvx.rearrange import PhiBallProfile, SizeFunctional


# -- quadrature ----------------------------------------------------------------

def test_panel_edges_are_linspace_bit_for_bit():
    rng = np.random.default_rng(2024)
    for k in range(3000):
        a = float(rng.normal() * 10.0 ** rng.integers(-6, 6))
        b = a if k % 5 == 0 else a + float(rng.exponential() * 10.0 ** rng.integers(-9, 6))
        panels = int(2 ** rng.integers(0, 9))
        edges = np.array(_panel_edges(a, b, panels))
        assert edges.tobytes() == np.linspace(a, b, panels + 1).tobytes(), (a, b, panels)


def test_interval_polynomial_exact():
    assert integrate_interval(lambda x: x ** 3, 0.0, 2.0) == pytest.approx(4.0, rel=1e-14)


def test_height_log_powers():
    # integral over (0,1] of log(1/t)^k dt = Gamma(k+1)
    for k in (1, 2, 3, 2.5):
        val = integrate_height(lambda t, k=k: np.log(1 / t) ** k)
        assert val == pytest.approx(float(gamma(k + 1)), rel=1e-10)


def test_radial_gaussian():
    assert integrate_radial(lambda r: np.exp(-r * r)) == pytest.approx(
        math.sqrt(math.pi) / 2, rel=1e-10)


def test_divergent_integrals_raise():
    with pytest.raises(DivergentIntegral):
        integrate_height(lambda t: 1.0 / t)
    with pytest.raises(DivergentIntegral):
        integrate_radial(lambda r: 1.0 / (1.0 + r))


# -- closed-form moments ----------------------------------------------------------

@given(st.floats(0.3, 3.0), st.floats(1.0, 3.0), st.floats(0.0, 4.0))
@example(2.0, 2.59375, 1e-4)
@settings(max_examples=25, deadline=None)
def test_stretched_exponential_moments_match_quadrature(c, p, q):
    from scipy.integrate import quad

    prof = StretchedExponentialProfile(c, p)
    closed = prof.moment(q)
    # one quad over [0, inf) misses 1.2e-7 of the example's moment, while
    # reporting 4.7e-10; split at the profile's scale, where c r^p = 1, it
    # agrees with the closed form to 6e-16
    scale = c ** (-1.0 / p)
    numeric = sum(quad(lambda r: float(prof.value(r)) * r ** q, lo, hi)[0]
                  for lo, hi in ((0.0, scale), (scale, np.inf)))
    assert closed == pytest.approx(numeric, rel=1e-8)


@given(st.floats(2.5, 8.0), st.floats(0.3, 2.0))
@settings(max_examples=20, deadline=None)
def test_powerlaw_moments_match_quadrature(a, s):
    prof = PowerLawProfile(a, s)
    q = min(1.0, a - 1.5)
    closed = prof.moment(q)
    numeric = integrate_radial(lambda r: prof.value(r) * np.power(r, q))
    assert closed == pytest.approx(numeric, rel=1e-7)


def test_powerlaw_divergence_guard():
    with pytest.raises(DivergentIntegral):
        PowerLawProfile(2.5, 1.0).moment(2.0)


def test_generalized_inverse_is_largest_radius():
    prof = TableProfile([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.5, 0.1])
    # the profile plateaus at 0.5 on [1, 2]; the inverse takes the right end
    # (up to float wobble at the flat-cubic joint)
    assert prof.inv(0.5) == pytest.approx(2.0, abs=1e-6)
    assert prof.inv(0.05) == pytest.approx(3.0)  # at/below the tail value


@given(st.floats(0.3, 3.0), st.floats(0.01, 0.99))
@settings(max_examples=25, deadline=None)
def test_inverse_round_trip(c, t):
    for prof in (exponential_profile(c), GaussianProfile(c), PowerLawProfile(3.0, c)):
        assert prof.value(prof.inv(t)) == pytest.approx(t, rel=1e-10)


def test_log_concavity_flags():
    """Closed forms, and the midpoint test of log h that tables take: past a
    table's last knot log h is -inf, which keeps it concave, so the linear
    h = 1 - r/2 passes; (1 + r)^-3 fails, and so does exp(-r) at 17 knots,
    whose interpolant has a log midpoint defect of 1.1e-4 near r = 0.48."""
    assert exponential_profile(2.0).is_log_concave()
    assert GaussianProfile(0.5).is_log_concave()
    assert not PowerLawProfile(3.0, 1.0).is_log_concave()
    assert TableProfile([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]).is_log_concave()
    r = np.linspace(0.0, 8.0, 17)
    assert not TableProfile(r, (1.0 + r) ** -3.0).is_log_concave()
    assert not TableProfile(r, np.exp(-r)).is_log_concave()


def test_scaled_profile_homogeneity():
    prof = exponential_profile(1.5).scaled(2.0)
    assert prof.inv(0.5) == pytest.approx(2.0 * math.log(2.0) / 1.5, rel=1e-12)
    assert prof.moment(1) == pytest.approx(4.0 * exponential_profile(1.5).moment(1),
                                           rel=1e-12)


def _table_inv_one_height(prof, t):
    """The generalized inverse of a table at one height, written out: 80
    halvings of the knot interval holding t, the interpolant taken at one
    radius at a time."""
    if t <= prof.values[-1]:
        return float(prof.knots[-1])
    lo_i = int(np.searchsorted(-prof.values, -t, side="right")) - 1
    lo, hi = prof.knots[lo_i], prof.knots[min(lo_i + 1, len(prof.knots) - 1)]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(prof._interp(mid)) >= t:
            lo = mid
        else:
            hi = mid
    return float(lo)


def test_table_inverse_of_an_array_is_the_inverse_of_each_height():
    rng = np.random.default_rng(11)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 12))])
    values = np.concatenate([[1.0], np.sort(rng.uniform(0.01, 1.0, 12))[::-1]])
    prof = TableProfile(knots, values)
    # knot values, the tail value and below it, and heights in between
    heights = np.concatenate([values, [0.5 * values[-1]], np.linspace(1e-3, 1.0, 200)])
    expected = np.array([_table_inv_one_height(prof, float(t)) for t in heights])
    assert prof.inv(heights).tobytes() == expected.tobytes()
    assert all(prof.inv(float(t)) == e for t, e in zip(heights, expected))


def test_table_profile_validation():
    with pytest.raises(ValueError):
        TableProfile([0.5, 1.0], [1.0, 0.5])     # must start at r = 0
    with pytest.raises(ValueError):
        TableProfile([0.0, 1.0], [1.0, 1.1])     # values must not increase


@pytest.mark.parametrize("cls,kwargs", [
    (StretchedExponentialProfile, {"c": math.nan}),
    (StretchedExponentialProfile, {"c": math.inf}),
    (StretchedExponentialProfile, {"c": 1.0, "p": math.nan}),
    (StretchedExponentialProfile, {"c": 1.0, "p": math.inf}),
    (PowerLawProfile, {"a": math.nan}),
    (PowerLawProfile, {"a": math.inf}),
    (PowerLawProfile, {"a": 3.0, "s": math.inf}),
    (TableProfile, {"knots": [], "values": []}),
    (TableProfile, {"knots": [0.0], "values": [1.0]}),
    (TableProfile, {"knots": [0.0, 1.0], "values": [1.0]}),
    (TableProfile, {"knots": [0.0, 1.0, 2.0], "values": [1.0, 0.5]}),
    (TableProfile, {"knots": [0.0, math.nan], "values": [1.0, 0.5]}),
    (TableProfile, {"knots": [0.0, 1.0], "values": [1.0, math.nan]}),
    (TableProfile, {"knots": [0.0, math.inf], "values": [1.0, 0.0]}),
])
def test_profiles_reject_parameters_that_are_not_finite_or_tables_too_short(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


FAMILIES = {
    "stretched": StretchedExponentialProfile(1.5, 1.7),
    "powerlaw": PowerLawProfile(4.0, 0.5),
    "table": TableProfile([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]),
    # a band with a profile part and a constant part, as a rearrangement has
    "phi-ball": PhiBallProfile(SizeFunctional.vol(2),
                               ((GaussianProfile(1.0), ConvexBody.box([-1.0, -0.5], [1.0, 0.5])),
                                (0.5, ConvexBody.ball(1.0, 2)))),
    "rescaled": RescaledProfile(exponential_profile(1.0), np.sqrt, np.square),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_takes_the_one_scale_and_moment_rule(family):
    """``Profile.scaled`` and ``Profile.moment`` hold the only checks: a
    factor that is not positive is a NonpositiveScale, one that is not finite
    a ValueError, and a moment of order p <= -1 diverges, in every family."""
    prof = FAMILIES[family]
    for lam in (0.0, -1.0):
        with pytest.raises(NonpositiveScale):
            prof.scaled(lam)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            prof.scaled(lam)
    with pytest.raises(DivergentIntegral):
        prof.moment(-1.0)
    assert prof.scaled(2.0).inv(0.5) == pytest.approx(2.0 * prof.inv(0.5), rel=1e-12)
