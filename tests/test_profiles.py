"""Profiles and quadrature: moments, generalized inverses, adaptive panels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma

from qcvx.errors import DivergentIntegral
from qcvx.profiles import (
    GaussianProfile,
    PowerLawProfile,
    ShiftedProfile,
    StretchedExponentialProfile,
    SumProfile,
    TableProfile,
    exponential_profile,
)
from qcvx.quadrature import (
    _panel_edges,
    integrate_height,
    integrate_interval,
    integrate_radial,
)


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
@settings(max_examples=25, deadline=None)
def test_stretched_exponential_moments_match_quadrature(c, p, q):
    from scipy.integrate import quad

    prof = StretchedExponentialProfile(c, p)
    closed = prof.moment(q)
    numeric, _ = quad(lambda r: float(prof.value(r)) * r ** q, 0.0, np.inf)
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


def test_shifted_profile_moments_binomial():
    prof = ShiftedProfile(exponential_profile(1.0), 0.5)
    # integral (r in [0, .5]) r dr + integral (rho + .5) e^-rho
    expected = 0.125 + (1.0 + 0.5)
    assert prof.moment(1) == pytest.approx(expected, rel=1e-12)
    assert prof.inv(1.0) == pytest.approx(0.5)


def test_sum_profile_value_inverse_consistency():
    s = SumProfile([exponential_profile(1.0), GaussianProfile(2.0)])
    for t in (0.9, 0.5, 0.1, 0.01):
        r = s.inv(t)
        assert s.value(r) == pytest.approx(t, rel=1e-9)
    assert s.is_regular()


def _count_calls(obj, name):
    """Count the calls of obj.name made from now on."""
    calls = [0]
    fn = getattr(obj, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    setattr(obj, name, counted)
    return calls


def test_sum_profile_value_matches_the_closed_form():
    """Exponential parts add radii log(1/t)/c_i, so h(r) = exp(-r / sum 1/c_i);
    h is 1 up to r(1) = 0 and stays at the search floor 1e-300 past
    r(1e-300), and each point takes at most 30 evaluations of r(t)."""
    s = SumProfile([exponential_profile(1.0), exponential_profile(2.5),
                    exponential_profile(0.4)])
    k = 1.0 + 1.0 / 2.5 + 1.0 / 0.4
    r = np.geomspace(1e-6, 600.0 * k, 41)
    np.testing.assert_allclose(s.value(r), np.exp(-r / k), rtol=1e-12, atol=0.0)
    assert s.value(0.0) == 1.0 and s.value(-2.0) == 1.0
    assert s.value(1.01 * s.inv(1e-300)) == 1e-300
    calls = _count_calls(s, "inv")
    for rk in r:
        calls[0] = 0
        s.value(rk)
        assert calls[0] <= 30


def test_log_concavity_flags():
    assert exponential_profile(2.0).is_log_concave()
    assert GaussianProfile(0.5).is_log_concave()
    assert not PowerLawProfile(3.0, 1.0).is_log_concave()
    assert ShiftedProfile(GaussianProfile(1.0), 0.3).is_log_concave()


def test_scaled_profile_homogeneity():
    prof = exponential_profile(1.5).scaled(2.0)
    assert prof.inv(0.5) == pytest.approx(2.0 * math.log(2.0) / 1.5, rel=1e-12)
    assert prof.moment(1) == pytest.approx(4.0 * exponential_profile(1.5).moment(1),
                                           rel=1e-12)


def test_table_profile_validation():
    with pytest.raises(ValueError):
        TableProfile([0.5, 1.0], [1.0, 0.5])     # must start at r = 0
    with pytest.raises(ValueError):
        TableProfile([0.0, 1.0], [1.0, 1.1])     # values must not increase
