"""Rescalings, dilations, and the parabolic worked example."""

import math

import numpy as np
import pytest

from qcvx.bodies import ConvexBody, minkowski_sum, volume
from qcvx import quadrature
from qcvx.errors import HeightOutOfRange, NonInvertibleProfile, NotLogConcave, NotRegular
from qcvx.generators import random_radial, rng_for
from qcvx.profiles import GaussianProfile, exponential_profile
from qcvx import rearrange
from qcvx.cli import main
from qcvx.qc import RadialQC, SumQC, band_terms, indicator, integral, oplus, terms_at
from qcvx.rearrange import PhiBallProfile, SizeFunctional
from qcvx.reshape import (
    ParabolicCapQC,
    dilate_to_exponential,
    dilated_af,
    dilated_checks,
    dilation_nesting_report,
    exponential_section_exponent,
    is_regular,
    match_residual,
    parabolic_cap_area_law,
    phi_profile,
    rescale_to_match,
    rescaled_af,
    rescaled_bm,
    universal_anchor,
)

VOL2 = SizeFunctional.vol(2)
M2 = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))
GAUSS2 = RadialQC(ConvexBody.ball(1.0, 2), GaussianProfile(1.0))


# -- regularity and profiles -----------------------------------------------------

def test_regularity_classification():
    assert is_regular(M2)
    assert is_regular(GAUSS2)
    assert not is_regular(indicator(ConvexBody.ball(1.0, 2)))


def test_phi_profile_closed_form():
    prof = phi_profile(VOL2, M2)
    # Vol of the level set of exp(-|x|) is pi log^2(1/t)
    assert prof.size(math.exp(-1.0)) == pytest.approx(math.pi, rel=1e-12)
    assert prof.size(1.0) == pytest.approx(0.0, abs=1e-12)
    for t in (0.9, 0.5, 0.1):
        assert prof.size(t) == pytest.approx(math.pi * math.log(1 / t) ** 2, rel=1e-12)
    assert prof.height(math.pi) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_phi_profile_inverse_of_a_sum_matches_the_closed_form():
    """exp(-|.|_K) (+) exp(-|.|_L) has the level sets log(1/t) (K + L), so
    its area profile is V log^2(1/t) with V = vol(K + L), inverted by
    exp(-sqrt(v / V)) in at most 30 evaluations; past the search floor
    t = 1e-300 the inverse raises."""
    square = ConvexBody.box([-1.0, -0.5], [1.0, 0.5])
    diamond = ConvexBody.polytope([[1, 0], [-1, 0], [0, 2], [0, -2]])
    f = oplus(RadialQC(square, exponential_profile(1.0)),
              RadialQC(diamond, exponential_profile(1.0)))
    prof = phi_profile(VOL2, f)
    area = volume(minkowski_sum(square, diamond))
    calls, size = [0], prof.size

    def counted(t):
        calls[0] += 1
        return size(t)

    prof.size = counted
    for v in (1e-8, 0.1, 1.0, 10.0, 1e3, 1e5, 3e6):
        calls[0] = 0
        assert prof.height(v) == pytest.approx(math.exp(-math.sqrt(v / area)), rel=1e-12)
        assert calls[0] <= 30
    with pytest.raises(NonInvertibleProfile):
        prof.height(area * 700.0 ** 2)


def test_phi_profile_rejects_stacks():
    rng = rng_for(0, 0)
    from qcvx.generators import random_stack
    with pytest.raises(NotRegular):
        phi_profile(VOL2, random_stack(rng, 2))


def _expansion_cases():
    """(phi, f) pairs: a 2-D radial function, a 3-D sum over two bases and a
    rescaled 2-D sum, each under a functional without and with references."""
    cube = ConvexBody.box([-0.5] * 3, [0.5] * 3)
    octa = ConvexBody.polytope(np.vstack([np.eye(3), -np.eye(3)]))
    square = ConvexBody.box([-1.0, -0.5], [1.0, 0.5])
    diamond = ConvexBody.polytope([[1, 0], [-1, 0], [0, 2], [0, -2]])
    radial2 = RadialQC(diamond, GaussianProfile(1.0))
    sum3 = oplus(RadialQC(cube, exponential_profile(1.0)),
                 RadialQC(octa, GaussianProfile(2.0)))
    rescaled2 = rescale_to_match(VOL2, oplus(RadialQC(square, exponential_profile(1.0)),
                                             RadialQC(diamond, GaussianProfile(1.0))), GAUSS2)
    with_refs2 = SizeFunctional(dim=2, degree=1, references=(square,))
    with_refs3 = SizeFunctional(dim=3, degree=2, references=(octa,))
    return [(phi, f) for f, phis in ((radial2, (VOL2, with_refs2)),
                                     (sum3, (SizeFunctional.vol(3), with_refs3)),
                                     (rescaled2, (VOL2, SizeFunctional.quermass(2, 1))))
            for phi in phis]


@pytest.fixture
def band_terms_calls(monkeypatch):
    calls = []

    def counting(slots):
        calls.append(slots)
        return band_terms(slots)

    monkeypatch.setattr(rearrange, "band_terms", counting)
    return calls


def test_phi_profile_expands_its_band_once(band_terms_calls):
    """Sampling, inverting and matching expand each function's one band at
    most once per profile, and every value is bitwise the expansion built
    afresh at its height."""
    heights = np.geomspace(0.999, 1e-4, 16)
    for phi, f in _expansion_cases():
        assert len(f.bands()) == 1
        del band_terms_calls[:]
        prof = PhiBallProfile(phi, f.bands()[0].parts)
        values = prof.size(heights)
        prof.height(float(values[5]))
        assert len(band_terms_calls) == 1
        del band_terms_calls[:]
        PhiBallProfile(phi, f.bands()[0].parts).height(float(values[5]))
        assert len(band_terms_calls) == 1
        del band_terms_calls[:]
        match_residual(phi, f, f, heights)
        assert len(band_terms_calls) == 2
        for t, v in zip(heights, values):
            const, profiles, terms = band_terms(
                [f.bands()[0].parts] * phi.degree + [((1.0, ref),) for ref in phi.references])
            ref = phi.weight_constant * float(const + terms_at(profiles, terms, float(t)))
            assert v.tobytes() == np.float64(ref).tobytes()


def test_phi_profile_takes_a_whole_array_of_heights_in_one_pass(monkeypatch):
    """Certifying the profile at 128 heights inverts the band's profiles
    once, not per height; a height outside (0, 1] raises, alone or in an
    array, and the error names the first such height, as a quadrature node
    alone would name it."""
    calls = []

    def counting(profiles, terms, t):
        calls.append(np.shape(t))
        return terms_at(profiles, terms, t)

    monkeypatch.setattr(rearrange, "terms_at", counting)
    phi_profile(VOL2, GAUSS2)
    assert calls == [(128,)]
    prof = phi_profile(VOL2, M2)
    for bad, first in ((0.0, "0.0"), (1.5, "1.5"), (-0.5, "-0.5"), (math.nan, "nan"),
                       ([0.5, 0.0], "0.0"), ([1.0, 2.0, -1.0], "2.0")):
        with pytest.raises(HeightOutOfRange) as err:
            prof.size(bad)
        assert str(err.value).endswith(f"got {first}")


def test_report_profile_table_expands_each_band_once(tmp_path, band_terms_calls):
    # the table holds one radial function under Vol and W1: one band each
    main(["report", "--dim", "2", "--trials", "1", "--out", str(tmp_path)])
    assert len(band_terms_calls) == 2
    assert len((tmp_path / "phi_profile.csv").read_text().splitlines()) == 65


# -- rescaling ---------------------------------------------------------------------

def test_rescale_identity():
    ft = rescale_to_match(VOL2, M2, M2)
    assert match_residual(VOL2, ft, M2) < 1e-12


def test_rescale_gaussian_to_exponential_matches_profiles():
    ft = rescale_to_match(VOL2, GAUSS2, M2)
    assert match_residual(VOL2, ft, M2) < 1e-8
    # the rescaled function keeps its level-set shapes (ball base unchanged)
    assert isinstance(ft, RadialQC) and ft.base.is_ball


def test_rescale_integral_normalization():
    ft = rescale_to_match(VOL2, GAUSS2, M2, normalize="integral")
    assert integral(ft) == pytest.approx(integral(GAUSS2), rel=1e-9)


def test_rescale_phi_normalization():
    w1 = SizeFunctional.quermass(2, 1)
    ft = rescale_to_match(w1, GAUSS2, M2, normalize="phi")
    assert w1.eval_fn(ft) == pytest.approx(w1.eval_fn(GAUSS2), rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_rescaled_bm_holds(seed):
    rng = rng_for(100, seed)
    f = random_radial(rng, 2, log_concave=False)
    g = random_radial(rng, 2, log_concave=False)
    ft, rep = rescaled_bm(VOL2, f, g)
    assert rep.ok, rep.to_json()
    assert rep.details["match_residual"] < 1e-8


def test_rescaled_af_pair_with_anchor():
    rng = rng_for(101, 0)
    fs = [random_radial(rng, 2, log_concave=True) for _ in range(2)]
    rep = rescaled_af([], fs)
    assert rep.ok
    assert rep.details["corollary_left"] >= rep.details["corollary_right"] * (1 - 1e-8)
    for res in rep.details["match_residuals"]:
        assert res < 1e-8


def test_rescaled_af_with_reference():
    rng = rng_for(102, 0)
    from qcvx.generators import random_polytope
    ref = random_polytope(rng, 3, origin_interior=True)
    fs = [random_radial(rng, 3, log_concave=True) for _ in range(2)]
    rep = rescaled_af([ref], fs)
    assert rep.ok


def test_universal_anchor_is_fixed_gaussian():
    anchor = universal_anchor(2)
    assert anchor.base.is_ball and anchor.base.radius == 1.0
    assert anchor.profile.p == 2.0 and anchor.profile.c == 1.0


# -- dilation ------------------------------------------------------------------------

def test_dilate_exponential_is_identity():
    ft = dilate_to_exponential(VOL2, M2)
    for t in (0.9, 0.5, 0.1):
        assert ft.level_set(t).radius == pytest.approx(math.log(1 / t), rel=1e-12)


def test_dilate_radial_reaches_the_law():
    ft = dilate_to_exponential(VOL2, GAUSS2)
    for t in (0.9, 0.5, 0.1):
        assert volume(ft.level_set(t)) == pytest.approx(
            math.pi * math.log(1 / t) ** 2, rel=1e-12)


def test_dilate_stack_nested_and_on_law():
    # multi-level stacks are never log-concave, so the stack path is exercised
    # by indicators (the flat case where rescaling is unavailable)
    square = ConvexBody.box([-1, -1], [1, 1])
    f = indicator(square)
    ft = dilate_to_exponential(VOL2, f)
    assert isinstance(ft, SumQC)
    rep = dilation_nesting_report(ft)
    # nested level sets hold with margin 0; nesting never reports equality
    assert rep.ok and rep.margin == 0.0
    assert rep.verdict == "holds"
    for t in (0.9, 0.5, 0.2):
        body = ft.level_set(t)
        assert body.is_polytope  # keeps the homothety class of the level set
        assert volume(body) == pytest.approx(
            math.pi * math.log(1 / t) ** 2, rel=1e-12)


def test_dilate_rejects_non_log_concave():
    rng = rng_for(103, 0)
    from qcvx.generators import random_stack
    f = random_stack(rng, 2, nlevels=4)
    assert not f.is_log_concave()
    with pytest.raises(NotLogConcave):
        dilate_to_exponential(VOL2, f)


def test_dilated_bm_equality_at_the_law():
    rep = dilated_checks(VOL2, M2, M2)
    assert rep.verdict == "holds-with-equality"


def test_dilated_bm_gaussian_vs_diamond_exponential():
    diamond = ConvexBody.polytope([[1, 0], [-1, 0], [0, 1], [0, -1]])
    f = RadialQC(diamond, exponential_profile(1.0))
    rep = dilated_checks(VOL2, GAUSS2, f)
    assert rep.ok, rep.to_json()


def test_dilated_bm_on_the_worked_example():
    """The dilation of exp(-(|x| + y^2)) has no bands, so its sum with a
    dilated radial function is never built: Phi of the sum is expanded into
    mixed integrals of the two dilations."""
    exp_disc = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))
    with quadrature.node_cap(512):
        rep = dilated_checks(VOL2, ParabolicCapQC(16), exp_disc)
    assert rep.verdict == "holds", rep.to_json()
    assert rep.details == {"nesting_f": True, "nesting_g": True}


def test_dilated_af_mixed_3d():
    cube = ConvexBody.box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    f = RadialQC(ConvexBody.ball(1.0, 3), GaussianProfile(1.0))
    g = RadialQC(ConvexBody.box([-1, -1, -1], [1, 1, 1]), exponential_profile(1.0))
    rep = dilated_af([cube], [f, g])
    assert rep.ok, rep.to_json()


# -- the worked example ----------------------------------------------------------------

def test_parabolic_cap_area_matches_closed_form():
    f = ParabolicCapQC(64)
    for t in np.geomspace(0.9, 1e-3, 10):
        area = volume(f.level_set(float(t)))
        assert area == pytest.approx(parabolic_cap_area_law(float(t)), rel=1e-3)


def test_parabolic_cap_evaluate_exact():
    f = ParabolicCapQC()
    assert f.evaluate_many([[0.0, 0.0]])[0] == 1.0
    assert f.evaluate_many([[1.0, 0.5]])[0] == pytest.approx(math.exp(-1.25), rel=1e-12)
    assert f.is_log_concave()


def test_dilated_section_recovers_four_fifths():
    f = ParabolicCapQC(64)
    ft = dilate_to_exponential(VOL2, f)
    q, _ = exponential_section_exponent(ft)
    assert abs(q - 0.8) < 0.01


def test_dilated_parabolic_is_not_log_concave():
    f = ParabolicCapQC(64)
    ft = dilate_to_exponential(VOL2, f)
    assert not ft.is_log_concave()
    assert dilation_nesting_report(ft).ok
