"""Acceptance suite: every headline number and inequality, one criterion per
test, each printing a PASS line with its tolerance when it survives.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole file targets a commodity-machine budget of five minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy.ndimage import maximum_filter, minimum_filter
from scipy.special import gamma

from qcvx.bodies import ConvexBody, minkowski_sum, volume
from qcvx.checks import (
    check_af,
    check_alexandrov_rearrangement,
    check_bm_rearrangement,
    check_gen_bm,
    check_lc_alexandrov,
    check_lc_isoperimetric,
    check_moment_logconcavity,
    counterexample_values,
)
from qcvx.duality import polarity_sandwich_check, sandwich_check
from qcvx.errors import NotLogConcave
from qcvx.generators import (
    random_geom_convex_fn,
    random_polytope,
    random_radial,
    random_stack,
    rng_for,
)
from qcvx.grids import GridSpec
from qcvx.mixed_volumes import minkowski_polynomial, mixed_volume
from qcvx.profiles import StretchedExponentialProfile, exponential_profile
from qcvx.qc import (
    RadialQC,
    grid_sup_min,
    indicator,
    integral,
    minkowski_polynomial_fn,
    mixed_integral,
    odot,
    oplus,
)
from qcvx.rearrange import SizeFunctional
from qcvx.reshape import (
    ParabolicCapQC,
    dilate_to_exponential,
    exponential_section_exponent,
    match_residual,
    parabolic_cap_area_law,
    rescaled_af,
    rescaled_bm,
)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_counterexample_values():
    t0 = time.time()
    for a in (0.5, 1.0, 2.0):
        vals = counterexample_values("exponential", a)
        assert vals["integral"] == pytest.approx(2 * math.pi, rel=1e-6)
        assert vals["surface_area"] == pytest.approx(2 * math.pi * a, rel=1e-6)
        # log-concave but only geometric at a = 1: the hypothesis that fails
        assert vals["log_concave"] and vals["geometric"] == (a == 1.0)
    for a in (2.5, 3.0, 4.0):
        vals = counterexample_values("powerlaw", a)
        assert vals["integral"] == pytest.approx(2 * math.pi, rel=1e-6)
        assert vals["surface_area"] == pytest.approx(
            2 * math.pi * math.sqrt((a - 2) / (a - 1)), rel=1e-6)
        # geometric but not log-concave: the sharp bound must refuse it
        assert vals["geometric"] and not vals["log_concave"]
        s = math.sqrt(a * a - 3 * a + 2)
        from qcvx.profiles import PowerLawProfile
        with pytest.raises(NotLogConcave):
            check_lc_isoperimetric(
                RadialQC(ConvexBody.ball(1.0, 2), PowerLawProfile(a, s)))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"counterexample families reproduce closed-form value pairs "
               f"(1e-6 rel, {elapsed:.2f}s)")


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_mixed_integral_normalization():
    t0 = time.time()
    for trial in range(20):
        rng = rng_for(202, trial)
        k1 = random_polytope(rng, 2, origin_interior=True)
        k2 = random_polytope(rng, 2, origin_interior=True)
        v = mixed_volume([k1, k2])
        for p in (1.0, 2.0):
            f1 = RadialQC(k1, StretchedExponentialProfile(1.0, p))
            f2 = RadialQC(k2, StretchedExponentialProfile(1.0, p))
            expected = float(gamma(2.0 / p + 1.0)) * v
            assert mixed_integral([f1, f2]) == pytest.approx(expected, rel=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(2, f"mixed integrals of exp(-gauge^p) equal Gamma(2/p+1) V(K1,K2) "
               f"(20 pairs, p in {{1,2}}, 1e-6 rel, {elapsed:.2f}s)")


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_polynomiality():
    for trial in range(20):
        rng = rng_for(303, trial)
        f, g = random_stack(rng, 2), random_stack(rng, 2)
        poly = minkowski_polynomial_fn([f, g])
        for ms in poly.multisets():
            direct = mixed_integral([[f, g][i] for i in ms])
            assert poly.coefficient(ms) == pytest.approx(direct, rel=1e-8)
        for _ in range(20):
            eps = rng.uniform(0.2, 3.0, 2)
            direct = integral(oplus(odot(float(eps[0]), f), odot(float(eps[1]), g)))
            assert poly.evaluate(eps) == pytest.approx(direct, rel=1e-8)
    _report(3, "integral of scaled sums is a degree-2 polynomial; fit matches "
               "direct evaluation and mixed integrals (20 pairs x 20 tuples, 1e-8)")


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_polarization_oracle():
    count = 0
    for trial in range(50):
        rng = rng_for(404, trial)
        dim = 2 if trial % 2 else 3
        bodies = [random_polytope(rng, dim, 6) for _ in range(dim)]
        value = mixed_volume(bodies)
        fit = minkowski_polynomial(bodies).coefficient(tuple(range(dim)))
        assert fit == pytest.approx(value, rel=1e-8), (trial, dim)
        count += 1
    _report(4, f"facet-measure mixed volumes and the grid-fit oracle agree to 1e-8 "
               f"on {count} random tuples in dimensions 2 and 3")


# -- 5 ------------------------------------------------------------------------

def test_criterion_05_lc_alexandrov():
    for c in (0.5, 1.0, 3.0):
        for n in (2, 3):
            f = RadialQC(ConvexBody.ball(1.0, n), exponential_profile(c))
            for k in range(n):
                for m in range(k + 1, n):
                    rep = check_lc_alexandrov(f, k, m)
                    assert rep.verdict == "holds-with-equality"
                    assert rep.left == pytest.approx(1.0 / c, rel=1e-9)
                    assert rep.right == pytest.approx(1.0 / c, rel=1e-9)
    strict = 0
    for trial in range(50):
        rng = rng_for(505, trial)
        n = 2 if trial % 2 else 3
        p = float(rng.uniform(1.2, 3.0))
        c = float(rng.uniform(0.4, 2.5))
        base = ConvexBody.ball(float(rng.uniform(0.5, 1.5)), n) if rng.integers(2) \
            else random_polytope(rng, n, origin_interior=True)
        f = RadialQC(base, StretchedExponentialProfile(c, p))
        pairs = [(k, m) for k in range(n) for m in range(k + 1, n)]
        k, m = pairs[int(rng.integers(len(pairs)))]
        rep = check_lc_alexandrov(f, k, m)
        assert rep.verdict == "holds", rep.to_json()
        assert rep.margin > 0
        strict += 1
    _report(5, f"quermassintegral chain: equality at exp(-c|x|) to 1e-9 for all "
               f"(k, m), n in {{2,3}}; strict on {strict} curved profiles")


# -- 6 ------------------------------------------------------------------------

def test_criterion_06_sharp_isoperimetric():
    rep = check_lc_isoperimetric(
        RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0)))
    assert rep.verdict == "holds-with-equality"
    assert rep.left == pytest.approx(2 * math.pi, rel=1e-9)
    assert rep.right == pytest.approx(2 * math.pi, rel=1e-9)
    for trial in range(100):
        rng = rng_for(606, trial)
        f = random_radial(rng, 2, log_concave=True)
        rep = check_lc_isoperimetric(f)
        assert rep.margin >= -1e-6, rep.to_json()
    _report(6, "sharp isoperimetric bound: equality (both sides 2 pi) at "
               "exp(-|x|); zero violations on 100 random log-concave profiles")


# -- 7 ------------------------------------------------------------------------

def _crit7_run(label, trial_fn, equality_expected_on_invariant=True,
               skip_random_equality_assert=False):
    for dim, trials in ((2, 500), (3, 100)):
        for trial in range(trials):
            rng = rng_for(707, trial * 10 + dim)
            rep = trial_fn(rng, dim, False)
            assert rep.verdict != "violated", (label, dim, trial, rep.to_json())
            if not skip_random_equality_assert:
                assert rep.verdict == "holds", (label, dim, trial, rep.to_json())
        for trial in range(5):
            rng = rng_for(708, trial * 10 + dim)
            rep = trial_fn(rng, dim, True)
            if equality_expected_on_invariant:
                assert rep.verdict == "holds-with-equality", (label, dim, trial)


def test_criterion_07_rearrangement_inequalities():
    t0 = time.time()

    def bm(rng, dim, invariant):
        f = random_stack(rng, dim, rotation_invariant=invariant)
        g = random_stack(rng, dim, rotation_invariant=invariant)
        return check_bm_rearrangement(f, g)

    _crit7_run("bm", bm)

    def gen_bm_vol(rng, dim, invariant):
        f = random_stack(rng, dim, rotation_invariant=invariant)
        g = random_stack(rng, dim, rotation_invariant=invariant)
        return check_gen_bm(SizeFunctional.vol(dim), f, g)

    _crit7_run("gen-bm-vol", gen_bm_vol)

    def gen_bm_w1(rng, dim, invariant):
        f = random_stack(rng, dim, rotation_invariant=invariant)
        g = random_stack(rng, dim, rotation_invariant=invariant)
        return check_gen_bm(SizeFunctional.quermass(dim, 1), f, g)

    # W_1 has degree one in the plane, where the inequality is an identity;
    # the equality diagnostic is only discriminating for degree >= 2
    for dim, trials in ((2, 500), (3, 100)):
        for trial in range(trials):
            rng = rng_for(717, trial * 10 + dim)
            rep = gen_bm_w1(rng, dim, False)
            assert rep.verdict != "violated", (dim, trial, rep.to_json())
            if dim == 3:
                assert rep.verdict == "holds"
    for trial in range(5):
        rng = rng_for(718, trial)
        assert gen_bm_w1(rng, 3, True).verdict == "holds-with-equality"

    def alexandrov(rng, dim, invariant):
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        i, j = pairs[int(rng.integers(len(pairs)))]
        f = random_stack(rng, dim, rotation_invariant=invariant)
        return check_alexandrov_rearrangement(f, i, j)

    _crit7_run("alexandrov", alexandrov)

    def af(rng, dim, invariant):
        m = int(rng.integers(2, dim + 1))
        refs = tuple(random_polytope(rng, dim, origin_interior=True)
                     for _ in range(dim - m))
        phi = SizeFunctional(dim=dim, degree=m, references=refs)
        fs = [random_stack(rng, dim, rotation_invariant=invariant)
              for _ in range(m)]
        return check_af(phi, fs)

    _crit7_run("af", af)

    _report(7, f"bm / gen-bm(Vol, W1) / alexandrov / af: 500 trials in n=2 and "
               f"100 in n=3 each, zero violations; equality fires exactly on "
               f"rotation-invariant inputs ({time.time() - t0:.0f}s)")


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_oplus_oracle():
    from qcvx.qc import supmin_bracket

    for trial in range(50):
        rng = rng_for(808, trial)
        f, g = random_stack(rng, 2), random_stack(rng, 2)
        reach = 1.1 * max(f.support_radius(), g.support_radius())
        grid = GridSpec.cube(reach, 2, 41)
        result = supmin_bracket(f, g, grid)
        assert result["ok"], (trial, result["max_abs_error"], result["fat_height"])
    rng = rng_for(809, 0)
    K = random_polytope(rng, 2, 5)
    T = random_polytope(rng, 2, 5)
    field = grid_sup_min(indicator(K), indicator(T), GridSpec.cube(3.0, 2, 41))
    exact = indicator(minkowski_sum(K, T)).evaluate_many(
        field.grid.points()).reshape(field.values.shape)
    boundary = maximum_filter(exact, size=3) != minimum_filter(exact, size=3)
    assert np.all((field.values == exact) | boundary)
    _report(8, "lattice sup-min oracle brackets the level-set sum within the "
               "two-cell bound on 50 stack pairs (41x41); indicators reproduce "
               "1_{K+T} off a one-cell band")


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_sandwiches():
    for trial in range(50):
        rng = rng_for(909, trial)
        dim = 1 if trial % 2 else 2
        fns = [random_geom_convex_fn(rng, dim) for _ in range(2)]
        lams = rng.uniform(0.5, 2.0, 2).tolist()
        npts = 121 if dim == 1 else 41
        rep = sandwich_check(fns, lams, GridSpec.cube(4.0, dim, npts))
        assert rep.ok, (trial, rep.to_json())
    from qcvx.generators import conditioned_geom_convex_fn

    for trial in range(30):
        rng = rng_for(910, trial)
        phi = conditioned_geom_convex_fn(rng, 2)
        t = float(rng.choice([0.5, 1.0, 2.0]))
        rep = polarity_sandwich_check(phi, t)
        assert rep.ok, (trial, rep.to_json())
        assert rep.details["right_margin"] >= -rep.tol * 2  # factor-2 inflation holds
    _report(9, "inf-convolution sandwich holds on 50 piecewise-affine pairs; "
               "polarity sandwich containments hold with the factor-2 never "
               "violated on 30 (phi, t) instances")


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_dilation_worked_example():
    f = ParabolicCapQC(64)
    for t in np.geomspace(0.9, 1e-3, 10):
        area = volume(f.level_set(float(t)))
        assert area == pytest.approx(parabolic_cap_area_law(float(t)), rel=1e-3)
    ft = dilate_to_exponential(SizeFunctional.vol(2), f)
    exponent, _ = exponential_section_exponent(ft)
    assert abs(exponent - 0.8) < 0.01
    assert not ft.is_log_concave()
    _report(10, f"dilation worked example: level-set areas match "
                f"(8/3)(log 1/t)^(3/2) to 1e-3, section exponent "
                f"{exponent:.4f} recovers 4/5 within 0.01, and the certifier "
                f"flags the dilated function as non-log-concave")


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_rescaled_bm_af():
    heights = np.geomspace(0.999, 1e-4, 64)
    for trial in range(35):
        rng = rng_for(1111, trial)
        phi = SizeFunctional.vol(2) if trial % 2 else SizeFunctional.quermass(2, 1)
        f = random_radial(rng, 2)
        g = random_radial(rng, 2)
        ft, rep = rescaled_bm(phi, f, g)
        assert match_residual(phi, ft, g, heights) < 1e-8
        assert rep.margin >= -1e-8, rep.to_json()
    for trial in range(15):
        rng = rng_for(1112, trial)
        fs = [random_radial(rng, 3, log_concave=True) for _ in range(3)]
        rep = rescaled_af([], fs)
        assert rep.margin >= -1e-8, rep.to_json()
        assert all(r < 1e-8 for r in rep.details["match_residuals"])
    _report(11, "rescaled Brunn-Minkowski (35 pairs) and Alexandrov-Fenchel "
                "(15 triples): size profiles match to 1e-8 at all grid heights "
                "and every conclusion holds with nonnegative margin")


# -- 12 -----------------------------------------------------------------------

def test_criterion_12_borell_moments():
    prof = exponential_profile(1.0)
    for p in (0.0, 0.5, 1.0, 2.0, 5.0):
        normalized = prof.moment(p) / float(gamma(p + 1))
        assert normalized == pytest.approx(1.0, rel=1e-9)
    for trial in range(50):
        rng = rng_for(1212, trial)
        profile = random_radial(rng, 2, log_concave=True).profile
        grid = np.sort(rng.uniform(0.0, 5.0, 7))
        grid = np.unique(np.round(grid, 6))
        if len(grid) < 3:
            grid = np.array([0.0, 1.0, 2.0])
        rep = check_moment_logconcavity(profile, grid.tolist())
        assert rep.verdict != "violated", rep.to_json()
    _report(12, "normalized moments of exp(-x) are identically 1 (1e-9 at "
                "p in {0, .5, 1, 2, 5}); midpoint log-concavity holds on "
                "50 random log-concave profiles")
