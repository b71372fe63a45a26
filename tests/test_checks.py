"""The inequality harness: verdict mechanics, equality diagnostics,
counterexample families, determinism."""

import math

import pytest

from qcvx import checks
from qcvx.bodies import ConvexBody, scale
from qcvx.checks import (
    CHECKS,
    DEFAULT_TOLS,
    check_af,
    check_af_bodies,
    check_alexandrov_rearrangement,
    check_bm_rearrangement,
    check_gen_bm,
    check_gen_bm_bodies,
    check_isoperimetric_qc,
    check_lc_alexandrov,
    check_lc_isoperimetric,
    check_moment_logconcavity,
    counterexample_values,
    exponential_reference_quermass,
    run_all,
    run_check,
    summarize,
)
from qcvx.errors import IndexOutOfRange, NotLogConcave, NumericalFailure
from qcvx import generators
from qcvx.generators import (
    random_polytope,
    random_radial,
    random_stack,
    rng_for,
    shared_draws,
)
from qcvx.profiles import GaussianProfile, PowerLawProfile, exponential_profile
from qcvx.qc import RadialQC, indicator, odot
from qcvx.rearrange import SizeFunctional
from qcvx.report import judge, pair_scale

EXP_DISC = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))


# -- equality diagnostics ------------------------------------------------------

def test_isoperimetric_equality_on_rotation_invariant():
    rng = rng_for(0, 0)
    ball_stack = random_stack(rng, 2, rotation_invariant=True)
    rep = check_isoperimetric_qc(ball_stack)
    assert rep.verdict == "holds-with-equality"
    assert rep.details["rotation_invariant"]


def test_isoperimetric_square_margin():
    rep = check_isoperimetric_qc(indicator(ConvexBody.box([0, 0], [1, 1])))
    # S(square) = 4 vs S(equal-area disc) = 2 sqrt(pi)
    assert rep.verdict == "holds"
    assert rep.left == pytest.approx(4.0, rel=1e-12)
    assert rep.right == pytest.approx(2 * math.sqrt(math.pi), rel=1e-10)


def test_bm_equality_for_rotation_invariant_pair():
    rng = rng_for(1, 0)
    f = random_stack(rng, 2, rotation_invariant=True)
    g = random_stack(rng, 2, rotation_invariant=True)
    rep = check_bm_rearrangement(f, g)
    assert rep.verdict == "holds-with-equality"


def test_bm_indicators_classic_brunn_minkowski():
    rng = rng_for(2, 0)
    from qcvx.generators import random_polytope
    a, b = random_polytope(rng, 2), random_polytope(rng, 2)
    rep = check_bm_rearrangement(indicator(a), indicator(b))
    assert rep.ok
    # the single relevant height states Vol(A+B)^(1/2) >= Vol A^(1/2) + Vol B^(1/2)
    from qcvx.bodies import minkowski_sum, volume
    assert rep.left * math.sqrt(math.pi) == pytest.approx(
        math.sqrt(volume(minkowski_sum(a, b))), rel=1e-10)


def test_gen_bm_homothetic_pair_equality():
    rng = rng_for(3, 0)
    f = random_stack(rng, 2)
    g = odot(1.7, f)
    rep = check_gen_bm(SizeFunctional.vol(2), f, g)
    assert rep.verdict == "holds-with-equality"


def test_gen_bm_bodies_degree_one_is_identity():
    rng = rng_for(4, 0)
    from qcvx.generators import random_polytope
    phi = SizeFunctional.quermass(2, 1)   # degree 1: Minkowski additive
    rep = check_gen_bm_bodies(phi, random_polytope(rng, 2), random_polytope(rng, 2))
    assert rep.verdict == "holds-with-equality"


def _count_minkowski_sums(monkeypatch):
    """Count every call of ``bodies.minkowski_sum``, under each name a qcvx
    module binds it to."""
    import sys

    from qcvx import bodies

    real, calls = bodies.minkowski_sum, []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qcvx") and getattr(mod, "minkowski_sum", None) is real:
            monkeypatch.setattr(mod, "minkowski_sum", counting)
    return calls


@pytest.mark.parametrize("dim", [2, 3])
def test_brunn_minkowski_checks_build_no_sum(monkeypatch, dim):
    """Sizes of sums come from mixed volumes of the parts: vol and every
    degree-1 functional need no Minkowski sum at any height, and neither
    does either integral of bm-rearrangement."""
    rng = rng_for(8, dim)
    f, g = random_stack(rng, dim), random_stack(rng, dim)
    a, b = random_polytope(rng, dim), random_polytope(rng, dim)
    phis = [SizeFunctional.vol(dim), SizeFunctional.quermass(dim, dim - 1)]
    calls = _count_minkowski_sums(monkeypatch)
    reports = [check_bm_rearrangement(f, g)]
    for phi in phis:
        reports += [check_gen_bm(phi, f, g), check_gen_bm_bodies(phi, a, b)]
    assert all(rep.ok for rep in reports)
    assert calls == []


def test_gen_bm_with_w1_in_space_builds_at_most_one_sum_per_height(monkeypatch):
    # V(K, L, B) comes from the crossings of the Gauss images of K and L,
    # so no height needs the hull of K + L
    rng = rng_for(9, 0)
    f, g = random_stack(rng, 3), random_stack(rng, 3)
    calls = _count_minkowski_sums(monkeypatch)
    rep = check_gen_bm(SizeFunctional.quermass(3, 1), f, g)
    assert rep.ok
    assert calls == []


def test_alexandrov_square_radii():
    # W_1(square)/omega_2 vs sqrt(W_0/omega_2): 2/pi < 2/sqrt(pi), so the
    # W_1-ball contains the W_0-ball
    square2 = ConvexBody.box([-1, -1], [1, 1])
    rep = check_alexandrov_rearrangement(indicator(square2), 0, 1)
    assert rep.ok
    assert rep.left == pytest.approx(4 / math.pi, rel=1e-12)     # W_1 radius
    assert rep.right == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)
    assert rep.left >= rep.right
    with pytest.raises(IndexOutOfRange):
        check_alexandrov_rearrangement(EXP_DISC, 1, 1)


def test_af_equal_functions_equality():
    rng = rng_for(5, 0)
    f = random_stack(rng, 2)
    rep = check_af(SizeFunctional.vol(2), [f, f])
    assert rep.margin >= -1e-9
    rngb = rng_for(5, 1)
    fball = random_stack(rngb, 2, rotation_invariant=True)
    gball = random_stack(rngb, 2, rotation_invariant=True)
    rep = check_af(SizeFunctional.vol(2), [fball, gball])
    assert rep.verdict == "holds-with-equality"


# -- log-concave chain ----------------------------------------------------------

def test_lc_alexandrov_exponential_equality():
    for c in (0.5, 1.0, 3.0):
        for n in (2, 3):
            f = RadialQC(ConvexBody.ball(1.0, n), exponential_profile(c))
            for k in range(n):
                for m in range(k + 1, n):
                    rep = check_lc_alexandrov(f, k, m)
                    assert rep.verdict == "holds-with-equality"
                    assert rep.left == pytest.approx(1 / c, rel=1e-12)


def test_lc_alexandrov_gaussian_strict():
    f = RadialQC(ConvexBody.ball(1.0, 3), GaussianProfile(1.0))
    rep = check_lc_alexandrov(f, 0, 1)
    assert rep.verdict == "holds"
    assert rep.margin > 1e-3


def test_lc_alexandrov_rejects_powerlaw():
    f = RadialQC(ConvexBody.ball(1.0, 2), PowerLawProfile(4.0, 1.0))
    with pytest.raises(NotLogConcave):
        check_lc_alexandrov(f, 0, 1)


def test_lc_isoperimetric_equality_both_sides_2pi():
    rep = check_lc_isoperimetric(EXP_DISC)
    assert rep.verdict == "holds-with-equality"
    assert rep.left == pytest.approx(2 * math.pi, rel=1e-12)
    assert rep.right == pytest.approx(2 * math.pi, rel=1e-12)


def test_lc_isoperimetric_gaussian_strict():
    f = RadialQC(ConvexBody.ball(1.0, 2), GaussianProfile(1.0))
    rep = check_lc_isoperimetric(f)
    assert rep.verdict == "holds"


def test_reference_quermass_closed_form():
    for n in (2, 3):
        f = RadialQC(ConvexBody.ball(1.0, n), exponential_profile(1.0))
        from qcvx.qc import quermassintegral_fn
        for i in range(n):
            assert quermassintegral_fn(f, i) == pytest.approx(
                exponential_reference_quermass(n, i), rel=1e-12)


# -- moments ---------------------------------------------------------------------

def test_moment_logconcavity_exponential_flat():
    rep = check_moment_logconcavity(exponential_profile(1.0), [0.0, 0.5, 1.0, 2.0, 5.0])
    assert rep.verdict == "holds-with-equality"
    for v in rep.details["normalized_moments"]:
        assert v == pytest.approx(1.0, rel=1e-12)


def test_moment_logconcavity_gaussian_strict():
    rep = check_moment_logconcavity(GaussianProfile(1.0), [0.0, 0.5, 1.0, 2.0, 4.0])
    assert rep.verdict == "holds"
    assert rep.margin > 0


def test_moment_comparison_equality_case():
    # the (k, m) = (1, 2) comparison with h = exp(-2x) is tight
    rep = check_moment_logconcavity(exponential_profile(2.0), [0.5, 1.0, 2.0])
    assert abs(rep.left - rep.right) <= 1e-9 * max(rep.left, rep.right)


def test_moment_rejects_non_log_concave():
    with pytest.raises(NotLogConcave):
        check_moment_logconcavity(PowerLawProfile(5.0, 1.0), [0.0, 1.0, 2.0])


# -- counterexample families ------------------------------------------------------

@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_exponential_family_values(a):
    vals = counterexample_values("exponential", a)
    assert vals["integral"] == pytest.approx(2 * math.pi, rel=1e-9)
    assert vals["surface_area"] == pytest.approx(2 * math.pi * a, rel=1e-9)
    assert vals["log_concave"]
    assert vals["geometric"] == (a == 1.0)


@pytest.mark.parametrize("a", [2.5, 3.0, 4.0])
def test_powerlaw_family_values(a):
    vals = counterexample_values("powerlaw", a)
    assert vals["integral"] == pytest.approx(2 * math.pi, rel=1e-9)
    assert vals["surface_area"] == pytest.approx(
        2 * math.pi * math.sqrt((a - 2) / (a - 1)), rel=1e-9)
    assert vals["geometric"]
    assert not vals["log_concave"]


def test_powerlaw_family_is_rejected_by_the_sharp_bound():
    f = RadialQC(ConvexBody.ball(1.0, 2), PowerLawProfile(2.5, math.sqrt(0.75)))
    with pytest.raises(NotLogConcave):
        check_lc_isoperimetric(f)


# -- harness mechanics -------------------------------------------------------------

def test_run_check_deterministic():
    a = run_check("bm-rearrangement", seed=11, trials=3, dim=2)
    b = run_check("bm-rearrangement", seed=11, trials=3, dim=2)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]


def test_run_check_unknown_name():
    with pytest.raises(KeyError):
        run_check("nope")


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_check_clean_on_small_runs(name):
    reports = run_check(name, seed=23, trials=6, dim=2)
    for rep in reports:
        assert rep.ok, rep.to_json()


def test_run_all_summary_shape():
    results = run_all(seed=5, trials=2, dim=2, names=["af", "gen-bm"])
    rows = summarize(results)
    assert [row["name"] for row in rows] == ["af", "gen-bm"]
    assert all(row["violations"] == 0 for row in rows)


@pytest.mark.parametrize("dim, trials", [(2, 3), (3, 2)])
def test_run_all_is_run_check_per_name_bit_for_bit(dim, trials):
    together = run_all(seed=4, trials=trials, dim=dim)
    alone = {name: run_check(name, seed=4, trials=trials, dim=dim) for name in together}
    assert list(together) == list(alone)
    for name in together:
        assert [r.to_json() for r in together[name]] == [r.to_json() for r in alone[name]]


@pytest.mark.parametrize("draw, kwargs", [
    (random_stack, {}),
    (random_polytope, {"origin_interior": True}),
    (random_radial, {"log_concave": True}),
])
@pytest.mark.parametrize("dim", [2, 3])
def test_a_shared_draw_is_the_first_object_and_leaves_the_generator_in_step(
        draw, kwargs, dim):
    plain = rng_for(6, 1)
    draw.__wrapped__(plain, dim, **kwargs)
    with shared_draws():
        first_rng, second_rng = rng_for(6, 1), rng_for(6, 1)
        first = draw(first_rng, dim, **kwargs)
        second = draw(second_rng, dim, **kwargs)
        other = draw(rng_for(6, 2), dim, **kwargs)
        assert second is first and other is not first
        after = plain.random()
        assert first_rng.random() == after and second_rng.random() == after
    # outside the block every call draws afresh
    assert draw(rng_for(6, 1), dim, **kwargs) is not first


def test_shared_draws_memo_lives_only_inside_the_block(monkeypatch):
    seen = []

    def fails(rng, dim, tols):
        seen.append(generators._DRAWS.get())
        raise RuntimeError("check failed")

    assert generators._DRAWS.get() is None
    with shared_draws():
        assert generators._DRAWS.get() == {}
    assert generators._DRAWS.get() is None
    monkeypatch.setitem(CHECKS, "gen-bm-bodies", fails)
    with pytest.raises(RuntimeError, match="check failed"):
        run_all(seed=1, trials=2, dim=2, names=["af-bodies", "gen-bm-bodies"])
    assert isinstance(seen[0], dict) and len(seen[0]) > 0
    assert generators._DRAWS.get() is None


def test_violated_verdict_carries_witness():
    # force a violation by lying about which inequality should hold
    from qcvx.checks import _levelwise, _witness
    tol = 1e-9
    rep = judge("fake", "left >= right", tol=tol, witness=_witness(f=EXP_DISC),
                **_levelwise([1.0], [0.5], [2.0], tol, {}))
    assert rep.verdict == "violated"
    assert rep.margin == -0.75 and (rep.left, rep.right) == (0.5, 2.0)
    assert rep.witness is not None and "f" in rep.witness
    # a verdict that holds never builds its witness
    built = []
    held = judge("fake", "left >= right", 2.0, 0.5, 0.75, tol,
                 witness=lambda: built.append(1) or _witness(f=EXP_DISC)())
    assert held.verdict == "holds" and held.witness is None and built == []


def test_judge_equality_is_the_callers_test():
    assert judge("x", "s", 1.0, 1.0, 0.0, 1e-9).verdict == "holds-with-equality"
    assert judge("x", "s", 1.0, 1.0, 0.0, 1e-9, equality=False).verdict == "holds"
    # the absolute margin 2e-9 is 1e-9 relative at scale 2
    assert judge("x", "s", 2.0, 2.0 + 2e-9, -2e-9, 1e-9,
                 scale=2.0).verdict == "holds-with-equality"
    assert judge("x", "s", 2.0, 2.0 + 4e-9, -4e-9, 1e-9, scale=2.0).verdict == "violated"


@pytest.mark.parametrize("left, right", [(math.nan, 1.0), (1.0, math.nan),
                                         (math.inf, math.inf), (-math.inf, 1.0)])
def test_non_finite_margin_raises_naming_the_check(left, right):
    with pytest.raises(NumericalFailure, match="lc-isoperimetric"):
        judge("lc-isoperimetric", "s", left, right,
              (left - right) / pair_scale(left, right), 1e-6)
    with pytest.raises(NumericalFailure, match="rescaled-bm"):
        judge("rescaled-bm", "s", left, right, left - right, 1e-9,
              scale=pair_scale(left, right))


def test_one_nan_height_raises():
    from qcvx.checks import _levelwise
    with pytest.raises(NumericalFailure, match="bm-rearrangement"):
        judge("bm-rearrangement", "s", tol=1e-9,
              **_levelwise([1.0, 0.5], [1.0, math.nan], [0.5, 0.5], 1e-9, {}))


# -- every planted fault of 10 tol is caught -----------------------------------
#
# Each case is (draw, check, plant): draw(rng, dim) gives the inputs of an
# equality case, check(inputs, dim) judges them at the default exact
# tolerance, and plant(monkeypatch, rel, inputs) shrinks the side that must
# dominate by the relative amount rel.

def _shrink_sums(mp, rel, inputs):
    """Phi(P_1 + ... + P_k) of two or more parts, times 1 - rel."""
    real = SizeFunctional.eval_sum

    def faulty(self, parts):
        parts = list(parts)
        value = real(self, parts)
        return value * (1.0 - rel) if len(parts) > 1 else value

    mp.setattr(SizeFunctional, "eval_sum", faulty)


def _shrink_mixed_volume(mp, rel, inputs):
    real = checks.mixed_volume
    mp.setattr(checks, "mixed_volume", lambda bodies: real(bodies) * (1.0 - rel))


def _shrink_surface_of_input(mp, rel, inputs):
    """S(f) of the unrearranged input only, times 1 - rel."""
    real, (f,) = checks.surface_area_fn, inputs
    mp.setattr(checks, "surface_area_fn",
               lambda g: real(g) * (1.0 - rel) if g is f else real(g))


def _ball_stacks(count):
    return lambda rng, dim: tuple(random_stack(rng, dim, rotation_invariant=True)
                                  for _ in range(count))


def _polytope_and_homothet(rng, dim):
    a = random_polytope(rng, dim)
    return a, scale(a, 1.7)


def _degree_two_homothets(rng, dim):
    a = random_polytope(rng, dim)
    refs = tuple(random_polytope(rng, dim, origin_interior=True) for _ in range(dim - 2))
    return SizeFunctional(dim=dim, degree=2, references=refs), [a, scale(a, 1.7)]


FAULT_CASES = {
    "gen-bm": (_ball_stacks(2),
               lambda fg, dim: check_gen_bm(SizeFunctional.quermass(dim, 1), *fg),
               _shrink_sums),
    "bm-rearrangement": (_ball_stacks(2), lambda fg, dim: check_bm_rearrangement(*fg),
                         _shrink_sums),
    "gen-bm-bodies": (_polytope_and_homothet,
                      lambda ab, dim: check_gen_bm_bodies(SizeFunctional.vol(dim), *ab),
                      _shrink_sums),
    "af-bodies": (_degree_two_homothets, lambda args, dim: check_af_bodies(*args),
                  _shrink_mixed_volume),
    "isoperimetric-qc": (_ball_stacks(1), lambda f, dim: check_isoperimetric_qc(*f),
                         _shrink_surface_of_input),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", sorted(FAULT_CASES))
def test_a_planted_fault_of_ten_tolerances_is_violated(monkeypatch, name, dim):
    """In an equality case (rotation-invariant stacks, or a polytope and its
    1.7-homothet) the check holds with equality; shrinking the side that must
    dominate by 10 tol makes it violated, with a witness, and by 0.1 tol
    does not."""
    draw, check, plant = FAULT_CASES[name]
    tol = DEFAULT_TOLS.exact
    for trial in range(10):
        inputs = draw(rng_for(5, trial), dim)
        rep = check(inputs, dim)
        assert rep.name == name and rep.verdict == "holds-with-equality", (trial, rep.margin)
        for rel, caught in ((10.0 * tol, True), (0.1 * tol, False)):
            with monkeypatch.context() as mp:
                plant(mp, rel, inputs)
                rep = check(inputs, dim)
            assert (rep.verdict == "violated") is caught, (trial, rel, rep.margin)
            assert (rep.witness is not None) is caught
