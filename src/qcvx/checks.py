"""Inequality harness: every rearrangement / isoperimetric / Alexandrov
statement becomes a parameterized check whose CheckReport ``report.judge``
builds.

Tolerances travel with the call as a ``Tolerances`` value (default 1e-9
relative on exact stack paths, 1e-6 where quadrature enters), passed to
``run_all``, on to every trial and into every check (``run_check`` runs at
the default; the exact sandwich checks keep 1e-9).  A "violated" verdict
carries the serialized inputs as a witness and is treated as a build
failure by the test suite.

Trial k of every check draws its inputs from ``rng_for(seed, k)``, so checks
at the same trial that draw the same stack, polytope or radial function from
the same generator state share that draw (``generators.shared_draws``): it is
built once per trial, and every report is the same as when each check runs
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gamma

from .bodies import ConvexBody, UNIT_BALL_VOLUME, body_to_json
from .duality import polarity_sandwich_check, sandwich_check
from .errors import IndexOutOfRange, NotLogConcave
from .generators import (
    conditioned_geom_convex_fn,
    random_geom_convex_fn,
    random_polytope,
    random_radial,
    random_size_functional,
    random_stack,
    rng_for,
    shared_draws,
)
from .grids import GridSpec
from .mixed_volumes import mixed_volume, quermassintegral_body
from .profiles import Profile, PowerLawProfile, StretchedExponentialProfile
from .qc import (
    LevelStack,
    QCFunction,
    RadialQC,
    fn_to_json,
    indicator,
    integral,
    merged_heights,
    mixed_integral,
    quermassintegral_fn,
    surface_area_fn,
)
from .rearrange import SizeFunctional, ball_radius, phi_rearrange, sdr
from .report import CheckReport, judge, pair_scale


@dataclass(frozen=True)
class Tolerances:
    """Relative verdict tolerances of one run: ``exact`` where every operand
    is a stack (no quadrature), ``quad`` where quadrature enters."""

    exact: float = 1e-9
    quad: float = 1e-6

    def __post_init__(self):
        if not (self.exact > 0 and self.quad > 0):
            raise ValueError("tolerances must be positive")

    def for_fns(self, *fs: QCFunction) -> float:
        return self.exact if all(isinstance(f, LevelStack) for f in fs) else self.quad


DEFAULT_TOLS = Tolerances()


def _sample_heights(*fs: QCFunction) -> np.ndarray:
    extra = [] if all(isinstance(f, LevelStack) for f in fs) else \
        np.geomspace(1.0, 1e-3, 16).tolist()
    return merged_heights(*fs, extra=extra)


def _levelwise(heights, lhs, rhs, tol: float, details: dict) -> dict:
    """Judge arguments for per-height radius comparisons lhs(t) >= rhs(t):
    the margin is the worst relative gap, equality every gap within tol."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    rel = (lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    worst = int(np.argmin(rel))
    return {"left": float(lhs[worst]), "right": float(rhs[worst]),
            "margin": float(np.min(rel)),
            "equality": float(np.max(np.abs(rel))) <= tol,
            "details": {"heights": [float(t) for t in heights],
                        "lhs": lhs.tolist(), "rhs": rhs.tolist(), **details}}


def _serialized(val):
    try:
        if isinstance(val, QCFunction):
            return fn_to_json(val)
        if isinstance(val, ConvexBody):
            return body_to_json(val)
        return val
    except ValueError:
        return repr(val)


def _witness(**objs) -> Callable[[], dict]:
    """The serialized inputs, built only when ``judge`` finds a violation."""
    return lambda: {key: _serialized(val) for key, val in objs.items()}


def _levelwise_bm(phi: SizeFunctional, f: QCFunction, g: QCFunction):
    """(heights, lhs, rhs): at each sample height t, the Phi-ball radius of
    K_t + L_t (from ``eval_sum``, the sum never built) against the sum of
    those of K_t and L_t."""
    heights = _sample_heights(f, g)
    lhs, rhs = [], []
    for t in heights:
        kf, kg = f.level_set(float(t)), g.level_set(float(t))
        lhs.append(ball_radius(phi, [kf, kg]))
        rhs.append(ball_radius(phi, [kf]) + ball_radius(phi, [kg]))
    return heights, lhs, rhs


# ---------------------------------------------------------------------------
# rearrangement inequalities
# ---------------------------------------------------------------------------

def check_isoperimetric_qc(f: QCFunction, tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """Surface area never increases under symmetric decreasing rearrangement."""
    left = surface_area_fn(f)
    right = surface_area_fn(sdr(f))
    return judge(
        "isoperimetric-qc",
        "S(f) >= S(f*) with equality iff f is rotation invariant",
        left, right, (left - right) / pair_scale(left, right), tols.for_fns(f),
        witness=_witness(f=f), details={"rotation_invariant": f.is_rotation_invariant()})


def check_bm_rearrangement(f: QCFunction, g: QCFunction,
                           tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """(f oplus g)* dominates f* oplus g*, levelwise in the ball radii.

    At each height the radius of (f oplus g)* is that of Vol(K_t + L_t),
    expanded into mixed volumes of K_t and L_t; ``integral_lhs`` and
    ``integral_rhs`` expand int f oplus g and int f* oplus g* into mixed
    integrals the same way.  No Minkowski sum is built.
    """
    vol = SizeFunctional.vol(f.dim)
    heights, lhs, rhs = _levelwise_bm(vol, f, g)
    details = {
        "rotation_invariant": f.is_rotation_invariant() and g.is_rotation_invariant(),
        "integral_lhs": vol.eval_sum([f, g]),
        "integral_rhs": vol.eval_sum([sdr(f), sdr(g)]),
    }
    tol = tols.for_fns(f, g)
    return judge(
        "bm-rearrangement",
        "(f oplus g)* >= f* oplus g* (levelwise Brunn-Minkowski)",
        tol=tol, witness=_witness(f=f, g=g), **_levelwise(heights, lhs, rhs, tol, details))


def check_gen_bm(phi: SizeFunctional, f: QCFunction, g: QCFunction,
                 tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """(f oplus g)^Phi dominates f^Phi oplus g^Phi for any size functional.

    Phi(K_t + L_t) at each height comes from ``SizeFunctional.eval_sum``:
    mixed volumes of K_t and L_t, so vol and every degree-1 functional build
    no sum.  W_1 in space takes V(K_t, L_t, B) from the crossings of the two
    Gauss images and builds S(K_t + L_t) only where a crossing is undecided
    at round-off.
    """
    heights, lhs, rhs = _levelwise_bm(phi, f, g)
    details = {
        "functional": phi.name or f"degree-{phi.degree}",
        "rotation_invariant": f.is_rotation_invariant() and g.is_rotation_invariant(),
    }
    tol = tols.for_fns(f, g)
    return judge(
        "gen-bm",
        "(f oplus g)^Phi >= f^Phi oplus g^Phi (generalized Brunn-Minkowski)",
        tol=tol, witness=_witness(f=f, g=g), **_levelwise(heights, lhs, rhs, tol, details))


def check_gen_bm_bodies(phi: SizeFunctional, a: ConvexBody, b: ConvexBody,
                        tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """Body form: Phi(A+B)^(1/m) >= Phi(A)^(1/m) + Phi(B)^(1/m), with
    Phi(A+B) from ``SizeFunctional.eval_sum`` (A + B is never built)."""
    left = ball_radius(phi, [a, b])
    right = ball_radius(phi, [a]) + ball_radius(phi, [b])
    return judge(
        "gen-bm-bodies",
        "(A + B)^Phi contains A^Phi + B^Phi (generalized Brunn-Minkowski)",
        left, right, (left - right) / pair_scale(left, right), tols.exact,
        witness=_witness(a=a, b=b), details={"functional": phi.name or f"degree-{phi.degree}"})


def check_alexandrov_rearrangement(f: QCFunction, i: int, j: int,
                                   tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """f^{W_j} dominates f^{W_i} for i < j (levelwise radii)."""
    n = f.dim
    if not 0 <= i < j < n:
        raise IndexOutOfRange(f"need 0 <= i < j < {n}, got ({i}, {j})")
    wn = UNIT_BALL_VOLUME[n]
    heights = _sample_heights(f)
    lhs, rhs = [], []
    for t in heights:
        body = f.level_set(float(t))
        lhs.append((quermassintegral_body(body, j) / wn) ** (1.0 / (n - j)))
        rhs.append((quermassintegral_body(body, i) / wn) ** (1.0 / (n - i)))
    tol = tols.for_fns(f)
    return judge(
        "alexandrov-rearrangement",
        "f^{W_j} >= f^{W_i} for i < j; equality iff f is rotation invariant",
        tol=tol, witness=_witness(f=f, i=i, j=j),
        **_levelwise(heights, lhs, rhs, tol, {
            "i": i, "j": j, "rotation_invariant": f.is_rotation_invariant()}))


def check_af(phi: SizeFunctional, fs: Sequence[QCFunction],
             tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """Mixed integrals dominate those of the Phi-rearranged functions."""
    fs = list(fs)
    if len(fs) != phi.degree:
        raise ValueError(f"need {phi.degree} functions for a degree-{phi.degree} functional")
    refs = [indicator(ref) for ref in phi.references]
    left = mixed_integral(fs + refs)
    right = mixed_integral([phi_rearrange(phi, f) for f in fs] + refs)
    return judge(
        "af",
        "V(f_1, ..., f_m, refs) >= V(f_1^Phi, ..., f_m^Phi, refs) "
        "(Alexandrov-Fenchel, rearranged form)",
        left, right, (left - right) / pair_scale(left, right), tols.for_fns(*fs),
        witness=_witness(**{f"f{k}": f for k, f in enumerate(fs)}),
        details={"functional": phi.name or f"degree-{phi.degree}",
                 "rotation_invariant": all(f.is_rotation_invariant() for f in fs)})


def check_af_bodies(phi: SizeFunctional, bodies: Sequence[ConvexBody],
                    tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """Body form: V(A_1, ..., A_m, refs) >= prod Phi(A_i)^(1/m)."""
    bodies = list(bodies)
    left = mixed_volume(bodies + list(phi.references))
    right = 1.0
    for b in bodies:
        right *= phi.eval_body(b) ** (1.0 / phi.degree)
    return judge(
        "af-bodies",
        "V(A_1, ..., A_m, refs)^m >= prod_i Phi(A_i) (Alexandrov-Fenchel)",
        left, right, (left - right) / pair_scale(left, right), tols.exact,
        witness=_witness(**{f"a{k}": b for k, b in enumerate(bodies)}),
        details={"functional": phi.name or f"degree-{phi.degree}"})


# ---------------------------------------------------------------------------
# log-concave inequalities
# ---------------------------------------------------------------------------

def exponential_reference_quermass(n: int, i: int) -> float:
    """W_i of e^{-|x|}: omega_n * Gamma(n - i + 1)."""
    return UNIT_BALL_VOLUME[n] * float(gamma(n - i + 1))


def check_moment_logconcavity(profile: Profile, p_grid: Sequence[float],
                              tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """phi(p) = moment(p) / Gamma(p+1) is log-concave for log-concave profiles;
    also checks the derived moment comparison for (k, m) = (1, 2)."""
    if not profile.is_log_concave():
        raise NotLogConcave("moment log-concavity requires a log-concave profile")
    ps = np.asarray(sorted(p_grid), dtype=float)
    if len(ps) < 3:
        raise ValueError("need at least three grid points")
    vals = np.array([profile.moment(float(p)) / float(gamma(p + 1)) for p in ps])
    logs = np.log(vals)
    margins = []
    for k in range(1, len(ps) - 1):
        theta = (ps[k + 1] - ps[k]) / (ps[k + 1] - ps[k - 1])
        margins.append(logs[k] - (theta * logs[k - 1] + (1 - theta) * logs[k + 1]))
    moment_lhs = (profile.moment(2.0) / float(gamma(3))) ** (1.0 / 3.0)
    moment_rhs = (profile.moment(1.0) / float(gamma(2))) ** (1.0 / 2.0)
    # np.min, unlike min, lets a NaN through to the judge
    margin = float(np.min(margins + [moment_rhs - moment_lhs]))
    is_exp = isinstance(profile, StretchedExponentialProfile) and profile.p == 1.0
    tol = tols.quad if not is_exp else tols.exact
    return judge(
        "moment-logconcavity",
        "p -> moment(p) / Gamma(p+1) is log-concave; "
        "normalized moments decrease in the order, equality only "
        "for exponential profiles",
        float(moment_rhs), float(moment_lhs), margin, tol,
        equality=max(abs(m) for m in margins) <= tol,
        details={"p_grid": ps.tolist(), "normalized_moments": vals.tolist(),
                 "exponential": is_exp})


def check_lc_alexandrov(f: QCFunction, k: int, m: int,
                        tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """Normalized quermassintegral chain against the exponential reference."""
    n = f.dim
    if not 0 <= k < m < n:
        raise IndexOutOfRange(f"need 0 <= k < m < {n}, got ({k}, {m})")
    if not f.is_log_concave():
        raise NotLogConcave("the chain requires a geometric log-concave function")
    left = (quermassintegral_fn(f, m) / exponential_reference_quermass(n, m)) \
        ** (1.0 / (n - m))
    right = (quermassintegral_fn(f, k) / exponential_reference_quermass(n, k)) \
        ** (1.0 / (n - k))
    exp_profile = isinstance(f, RadialQC) and f.base.is_ball and \
        isinstance(f.profile, StretchedExponentialProfile) and f.profile.p == 1.0
    return judge(
        "lc-alexandrov",
        "(W_k(f)/W_k(g))^(1/(n-k)) <= (W_m(f)/W_m(g))^(1/(n-m)) for g = exp(-|x|), "
        "equality iff f = exp(-c|x|)",
        left, right, (left - right) / pair_scale(left, right), tols.quad,
        witness=_witness(f=f, k=k, m=m),
        details={"k": k, "m": m, "exponential_profile": exp_profile})


def check_lc_isoperimetric(f: QCFunction, tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """Sharp isoperimetric bound S(f) >= (int f)^((n-1)/n) S(g)/(int g)^((n-1)/n)."""
    n = f.dim
    if not f.is_log_concave():
        raise NotLogConcave("the sharp bound requires a geometric log-concave function")
    s_g = n * exponential_reference_quermass(n, 1)
    int_g = exponential_reference_quermass(n, 0)
    left = surface_area_fn(f)
    right = integral(f) ** ((n - 1) / n) * s_g / int_g ** ((n - 1) / n)
    exp_profile = isinstance(f, RadialQC) and f.base.is_ball and \
        isinstance(f.profile, StretchedExponentialProfile) and f.profile.p == 1.0
    return judge(
        "lc-isoperimetric",
        "S(f) >= (int f)^((n-1)/n) * S(g) / (int g)^((n-1)/n) for g = exp(-|x|), "
        "equality iff f = exp(-c|x|)",
        left, right, (left - right) / pair_scale(left, right), tols.quad,
        witness=_witness(f=f),
        details={"exponential_profile": exp_profile})


# ---------------------------------------------------------------------------
# counterexample families (hypotheses matter)
# ---------------------------------------------------------------------------

def counterexample_values(family: str, a: float) -> dict:
    """Closed-form (integral, surface area) pairs for the two plane families
    that break any isoperimetric lower bound once a hypothesis is dropped.

    * "exponential": a^2 exp(-a|x|) is log-concave but not geometric (height
      a^2); its values are the height factor times those of exp(-a|x|).
    * "powerlaw": (1 + |x|/sqrt(a^2-3a+2))^(-a) is geometric but not
      log-concave.
    """
    if family == "exponential":
        base = RadialQC(ConvexBody.ball(1.0, 2),
                        StretchedExponentialProfile(a, 1.0))
        height = a * a
        return {
            "integral": height * integral(base),
            "surface_area": height * surface_area_fn(base),
            "geometric": height == 1.0,
            "log_concave": True,
        }
    if family == "powerlaw":
        s = math.sqrt(a * a - 3 * a + 2)
        f = RadialQC(ConvexBody.ball(1.0, 2), PowerLawProfile(a, s))
        return {
            "integral": integral(f),
            "surface_area": surface_area_fn(f),
            "geometric": True,
            "log_concave": f.is_log_concave(),
        }
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _trial_isoperimetric(rng, dim, tols):
    return check_isoperimetric_qc(random_stack(rng, dim), tols)


def _trial_bm(rng, dim, tols):
    return check_bm_rearrangement(random_stack(rng, dim), random_stack(rng, dim), tols)


def _trial_gen_bm(rng, dim, tols):
    phi = random_size_functional(rng, dim)
    return check_gen_bm(phi, random_stack(rng, dim), random_stack(rng, dim), tols)


def _trial_gen_bm_bodies(rng, dim, tols):
    phi = random_size_functional(rng, dim)
    return check_gen_bm_bodies(phi, random_polytope(rng, dim), random_polytope(rng, dim),
                               tols)


def _trial_alexandrov(rng, dim, tols):
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    i, j = pairs[int(rng.integers(len(pairs)))]
    return check_alexandrov_rearrangement(random_stack(rng, dim), i, j, tols)


def _trial_af(rng, dim, tols):
    # degree 1 functionals make the inequality an identity; draw m >= 2
    m = int(rng.integers(2, dim + 1)) if dim > 1 else 1
    refs = tuple(random_polytope(rng, dim, origin_interior=True)
                 for _ in range(dim - m))
    phi = SizeFunctional(dim=dim, degree=m, references=refs)
    return check_af(phi, [random_stack(rng, dim) for _ in range(m)], tols)


def _trial_af_bodies(rng, dim, tols):
    m = int(rng.integers(2, dim + 1)) if dim > 1 else 1
    refs = tuple(random_polytope(rng, dim, origin_interior=True)
                 for _ in range(dim - m))
    phi = SizeFunctional(dim=dim, degree=m, references=refs)
    return check_af_bodies(phi, [random_polytope(rng, dim) for _ in range(m)], tols)


def _trial_moments(rng, dim, tols):
    profile = random_radial(rng, dim, log_concave=True).profile
    grid = np.sort(rng.uniform(0.0, 5.0, 7))
    grid = np.unique(np.round(grid, 6))
    while len(grid) < 3:
        grid = np.append(grid, grid[-1] + 1.0)
    return check_moment_logconcavity(profile, grid.tolist(), tols)


def _trial_lc_alexandrov(rng, dim, tols):
    pairs = [(k, m) for k in range(dim) for m in range(k + 1, dim)]
    k, m = pairs[int(rng.integers(len(pairs)))]
    return check_lc_alexandrov(random_radial(rng, dim, log_concave=True), k, m, tols)


def _trial_lc_isoperimetric(rng, dim, tols):
    return check_lc_isoperimetric(random_radial(rng, dim, log_concave=True), tols)


def _trial_sandwich(rng, dim, tols):
    dim = min(dim, 2)
    k = 2 if dim == 2 else int(rng.integers(2, 4))
    fns = [random_geom_convex_fn(rng, dim) for _ in range(k)]
    lams = rng.uniform(0.5, 2.0, k).tolist()
    npts = 81 if dim == 1 else 41
    return sandwich_check(fns, lams, GridSpec.cube(4.0, dim, npts))


def _trial_polarity(rng, dim, tols):
    dim = min(dim, 2)
    t = float(rng.choice([0.5, 1.0, 2.0]))
    return polarity_sandwich_check(conditioned_geom_convex_fn(rng, dim), t)


CHECKS = {
    "isoperimetric-qc": _trial_isoperimetric,
    "bm-rearrangement": _trial_bm,
    "gen-bm": _trial_gen_bm,
    "gen-bm-bodies": _trial_gen_bm_bodies,
    "alexandrov-rearrangement": _trial_alexandrov,
    "af": _trial_af,
    "af-bodies": _trial_af_bodies,
    "moment-logconcavity": _trial_moments,
    "lc-alexandrov": _trial_lc_alexandrov,
    "lc-isoperimetric": _trial_lc_isoperimetric,
    "sandwich": _trial_sandwich,
    "polarity-sandwich": _trial_polarity,
}

# quermassintegral chains need at least two indices below the dimension
MIN_DIM = {"alexandrov-rearrangement": 2, "lc-alexandrov": 2}


def _validate(name: str, dim: int) -> None:
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
    if dim < MIN_DIM.get(name, 1):
        raise ValueError(f"check {name!r} needs dimension >= {MIN_DIM[name]}")


def _run_trials(names: Sequence[str], seed: int, trials: int, dim: int,
                tols: Tolerances) -> dict[str, list[CheckReport]]:
    """Trial by trial, every named check as ``CHECKS[name](rng_for(seed,
    trial), dim, tols)``, inside one ``shared_draws`` block per trial."""
    out: dict[str, list[CheckReport]] = {name: [] for name in names}
    for trial in range(trials):
        with shared_draws():
            for name in names:
                out[name].append(CHECKS[name](rng_for(seed, trial), dim, tols))
    return out


def run_check(name: str, seed: int = 0, trials: int = 100, dim: int = 2) -> list[CheckReport]:
    """Run seeded trials of one named check at ``DEFAULT_TOLS``;
    deterministic in (seed, trials, dim)."""
    _validate(name, dim)
    return _run_trials([name], seed, trials, dim, DEFAULT_TOLS)[name]


def run_all(seed: int = 0, trials: int = 100, dim: int = 2,
            names: Optional[Sequence[str]] = None,
            tols: Tolerances = DEFAULT_TOLS) -> dict[str, list[CheckReport]]:
    """Run every named check in sorted order; results keyed by name, each
    list equal to what ``run_check`` returns for that name.

    Checks whose minimum dimension exceeds ``dim`` are skipped.  The run is
    trial-major: trial k of every check runs inside one
    ``generators.shared_draws`` block, since each check's trial k starts from
    the same ``rng_for(seed, k)`` and often draws the same stacks, polytopes
    and radial functions as the check before; those are built once, with
    their cached volumes, facets and hulls.  When two checks would raise, the
    one at the earlier trial surfaces first.
    """
    # an unknown name stays in to raise; a check above its dimension drops out
    names = [n for n in sorted(names or CHECKS)
             if n not in CHECKS or dim >= MIN_DIM.get(n, 1)]
    for name in names:
        _validate(name, dim)
    return _run_trials(names, seed, trials, dim, tols)


def summarize(results: dict[str, list[CheckReport]]) -> list[dict]:
    rows = []
    for name in sorted(results):
        reports = results[name]
        margins = [r.margin for r in reports]
        rows.append({
            "name": name,
            "trials": len(reports),
            "min_margin": min(margins) if margins else float("nan"),
            "equality_hits": sum(r.verdict == "holds-with-equality" for r in reports),
            "violations": sum(r.verdict == "violated" for r in reports),
        })
    return rows
