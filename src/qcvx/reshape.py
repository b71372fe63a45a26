"""Rescalings and dilations: reshaping the height axis of a function so that
Brunn-Minkowski / Alexandrov-Fenchel conclusions hold verbatim.

A rescaling alpha o f permutes heights through an increasing bijection alpha
of [0, 1] and leaves level-set shapes unchanged.  For regular functions
(continuous, strictly radially decreasing, vanishing at infinity) the size
profile t -> Phi(level set at t) is a decreasing bijection, so two functions
can be rescaled to share it exactly.  Step functions are never regular; the
dilation instead replaces each level set by the homothet whose Phi-size
follows the exponential law M(x) = exp(-|x|), which exists for any geometric
log-concave input but can leave log-concavity (see ParabolicCapQC for the
worked example that does).

Size profiles are evaluated through ``PhiProfile``, which expands the one
band of a regular function by multilinearity once; each height then costs
one inversion per distinct profile of that band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bodies import ConvexBody, contains, scale, volume
from .errors import (
    DegenerateBody,
    NonInvertibleProfile,
    NotLogConcave,
    NotRegular,
)
from .profiles import Profile, RescaledProfile, StretchedExponentialProfile, margin_root
from .qc import (
    Band,
    LevelStack,
    QCFunction,
    RadialQC,
    SumQC,
    _as_point_or_scaled,
    _band_at,
    band_terms,
    certify_log_concave,
    indicator,
    integral,
    mixed_integral,
    oplus,
    search_heights,
    terms_at,
)
from .quadrature import integrate_height
from .rearrange import SizeFunctional
from .report import CheckReport, judge, pair_scale

PROFILE_GRID = 128
MATCH_TOL = 1e-8


def is_regular(f: QCFunction) -> bool:
    """Regular = continuous, strictly radially decreasing, vanishing at infinity.

    Exactly the one-band functions whose coefficients are all regular
    profiles (radial functions and their levelwise sums); a band edge inside
    (0, 1) is a jump, and step functions never qualify (their size profile is
    a step map, not a bijection).
    """
    bands = f.bands()
    return (bands is not None and len(bands) == 1
            and all(isinstance(c, Profile) and c.is_regular() for c, _ in bands[0].parts))


@dataclass
class PhiProfile:
    """The decreasing bijection t -> Phi(level set of f at t) for regular f,
    with an exact inverse; carries a monotonicity certification grid.

    Phi(K_t) = C * V(K_t, ..., K_t, refs) is multilinear in the radii of
    the parts of f's one band, so the band is expanded (``band_terms``) the
    first time a height is asked for and the expansion kept on the instance;
    every height after that only inverts the band's distinct profiles.
    """

    phi: SizeFunctional
    f: QCFunction
    _expansion: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_regular(self.f):
            raise NotRegular(
                "size profiles need a regular function (radial with a continuous, "
                "strictly decreasing, vanishing profile); step functions have a "
                "step profile, use the dilation instead")

    def value(self, t: float) -> float:
        t = float(t)
        band = _band_at(self.f.bands(), t)
        if self._expansion is None:
            self._expansion = band_terms([band.parts] * self.phi.degree
                                         + [((1.0, ref),) for ref in self.phi.references])
        const, profiles, terms = self._expansion
        return self.phi.weight_constant * float(const + terms_at(profiles, terms, t))

    def inverse(self, v: float) -> float:
        """The height at which the profile equals v."""
        if v < 0:
            raise NonInvertibleProfile("profile values are nonnegative")
        if v == 0.0:
            return 1.0
        if isinstance(self.f, RadialQC):
            base_val = self.phi.eval_body(self.f.base)
            r = (v / base_val) ** (1.0 / self.phi.degree)
            return float(self.f.profile.value(r))
        m = 1.0 / self.phi.degree

        def margin(t):  # the Phi-ball radii: smoother in log t than Phi itself
            return v ** m - self.value(t) ** m

        m_lo, m_hi = margin(1e-300), margin(1.0)
        if m_lo > 0.0:
            raise NonInvertibleProfile(f"value {v} beyond the resolvable range")
        return 1.0 if m_hi <= 0.0 else margin_root(margin, 1e-300, 1.0, m_lo, m_hi)

    def sample(self, heights: Optional[Sequence[float]] = None):
        if heights is None:
            heights = np.geomspace(1.0 - 1e-12, 1e-6, PROFILE_GRID)
        heights = np.asarray(heights, dtype=float)
        return heights, np.array([self.value(t) for t in heights])

    def certify_monotone(self, heights: Optional[Sequence[float]] = None) -> bool:
        hs, vals = self.sample(heights)
        order = np.argsort(hs)[::-1]  # descending heights -> increasing values
        return bool(np.all(np.diff(vals[order]) > 0))


def phi_profile(phi: SizeFunctional, f: QCFunction,
                grid: Optional[Sequence[float]] = None) -> PhiProfile:
    """Build and certify the size profile of a regular function."""
    prof = PhiProfile(phi, f)
    if not prof.certify_monotone(grid):
        raise NotRegular("size profile failed the monotonicity certification")
    return prof


def _elementwise(fn):
    """fn on a float, applied entry by entry to an array."""
    def vec(u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return fn(float(u))
        return np.array([fn(float(x)) for x in u.ravel()]).reshape(u.shape)
    return vec


def _apply_rescaling(f: QCFunction, alpha, alpha_inv) -> QCFunction:
    """alpha o f for an increasing bijection alpha of [0, 1] with inverse
    alpha_inv, both taking floats."""
    vec_alpha, vec_alpha_inv = _elementwise(alpha), _elementwise(alpha_inv)

    def rescaled(p: Profile) -> Profile:
        return RescaledProfile(p, vec_alpha, vec_alpha_inv)

    if not is_regular(f):
        raise NotRegular("only regular (radial) functions can be rescaled")
    if isinstance(f, RadialQC):
        return RadialQC(f.base, rescaled(f.profile))
    return f.map_coefficients(rescaled)


def rescale_to_match(phi: SizeFunctional, f: QCFunction, g: QCFunction,
                     normalize: Optional[str] = None) -> QCFunction:
    """Rescale f so its Phi-profile matches g's: alpha = phi_g^(-1) o phi_f.

    The free constant c (matching c . g^Phi instead of g^Phi) is spent by
    ``normalize``: "phi" keeps Phi(f~) = Phi(f); "integral" keeps the
    integral of f~ equal to that of f (radial f only); None matches exactly.
    """
    pf = phi_profile(phi, f)
    pg = phi_profile(phi, g)
    m = phi.degree
    if normalize is None:
        c = 1.0
    elif normalize == "phi":
        c = (phi.eval_fn(f) / phi.eval_fn(g)) ** (1.0 / m)
    elif normalize == "integral":
        if not isinstance(f, RadialQC):
            raise NotRegular("integral normalization needs a plain radial function")
        n = f.dim
        base_phi = phi.eval_body(f.base)
        base_vol = volume(f.base)

        def scaled_vol(ts):
            ts = np.atleast_1d(ts)
            return np.array([base_vol * (pg.value(float(t)) / base_phi) ** (n / m)
                             for t in ts])

        ref_integral = integrate_height(scaled_vol, rel_tol=1e-11)
        c = (integral(f) / ref_integral) ** (1.0 / n)
    else:
        raise ValueError(f"unknown normalization {normalize!r}")

    cm = c ** m

    if isinstance(f, RadialQC) and isinstance(g, RadialQC):
        # exact radius-space form: the matched function carries g's profile
        # with level radii scaled by kappa, avoiding any trip through heights
        # too small for double precision
        kappa = c * (phi.eval_body(g.base) / phi.eval_body(f.base)) ** (1.0 / m)
        return RadialQC(f.base, g.profile.scaled(kappa))

    def alpha(u):
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        return min(1.0, pg.inverse(pf.value(u) / cm))

    def alpha_inv(t):
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        return min(1.0, pf.inverse(cm * pg.value(t)))

    return _apply_rescaling(f, alpha, alpha_inv)


def match_residual(phi: SizeFunctional, fa: QCFunction, fb: QCFunction,
                   heights: Optional[Sequence[float]] = None) -> float:
    """Max relative gap between the two size profiles over a height grid
    (both functions regular)."""
    if heights is None:
        heights = np.geomspace(0.999, 1e-4, 64)
    pa, pb = PhiProfile(phi, fa), PhiProfile(phi, fb)
    worst = 0.0
    for t in heights:
        va, vb = pa.value(t), pb.value(t)
        worst = max(worst, abs(va - vb) / max(abs(vb), 1e-300))
    return worst


def rescaled_bm(phi: SizeFunctional, f: QCFunction, g: QCFunction,
                normalize: Optional[str] = None) -> tuple[QCFunction, CheckReport]:
    """Rescale f against g, then verify the Brunn-Minkowski conclusion
    Phi(f~ oplus g)^(1/m) >= Phi(f~)^(1/m) + Phi(g)^(1/m)."""
    ft = rescale_to_match(phi, f, g, normalize=normalize)
    m = phi.degree
    left = phi.eval_fn(oplus(ft, g)) ** (1.0 / m)
    right = phi.eval_fn(ft) ** (1.0 / m) + phi.eval_fn(g) ** (1.0 / m)
    report = judge(
        "rescaled-bm",
        "after matching the size profiles, Phi(f oplus g)^(1/m) >= "
        "Phi(f)^(1/m) + Phi(g)^(1/m)",
        left, right, left - right, MATCH_TOL, scale=pair_scale(left, right),
        details={"match_residual": match_residual(phi, ft, g),
                 "normalize": normalize})
    return ft, report


GAUSS_ANCHOR_PROFILE = StretchedExponentialProfile(1.0, 2.0)


def universal_anchor(dim: int) -> RadialQC:
    """The fixed regular function every operand is rescaled against:
    exp(-|x|^2) on the unit ball (any fixed regular choice works)."""
    return RadialQC(ConvexBody.ball(1.0, dim), GAUSS_ANCHOR_PROFILE)


def rescaled_af(reference_bodies: Sequence[ConvexBody],
                fs: Sequence[QCFunction]) -> CheckReport:
    """Rescale each f_i against the universal anchor, then verify
    V(f~_1, ..., f~_m, refs)^m >= prod_i V(f~_i, ..., f~_i, refs);
    for m = n also the corollary V(f~_1, ..., f~_n) >= (prod int f~_i)^(1/n).
    """
    fs = list(fs)
    refs = list(reference_bodies)
    n = fs[0].dim
    m = len(fs)
    if len(refs) != n - m:
        raise ValueError(f"need {n - m} reference bodies for {m} functions")
    phi = SizeFunctional(dim=n, degree=m, references=tuple(refs))
    anchor = universal_anchor(n)
    tilde = [rescale_to_match(phi, f, anchor) for f in fs]
    ref_inds = [indicator(r) for r in refs]
    left = mixed_integral(tilde + ref_inds) ** m
    right = 1.0
    for ft in tilde:
        right *= mixed_integral([ft] * m + ref_inds)
    details = {"m": m, "n": n,
               "match_residuals": [match_residual(phi, ft, anchor) for ft in tilde]}
    if m == n:
        corollary_left = mixed_integral(tilde)
        prod = 1.0
        for ft in tilde:
            prod *= integral(ft)
        details["corollary_left"] = corollary_left
        details["corollary_right"] = prod ** (1.0 / n)
    return judge(
        "rescaled-af",
        "after rescaling every operand to the universal anchor, "
        "V(f_1, ..., f_m, refs)^m >= prod_i V(f_i, ..., f_i, refs)",
        left, right, left - right, MATCH_TOL, scale=pair_scale(left, right),
        details=details)


# ---------------------------------------------------------------------------
# dilations to the exponential law
# ---------------------------------------------------------------------------

class DilatedStack(SumQC):
    """Dilation of a step function: on the band below height t_i the level
    set is c_i * log(1/t) * K_i, with c_i = (Phi(D)/Phi(K_i))^(1/m)."""

    def __init__(self, stack: LevelStack, scales: Sequence[float]):
        # exp(-r / c) has the level radius c * log(1/t)
        super().__init__([
            Band(band.lo, band.hi, ((StretchedExponentialProfile(1.0 / float(c), 1.0), body),))
            for band, body, c in zip(stack.bands(), stack.bodies, scales)])


class DilatedQC(QCFunction):
    """Lazy dilation of an arbitrary geometric log-concave function:
    each level set rescaled so its Phi-size follows the exponential law."""

    def __init__(self, source: QCFunction, phi: SizeFunctional):
        self.source = source
        self.phi = phi
        self.dim = source.dim

    def level_set(self, t: float) -> ConvexBody:
        if t >= 1.0:
            return _as_point_or_scaled(self.source.level_set(1.0), 0.0)
        body = self.source.level_set(t)
        size = self.phi.eval_body(body)
        if size <= 0.0:
            raise DegenerateBody("dilation needs full-dimensional level sets")
        target = math.log(1.0 / t) ** self.phi.degree * self.phi.ball_value()
        return scale(body, (target / size) ** (1.0 / self.phi.degree))

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        return search_heights(self, x)

    def is_rotation_invariant(self):
        return self.source.is_rotation_invariant()

    def is_log_concave(self):
        return certify_log_concave(self, heights=np.geomspace(0.9, 1e-3, 9))


def dilate_to_exponential(phi: SizeFunctional, f: QCFunction) -> QCFunction:
    """Dilate each level set so Phi(level at t) = Phi(log(1/t) D).

    Requires geometric log-concave f (the nesting of the dilated level sets
    rests on log-concavity); the output keeps the homothety class of every
    level set but need not stay log-concave.
    """
    if not f.is_log_concave():
        raise NotLogConcave("dilations to the exponential law need log-concave input")
    if isinstance(f, RadialQC):
        base_size = phi.eval_body(f.base)
        c = (phi.ball_value() / base_size) ** (1.0 / phi.degree)
        return RadialQC(scale(f.base, c), StretchedExponentialProfile(1.0, 1.0))
    if isinstance(f, LevelStack):
        scales = []
        for body in f.bodies:
            size = phi.eval_body(body)
            if size <= 0.0:
                raise DegenerateBody("dilation needs full-dimensional level sets")
            scales.append((phi.ball_value() / size) ** (1.0 / phi.degree))
        return DilatedStack(f, scales)
    return DilatedQC(f, phi)


def dilation_nesting_report(f_tilde: QCFunction,
                            heights: Optional[Sequence[float]] = None) -> CheckReport:
    """Certify that the dilated level sets are nested (the monotonicity claim)."""
    if heights is None:
        heights = np.geomspace(0.95, 1e-3, 24)
    heights = np.sort(np.asarray(heights, dtype=float))[::-1]
    failures = 0
    for ta, tb in zip(heights, heights[1:]):
        upper = f_tilde.level_set(float(ta))
        lower = f_tilde.level_set(float(tb))
        if not contains(lower, upper, 1e-9):
            failures += 1
    margin = 0.0 if failures == 0 else -1.0
    # nesting is pass/fail, so it has no equality case to report
    return judge(
        "dilation-nesting",
        "dilated level sets stay nested as the height drops",
        margin, 0.0, margin, 1e-9, equality=False,
        details={"heights": heights.tolist(), "failures": failures})


def dilated_checks(phi: SizeFunctional, f: QCFunction, g: QCFunction) -> CheckReport:
    """Dilate f and g to the exponential law, then verify the Brunn-Minkowski
    conclusion for the dilated pair."""
    ft = dilate_to_exponential(phi, f)
    gt = dilate_to_exponential(phi, g)
    m = phi.degree
    left = phi.eval_fn(oplus(ft, gt)) ** (1.0 / m)
    right = phi.eval_fn(ft) ** (1.0 / m) + phi.eval_fn(gt) ** (1.0 / m)
    return judge(
        "dilated-bm",
        "after dilating both operands to the exponential law, "
        "Phi(f oplus g)^(1/m) >= Phi(f)^(1/m) + Phi(g)^(1/m)",
        left, right, left - right, MATCH_TOL, scale=pair_scale(left, right),
        details={"nesting_f": dilation_nesting_report(ft).ok,
                 "nesting_g": dilation_nesting_report(gt).ok})


def dilated_af(reference_bodies: Sequence[ConvexBody],
               fs: Sequence[QCFunction]) -> CheckReport:
    """Dilated Alexandrov-Fenchel: dilate each f_i, then
    V(f~_1, ..., f~_m, refs)^m >= prod_i V(f~_i, ..., f~_i, refs)."""
    fs = list(fs)
    refs = list(reference_bodies)
    n = fs[0].dim
    m = len(fs)
    if len(refs) != n - m:
        raise ValueError(f"need {n - m} reference bodies for {m} functions")
    phi = SizeFunctional(dim=n, degree=m, references=tuple(refs))
    tilde = [dilate_to_exponential(phi, f) for f in fs]
    ref_inds = [indicator(r) for r in refs]
    left = mixed_integral(tilde + ref_inds) ** m
    right = 1.0
    for ft in tilde:
        right *= mixed_integral([ft] * m + ref_inds)
    return judge(
        "dilated-af",
        "after dilating every operand to the exponential law, "
        "V(f_1, ..., f_m, refs)^m >= prod_i V(f_i, ..., f_i, refs)",
        left, right, left - right, MATCH_TOL, scale=pair_scale(left, right),
        details={"m": m, "n": n})


# ---------------------------------------------------------------------------
# the worked example: f(x, y) = exp(-(|x| + y^2))
# ---------------------------------------------------------------------------

class ParabolicCapQC(QCFunction):
    """f(x, y) = exp(-(|x| + y^2)): log-concave and geometric, with level sets
    {|x| + y^2 <= log(1/t)} of area (8/3) (log 1/t)^(3/2).

    Level sets are returned as polygons with vertices on the midpoint-offset
    parabola (corner points pinned exactly), which keeps the relative area
    error of the default 64-gon below 1e-4.  Its volume-law dilation is the
    standard example of a dilation that destroys log-concavity.
    """

    def __init__(self, nvertices: int = 64):
        if nvertices < 8 or nvertices % 2:
            raise ValueError("need an even vertex count >= 8")
        self.nvertices = nvertices
        self.dim = 2

    def level_set(self, t: float) -> ConvexBody:
        c = math.log(1.0 / t)
        if c <= 0.0:
            return ConvexBody.ball(0.0, 2)
        half = self.nvertices // 2 + 1
        y = np.linspace(-math.sqrt(c), math.sqrt(c), half)
        h = y[1] - y[0]
        half_m = len(y)
        x = c - y * y + (h * h / 6.0) * (half_m - 1) / (half_m - 2)
        x[0] = x[-1] = 0.0
        right = np.stack([x, y], axis=1)
        left = np.stack([-x[1:-1], y[1:-1]], axis=1)
        return ConvexBody.polytope(np.vstack([right, left]))

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.exp(-(np.abs(x[:, 0]) + x[:, 1] ** 2))

    def scale_space(self, lam: float):
        raise NotImplementedError("homothety of the worked example is not needed")

    def is_rotation_invariant(self):
        return False

    def is_log_concave(self):
        return True  # |x| + y^2 is convex

    def support_radius(self, t_min: float = 1e-3) -> float:
        return math.log(1.0 / t_min)


def parabolic_cap_area_law(t: float) -> float:
    """Exact area of the level set of exp(-(|x| + y^2)) at height t."""
    return (8.0 / 3.0) * math.log(1.0 / t) ** 1.5


def exponential_section_exponent(f_tilde: QCFunction,
                                 xs: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Fit exp(-C |x|^q) to the section y = 0 of a dilated function by
    log-log regression; returns (q, C)."""
    if xs is None:
        xs = np.geomspace(0.3, 6.0, 25)
    pts = np.stack([xs, np.zeros_like(xs)], axis=1)
    vals = f_tilde.evaluate_many(pts)
    mask = (vals > 1e-12) & (vals < 1.0 - 1e-12)
    logs = np.log(-np.log(vals[mask]))
    logx = np.log(xs[mask])
    slope, intercept = np.polyfit(logx, logs, 1)
    return float(slope), float(math.exp(intercept))
