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

A size profile is the ``rearrange.PhiBallProfile`` of a regular function's
one band, the profile its Phi-rearrangement carries: ``size`` is the band
expanded once (``SizeFunctional.band_size``), so each height costs one
inversion per distinct profile of the band, and ``height`` is its inverse.
``phi_profile`` adds the regularity check and the monotone certification.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .bodies import ConvexBody, contains, scale, volume
from .errors import DegenerateBody, NotLogConcave, NotRegular
from .profiles import Profile, RescaledProfile, StretchedExponentialProfile
from .qc import (
    Band,
    QCFunction,
    RadialQC,
    SumQC,
    _as_point_or_scaled,
    certify_log_concave,
    indicator,
    integral,
    mixed_integral,
)
from .quadrature import integrate_height
from .rearrange import PhiBallProfile, SizeFunctional
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


def _regular_profile(phi: SizeFunctional, f: QCFunction) -> PhiBallProfile:
    """The Phi-profile of a regular function's one band."""
    if not is_regular(f):
        raise NotRegular(
            "size profiles need a regular function (radial with a continuous, "
            "strictly decreasing, vanishing profile); step functions have a "
            "step profile, use the dilation instead")
    return PhiBallProfile(phi, f.bands()[0].parts)


def phi_profile(phi: SizeFunctional, f: QCFunction) -> PhiBallProfile:
    """The Phi-profile of a regular function, its size certified to fall
    strictly with the height at PROFILE_GRID heights from 1 - 1e-12 to 1e-6."""
    prof = _regular_profile(phi, f)
    if not np.all(np.diff(prof.size(np.geomspace(1.0 - 1e-12, 1e-6, PROFILE_GRID))) > 0):
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
    """alpha o f, f regular (``phi_profile`` has checked it), for an increasing
    bijection alpha of [0, 1] with inverse alpha_inv, both taking floats."""
    vec_alpha, vec_alpha_inv = _elementwise(alpha), _elementwise(alpha_inv)

    def rescaled(p: Profile) -> Profile:
        return RescaledProfile(p, vec_alpha, vec_alpha_inv)

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
            return base_vol * (pg.size(ts) / base_phi) ** (n / m)

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
        return min(1.0, pg.height(pf.size(u) / cm))

    def alpha_inv(t):
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        return min(1.0, pf.height(cm * pg.size(t)))

    return _apply_rescaling(f, alpha, alpha_inv)


def match_residual(phi: SizeFunctional, fa: QCFunction, fb: QCFunction,
                   heights: Optional[Sequence[float]] = None) -> float:
    """Max relative gap between the two size profiles over a height grid
    (both functions regular)."""
    if heights is None:
        heights = np.geomspace(0.999, 1e-4, 64)
    va, vb = _regular_profile(phi, fa).size(heights), _regular_profile(phi, fb).size(heights)
    return float(np.max(np.abs(va - vb) / np.maximum(np.abs(vb), 1e-300), initial=0.0))


def _bm_check(name: str, reshaping: str, phi: SizeFunctional, ft: QCFunction,
              gt: QCFunction, details: dict) -> CheckReport:
    """The Brunn-Minkowski conclusion for a reshaped pair,
    Phi(f~ oplus g~)^(1/m) >= Phi(f~)^(1/m) + Phi(g~)^(1/m), the left side
    expanded by ``eval_sum`` without building the sum."""
    m = phi.degree
    left = phi.eval_sum([ft, gt]) ** (1.0 / m)
    right = phi.eval_fn(ft) ** (1.0 / m) + phi.eval_fn(gt) ** (1.0 / m)
    return judge(
        name, f"{reshaping}, Phi(f oplus g)^(1/m) >= Phi(f)^(1/m) + Phi(g)^(1/m)",
        left, right, left - right, MATCH_TOL, scale=pair_scale(left, right),
        details=details)


def _af_check(name: str, reshaping: str, reference_bodies: Sequence[ConvexBody],
              fs: Sequence[QCFunction], reshape, extra=None) -> CheckReport:
    """The Alexandrov-Fenchel conclusion for reshaped operands: with
    f~_i = reshape(phi, f_i) under phi = V(., ..., ., refs) of degree m,
    V(f~_1, ..., f~_m, refs)^m >= prod_i V(f~_i, ..., f~_i, refs).
    ``extra(phi, tilde)`` adds details."""
    fs = list(fs)
    refs = list(reference_bodies)
    n = fs[0].dim
    m = len(fs)
    if len(refs) != n - m:
        raise ValueError(f"need {n - m} reference bodies for {m} functions")
    phi = SizeFunctional(dim=n, degree=m, references=tuple(refs))
    tilde = [reshape(phi, f) for f in fs]
    ref_inds = [indicator(r) for r in refs]
    left = mixed_integral(tilde + ref_inds) ** m
    right = math.prod(mixed_integral([ft] * m + ref_inds) for ft in tilde)
    return judge(
        name, f"{reshaping}, V(f_1, ..., f_m, refs)^m >= prod_i V(f_i, ..., f_i, refs)",
        left, right, left - right, MATCH_TOL, scale=pair_scale(left, right),
        details={"m": m, "n": n, **(extra(phi, tilde) if extra else {})})


def rescaled_bm(phi: SizeFunctional, f: QCFunction, g: QCFunction,
                normalize: Optional[str] = None) -> tuple[QCFunction, CheckReport]:
    """Rescale f against g, then verify the Brunn-Minkowski conclusion
    Phi(f~ oplus g)^(1/m) >= Phi(f~)^(1/m) + Phi(g)^(1/m)."""
    ft = rescale_to_match(phi, f, g, normalize=normalize)
    return ft, _bm_check("rescaled-bm", "after matching the size profiles", phi, ft, g,
                         {"match_residual": match_residual(phi, ft, g),
                          "normalize": normalize})


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
    anchor = universal_anchor(fs[0].dim)

    def extra(phi, tilde):
        details = {"match_residuals": [match_residual(phi, ft, anchor) for ft in tilde]}
        if len(tilde) == phi.dim:
            details["corollary_left"] = mixed_integral(tilde)
            details["corollary_right"] = math.prod(integral(ft) for ft in tilde) ** (1.0 / phi.dim)
        return details

    return _af_check("rescaled-af", "after rescaling every operand to the universal anchor",
                     reference_bodies, fs,
                     lambda phi, f: rescale_to_match(phi, f, anchor), extra)


# ---------------------------------------------------------------------------
# dilations to the exponential law
# ---------------------------------------------------------------------------

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

    def is_rotation_invariant(self):
        return self.source.is_rotation_invariant()

    def is_log_concave(self):
        return certify_log_concave(self, heights=np.geomspace(0.9, 1e-3, 9))


def dilate_to_exponential(phi: SizeFunctional, f: QCFunction) -> QCFunction:
    """Dilate each level set so Phi(level at t) = Phi(log(1/t) D).

    Requires geometric log-concave f (the nesting of the dilated level sets
    rests on log-concavity); the output keeps the homothety class of every
    level set but need not stay log-concave.  Exact wherever every band is
    homothetic (``Band.homothetic_base``, stacks included): a band over B
    becomes the one part c * log(1/t) * B with c = (Phi(D)/Phi(B))^(1/m).
    Any other function is dilated lazily, level set by level set.
    """
    if not f.is_log_concave():
        raise NotLogConcave("dilations to the exponential law need log-concave input")
    if isinstance(f, RadialQC):
        base_size = phi.eval_body(f.base)
        c = (phi.ball_value() / base_size) ** (1.0 / phi.degree)
        return RadialQC(scale(f.base, c), StretchedExponentialProfile(1.0, 1.0))
    bands = f.bands()
    bases = [b.homothetic_base() for b in bands] if bands is not None else [None]
    if any(base is None for base in bases):
        return DilatedQC(f, phi)
    dilated = []
    for band, base in zip(bands, bases):
        size = phi.eval_body(base)
        if size <= 0.0:
            raise DegenerateBody("dilation needs full-dimensional level sets")
        c = (phi.ball_value() / size) ** (1.0 / phi.degree)
        # exp(-r / c) has the level radius c * log(1/t)
        dilated.append(Band(band.lo, band.hi,
                            ((StretchedExponentialProfile(1.0 / c, 1.0), base),)))
    return SumQC(dilated)


def dilation_nesting_report(f_tilde: QCFunction) -> CheckReport:
    """Certify that the dilated level sets are nested (the monotonicity claim)
    at 24 geometric heights from 0.95 down to 1e-3."""
    heights = np.geomspace(0.95, 1e-3, 24)
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
    return _bm_check("dilated-bm", "after dilating both operands to the exponential law",
                     phi, ft, gt, {"nesting_f": dilation_nesting_report(ft).ok,
                                   "nesting_g": dilation_nesting_report(gt).ok})


def dilated_af(reference_bodies: Sequence[ConvexBody],
               fs: Sequence[QCFunction]) -> CheckReport:
    """Dilated Alexandrov-Fenchel: dilate each f_i, then
    V(f~_1, ..., f~_m, refs)^m >= prod_i V(f~_i, ..., f~_i, refs)."""
    return _af_check("dilated-af", "after dilating every operand to the exponential law",
                     reference_bodies, fs, dilate_to_exponential)


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

    def is_rotation_invariant(self):
        return False

    def is_log_concave(self):
        return True  # |x| + y^2 is convex

    def support_radius(self) -> float:
        return math.log(1.0 / 1e-3)


def parabolic_cap_area_law(t: float) -> float:
    """Exact area of the level set of exp(-(|x| + y^2)) at height t."""
    return (8.0 / 3.0) * math.log(1.0 / t) ** 1.5


def exponential_section_exponent(f_tilde: QCFunction) -> tuple[float, float]:
    """Fit exp(-C |x|^q) to the section y = 0 of a dilated function by
    log-log regression at 25 geometric points of 0.3 <= x <= 6; returns
    (q, C)."""
    xs = np.geomspace(0.3, 6.0, 25)
    pts = np.stack([xs, np.zeros_like(xs)], axis=1)
    vals = f_tilde.evaluate_many(pts)
    mask = (vals > 1e-12) & (vals < 1.0 - 1e-12)
    logs = np.log(-np.log(vals[mask]))
    logx = np.log(xs[mask])
    slope, intercept = np.polyfit(logx, logs, 1)
    return float(slope), float(math.exp(intercept))
