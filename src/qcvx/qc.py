"""Quasi-concave functions via their upper level sets.

Every function the package adds or dilates is banded: on each height band
(lo, hi] its level set is the Minkowski sum of coef_k(t) * base_k, where a
coefficient is a constant factor or a ``Profile`` radius (``Band``).  Two
leaf types carry exact fast paths and a JSON form, and one type holds the
rest:

* ``LevelStack`` -- an exact step function: finitely many heights
  1 = t_1 > ... > t_m > 0 with nested bodies K_1 <= ... <= K_m.
* ``RadialQC`` -- homothetic level sets r(t) * base for a decreasing profile.
* ``SumQC`` -- any function given by its bands: levelwise sums of the leaves
  and of each other, and dilated stacks.

All functions are geometric (max f = f(0) = 1), enforced at construction.
The levelwise sum ``oplus`` realizes the sup-min convolution exactly on these
representations; ``grid_sup_min`` provides the brute-force lattice oracle.

Mixed integrals reduce to one mixed volume per height band times a scalar
quadrature, because within a band every operand decomposes into fixed bodies
with smooth scalar radius factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bodies import (
    ConvexBody,
    body_from_json,
    body_to_json,
    contains,
    contains_point,
    membership_mask,
    minkowski_sum,
    scale,
    volume,
)
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    GridTooCoarse,
    HeightOutOfRange,
    IndexOutOfRange,
    NonpositiveScale,
    NotRotationInvariant,
)
from .grids import GridSpec, SampledField
from .mixed_volumes import mixed_volume, quermassintegral_body, unit_ball_polytope
from .profiles import (
    Profile,
    ShiftedProfile,
    SumProfile,
    profile_from_json,
    profile_to_json,
)
from .quadrature import integrate_height, integrate_interval

HEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Band:
    """On heights (lo, hi], the level set is the Minkowski sum of
    coef_k(t) * base_k over the parts; a float coef is a constant factor and
    a ``Profile`` coef gives the factor profile.inv(t)."""

    lo: float
    hi: float
    parts: tuple  # of (coef: float | Profile, base: ConvexBody)


def _coef_at(coef, t) -> float:
    return float(coef.inv(t)) if isinstance(coef, Profile) else coef


def _band_at(bands: Sequence[Band], t: float) -> Band:
    """The band with lo < t <= hi (bands run top first)."""
    for band in bands:
        if band.lo < t <= band.hi:
            return band
    raise HeightOutOfRange(f"height {t} outside the bands")


def _merge_bands(views: Sequence[Sequence[Band]]) -> list:
    """Common refinement of banded decompositions, top first: one
    (lo, hi, [parts of each view on (lo, hi]]) per band of the union of the
    band edges."""
    edges = {1.0}
    for v in views:
        for band in v:
            if band.lo > 0.0:
                edges.add(band.lo)
            if band.hi < 1.0:
                edges.add(band.hi)
    tops = np.sort(np.array(list(edges)))[::-1]
    lows = np.append(tops[1:], 0.0)
    return [(lo, hi, [_band_at(v, hi).parts for v in views])
            for hi, lo in zip(tops, lows)]


class QCFunction:
    """Geometric quasi-concave function; see module docstring."""

    dim: int

    def level_set(self, t: float) -> ConvexBody:
        raise NotImplementedError

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bands(self) -> Optional[list[Band]]:
        """Banded decomposition, or None when one does not exist."""
        return None

    def scale_space(self, lam: float) -> "QCFunction":
        raise NotImplementedError

    def is_rotation_invariant(self) -> bool:
        raise NotImplementedError

    def is_log_concave(self) -> bool:
        raise NotImplementedError

    def support_radius(self, t_min: float = 1e-3) -> float:
        return self.level_set(t_min).bounding_radius()


def _as_point_or_scaled(base: ConvexBody, r: float) -> ConvexBody:
    if r <= 0.0:
        return ConvexBody.ball(0.0, base.dim)
    return scale(base, r)


class LevelStack(QCFunction):
    """Exact quasi-concave step function."""

    def __init__(self, levels: Sequence[tuple[float, ConvexBody]], validate: bool = True):
        if not levels:
            raise ValueError("a stack needs at least one level")
        heights = np.array([t for t, _ in levels], dtype=float)
        bodies = [b for _, b in levels]
        if validate:
            if abs(heights[0] - 1.0) > HEIGHT_TOL:
                raise ValueError("geometric normalization requires the top height to be 1")
            if np.any(np.diff(heights) >= 0) or heights[-1] <= 0:
                raise ValueError("heights must strictly decrease inside (0, 1]")
            if bodies[0].is_empty:
                raise ValueError("the top level set must be nonempty")
            dim = bodies[0].dim
            for k in range(len(bodies) - 1):
                if bodies[k].dim != dim or bodies[k + 1].dim != dim:
                    raise DimensionMismatch("stack bodies must share the ambient dimension")
                if not contains(bodies[k + 1], bodies[k], 1e-9):
                    raise ValueError("stack bodies must be nested (grow as height drops)")
        self.heights = heights
        self.bodies = tuple(bodies)
        self.dim = bodies[0].dim

    def __repr__(self):
        return f"LevelStack(<{len(self.heights)} levels, dim={self.dim}>)"

    def level_set(self, t: float) -> ConvexBody:
        # last index whose height is still >= t (heights are descending)
        idx = int(np.searchsorted(-self.heights, -t, side="right")) - 1
        if idx < 0:
            return ConvexBody.empty(self.dim)
        return self.bodies[idx]

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(len(x))
        for t, body in zip(self.heights[::-1], self.bodies[::-1]):
            out = np.where(membership_mask(body, x, 1e-9), t, out)
        return out

    def bands(self):
        lows = np.append(self.heights[1:], 0.0)
        return [Band(float(lo), float(hi), ((1.0, body),))
                for hi, lo, body in zip(self.heights, lows, self.bodies)]

    def scale_space(self, lam: float) -> "LevelStack":
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return LevelStack([(float(t), scale(b, lam)) for t, b in zip(self.heights, self.bodies)],
                          validate=False)

    def is_rotation_invariant(self):
        return all(b.is_ball or b.is_point for b in self.bodies)

    def is_log_concave(self):
        return certify_log_concave(self)

    def support_radius(self, t_min: float = 1e-3) -> float:
        return self.bodies[-1].bounding_radius()


class RadialQC(QCFunction):
    """Homothetic level sets r(t) * base for a decreasing profile."""

    def __init__(self, base: ConvexBody, profile: Profile):
        if base.is_empty or base.is_ball and base.radius <= 0:
            raise ValueError("base must be a compact body with 0 in its interior")
        if base.is_polytope:
            base.gauge(np.zeros(base.dim))  # raises OriginNotInterior if degenerate
        self.base = base
        self.profile = profile
        self.dim = base.dim

    def __repr__(self):
        return f"RadialQC({self.base!r}, {type(self.profile).__name__})"

    def level_set(self, t: float) -> ConvexBody:
        return _as_point_or_scaled(self.base, float(self.profile.inv(t)))

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.base.is_ball:
            g = np.linalg.norm(x, axis=1) / self.base.radius
        else:
            A, b = self.base.facets()
            g = np.maximum(np.max((x @ A.T) / b, axis=1), 0.0)
        return np.asarray(self.profile.value(g), dtype=float)

    def bands(self):
        return [Band(0.0, 1.0, ((self.profile, self.base),))]

    def scale_space(self, lam: float) -> "RadialQC":
        return RadialQC(self.base, self.profile.scaled(lam))

    def is_rotation_invariant(self):
        return self.base.is_ball

    def is_log_concave(self):
        return self.profile.is_log_concave()

    def support_radius(self, t_min: float = 1e-3) -> float:
        return float(self.profile.inv(t_min)) * self.base.bounding_radius()


class SumQC(QCFunction):
    """Banded function: on each band (lo, hi] the level set is the Minkowski
    sum of coef(t) * base over the band's parts.  The bands run top first and
    cover (0, 1]; ``oplus`` builds them for every pair of operands that is
    not a pair of stacks or of radial functions over one base."""

    def __init__(self, bands: Sequence[Band]):
        if not bands:
            raise ValueError("need at least one band")
        self._bands = tuple(bands)
        self.dim = bands[0].parts[0][1].dim
        if any(base.dim != self.dim for band in bands for _, base in band.parts):
            raise DimensionMismatch("sum parts must share the ambient dimension")

    def level_set(self, t: float) -> ConvexBody:
        acc = None
        for coef, base in _band_at(self._bands, t).parts:
            body = _as_point_or_scaled(base, _coef_at(coef, t))
            acc = body if acc is None else minkowski_sum(acc, body)
        return acc

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.array([_bisect_height(self, p) for p in x])

    def bands(self):
        return list(self._bands)

    def map_coefficients(self, fn) -> "SumQC":
        """The same bands and bases with every coefficient c replaced by fn(c)."""
        return SumQC([Band(b.lo, b.hi, tuple((fn(c), base) for c, base in b.parts))
                      for b in self._bands])

    def scale_space(self, lam: float) -> "SumQC":
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return self.map_coefficients(
            lambda c: c.scaled(lam) if isinstance(c, Profile) else c * lam)

    def is_rotation_invariant(self):
        return all(base.is_ball or base.is_point
                   for band in self._bands for _, base in band.parts)

    def is_log_concave(self):
        if len(self._bands) == 1 and all(isinstance(c, Profile) and c.is_log_concave()
                                         for c, _ in self._bands[0].parts):
            return True  # oplus preserves log-concavity levelwise
        return certify_log_concave(self)

    def support_radius(self, t_min: float = 1e-3) -> float:
        return max(sum(_coef_at(c, t_min) * base.bounding_radius() for c, base in band.parts)
                   for band in self._bands)


def _bisect_height(f: QCFunction, x: np.ndarray) -> float:
    """sup{t : x in level set at t} by geometric bisection (level sets nest)."""
    if not contains_point(f.level_set(1e-12), x):
        return 0.0
    if contains_point(f.level_set(1.0), x):
        return 1.0
    lo, hi = 1e-12, 1.0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if contains_point(f.level_set(mid), x):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def indicator(body: ConvexBody) -> LevelStack:
    """1_K as a one-level stack."""
    return LevelStack([(1.0, body)])


def level_set(f: QCFunction, t: float) -> ConvexBody:
    if not 0.0 < t <= 1.0:
        raise HeightOutOfRange(f"height must lie in (0, 1], got {t}")
    return f.level_set(t)


def evaluate(f: QCFunction, x) -> float:
    return float(f.evaluate_many(np.atleast_2d(np.asarray(x, dtype=float)))[0])


def merged_heights(*fs: QCFunction, extra: Sequence[float] = ()) -> np.ndarray:
    """Descending union of the stack heights of the arguments (tol 1e-12)."""
    hs = [1.0]
    for f in fs:
        if isinstance(f, LevelStack):
            hs.extend(f.heights.tolist())
    hs.extend(extra)
    hs = np.sort(np.array(hs))[::-1]
    keep = [hs[0]]
    for h in hs[1:]:
        if keep[-1] - h > HEIGHT_TOL:
            keep.append(h)
    return np.array(keep)


def as_stack(f: QCFunction, heights: Sequence[float]) -> LevelStack:
    """Sample f onto a height grid (inner approximation within each band).

    The level set stored for a band is the exact one at the band's top, so
    the sampled stack sits below f pointwise; the gap at height t is bounded
    by the radius modulus of f over one band.
    """
    return LevelStack([(float(t), f.level_set(float(t))) for t in heights], validate=False)


def oplus(f: QCFunction, g: QCFunction) -> QCFunction:
    """Levelwise Minkowski addition (sup-min convolution of geometric f, g)."""
    if f.dim != g.dim:
        raise DimensionMismatch("oplus needs equal dimensions")
    if isinstance(f, LevelStack) and isinstance(g, LevelStack):
        hs = merged_heights(f, g)
        return LevelStack(
            [(float(t), minkowski_sum(f.level_set(float(t)), g.level_set(float(t)))) for t in hs],
            validate=False)
    if isinstance(f, RadialQC) and isinstance(g, RadialQC) and f.base is g.base:
        return RadialQC(f.base, SumProfile([f.profile, g.profile]))
    fb, gb = f.bands(), g.bands()
    if fb is None or gb is None:
        raise TypeError(f"cannot oplus {type(f).__name__} and {type(g).__name__}")
    return SumQC([Band(float(lo), float(hi), fp + gp)
                  for lo, hi, (fp, gp) in _merge_bands([fb, gb])])


def odot(lam: float, f: QCFunction) -> QCFunction:
    """Induced homothety: every level set scaled by lam."""
    if lam <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {lam}")
    return f.scale_space(lam)


def integral(f: QCFunction) -> float:
    """Lebesgue integral via the layer-cake formula."""
    if isinstance(f, LevelStack):
        lows = np.append(f.heights[1:], 0.0)
        return float(sum((hi - lo) * volume(body)
                         for hi, lo, body in zip(f.heights, lows, f.bodies)))
    if isinstance(f, RadialQC):
        return volume(f.base) * f.profile.height_integral(f.dim)
    return mixed_integral([f] * f.dim)


# ---------------------------------------------------------------------------
# mixed integrals
# ---------------------------------------------------------------------------

def mixed_integral(fs: Sequence[QCFunction]) -> float:
    """V(f_1, ..., f_n) = integral over t of V(level sets at t)."""
    fs = list(fs)
    if not fs:
        raise ArityMismatch("need at least one function")
    n = fs[0].dim
    if len(fs) != n:
        raise ArityMismatch(f"mixed integral in dimension {n} needs exactly {n} functions")
    if any(f.dim != n for f in fs):
        raise DimensionMismatch("all functions must share the ambient dimension")

    views = [f.bands() for f in fs]
    if any(v is None for v in views):
        def integrand(ts):
            return np.array([mixed_volume([f.level_set(float(t)) for f in fs]) for t in ts])
        return integrate_height(integrand, rel_tol=1e-8, max_nodes=2 ** 11)

    total = 0.0
    for lo, hi, slot_parts in _merge_bands(views):
        const_sum = 0.0
        fn_terms: list[tuple[float, list]] = []
        for choice in itertools.product(*slot_parts):
            V = mixed_volume([base for _, base in choice])
            if V == 0.0:
                continue
            const = V
            profiles = []
            for coef, _ in choice:
                if isinstance(coef, Profile):
                    profiles.append(coef)
                else:
                    const *= coef
            if profiles:
                fn_terms.append((const, profiles))
            else:
                const_sum += const
        total += const_sum * (hi - lo)
        if fn_terms:
            def integrand(ts, terms=fn_terms):
                acc = np.zeros_like(ts)
                for const, profiles in terms:
                    prod = np.full_like(ts, const)
                    for p in profiles:
                        prod = prod * p.inv(ts)
                    acc += prod
                return acc
            if lo == 0.0:
                total += integrate_height(integrand, 0.0, hi)
            else:
                total += integrate_interval(integrand, lo, hi)
    return total


def quermassintegral_fn(f: QCFunction, k: int) -> float:
    """W_k(f): mixed integral of f (n - k times) with the unit-ball indicator."""
    n = f.dim
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"quermassintegral index must lie in [0, {n}], got {k}")
    if k == 0:
        return integral(f)
    if isinstance(f, RadialQC):
        return quermassintegral_body(f.base, k) * f.profile.height_integral(n - k)
    ball = indicator(ConvexBody.ball(1.0, n))
    return mixed_integral([f] * (n - k) + [ball] * k)


def surface_area_fn(f: QCFunction) -> float:
    """S(f) = n * W_1(f)."""
    return f.dim * quermassintegral_fn(f, 1)


def generalized_surface_area(f: QCFunction, g: QCFunction) -> float:
    """V(f, ..., f, g) for a rotation-invariant weight g."""
    if not g.is_rotation_invariant():
        raise NotRotationInvariant("the weight function must be rotation invariant")
    return mixed_integral([f] * (f.dim - 1) + [g])


def epsilon_extension(f: QCFunction, eps: float) -> QCFunction:
    """f_eps = f oplus (eps . 1_D): every level set grows by eps * D.

    Exact for radial and other banded functions, which gain a part eps * D
    in every band; stacks use the fixed polytope stand-in for the unit ball
    (``mixed_volumes.unit_ball_polytope``).
    """
    if eps < 0:
        raise NonpositiveScale("extension radius must be nonnegative")
    if eps == 0:
        return f
    n = f.dim
    if isinstance(f, RadialQC) and f.base.is_ball:
        return RadialQC(f.base, ShiftedProfile(f.profile, eps / f.base.radius))
    if isinstance(f, LevelStack):
        bump = scale(unit_ball_polytope(n), eps)
        return LevelStack([(float(t), minkowski_sum(b, bump))
                           for t, b in zip(f.heights, f.bodies)], validate=False)
    bands = f.bands()
    if bands is None:
        raise TypeError(f"cannot extend {type(f).__name__}")
    ball = ConvexBody.ball(1.0, n)
    return SumQC([Band(b.lo, b.hi, b.parts + ((eps, ball),)) for b in bands])


# ---------------------------------------------------------------------------
# polynomial of the integral in the oplus/odot calculus
# ---------------------------------------------------------------------------

def minkowski_polynomial_fn(fs: Sequence[QCFunction]):
    """Fit F(eps) = integral of (eps_1 . f_1) oplus ... on the deterministic grid."""
    from .mixed_volumes import MinkowskiPolynomial, _fit_polynomial
    from .errors import SingularSystem

    fs = list(fs)
    n = fs[0].dim

    def values(eps):
        acc = None
        for e, f in zip(eps, fs):
            term = odot(float(e), f)
            acc = term if acc is None else oplus(acc, term)
        return integral(acc)

    try:
        coeffs = _fit_polynomial(values, len(fs), n)
    except SingularSystem:
        coeffs = _fit_polynomial(values, len(fs), n, jitter=0.0123)
    return MinkowskiPolynomial(dim=n, arity=len(fs), coefficients=coeffs)


# ---------------------------------------------------------------------------
# log-concavity certification
# ---------------------------------------------------------------------------

def certify_log_concave(f: QCFunction, heights: Optional[Sequence[float]] = None,
                        lambdas=(0.25, 0.5, 0.75), tol: float = 1e-7) -> bool:
    """Level-set criterion: lam*K_t + (1-lam)*K_s inside K_{t^lam s^(1-lam)}.

    Exact characterization in the limit; tested here on sampled height pairs.
    """
    if heights is None:
        if isinstance(f, LevelStack):
            heights = f.heights.tolist()
            if len(heights) == 1:
                return True
        else:
            heights = np.geomspace(1.0, 1e-3, 9).tolist()
    for i, t in enumerate(heights):
        for s in heights[i + 1:]:
            kt, ks = f.level_set(float(t)), f.level_set(float(s))
            for lam in lambdas:
                mix = minkowski_sum(scale(kt, lam), scale(ks, 1.0 - lam))
                target = f.level_set(float(t ** lam * s ** (1.0 - lam)))
                if not contains(target, mix, tol):
                    return False
    return True


# ---------------------------------------------------------------------------
# brute-force sup-min oracle
# ---------------------------------------------------------------------------

def supmin_arrays(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Discrete sup-min convolution; output lives on the doubled lattice."""
    if F.shape != G.shape:
        raise GridTooCoarse("oracle requires matching lattices")
    if F.ndim == 1:
        n = len(F)
        out = np.zeros(2 * n - 1)
        for j in range(n):
            seg = out[j:j + n]
            np.maximum(seg, np.minimum(F[j], G), out=seg)
        return out
    if F.ndim == 2:
        n0, n1 = F.shape
        out = np.zeros((2 * n0 - 1, 2 * n1 - 1))
        for j0 in range(n0):
            for j1 in range(n1):
                block = out[j0:j0 + n0, j1:j1 + n1]
                np.maximum(block, np.minimum(F[j0, j1], G), out=block)
        return out
    raise GridTooCoarse("sup-min oracle supports 1-D and 2-D lattices only")


def grid_sup_min(f: QCFunction, g: QCFunction, grid: GridSpec) -> SampledField:
    """Brute-force (f oplus g) on grid + grid; oracle for ``oplus``.

    Error bound: the lattice value never exceeds the true sup-min, and it
    reaches every height t whose operand level sets both contain a ball of
    radius sqrt(2) * step, outside a two-cell boundary band (a lattice point
    of K_t(f) intersect (x - K_t(g)) is then guaranteed).  Thinner level sets
    can be skipped entirely; ``supmin_bracket`` operationalizes the bound.

    Raises GridTooCoarse when the lattice box does not cover both supports
    at height 1e-3 (the bound assumes coverage).
    """
    if grid.dim not in (1, 2):
        raise GridTooCoarse("oracle supports 1-D and 2-D lattices only")
    reach = max(f.support_radius(), g.support_radius())
    cover = min(min(-lo, hi) for lo, hi in zip(grid.lo, grid.hi))
    if reach > cover + 1e-9:
        raise GridTooCoarse(
            f"grid box misses support (radius {reach:.3g} > cover {cover:.3g})")
    pts = grid.points()
    F = f.evaluate_many(pts).reshape((grid.npts,) * grid.dim)
    G = g.evaluate_many(pts).reshape((grid.npts,) * grid.dim)
    return SampledField(grid.doubled(), supmin_arrays(F, G))


def supmin_bracket(f: QCFunction, g: QCFunction, grid: GridSpec) -> dict:
    """Compare the lattice oracle against the level-set route.

    ``ok`` certifies the documented bound: the oracle stays at or below the
    exact values everywhere, and matches them up to a two-cell erosion at
    every height whose operand level sets are at least sqrt(2) * step thick.
    A lattice too coarse for any such height (``fat_height`` 0) certifies
    nothing and is not ``ok``.
    """
    from scipy.ndimage import minimum_filter

    from .bodies import inradius

    field = grid_sup_min(f, g, grid)
    exact = oplus(f, g).evaluate_many(field.grid.points()).reshape(field.values.shape)
    eroded = minimum_filter(exact, size=5, mode="nearest")
    thick = math.sqrt(2.0) * float(np.max(grid.step))
    fat_height = 0.0
    for t in merged_heights(f, g)[::-1]:  # ascending: level sets shrink
        t = float(t)
        if inradius(f.level_set(t)) >= thick and inradius(g.level_set(t)) >= thick:
            fat_height = t
        else:
            break
    never_above = bool(np.all(field.values <= exact + 1e-12))
    reached = bool(np.all((field.values >= eroded - 1e-12)
                          | (eroded > fat_height + 1e-12)))
    return {
        "max_abs_error": float(np.max(np.abs(field.values - exact))),
        "fat_height": fat_height,
        "ok": never_above and reached and fat_height > 0.0,
        "field": field,
        "exact": exact,
    }


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def fn_to_json(f: QCFunction) -> dict:
    if isinstance(f, LevelStack):
        return {"type": "stack",
                "levels": [{"t": float(t), "body": body_to_json(b)}
                           for t, b in zip(f.heights, f.bodies)]}
    if isinstance(f, RadialQC):
        return {"type": "radial", "base": body_to_json(f.base),
                "profile": profile_to_json(f.profile)}
    raise ValueError(f"{type(f).__name__} has no JSON form")


def fn_from_json(obj: dict) -> QCFunction:
    kind = obj.get("type")
    if kind == "stack":
        return LevelStack([(float(lv["t"]), body_from_json(lv["body"]))
                           for lv in obj["levels"]])
    if kind == "radial":
        return RadialQC(body_from_json(obj["base"]), profile_from_json(obj["profile"]))
    raise ValueError(f"unknown function type {kind!r}")
