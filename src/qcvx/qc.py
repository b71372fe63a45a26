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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bodies import (
    VERTEX_TOL,
    ConvexBody,
    affine_values,
    body_from_json,
    body_to_json,
    contains,
    inradius,
    membership_margin,
    minkowski_sum,
    point_norms,
    scale,
    volume,
)
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    GridTooCoarse,
    HeightOutOfRange,
    IndexOutOfRange,
    InputParse,
    NonpositiveScale,
    NotRotationInvariant,
    parsing_input,
)
from .grids import GridSpec, SampledField, lattice_convolution
from .mixed_volumes import mixed_volume, quermassintegral_body
from .profiles import (
    Profile,
    ShiftedProfile,
    SumProfile,
    margin_root,
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
            out = np.where(membership_margin(body, x) <= 0.0, t, out)
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
        if base.is_polytope and base.affine_rank() == base.dim:
            # ``evaluate_many`` divides by these facet offsets
            inside = float(np.min(base.facets()[1])) > VERTEX_TOL
        else:
            inside = base.is_ball and base.radius > 0
        if not inside:
            raise InputParse(f"a radial base must be a compact body with 0 in its "
                             f"interior, got {base!r}")
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
            g = point_norms(x) / self.base.radius
        else:
            A, b = self.base.facets()
            g = affine_values(A, x)
            g /= b[:, None]
            g = np.maximum(g.max(axis=0), 0.0)
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
        return search_heights(self, x)

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


def search_heights(f: QCFunction, x: np.ndarray) -> np.ndarray:
    """f(x) = sup{t : x in K_t} for every row of x, from the level sets.

    The level sets nest, so ``membership_margin(K_t, x)`` (tol 1e-9) rises
    with t, and f(x) is where it changes sign: 0 outside K_1e-12, 1 inside
    K_1, else a height lo with x in K_lo and not in K_hi, hi a few ulps
    above lo (``profiles.margin_root``).  K_1e-12 and K_1 are built once
    per call, and their margins are taken for all rows at once.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lows = membership_margin(f.level_set(1e-12), x)
    highs = membership_margin(f.level_set(1.0), x)
    out = np.where(lows > 0.0, 0.0, 1.0)
    for i in np.flatnonzero((lows <= 0.0) & (highs > 0.0)):
        out[i] = margin_root(lambda t: membership_margin(f.level_set(t), x[i]),
                             1e-12, 1.0, float(lows[i]), float(highs[i]))
    return out


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

def band_terms(slots: Sequence[Sequence[tuple]]) -> tuple[float, list, list]:
    """Expand V(S_1, ..., S_n) over one band by multilinearity, once per band.

    Slot i is the Minkowski sum of coef * base over its (coef, base) parts,
    so V(S_1, ..., S_n)(t) = sum over one part per slot of
    prod coef(t) * V(bases).  The mixed volumes of the bases do not depend
    on t, so callers expand a band once and evaluate the result at every
    height with ``terms_at``.  Returns (const, profiles, terms): the summed
    products whose coefficients are all floats, the band's distinct
    ``Profile`` coefficients (by identity, in order of first use), and one
    (c, indices) per product with a ``Profile`` coefficient, worth
    c * prod profiles[i].inv(t) over its indices in slot order.  Products
    whose bases have mixed volume 0 are dropped.
    """
    const_sum = 0.0
    profiles: list[Profile] = []
    index: dict[int, int] = {}
    fn_terms: list[tuple[float, tuple]] = []
    for choice in itertools.product(*slots):
        V = mixed_volume([base for _, base in choice])
        if V == 0.0:
            continue
        const = V
        picks = []
        for coef, _ in choice:
            if isinstance(coef, Profile):
                if id(coef) not in index:
                    index[id(coef)] = len(profiles)
                    profiles.append(coef)
                picks.append(index[id(coef)])
            else:
                const *= coef
        if picks:
            fn_terms.append((const, tuple(picks)))
        else:
            const_sum += const
    return const_sum, profiles, fn_terms


def terms_at(profiles: Sequence[Profile], terms: Sequence[tuple], t):
    """sum of c * prod profiles[i].inv(t) over the (c, indices) terms, for a
    height or an array of heights (quadrature nodes).

    Each profile is inverted once per call however many terms share it;
    the products run in slot order and the sum in term order, the same
    floats as inverting afresh for every factor.
    """
    radii = [p.inv(t) for p in profiles]
    # scalar seeds, not zeros_like/full_like: the same floats either way,
    # and no array allocations when t is one height
    total = 0.0
    for const, picks in terms:
        prod = const
        for i in picks:
            prod = prod * radii[i]
        total = total + prod
    return total


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
        const_sum, profiles, fn_terms = band_terms(slot_parts)
        total += const_sum * (hi - lo)
        if fn_terms:
            integrand = functools.partial(terms_at, profiles, fn_terms)
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

    Exact for every banded function: a radial function over a ball shifts
    its profile by eps / radius, and every other one, stacks included,
    gains a part eps * D in every band, whose mixed volumes take the exact
    ball closed forms.
    """
    if eps < 0:
        raise NonpositiveScale("extension radius must be nonnegative")
    if eps == 0:
        return f
    if isinstance(f, RadialQC) and f.base.is_ball:
        return RadialQC(f.base, ShiftedProfile(f.profile, eps / f.base.radius))
    bands = f.bands()
    if bands is None:
        raise TypeError(f"cannot extend {type(f).__name__}")
    ball = ConvexBody.ball(1.0, f.dim)
    return SumQC([Band(b.lo, b.hi, b.parts + ((eps, ball),)) for b in bands])


# ---------------------------------------------------------------------------
# polynomial of the integral in the oplus/odot calculus
# ---------------------------------------------------------------------------

def minkowski_polynomial_fn(fs: Sequence[QCFunction]):
    """Fit F(eps) = integral of (eps_1 . f_1) oplus ... on the deterministic grid."""
    from .mixed_volumes import MinkowskiPolynomial, _fit_polynomial

    fs = list(fs)
    n = fs[0].dim

    def values(eps):
        acc = None
        for e, f in zip(eps, fs):
            term = odot(float(e), f)
            acc = term if acc is None else oplus(acc, term)
        return integral(acc)

    return MinkowskiPolynomial(dim=n, arity=len(fs),
                               coefficients=_fit_polynomial(values, len(fs), n))


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
    if F.ndim not in (1, 2):
        raise GridTooCoarse("sup-min oracle supports 1-D and 2-D lattices only")
    return lattice_convolution(F, G, np.minimum, np.maximum, 0.0)


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


def _eroded(values: np.ndarray, cells: int) -> np.ndarray:
    """Minimum over the window of 2 * cells + 1 points per axis around each
    point, the edge values repeated past the boundary (the grey erosion
    ``scipy.ndimage.minimum_filter(values, 2 * cells + 1, mode="nearest")``)."""
    out = np.pad(values, cells, mode="edge")
    for ax in range(values.ndim):  # one 1-D pass per axis, in axis order, as scipy
        out = np.lib.stride_tricks.sliding_window_view(out, 2 * cells + 1, axis=ax).min(axis=-1)
    return out


def supmin_bracket(f: QCFunction, g: QCFunction, grid: GridSpec) -> dict:
    """Compare the lattice oracle against the level-set route.

    ``ok`` certifies the documented bound: the oracle stays at or below the
    exact values everywhere, and matches them up to a two-cell erosion at
    every height whose operand level sets are at least sqrt(2) * step thick.
    A lattice too coarse for any such height (``fat_height`` 0) certifies
    nothing and is not ``ok``.
    """
    field = grid_sup_min(f, g, grid)
    exact = oplus(f, g).evaluate_many(field.grid.points()).reshape(field.values.shape)
    eroded = _eroded(exact, cells=2)
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


@parsing_input()
def fn_from_json(obj: dict) -> QCFunction:
    kind = obj.get("type")
    if kind == "stack":
        return LevelStack([(float(lv["t"]), body_from_json(lv["body"]))
                           for lv in obj["levels"]])
    if kind == "radial":
        return RadialQC(body_from_json(obj["base"]), profile_from_json(obj["profile"]))
    raise ValueError(f"unknown function type {kind!r}")
