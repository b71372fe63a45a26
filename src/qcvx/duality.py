"""Geometric convex functions: inf-convolution vs the inf-max sum, the
ratio transform phi -> sup_y (<x,y> - 1)/phi(y), and level-set polarity.

Functions are finite maxima of affine pieces max_j (<a_j, x> + b_j) with
phi(0) = 0 and phi >= 0 (a zero piece is always included), optionally
restricted to a polytope domain (value +inf outside), which covers convex
indicators.  The ratio transform is exact: its values and its level sets
(exact polytopes) are built from the vertices of phi's epigraph.  Only the
convolutions, the inf-convolution and the inf-max sum, are lattice fields.

Convention for the ratio transform at phi(y) = 0: the quotient counts as
+inf when <x, y> > 1 and is skipped otherwise (the lower-semicontinuous
closure); rays along which phi grows linearly contribute their asymptotic
slope ratio <x, u> / slope(u), whose sup over u is the gauge of conv(slopes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bodies import (
    ConvexBody,
    _dedupe_rows,
    affine_values,
    contains_point,
    direction_net,
    membership_margin,
    point_norms,
    polar,
    scale,
)
from .errors import DimensionMismatch, GridTooCoarse
from .grids import GridSpec, SampledField, lattice_convolution
from .report import CheckReport, judge


@dataclass(frozen=True)
class GeomConvexFn:
    """max of affine pieces, 0 at the origin, nonnegative; +inf off the domain."""

    slopes: np.ndarray          # (m, n)
    offsets: np.ndarray         # (m,)
    domain: Optional[ConvexBody] = None

    def __post_init__(self):
        slopes = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        offsets = np.asarray(self.offsets, dtype=float).ravel()
        if len(slopes) != len(offsets):
            raise ValueError("need one offset per affine piece")
        if np.any(offsets > 1e-12):
            raise ValueError("offsets must be <= 0 so that phi(0) = 0")
        if slopes.shape[1] not in (1, 2):
            raise DimensionMismatch("geometric convex functions live in n <= 2")
        # the zero piece pins phi(0) = 0 and phi >= 0
        slopes = np.vstack([slopes, np.zeros((1, slopes.shape[1]))])
        offsets = np.append(np.minimum(offsets, 0.0), 0.0)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "offsets", offsets)
        if self.domain is not None and not contains_point(self.domain, np.zeros(self.dim)):
            raise ValueError("domain must contain the origin (phi(0) = 0)")

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    @classmethod
    def from_pieces(cls, slopes, offsets=None, domain=None) -> "GeomConvexFn":
        slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
        if offsets is None:
            offsets = np.zeros(len(slopes))
        return cls(slopes, np.asarray(offsets, dtype=float), domain)

    @classmethod
    def indicator(cls, body: ConvexBody) -> "GeomConvexFn":
        """Convex indicator: 0 on the body, +inf outside."""
        return cls(np.zeros((1, body.dim)), np.zeros(1), body)

    @classmethod
    def abs_value(cls) -> "GeomConvexFn":
        return cls.from_pieces([[1.0], [-1.0]])

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        vals = affine_values(self.slopes, x, self.offsets).max(axis=0)
        if self.domain is not None:
            vals = np.where(membership_margin(self.domain, x, 1e-12) <= 0.0, vals, np.inf)
        return vals

    def __call__(self, x) -> float:
        return float(self.evaluate_many(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def epi_scaled(self, lam: float) -> "GeomConvexFn":
        """(lam * phi)(x) = lam * phi(x / lam): same slopes, scaled offsets."""
        dom = None if self.domain is None else scale(self.domain, lam)
        return GeomConvexFn(self.slopes, lam * self.offsets, dom)

    def arg_scaled(self, lam: float) -> "GeomConvexFn":
        """(lam . phi)(x) = phi(x / lam): scaled slopes, same offsets."""
        dom = None if self.domain is None else scale(self.domain, lam)
        return GeomConvexFn(self.slopes / lam, self.offsets, dom)

    def max_slope(self) -> float:
        return float(np.max(np.linalg.norm(self.slopes, axis=1)))


# ---------------------------------------------------------------------------
# exact lower level sets and vertex enumeration (n <= 2)
# ---------------------------------------------------------------------------

def lower_level_set(phi: GeomConvexFn, s: float) -> ConvexBody:
    """{x : phi(x) <= s} as an exact polytope; raises if unbounded."""
    if s <= 0:
        raise ValueError("level must be positive (phi(0) = 0 needs s > 0)")
    keep = np.linalg.norm(phi.slopes, axis=1) > 1e-14  # 0 <= s - b holds anyway
    A, c = phi.slopes[keep], s - phi.offsets[keep]
    if phi.domain is not None:
        A_dom, c_dom = phi.domain.facets()
        A, c = np.vstack([A, A_dom]), np.concatenate([c, c_dom])
    # bounded iff no u != 0 has A u <= 0, i.e. 0 is interior to conv(rows)
    normals = ConvexBody.polytope(A) if len(A) else ConvexBody.empty(phi.dim)
    if normals.affine_rank() < phi.dim or np.min(normals.facets()[1]) <= 1e-12:
        raise ValueError("level set is unbounded; the function is not coercive")
    pts = _subset_solutions(A, c)
    pts = pts[np.all(pts @ A.T <= c + 1e-9 * max(1.0, np.max(np.abs(c))), axis=1)]
    if not len(pts):
        raise ValueError("empty level set (inconsistent constraints)")
    return ConvexBody.polytope(pts)


def _subset_solutions(R: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solutions of R_S y = r_S for every square subset S of the rows of R
    whose determinant exceeds 1e-12 times the product of its row norms."""
    k = R.shape[1]
    if len(R) < k:
        return np.zeros((0, k))
    subsets = np.array(list(itertools.combinations(range(len(R)), k)))
    M = R[subsets]
    regular = np.abs(np.linalg.det(M)) > 1e-12 * np.prod(np.linalg.norm(M, axis=2), axis=1)
    return np.linalg.solve(M[regular], r[subsets[regular]][..., None])[..., 0]


# ---------------------------------------------------------------------------
# lattice convolutions
# ---------------------------------------------------------------------------

def _sampled(phi: GeomConvexFn, grid: GridSpec) -> np.ndarray:
    return phi.evaluate_many(grid.points()).reshape((grid.npts,) * grid.dim)


def _iterated_lattice(op, phis: Sequence[GeomConvexFn], grid: GridSpec) -> SampledField:
    if grid.dim not in (1, 2):
        raise GridTooCoarse("lattice convolutions support n <= 2")
    acc = _sampled(phis[0], grid)
    cur = grid
    for phi in phis[1:]:
        acc = lattice_convolution(acc, _sampled(phi, cur), op, np.minimum, np.inf)
        cur = cur.doubled()
    return SampledField(cur, acc)


def inf_convolution(phi: GeomConvexFn, psi: GeomConvexFn,
                    grid: GridSpec) -> SampledField:
    """Discrete min-plus convolution; output on the doubled lattice."""
    return _iterated_lattice(np.add, [phi, psi], grid)


def oplus_cvx(phi: GeomConvexFn, psi: GeomConvexFn, grid: GridSpec) -> SampledField:
    """Discrete inf-max convolution (the level-set sum on convex functions)."""
    return _iterated_lattice(np.maximum, [phi, psi], grid)


def sandwich_check(phis: Sequence[GeomConvexFn], lambdas: Sequence[float],
                   grid: GridSpec, tol: Optional[float] = None) -> CheckReport:
    """Verify (sum lam)^(-1) g1 <= g2 <= (min lam)^(-1) g1 on the lattice,
    where g1 is the inf-convolution and g2 the inf-max sum of the scaled pieces.
    """
    lambdas = [float(l) for l in lambdas]
    if len(phis) != len(lambdas) or not phis:
        raise ValueError("need one positive weight per function")
    if any(l <= 0 for l in lambdas):
        raise ValueError("weights must be positive")
    g1 = _iterated_lattice(np.add, [p.epi_scaled(l) for p, l in zip(phis, lambdas)], grid)
    g2 = _iterated_lattice(np.maximum, [p.arg_scaled(l) for p, l in zip(phis, lambdas)], grid)
    if tol is None:
        step = float(np.max(grid.step))
        lip = max(p.max_slope() for p in phis) * max(1.0, 1.0 / min(lambdas))
        tol = 4.0 * step * lip * math.sqrt(grid.dim)

    lo_slack = g2.values - g1.values / sum(lambdas)
    hi_slack = g1.values / min(lambdas) - g2.values
    finite = np.isfinite(g1.values) & np.isfinite(g2.values)
    lower_margin = float(np.min(lo_slack[finite]))
    upper_margin = float(np.min(hi_slack[finite]))
    margin = min(lower_margin, upper_margin)
    # equality means one of the two bounds is tight at every lattice point
    tightness = float(np.max(np.minimum(lo_slack, hi_slack)[finite]))
    scale_val = max(1.0, float(np.max(np.abs(g2.values[finite]))) if finite.any() else 1.0)
    return judge(
        "sandwich",
        "inf-convolution and inf-max sum agree within the weight "
        "bounds: (sum lam)^-1 * box <= oplus <= (min lam)^-1 * box",
        lower_margin, 0.0, margin / scale_val, tol / scale_val,
        equality=tightness / scale_val <= 1e-9,
        details={"lower_margin": lower_margin, "upper_margin": upper_margin,
                 "lattice_tol": tol, "finite_points": int(finite.sum())})


# ---------------------------------------------------------------------------
# the ratio transform (exact, from the epigraph vertices)
# ---------------------------------------------------------------------------

def _span_split(slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (as columns) of span(slopes) and of its complement."""
    n = slopes.shape[1]
    _, sv, vt = np.linalg.svd(slopes)
    rank = int(np.sum(sv > 1e-12 * max(1.0, float(sv[0]))))
    if rank == n:
        return np.eye(n), np.zeros((n, 0))
    return vt[:rank].T, vt[rank:].T


def _epigraph_vertices(phi: GeomConvexFn) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (y_v, phi(y_v)) of the epigraph of phi over its domain.

    The epigraph is {(y, s) : s >= <a_j, y> + b_j for every piece, y in D}.
    A vertex is a feasible point where n + 1 of these constraints with
    independent normals are active, so one (n+1)-subset solve finds it.  The
    facets of D take part in the enumeration; without a domain, slopes that
    do not span R^n add their complement as <l, y> = 0 (phi is constant
    along it).  Values at or below 1e-12 are snapped to 0.
    """
    if phi.domain is not None:
        A, c = phi.domain.facets()
    else:
        null = _span_split(phi.slopes)[1].T
        A, c = np.vstack([null, -null]), np.zeros(2 * len(null))
    R = np.vstack([np.hstack([phi.slopes, -np.ones((len(phi.slopes), 1))]),
                   np.hstack([A, np.zeros((len(A), 1))])])
    r = np.concatenate([-phi.offsets, c])
    sol = _subset_solutions(R, r)
    slack = 1e-9 * np.maximum(1.0, np.max(np.abs(sol), axis=1, initial=0.0))
    sol = sol[np.all(sol @ R.T - r <= slack[:, None] * np.max(np.abs(R)), axis=1)]
    Y = _dedupe_rows(sol, 1e-9)[:, :phi.dim]
    vals = np.max(Y @ phi.slopes.T + phi.offsets, axis=1)
    return Y, np.where(vals > 1e-12, vals, 0.0)


def _slope_gauge(phi: GeomConvexFn, x: np.ndarray) -> np.ndarray:
    """Exact gauge of conv(slopes) at the rows of x: +inf off its cone; the
    ray term of ``a_transform_values``, and like it called by no package code."""
    basis, null = _span_split(phi.slopes)
    out = np.zeros(len(x))
    if basis.shape[1]:
        A, c = ConvexBody.polytope(phi.slopes @ basis).facets()
        z = affine_values(basis.T, x).T
        flat = c <= 1e-12            # facets through 0, the zero slope
        out = np.max(affine_values(A[~flat], z) / c[~flat, None], axis=0, initial=0.0)
        if flat.any():
            out = np.where(np.any(affine_values(A[flat], z) > 1e-12, axis=0), np.inf, out)
    if null.shape[1]:
        out = np.where(point_norms(affine_values(null.T, x).T) > 1e-12, np.inf, out)
    return out


def a_transform_values(phi: GeomConvexFn, x: np.ndarray) -> np.ndarray:
    """sup_y (<x, y> - 1)/phi(y) evaluated exactly at the rows of x.

    On each linearity cell the quotient is linear-fractional, so the sup is
    reached at an epigraph vertex y_v or along a recession ray.  The value is
    the max of the vertex quotients with phi(y_v) > 0; +inf when a vertex of
    the zero cell has <x, y_v> > 1; and the ray term, which is the gauge of
    conv(slopes) without a domain and 0 with one (y off the domain: a finite
    numerator over +inf).  No package code calls it; it stays as the paper's
    pointwise transform, the tests' exact reference for ``a_transform_level_set``
    and a name the benchmark's tracer binds.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    Y, vals = _epigraph_vertices(phi)
    pos = vals > 0
    out = np.full(len(x), -np.inf)
    if pos.any():
        out = np.max((affine_values(Y[pos], x) - 1.0) / vals[pos, None], axis=0)
    if not pos.all():
        trigger = np.any(affine_values(Y[~pos], x) > 1.0 + 1e-12, axis=0)
        out = np.where(trigger, np.inf, out)
    if phi.domain is None:
        return np.maximum(out, _slope_gauge(phi, x))
    return np.maximum(out, 0.0)


def a_transform_level_set(phi: GeomConvexFn, t: float) -> ConvexBody:
    """K_t(A phi) = {x : <x, y_v> <= 1 + t phi(y_v) for every vertex}, cut by
    t * conv(slopes) when phi has no domain: an exact polytope.

    A phi(x) <= t says (t phi)^*(x) <= 1, and the sup of <x, y> - t s over
    the epigraph is finite exactly on t * conv(slopes) (the rays) and is then
    reached at a vertex.
    """
    if t <= 0:
        raise ValueError("level must be positive")
    Y, vals = _epigraph_vertices(phi)
    dom = None if phi.domain is not None else ConvexBody.polytope(t * phi.slopes)
    return lower_level_set(GeomConvexFn(Y, -t * vals, dom), 1.0)


# ---------------------------------------------------------------------------
# level-set polarity
# ---------------------------------------------------------------------------

def star_dual(phi: GeomConvexFn, heights: Sequence[float]) -> list[ConvexBody]:
    """Level sets of the dual function: K_t(phi^*) = polar of K_{1/t}(phi)."""
    out = []
    for t in heights:
        if t <= 0:
            raise ValueError("dual heights must be positive")
        out.append(polar(lower_level_set(phi, 1.0 / t)))
    return out


def polarity_sandwich_check(phi: GeomConvexFn, t: float) -> CheckReport:
    """Check polar(K_{1/t}(phi)) <= K_t(transform) <= 2 * polar(K_{1/t}(phi)).

    Both sides are exact polytopes; margins are support-function slacks over
    a 64-direction net, judged at relative tolerance 1e-9.
    """
    p = polar(lower_level_set(phi, 1.0 / t))
    q = a_transform_level_set(phi, t)

    net = direction_net(phi.dim, 64)
    h_p = np.max(net @ p.vertices.T, axis=1)
    h_q = np.max(net @ q.vertices.T, axis=1)
    h_2p = 2.0 * h_p
    left_margin = float(np.min(h_q - h_p))      # polar inside the transform's set
    right_margin = float(np.min(h_2p - h_q))    # transform's set inside 2 * polar
    scale_val = max(1.0, float(np.max(h_2p)))
    margin = min(left_margin, right_margin)
    # a factor-2 sandwich has no equality case to report
    return judge(
        "polarity-sandwich",
        "polars of the sublevel sets sandwich the sublevel sets of "
        "the ratio transform within a factor of 2",
        left_margin, 0.0, margin / scale_val, 1e-9, equality=False,
        details={"t": t, "left_margin": left_margin, "right_margin": right_margin})
