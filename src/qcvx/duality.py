"""Geometric convex functions: inf-convolution vs the inf-max sum, the
ratio transform phi -> sup_y (<x,y> - 1)/phi(y), and level-set polarity.

Functions are finite maxima of affine pieces max_j (<a_j, x> + b_j) with
phi(0) = 0 and phi >= 0 (a zero piece is always included), optionally
restricted to a polytope domain (value +inf outside), which covers convex
indicators.  Everything is exact.  The ratio transform's values and level
sets (exact polytopes) are built from the vertices of phi's epigraph.  The
inf-convolution and the inf-max sum of two functions without a domain are
maxima of affine pieces read off the subdivisions of conv(slopes) that the
offsets induce: the first by Fenchel conjugacy, (f box g)^* = f^* + g^*, the
second by LP duality (Rockafellar, Convex Analysis, section 16).

Convention for the ratio transform at phi(y) = 0: the quotient counts as
+inf when <x, y> > 1 and is skipped otherwise (the lower-semicontinuous
closure); rays along which phi grows linearly contribute their asymptotic
slope ratio <x, u> / slope(u), whose sup over u is the gauge of conv(slopes).
"""

from __future__ import annotations

import itertools
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
from .errors import DimensionMismatch
from .grids import GridSpec
from .report import CheckReport, judge

# Largest temporary one evaluation of a max of pieces allocates, in bytes:
# 9 pieces at the 81^2 points of a doubled 41^2 lattice.
_BLOCK_BYTES = 512 << 10


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
        if self.domain is None:
            return
        # level sets cut the domain by its facets
        if not (self.domain.is_polytope and self.domain.affine_rank() == self.dim):
            raise ValueError(f"domain must be a full-dimensional polytope, got {self.domain!r}")
        if not contains_point(self.domain, np.zeros(self.dim)):
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
        # the max folds over blocks of pieces, each at most _BLOCK_BYTES
        step = max(1, _BLOCK_BYTES // (8 * max(1, len(x))))
        vals = np.full(len(x), -np.inf)
        for i in range(0, len(self.slopes), step):
            np.maximum(vals, affine_values(self.slopes[i:i + step], x,
                                           self.offsets[i:i + step]).max(axis=0), out=vals)
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
    return _regular_solutions(R[subsets], r[subsets])[0]


def _regular_solutions(M: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(solutions, mask) of the square systems M[i] y = r[i] whose
    determinant exceeds 1e-12 times the product of their row norms."""
    regular = np.abs(np.linalg.det(M)) > 1e-12 * np.prod(np.linalg.norm(M, axis=2), axis=1)
    return np.linalg.solve(M[regular], r[regular][..., None])[..., 0], regular


# ---------------------------------------------------------------------------
# the two sums, exact: maxima of affine pieces read off the dual subdivisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DualView:
    """What the exact sums read of one function f without a domain: the
    pieces that are vertices of the subdivision of conv(slopes) that the
    offsets induce, the edges of that subdivision (in the plane), the
    vertices (y_v, f(y_v)) of f's epigraph, whence f* = max_v (<y_v, .> -
    f(y_v)) on conv(slopes), and the facets A nu <= c of conv(slopes)."""

    slopes: np.ndarray
    offsets: np.ndarray
    Y: np.ndarray
    vals: np.ndarray
    edges: np.ndarray           # (E, 2) indices into slopes
    A: np.ndarray
    c: np.ndarray

    @classmethod
    def of(cls, phi: GeomConvexFn) -> "_DualView":
        if _span_split(phi.slopes)[1].shape[1]:
            raise ValueError("the slopes of a sandwich function must span R^n")
        Y, vals = _epigraph_vertices(phi)
        at = affine_values(phi.slopes, Y, phi.offsets)
        active = at >= vals - 1e-9 * max(1.0, float(np.max(np.abs(at))))
        if phi.dim == 1:
            live, s = active.any(axis=1), phi.slopes[:, 0]
            return cls(phi.slopes[live], phi.offsets[live], Y, vals, np.zeros((0, 2), dtype=int),
                       np.array([[1.0], [-1.0]]), np.array([s.max(), -s.min()]))
        edges, A, c = _subdivision(phi.slopes, active)
        live = np.zeros(len(phi.slopes), dtype=bool)
        live[edges.ravel()] = True  # the vertices of the cells
        return cls(phi.slopes[live], phi.offsets[live], Y, vals,
                   np.cumsum(live)[edges] - 1, A, c)

    def epi_scaled(self, lam: float) -> "_DualView":
        """The view of lam * f(x / lam): vertices and offsets scale."""
        return _DualView(self.slopes, lam * self.offsets, lam * self.Y, lam * self.vals,
                         self.edges, self.A, self.c)

    def arg_scaled(self, lam: float) -> "_DualView":
        """The view of f(x / lam): vertices scale, slopes shrink."""
        return _DualView(self.slopes / lam, self.offsets, lam * self.Y, self.vals,
                         self.edges, self.A, self.c / lam)

    def conjugate(self, nu: np.ndarray) -> np.ndarray:
        """f* at the rows of nu, which lie in conv(slopes)."""
        return affine_values(self.Y, nu, -self.vals).max(axis=0)

    def in_hull(self, nu: np.ndarray) -> np.ndarray:
        """Which rows of nu lie in conv(slopes), to 1e-12 relative."""
        tol = 1e-12 * max(1.0, float(np.max(np.abs(self.c))))
        return np.all(affine_values(self.A, nu) <= self.c[:, None] + tol, axis=0)


def _subdivision(slopes: np.ndarray, active: np.ndarray):
    """(edges, A, c) in the plane, from which pieces are active at which
    epigraph vertex.

    Each vertex has a cell, the hull of the slopes active there, and the
    cells tile conv(slopes).  The edges are the pairs (j, k) active at one
    vertex whose line leaves every slope active there on one side: the cell
    edges.  Those that leave every slope on one side are the edges of
    conv(slopes), whose facets are A nu <= c with unit outer normals.
    """
    act = active.astype(float)
    pairs = np.argwhere(np.triu(act @ act.T > 0.0, k=1))
    a, d = slopes[pairs[:, 0]], np.diff(slopes[pairs], axis=1)[:, 0]
    size = max(1.0, float(np.max(np.abs(slopes))))
    keep = np.abs(d).max(axis=1) > 1e-12 * size
    pairs, a, d = pairs[keep], a[keep], d[keep]
    rel = slopes[None] - a[:, None]
    cross = d[:, None, 0] * rel[..., 1] - d[:, None, 1] * rel[..., 0]
    left, right = cross > 1e-12 * size ** 2, cross < -1e-12 * size ** 2
    both = active[pairs[:, 0]] & active[pairs[:, 1]]
    one_side = (left.astype(float) @ act == 0.0) | (right.astype(float) @ act == 0.0)
    outer = ~left.any(axis=1) | ~right.any(axis=1)
    normals = np.stack([d[:, 1], -d[:, 0]], axis=1) / np.linalg.norm(d, axis=1)[:, None]
    normals = np.where(right.any(axis=1)[:, None], -normals, normals)[outer]
    c = np.einsum("ij,ij->i", normals, a[outer])
    return pairs[np.any(both & one_side, axis=1)], normals, c


def _as_fn(slopes: np.ndarray, offsets: np.ndarray) -> GeomConvexFn:
    """The max of the pieces, one per distinct slope (to 1e-12 relative, the
    largest offset), offsets clamped at 0 since the sums vanish at 0."""
    order = np.argsort(-offsets, kind="stable")
    q = 1e-12 * max(1.0, float(np.max(np.abs(slopes), initial=0.0)))
    _, first = np.unique(np.round(slopes[order] / q), axis=0, return_index=True)
    keep = order[np.sort(first)]
    return GeomConvexFn(slopes[keep], np.minimum(offsets[keep], 0.0))


def _inf_convolution(f: _DualView, g: _DualView) -> GeomConvexFn:
    """f box g, the max of <nu, x> - f*(nu) - g*(nu) over the vertices nu of
    the overlay of the two dual subdivisions on conv(f slopes) cap conv(g
    slopes): slopes of one in the hull of the other and, in the plane, the
    crossings of a dual edge of f with one of g."""
    nus = [f.slopes, g.slopes]
    if f.slopes.shape[1] == 2:
        p0, d = f.slopes[f.edges[:, 0]], np.diff(f.slopes[f.edges], axis=1)[:, 0]
        q0, e = g.slopes[g.edges[:, 0]], np.diff(g.slopes[g.edges], axis=1)[:, 0]
        # p0 + s d = q0 + u e, one 2 x 2 system per pair of edges
        M = np.stack(np.broadcast_arrays(d[:, None], -e[None]), axis=-1).reshape(-1, 2, 2)
        r = (q0[None] - p0[:, None]).reshape(-1, 2)
        su, regular = _regular_solutions(M, r)
        inside = np.all((su >= -1e-9) & (su <= 1.0 + 1e-9), axis=1)
        pair = np.flatnonzero(regular)[inside] // len(e)
        nus.append(p0[pair] + su[inside, :1] * d[pair])
    nu = np.vstack(nus)
    nu = nu[f.in_hull(nu) & g.in_hull(nu)]
    return _as_fn(nu, -(f.conjugate(nu) + g.conjugate(nu)))


def _inf_max(f: _DualView, g: _DualView) -> GeomConvexFn:
    """inf over x1 + x2 = x of max(f(x1), g(x2)), exactly.

    With f's pieces (p_j, c_j) and g's (q_l, d_l), LP duality makes it the
    max of <nu, x> + sum mu c + sum rho d over mu, rho >= 0 with sum mu +
    sum rho = 1 and sum mu p = sum rho q = nu.  A vertex has n + 1 nonzero
    weights, and at an optimum those of one side sit on pieces active at
    one point: a face of one subdivision, so a slope of one side and an
    edge (plane) or a slope (line) of the other.  Weights on one side alone
    give nu = 0, which the zero piece covers.  Each support is one
    (n+1) x (n+1) solve; the feasible ones are the pieces.
    """
    n, m = f.slopes.shape[1], len(f.slopes)
    f_faces = [np.arange(m)[:, None], f.edges]
    g_faces = [m + np.arange(len(g.slopes))[:, None], m + g.edges]
    supports = np.vstack([np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])
                          for a, b in zip(f_faces[:n], g_faces[n - 1::-1])])
    cols = np.vstack([f.slopes, -g.slopes])
    M = np.hstack([np.ones((len(cols), 1)), cols])[supports].transpose(0, 2, 1)
    rhs = np.zeros((len(M), n + 1))
    rhs[:, 0] = 1.0
    w, regular = _regular_solutions(M, rhs)
    feasible = np.all(w >= -1e-12, axis=1)
    w, supports = w[feasible], supports[regular][feasible]
    nu_cols = np.vstack([f.slopes, np.zeros_like(g.slopes)])
    nu = np.einsum("si,sik->sk", w, nu_cols[supports])
    cost = np.einsum("si,si->s", w, np.concatenate([f.offsets, g.offsets])[supports])
    return _as_fn(nu, cost)


def _folded(op, views: Sequence[_DualView]) -> GeomConvexFn:
    """op folded left over two or more views; both sums are associative."""
    out = op(views[0], views[1])
    for view in views[2:]:
        out = op(_DualView.of(out), view)
    return out


def sandwich_check(phis: Sequence[GeomConvexFn], lambdas: Sequence[float],
                   grid: GridSpec) -> CheckReport:
    """Verify (sum lam)^(-1) g1 <= g2 <= (min lam)^(-1) g1, where g1 is the
    inf-convolution of the lam_i phi_i(. / lam_i) and g2 the inf-max sum of
    the phi_i(. / lam_i).

    Both sums are exact maxima of affine pieces (``_inf_convolution``,
    ``_inf_max``, folded pairwise), evaluated at the points of ``grid``
    doubled once per function after the first.  The margins are the worst
    slacks off the common zero set {g1 = g2 = 0}, judged at 1e-9 relative
    to max(1, max g2).  Functions with a domain are not supported.
    """
    lambdas = [float(l) for l in lambdas]
    if len(phis) != len(lambdas) or not phis:
        raise ValueError("need one positive weight per function")
    if any(l <= 0 for l in lambdas):
        raise ValueError("weights must be positive")
    for phi in phis:
        if phi.domain is not None:
            raise ValueError(f"sandwich_check takes functions without a domain, "
                             f"got one restricted to {phi.domain!r}")
        if phi.dim != grid.dim:
            raise DimensionMismatch(f"a {phi.dim}-D function on a {grid.dim}-D lattice")
    if len(phis) == 1:
        g1, g2 = phis[0].epi_scaled(lambdas[0]), phis[0].arg_scaled(lambdas[0])
    else:
        views = [_DualView.of(phi) for phi in phis]
        g1 = _folded(_inf_convolution, [v.epi_scaled(l) for v, l in zip(views, lambdas)])
        g2 = _folded(_inf_max, [v.arg_scaled(l) for v, l in zip(views, lambdas)])
    for _ in phis[1:]:
        grid = grid.doubled()
    x = grid.points()
    v1, v2 = g1.evaluate_many(x), g2.evaluate_many(x)

    lo_slack = v2 - v1 / sum(lambdas)
    hi_slack = v1 / min(lambdas) - v2
    judged = (v1 != 0.0) | (v2 != 0.0)
    lower_margin = upper_margin = 0.0
    if judged.any():
        lower_margin, upper_margin = float(np.min(lo_slack[judged])), float(np.min(hi_slack[judged]))
    margin = min(lower_margin, upper_margin)
    # equality means one of the two bounds is tight at every lattice point
    tightness = float(np.max(np.minimum(lo_slack, hi_slack)))
    scale_val = max(1.0, float(np.max(np.abs(v2))))
    return judge(
        "sandwich",
        "inf-convolution and inf-max sum agree within the weight "
        "bounds: (sum lam)^-1 * box <= oplus <= (min lam)^-1 * box",
        lower_margin, 0.0, margin / scale_val, 1e-9,
        equality=tightness / scale_val <= 1e-9,
        details={"lower_margin": lower_margin, "upper_margin": upper_margin,
                 "finite_points": len(x)})


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
    vals = affine_values(phi.slopes, Y, phi.offsets).max(axis=0)
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
