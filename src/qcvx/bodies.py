"""Convex bodies in R^1..R^3: canonical V-polytopes, centered balls, the empty set.

All bodies are immutable and safe to share between threads.  Polytope vertices
are canonicalized at construction: duplicate and non-extreme points are dropped
(tolerance 1e-10) and the survivors are sorted lexicographically, which makes
structural equality testable.  Balls are kept as an exact separate variant
because the unit ball enters every quermassintegral; Minkowski sums mixing a
positive-radius ball with a polytope are rejected rather than approximated
(mixed volumes handle that case analytically, see ``mixed_volumes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DimensionMismatch,
    EmptyBody,
    NonpositiveScale,
    OriginNotInterior,
    UnsupportedMix,
)

VERTEX_TOL = 1e-10
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


# ---------------------------------------------------------------------------
# hull helpers (raw vertex arrays)
# ---------------------------------------------------------------------------

def _dedupe_rows(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop rows that are within tol (max norm) of an earlier kept row."""
    if len(points) <= 1:
        return points.copy()
    if len(points) <= 48:
        diff = np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)
        close = np.tril(diff <= tol, k=-1)
        keep = ~close.any(axis=1)
        # a row near only dropped rows survives, so settle those in order
        for i in np.flatnonzero(~keep):
            keep[i] = not np.any(close[i] & keep)
        return points[keep]
    keys = np.round(points / max(tol, 1e-300)).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return points[np.sort(idx)]


def _chain_2d(points: np.ndarray, tol: float) -> np.ndarray:
    """Extreme points of a 2-D point set via the monotone chain.

    Points within ``tol`` of an edge are treated as non-extreme.
    """
    scale = max(1.0, float(np.max(np.abs(points))))
    cross_tol = tol * scale * scale
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]

    def build(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= cross_tol:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1]) if len(lower) > 1 else np.array(lower)
    return _dedupe_rows(hull, tol * scale)


def _affine_frame(points: np.ndarray, tol: float):
    """Return (origin, orthonormal basis U) of the affine hull, rank = U.shape[1]."""
    origin = points.mean(axis=0)
    centered = points - origin
    scale = max(1.0, float(np.max(np.abs(centered))))
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > tol * scale * 10.0))
    return origin, vt[:rank].T


def extreme_points(points: np.ndarray, tol: float = VERTEX_TOL) -> np.ndarray:
    """Extreme points of conv(points), handling lower-dimensional sets."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dim = pts.shape[1]
    if len(pts) == 1:
        return pts.copy()
    origin, basis = _affine_frame(pts, tol)
    rank = basis.shape[1]
    if rank == 0:
        return pts[:1].copy()
    if rank == 1:
        coords = (pts - origin) @ basis[:, 0]
        ends = pts[[int(np.argmin(coords)), int(np.argmax(coords))]]
        return _dedupe_rows(ends, tol)
    if rank == 2:
        if dim == 2:
            return _chain_2d(pts, tol)
        proj = (pts - origin) @ basis
        hull2 = _chain_2d(proj, tol)
        return np.array([origin + basis @ q for q in hull2])
    try:
        hull = ConvexHull(pts)
    except QhullError:
        # nearly degenerate: flatten onto the affine frame and retry
        proj = (pts - origin) @ basis
        hull = ConvexHull(proj, qhull_options="QJ")
    verts = pts[hull.vertices]
    return _dedupe_rows(verts, tol * max(1.0, float(np.max(np.abs(pts)))))


def _sort_lex(verts: np.ndarray) -> np.ndarray:
    keys = tuple(verts[:, k] for k in reversed(range(verts.shape[1])))
    return verts[np.lexsort(keys)]


def _ccw_order(verts: np.ndarray) -> np.ndarray:
    """Vertices of a convex polygon in counterclockwise order."""
    center = verts.mean(axis=0)
    ang = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
    return verts[np.argsort(ang)]


def _prune_convex_ring(ring: np.ndarray, tol: float) -> np.ndarray:
    """Drop zero-length and collinear joints from a ccw convex ring (vectorized)."""
    scale_ = max(1.0, float(np.max(np.abs(ring))))
    out = ring[np.linalg.norm(ring - np.roll(ring, 1, axis=0), axis=1) > tol * scale_]
    if len(out) < 3:
        return out
    e_in = out - np.roll(out, 1, axis=0)
    e_out = np.roll(out, -1, axis=0) - out
    cross = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
    keep = cross > tol * scale_ * scale_
    return out[keep] if keep.any() else out[:1]


def _merge_convex_rings(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Minkowski sum of two ccw convex rings by angle-sorted edge merging."""

    def prep(r):
        i = int(np.lexsort((r[:, 0], r[:, 1]))[0])
        r = np.roll(r, -i, axis=0)
        e = np.roll(r, -1, axis=0) - r
        ang = np.arctan2(e[:, 1], e[:, 0])
        ang = np.where(ang < ang[0] - 1e-12, ang + 2.0 * np.pi, ang)
        return r[0], e, ang

    sa, ea, aa = prep(ra)
    sb, eb, ab = prep(rb)
    edges = np.concatenate([ea, eb])
    order = np.argsort(np.concatenate([aa, ab]), kind="stable")
    pts = (sa + sb) + np.vstack([np.zeros(2), np.cumsum(edges[order], axis=0)[:-1]])
    return pts


# ---------------------------------------------------------------------------
# the body type
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConvexBody:
    """Tagged union: empty set, centered ball, or canonical V-polytope."""

    dim: int
    kind: str                           # "empty" | "ball" | "polytope"
    radius: float = 0.0
    vertices: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise DimensionMismatch(f"ambient dimension must be 1, 2 or 3, got {self.dim}")
        if self.kind not in ("empty", "ball", "polytope"):
            raise ValueError(f"unknown body kind {self.kind!r}")
        if self.kind == "ball" and self.radius < 0:
            raise ValueError("ball radius must be nonnegative")
        if self.kind == "polytope":
            if self.vertices is None or len(self.vertices) == 0:
                raise ValueError("polytope needs a nonempty vertex list")
            self.vertices.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def polytope(cls, points) -> "ConvexBody":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValueError("expected an (m, n) array of points")
        verts = _sort_lex(extreme_points(pts))
        return cls(dim=pts.shape[1], kind="polytope", vertices=verts)

    @classmethod
    def _from_convex_ring(cls, ring: np.ndarray) -> "ConvexBody":
        """Fast 2-D constructor for a ring already known convex and ccw."""
        pruned = _prune_convex_ring(ring, VERTEX_TOL)
        return cls(dim=2, kind="polytope", vertices=_sort_lex(pruned))

    @classmethod
    def ball(cls, radius: float, dim: int) -> "ConvexBody":
        return cls(dim=dim, kind="ball", radius=float(radius))

    @classmethod
    def empty(cls, dim: int) -> "ConvexBody":
        return cls(dim=dim, kind="empty")

    @classmethod
    def interval(cls, lo: float, hi: float) -> "ConvexBody":
        return cls.polytope([[lo], [hi]])

    @classmethod
    def box(cls, lo, hi) -> "ConvexBody":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(len(lo), -1).T
        return cls.polytope(corners)

    # -- predicates --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    @property
    def is_ball(self) -> bool:
        return self.kind == "ball"

    @property
    def is_polytope(self) -> bool:
        return self.kind == "polytope"

    @property
    def is_point(self) -> bool:
        """True for the singleton {0} (zero ball) or a one-vertex polytope."""
        if self.kind == "ball":
            return self.radius == 0.0
        return self.kind == "polytope" and len(self.vertices) == 1

    def bounding_radius(self) -> float:
        if self.is_empty:
            return 0.0
        if self.is_ball:
            return self.radius
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def affine_rank(self) -> int:
        if self.is_empty:
            return -1
        if self.is_ball:
            return self.dim if self.radius > 0 else 0
        if len(self.vertices) == 1:
            return 0
        cached = self.__dict__.get("_affine_rank")
        if cached is None:
            cached = _affine_frame(self.vertices, VERTEX_TOL)[1].shape[1]
            self.__dict__["_affine_rank"] = cached
        return cached

    def __repr__(self):
        if self.is_empty:
            return f"ConvexBody.empty({self.dim})"
        if self.is_ball:
            return f"ConvexBody.ball({self.radius:.6g}, dim={self.dim})"
        return f"ConvexBody.polytope(<{len(self.vertices)} vertices, dim={self.dim}>)"

    # -- facet cache -------------------------------------------------------

    def facets(self):
        """(A, b) with body = {x : A x <= b}; rows of A are unit normals.

        Only defined for full-dimensional polytopes.
        """
        cached = self.__dict__.get("_facets")
        if cached is not None:
            return cached
        if not self.is_polytope:
            raise ValueError("facets are defined for polytopes only")
        verts = self.vertices
        n = self.dim
        if self.affine_rank() < n:
            raise DegenerateFacets("polytope is lower-dimensional")
        if n == 1:
            lo, hi = float(verts.min()), float(verts.max())
            A = np.array([[1.0], [-1.0]])
            b = np.array([hi, -lo])
        elif n == 2:
            ring, A, _ = _polygon_edges(verts)
            b = np.einsum("ij,ij->i", A, ring)
        else:
            hull = convex_hull(self)
            A = hull.equations[:, :3]
            b = -hull.equations[:, 3]
        self.__dict__["_facets"] = (A, b)
        return A, b

    def gauge(self, x) -> float:
        """Minkowski functional min{s >= 0 : x in s*body}; needs 0 interior."""
        x = np.asarray(x, dtype=float)
        if self.is_ball:
            if self.radius <= 0:
                raise OriginNotInterior("gauge needs a body with 0 in its interior")
            return float(np.linalg.norm(x) / self.radius)
        A, b = self.facets()
        if np.min(b) <= VERTEX_TOL:
            raise OriginNotInterior("gauge needs a body with 0 in its interior")
        return float(max(0.0, np.max((A @ x) / b)))


class DegenerateFacets(ValueError):
    pass


def _polygon_area(verts: np.ndarray) -> float:
    """Shoelace area of the convex polygon with these (planar) vertices."""
    ring = _ccw_order(verts)
    x, y = ring[:, 0], ring[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _polygon_edges(verts: np.ndarray):
    """(ccw ring, unit outer edge normals, edge lengths) of a convex polygon."""
    ring = _ccw_order(verts)
    edges = np.roll(ring, -1, axis=0) - ring
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    norms = np.linalg.norm(normals, axis=1)
    return ring, normals / norms[:, None], norms


def convex_hull(body: ConvexBody) -> ConvexHull:
    """Qhull hull of a full-dimensional 3-D polytope, built once per body."""
    hull = body.__dict__.get("_hull")
    if hull is None:
        hull = ConvexHull(body.vertices)
        body.__dict__["_hull"] = hull
    return hull


def facet_measure(body: ConvexBody):
    """(U, w): unit outer normals and (n-1)-measures of the body's facets.

    The pairs are the atoms of the surface area measure S(K, ..., K; .), so
    V(K, ..., K, L) = (1/n) sum_F h_L(u_F) w_F.  A full-dimensional 3-D
    polytope lists Qhull's triangles (coplanar pieces add up), a polygon its
    ccw edges, a body one dimension short (a point on the line, a segment in
    the plane, a flat polygon in space) the two facets +-u carrying its
    (n-1)-volume, and anything lower an empty measure.  Cached on the body.
    """
    cached = body.__dict__.get("_facet_measure")
    if cached is not None:
        return cached
    if body.is_ball and body.radius > 0:
        raise ValueError("facet measures are defined for polytopes only")
    n = body.dim
    rank = body.affine_rank()
    if rank < n - 1:
        U, w = np.zeros((0, n)), np.zeros(0)
    elif n == 1:
        U, w = np.array([[1.0], [-1.0]]), np.ones(2)
    elif rank == n - 1:
        verts = body.vertices
        origin, basis = _affine_frame(verts, VERTEX_TOL)
        if n == 2:
            coords = verts @ basis[:, 0]
            d = verts[int(np.argmax(coords))] - verts[int(np.argmin(coords))]
            size = float(np.linalg.norm(d))
            u = np.array([d[1], -d[0]]) / size
        else:
            size = _polygon_area((verts - origin) @ basis)
            u = np.cross(basis[:, 0], basis[:, 1])
        U, w = np.stack([u, -u]), np.array([size, size])
    elif n == 2:
        _, U, w = _polygon_edges(body.vertices)
    else:
        hull = convex_hull(body)
        tri = body.vertices[hull.simplices]
        U = hull.equations[:, :3]
        w = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    body.__dict__["_facet_measure"] = (U, w)
    return U, w


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _point_in_hull(verts: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """Membership of x in conv(verts), robust to lower-dimensional hulls."""
    if len(verts) == 1:
        return bool(np.max(np.abs(verts[0] - x)) <= tol)
    origin, basis = _affine_frame(verts, VERTEX_TOL)
    rank = basis.shape[1]
    resid = (x - origin) - basis @ (basis.T @ (x - origin))
    if np.linalg.norm(resid) > tol:
        return False
    if rank == 0:
        return True
    coords = (verts - origin) @ basis
    px = basis.T @ (x - origin)
    if rank == 1:
        lo, hi = float(coords.min()), float(coords.max())
        return lo - tol <= px[0] <= hi + tol
    if rank == 2:
        ring = _ccw_order(np.column_stack([coords[:, 0], coords[:, 1]]))
        edges = np.roll(ring, -1, axis=0) - ring
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        lens = np.linalg.norm(normals, axis=1)
        good = lens > 0
        A = normals[good] / lens[good, None]
        b = np.einsum("ij,ij->i", A, ring[good])
        return bool(np.all(A @ px[:2] <= b + tol))
    A = ConvexHull(verts).equations
    return bool(np.all(A[:, :-1] @ x + A[:, -1] <= tol))


def contains_point(body: ConvexBody, x, tol: float = 1e-9) -> bool:
    """True iff the point x lies in the body (within tol).

    The slack is ``tol * max(1, bounding radius, max|x_i|)``.  A
    full-dimensional polytope tests x against its cached ``facets()``; a
    lower-dimensional one falls back to projecting onto its affine hull.
    """
    x = np.asarray(x, dtype=float)
    if body.is_empty:
        return False
    if body.is_ball:
        return bool(np.linalg.norm(x) <= body.radius + tol * max(1.0, body.radius))
    scale = max(1.0, body.bounding_radius(), float(np.max(np.abs(x))))
    if body.affine_rank() == body.dim:
        A, b = body.facets()
        return bool(np.all(A @ x - b <= tol * scale))
    return _point_in_hull(body.vertices, x, tol * scale)


def membership_mask(body: ConvexBody, x: np.ndarray, tol: float) -> np.ndarray:
    """Row-wise membership of x: ``A x <= b + tol`` on a full-dimensional
    polytope's facets, 1e-12 on a ball's radius, else ``contains_point``."""
    if body.is_empty:
        return np.zeros(len(x), dtype=bool)
    if body.is_ball:
        return np.linalg.norm(x, axis=1) <= body.radius + 1e-12
    if body.affine_rank() == body.dim:
        A, b = body.facets()
        return np.all(x @ A.T <= b + tol, axis=1)
    return np.array([contains_point(body, p) for p in x])


def minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Exact Minkowski sum {x + y : x in a, y in b}."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"cannot add bodies of dimension {a.dim} and {b.dim}")
    if a.is_empty or b.is_empty:
        return ConvexBody.empty(a.dim)
    # the singleton {0} is the neutral element regardless of variant
    if a.is_ball and a.radius == 0.0:
        return b
    if b.is_ball and b.radius == 0.0:
        return a
    if a.is_ball and b.is_ball:
        return ConvexBody.ball(a.radius + b.radius, a.dim)
    if a.is_ball or b.is_ball:
        ball, poly = (a, b) if a.is_ball else (b, a)
        if poly.is_point and np.max(np.abs(poly.vertices[0])) <= VERTEX_TOL:
            return ball
        raise UnsupportedMix(
            "ball + polytope has no exact vertex representation; "
            "mixed volumes handle the unit ball analytically instead"
        )
    if (a.dim == 2 and len(a.vertices) >= 3 and len(b.vertices) >= 3
            and len(a.vertices) * len(b.vertices) > 512
            and a.affine_rank() == 2 and b.affine_rank() == 2):
        ring = _merge_convex_rings(_ccw_order(a.vertices), _ccw_order(b.vertices))
        return ConvexBody._from_convex_ring(ring)
    pts = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    return ConvexBody.polytope(pts)


def scale(a: ConvexBody, lam: float) -> ConvexBody:
    """Homothet lam * a, lam > 0."""
    if lam <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {lam}")
    if a.is_empty:
        return a
    if a.is_ball:
        return ConvexBody.ball(a.radius * lam, a.dim)
    return ConvexBody(dim=a.dim, kind="polytope", vertices=_sort_lex(a.vertices * lam))


def volume(a: ConvexBody) -> float:
    """Lebesgue volume; exact fan evaluation for polytopes (cached on the
    body), omega_n r^n for balls."""
    if a.is_empty:
        return 0.0
    if a.is_ball:
        return UNIT_BALL_VOLUME[a.dim] * a.radius ** a.dim
    cached = a.__dict__.get("_volume")
    if cached is None:
        cached = _polytope_volume(a)
        a.__dict__["_volume"] = cached
    return cached


def _polytope_volume(a: ConvexBody) -> float:
    verts = a.vertices
    n = a.dim
    if len(verts) <= n:
        return 0.0
    if a.affine_rank() < n:
        return 0.0
    if n == 1:
        return float(verts.max() - verts.min())
    if n == 2:
        return _polygon_area(verts)
    hull = convex_hull(a)
    center = verts.mean(axis=0)
    tri = verts[hull.simplices] - center
    dets = np.einsum("fi,fi->f", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))
    return float(np.sum(np.abs(dets)) / 6.0)


def as_direction(u) -> np.ndarray:
    """Validate a unit vector (norm within 1e-12 of 1)."""
    u = np.asarray(u, dtype=float)
    nrm = float(np.linalg.norm(u))
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, |u| = {nrm}")
    return u


def support(a: ConvexBody, u) -> float:
    """Support function h_a(u) = sup_{x in a} <x, u> for a unit direction u.

    The empty body would give -inf; it raises instead.
    """
    u = as_direction(u)
    if a.is_empty:
        raise EmptyBody("support of the empty body is -inf by convention")
    if len(u) != a.dim:
        raise DimensionMismatch("direction dimension does not match the body")
    if a.is_ball:
        return a.radius
    return float(np.max(a.vertices @ u))


def polar(a: ConvexBody) -> ConvexBody:
    """Polar body {y : <x, y> <= 1 for all x in a}; needs 0 in the interior."""
    if a.is_empty:
        raise OriginNotInterior("empty body has no interior")
    if a.is_ball:
        if a.radius <= 0:
            raise OriginNotInterior("zero ball has no interior")
        return ConvexBody.ball(1.0 / a.radius, a.dim)
    if a.affine_rank() < a.dim:
        raise OriginNotInterior("lower-dimensional body has no interior")
    A, b = a.facets()
    if np.min(b) <= VERTEX_TOL:
        raise OriginNotInterior("origin is not interior to the body")
    return ConvexBody.polytope(A / b[:, None])


def inradius(a: ConvexBody) -> float:
    """Radius of the largest centered-anywhere ball inside the body."""
    if a.is_empty:
        return 0.0
    if a.is_ball:
        return a.radius
    if a.affine_rank() < a.dim:
        return 0.0
    if a.dim == 1:
        return 0.5 * float(a.vertices.max() - a.vertices.min())
    from scipy.optimize import linprog

    A, b = a.facets()
    n = a.dim
    res = linprog(c=[0.0] * n + [-1.0],
                  A_ub=np.hstack([A, np.ones((len(A), 1))]), b_ub=b,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    return float(res.x[-1]) if res.success else 0.0


def direction_net(dim: int, count: int = 64) -> np.ndarray:
    """Deterministic set of unit directions used by containment heuristics."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    k = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(golden * k), r * np.sin(golden * k), z], axis=1)


def contains(a: ConvexBody, b: ConvexBody, tol: float = 1e-9) -> bool:
    """True iff b is a subset of a (within tol).

    Polytope-in-polytope is exact via vertex membership: when ``a`` is
    full-dimensional, all vertices of ``b`` are tested at once against the
    cached ``a.facets()``, each with the slack ``contains_point`` gives it;
    a lower-dimensional ``a`` falls back to ``contains_point`` per vertex.
    Ball cases reduce to support-function dominance on the facet normals of
    ``a``.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("containment needs equal dimensions")
    if b.is_empty:
        return True
    if a.is_empty:
        return False
    slack = tol * max(1.0, a.bounding_radius(), b.bounding_radius())
    if a.is_ball:
        if b.is_ball:
            return b.radius <= a.radius + slack
        return bool(np.all(np.linalg.norm(b.vertices, axis=1) <= a.radius + slack))
    if b.is_ball:
        if b.radius == 0.0:
            return contains_point(a, np.zeros(a.dim), tol)
        if a.affine_rank() < a.dim:
            return False
        A, bb = a.facets()
        return bool(np.min(bb) >= b.radius - slack)
    if a.affine_rank() < a.dim:
        return all(contains_point(a, v, tol) for v in b.vertices)
    A, bb = a.facets()
    verts = b.vertices
    scales = np.maximum(max(1.0, a.bounding_radius()), np.max(np.abs(verts), axis=1))
    return bool(np.all(verts @ A.T - bb <= (tol * scales)[:, None]))


def approx_equal(a: ConvexBody, b: ConvexBody, tol: float = 1e-9) -> bool:
    """Structural equality of canonical forms, up to tol."""
    if a.dim != b.dim or a.kind != b.kind:
        if {a.kind, b.kind} == {"ball", "polytope"} and a.is_point and b.is_point:
            pa = np.zeros(a.dim) if a.is_ball else a.vertices[0]
            pb = np.zeros(b.dim) if b.is_ball else b.vertices[0]
            return bool(np.max(np.abs(pa - pb)) <= tol)
        return False
    if a.is_empty:
        return True
    if a.is_ball:
        return abs(a.radius - b.radius) <= tol * max(1.0, a.radius)
    if len(a.vertices) != len(b.vertices):
        return False
    slack = tol * max(1.0, a.bounding_radius(), b.bounding_radius())
    d = np.linalg.norm(a.vertices[:, None, :] - b.vertices[None, :, :], axis=2)
    return bool(np.all(d.min(axis=1) <= slack) and np.all(d.min(axis=0) <= slack))


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def body_to_json(a: ConvexBody) -> dict:
    if a.is_empty:
        return {"type": "empty", "dim": a.dim}
    if a.is_ball:
        return {"type": "ball", "radius": a.radius, "dim": a.dim}
    return {"type": "polytope", "vertices": a.vertices.tolist()}


def body_from_json(obj: dict) -> ConvexBody:
    kind = obj.get("type")
    if kind == "empty":
        return ConvexBody.empty(int(obj["dim"]))
    if kind == "ball":
        return ConvexBody.ball(float(obj["radius"]), int(obj["dim"]))
    if kind == "polytope":
        return ConvexBody.polytope(obj["vertices"])
    raise ValueError(f"unknown body type {kind!r}")
