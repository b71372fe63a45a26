"""Convex bodies in R^1..R^3: canonical V-polytopes, centered balls, the empty set.

All bodies are immutable and safe to share between threads.  Polytope vertices
are canonicalized at construction by one rule, free of scale and position
(``_resolution``, ``_extreme_points``): the survivors are input rows, sorted
lexicographically, which makes structural equality testable.  Non-finite
coordinates, radii and scale factors are rejected with a ValueError that names
the value.  The rule's absolute term, 64 ulps of max|x|, sets the small end:
a body collapses along every direction in which it is thinner than ten times
that, about 1.4e-13 * max|x| (a triangle of width w at (c, c) is a segment
below w / c = 2.45e-13 and a point below 1.42e-13); at the origin the term
scales with the body, which keeps its rank while its volume underflows (0.0
for a triangle at scale 1e-162 and a tetrahedron at 2.2e-108).

The sum of two full-dimensional polygons merges their edges by angle: each
sum vertex is a vertex pair ``a[i] + b[j]``, the same floats the hull of all
pairs would keep, and only rings the merge cannot settle fall back to that
hull.  A polygon's ccw ring and a polytope's affine rank are cached on the
body; the rank is decided at construction when the vertices are the input
rows, is 2 for a merged sum and is carried by ``scale``, since the rule scales
with the body, else it is decided when first needed: in the plane by a 2x2
Gram certificate (``_certified_full_rank``) where that is beyond doubt, else
by one SVD.  A planar set takes Qhull only where a flat joint or a near
duplicate is left once its reflex joints are dropped.

In space a body takes one Qhull build.  ``polytope`` canonicalizes through
Qhull and keeps that hull's facet planes, neighbours and triangles, indexed
onto the sorted vertices, for ``facets``, ``volume`` and ``facet_measure``.
``convex_hull`` builds a second hull on the vertices only where none was
kept: ``_dedupe_rows`` dropped a near-duplicate vertex, Qhull needed the
``QJ`` retry (whose planes live in the affine frame), or the body was not
made by ``polytope`` (a ``scale`` image).

Balls are kept as an exact separate variant because the unit ball enters every
quermassintegral; Minkowski sums mixing a positive-radius ball with a polytope
are rejected rather than approximated (mixed volumes handle that case
analytically, see ``mixed_volumes``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DimensionMismatch,
    EmptyBody,
    NumericalFailure,
    OriginNotInterior,
    UnsupportedMix,
    check_scale,
    parsing_input,
)

VERTEX_TOL = 1e-10
COORD_LIMIT = 1e50  # the largest |coordinate| ``polytope`` takes (README)
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


# ---------------------------------------------------------------------------
# hull helpers (raw vertex arrays)
# ---------------------------------------------------------------------------

def _dedupe_rows(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop rows that are within tol (max norm) of an earlier kept row.

    Above 48 rows, rows are matched by their coordinates rounded to multiples
    of tol instead, keeping the first row of each match.
    """
    if len(points) <= 48:
        close = np.abs(points[:, None, 0] - points[None, :, 0])
        for k in range(1, points.shape[1]):
            np.maximum(close, np.abs(points[:, None, k] - points[None, :, k]), out=close)
        close = close <= tol
        if np.count_nonzero(close) == len(points):  # the diagonal alone
            return points.copy()
        close = np.tril(close, k=-1)
        keep = ~close.any(axis=1)
        # a row near only dropped rows survives, so settle those in order
        for i in np.flatnonzero(~keep):
            keep[i] = not np.any(close[i] & keep)
        return points[keep]
    keys = np.round(points / max(tol, 1e-300)).astype(np.int64)
    order = np.lexsort(keys.T)  # stable: each run of equal keys starts at its first row
    ranked = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return points[np.sort(order[first])]


def _successors(ring: np.ndarray) -> np.ndarray:
    """Each row of a closed ring followed by the next: the ring shifted by one."""
    return np.concatenate((ring[1:], ring[:1]))


def _turns(ring: np.ndarray) -> np.ndarray:
    """(a - o) x (p - o) at every joint a of a closed ring, o and p its ring
    neighbours: twice the area of the triangle the joint cuts off."""
    o = np.concatenate((ring[-1:], ring[:-1]))
    p = _successors(ring)
    return ((ring[:, 0] - o[:, 0]) * (p[:, 1] - o[:, 1])
            - (ring[:, 1] - o[:, 1]) * (p[:, 0] - o[:, 0]))


def _resolution(points: np.ndarray, tol: float = VERTEX_TOL):
    """(dist, e), the one rule that decides what a point set is: e is the
    largest max-norm distance from the mean and dist = tol * e + 64 ulps of
    max|x|.  Points within dist are one point, a ring joint turning at most
    dist * e is flat, and the rank counts singular values above 10 * dist.
    Moving the set moves only the ulp term; scaling it scales both."""
    e = float(np.abs(points - points.mean(axis=0)).max())
    return tol * e + 2.0 ** -46 * float(np.abs(points).max()), e  # 64 ulps of 1


def _is_strict_ring(ring: np.ndarray, dist: float, e: float) -> bool:
    """True when every point of this ccw ring is a vertex under the rule of
    ``_resolution``: no joint is flat and no two points are one."""
    return (len(ring) >= 3 and bool(np.all(_turns(ring) > dist * e))
            and len(_dedupe_rows(ring, dist)) == len(ring))


def _drop_reflex_joints(ring: np.ndarray, dist: float, e: float) -> np.ndarray:
    """A ring sorted by angle about its set's mean less every joint turning
    below -dist * e, repeated until none is left.  The mean is interior to
    the hull of a full-rank set, so a reflex joint lies in the triangle of
    the mean and its neighbours and is no vertex (Graham's rule); the hull
    of what remains is the hull of the set."""
    while len(ring) > 3:
        keep = _turns(ring) >= -dist * e
        if keep.all():
            break
        ring = ring[keep]
    return ring


def _drop_flat_joints(ring: np.ndarray, flat: float) -> np.ndarray:
    """The ccw ring without its flat joints (turn at most ``flat``), dropped
    flattest first, each drop turning its neighbours anew; a triangle stays."""
    while len(ring) > 3 and (turns := _turns(ring)).min() <= flat:
        ring = np.delete(ring, int(np.argmin(turns)), axis=0)
    return ring


def _certified_full_rank(points: np.ndarray, dist: float, e: float) -> bool:
    """True when a planar set has rank 2 under the rule of ``_resolution``
    beyond doubt, so no SVD need count its singular values: the smallest
    eigenvalue of the centred 2x2 Gram matrix, in closed form on the
    coordinates over e (which cannot overflow), clears (10 * dist / e)^2 by
    more than the rounding of that closed form and of the SVD it stands in
    for.  False decides nothing."""
    if not 0.0 < e < math.inf:
        return False
    y = (points - points.mean(axis=0)) / e
    (a, b), (_, c) = (y.T @ y).tolist()
    t = 10.0 * dist / e
    least = 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)
    return least > t * t + 2.0 ** -44 * (len(points) + 8) * (a + c)


def _affine_frame(points: np.ndarray, dist: Optional[float] = None):
    """(origin, orthonormal basis U) of the affine hull; its rank U.shape[1]
    counts singular values above 10 * dist, by default the points' own.
    Callers that need only a planar set's rank ask ``_certified_full_rank``
    first and take this SVD where it cannot decide."""
    if dist is None:
        dist = _resolution(points)[0]
    origin = points.mean(axis=0)
    _, s, vt = np.linalg.svd(points - origin, full_matrices=False)
    rank = int(np.sum(s > 10.0 * dist))
    return origin, vt[:rank].T


class Hull(NamedTuple):
    """What the 3-D kernel reads of a Qhull hull, indexed onto a body's
    vertices: the facet planes (unit outer normal, offset), the three
    facets across each triangle's edges (the one opposite vertex k at k),
    and the triangles."""

    equations: np.ndarray
    neighbors: np.ndarray
    simplices: np.ndarray


def _extreme_points(pts: np.ndarray):
    """(extreme points, rank, cache) of conv(pts): rows of pts in lexicographic
    order, the affine rank of pts, and what the body may keep.

    One ``_resolution`` of pts at ``VERTEX_TOL`` decides the rank, the near
    duplicates and the flat joints; a set in the plane takes the rank from
    ``_certified_full_rank`` where it decides, else from one SVD.  A rank-2
    set is sorted by angle about its mean (``_ccw_order``) and loses its
    reflex joints (``_drop_reflex_joints``), which are no vertices.  Where
    what remains is in strictly convex position (no flat joint, no near
    duplicate) it is the vertex list that Qhull and the rule below would
    give; a set that lost no point keeps its ring as ``_ring``.  Any other
    full-rank set takes one Qhull build, joggled (``QJ``) where plain Qhull
    refuses it.  A polygon (in space, in its frame coordinates) keeps
    Qhull's vertices less near duplicates, the lexicographically first
    surviving, and drops their flat joints flattest first; Qhull's ring
    starts elsewhere, so facet sums would add in another order, and is not
    kept.  A solid keeps its ``_hull`` when
    every Qhull vertex survives ``_dedupe_rows``.
    """
    dim = pts.shape[1]
    dist, e = _resolution(pts)
    if dim == 2 and _certified_full_rank(pts, dist, e):
        rank = 2
    else:
        origin, basis = _affine_frame(pts, dist)
        rank = basis.shape[1]
    if rank == 0:
        return pts[:1].copy(), 0, {}
    if rank == 1:
        coords = (pts - origin) @ basis[:, 0]
        ends = pts[[int(np.argmin(coords)), int(np.argmax(coords))]]
        return _sort_lex(_dedupe_rows(ends, dist)), 1, {}
    # a polygon in space is settled in its frame coordinates
    coords = pts if rank == dim else (pts - origin) @ basis
    work = _sort_lex(coords) if rank == 2 else pts
    if rank == 2 and _is_strict_ring(ring := _drop_reflex_joints(_ccw_order(work), dist, e),
                                     dist, e):
        # these are Qhull's vertices; a ring that lost points is not kept, as below
        verts, cache = (work, {"_ring": ring}) if len(ring) == len(work) else (_sort_lex(ring), {})
    else:
        try:
            hull, joggled = ConvexHull(work), False
        except QhullError:
            # nearly degenerate: joggle a polygon as it is (its ring stays
            # ccw) and a solid in its frame, whose planes are not kept
            frame = work if rank == 2 else (work - origin) @ basis
            hull, joggled = ConvexHull(frame, qhull_options="QJ"), True
        verts = work[hull.vertices]
        if rank == 3:
            kept = _dedupe_rows(verts, dist)
            if joggled or len(kept) < len(verts):
                # a dropped near duplicate still spans triangles of this hull
                return _sort_lex(kept), 3, {}
            order = _lex_order(verts)
            slot = np.empty(len(pts), dtype=np.intp)
            slot[hull.vertices[order]] = np.arange(len(order))
            return verts[order], 3, {"_hull": Hull(hull.equations, hull.neighbors,
                                                   slot[hull.simplices])}
        # Qhull's 2-D ring is ccw; near duplicates go in lexicographic order
        kept = _dedupe_rows(work[np.sort(hull.vertices)], dist)
        ring = verts if len(kept) == len(verts) else _ccw_order(kept)
        verts, cache = _sort_lex(_drop_flat_joints(ring, dist * e)), {}
    if rank < dim:
        rows = {q.tobytes(): p for q, p in zip(coords, pts)}  # the input row of each
        return _sort_lex(np.array([rows[q.tobytes()] for q in verts])), 2, {}
    return verts, 2, cache


def _lex_order(verts: np.ndarray) -> np.ndarray:
    return np.lexsort(tuple(verts[:, k] for k in reversed(range(verts.shape[1]))))


def _sort_lex(verts: np.ndarray) -> np.ndarray:
    return verts[_lex_order(verts)]


def _ccw_order(verts: np.ndarray) -> np.ndarray:
    """Vertices of a convex polygon in counterclockwise order."""
    center = verts.mean(axis=0)
    ang = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
    return verts[np.argsort(ang)]


def _merged_ring(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Boundary of ra + rb for two ccw convex rings, by angle-sorted edge merging.

    Each ring starts at its lowest (then leftmost) vertex, so its edge angles
    rise through [0, 2 pi) and the sum starts at the sum of those vertices.
    The merge takes one edge per step, from ``ra`` on ties, and each point is
    ``ra[i] + rb[j]`` for the edges (i, j) taken so far: the same floats as the
    corresponding vertex pair.  Parallel edges leave their joint on the ring.
    """

    def edge_angles(r):
        start = int(np.lexsort((r[:, 0], r[:, 1]))[0])
        idx = (np.arange(len(r) + 1) + start) % len(r)
        e = r[idx[1:]] - r[idx[:-1]]
        ang = np.arctan2(e[:, 1], e[:, 0])
        return idx[:-1], np.where(ang < 0.0, ang + 2.0 * np.pi, ang)

    ia, aa = edge_angles(ra)
    ib, ab = edge_angles(rb)
    from_a = np.argsort(np.concatenate([aa, ab]), kind="stable") < len(ra)
    i = np.concatenate(([0], np.cumsum(from_a)[:-1]))
    j = np.arange(len(from_a)) - i
    return ra[ia[i % len(ra)]] + rb[ib[j % len(rb)]]


def _prune_convex_ring(ring: np.ndarray, dist: float, e: float) -> Optional[np.ndarray]:
    """Lexicographically sorted vertices of a ccw ring from ``_merged_ring``
    under the rule (dist, e), or None where only a hull can settle them: a
    flat joint whose neighbours both turn (the point parallel edges leave
    mid-edge) is dropped, and what remains must be a strict ring."""
    flat = _turns(ring) <= dist * e
    kept = ring[~(flat & ~np.concatenate((flat[-1:], flat[:-1])) & ~_successors(flat))]
    return _sort_lex(kept) if _is_strict_ring(kept, dist, e) else None


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
        if self.kind == "ball" and not 0.0 <= self.radius < math.inf:
            raise ValueError(f"ball radius must be finite and nonnegative, got {self.radius}")
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
        bad = pts[~np.isfinite(pts)]
        if bad.size:
            raise ValueError(f"polytope vertex coordinates must be finite, got {bad[0]}")
        bad = pts[np.abs(pts) > COORD_LIMIT]
        if bad.size:
            raise ValueError(f"polytope coordinates must lie in ±{COORD_LIMIT:g}, got {bad[0]}")
        return cls._from_points(pts)

    @classmethod
    def _from_points(cls, pts: np.ndarray) -> "ConvexBody":
        """conv of finite points, unchecked: a sum may leave ``COORD_LIMIT``."""
        verts, rank, cache = _extreme_points(pts)
        body = cls(dim=pts.shape[1], kind="polytope", vertices=verts)
        if len(verts) == len(pts):
            # the vertices are the input rows, whose rank is decided already
            body.__dict__["_affine_rank"] = rank
        body.__dict__.update(cache)
        return body

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
        with np.errstate(over="ignore"):  # squares of coordinates beyond 1e154
            radius = float(np.max(np.linalg.norm(self.vertices, axis=1)))
        if radius == math.inf:
            unit = float(np.abs(self.vertices).max())
            radius = unit * float(np.max(np.linalg.norm(self.vertices / unit, axis=1)))
        return radius

    def affine_rank(self) -> int:
        if self.is_empty:
            return -1
        if self.is_ball:
            return self.dim if self.radius > 0 else 0
        if len(self.vertices) == 1:
            return 0
        cached = self.__dict__.get("_affine_rank")
        if cached is None:
            dist, e = _resolution(self.vertices)
            if self.dim == 2 and _certified_full_rank(self.vertices, dist, e):
                cached = 2
            else:
                cached = _affine_frame(self.vertices, dist)[1].shape[1]
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
            ring = polygon_ring(self)
            A, _ = _polygon_edges(ring)
            b = np.einsum("ij,ij->i", A, ring)
        else:
            hull = convex_hull(self)
            A = hull.equations[:, :3]
            b = -hull.equations[:, 3]
        self.__dict__["_facets"] = (A, b)
        return A, b


class DegenerateFacets(ValueError):
    pass


def _polygon_area(ring: np.ndarray) -> float:
    """Shoelace area of a convex polygon given as a ccw ring."""
    x, y = ring[:, 0], ring[:, 1]
    return float(0.5 * abs(np.dot(x, _successors(y)) - np.dot(y, _successors(x))))


def _polygon_edges(ring: np.ndarray):
    """(unit outer edge normals, edge lengths) of a convex polygon given as a
    ccw ring; edge k runs from ring[k] to the next point."""
    edges = _successors(ring) - ring
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    norms = np.linalg.norm(normals, axis=1)
    return normals / norms[:, None], norms


def polygon_ring(body: ConvexBody) -> np.ndarray:
    """A polygon's vertices in ccw order (``_ccw_order``), built once per body."""
    ring = body.__dict__.get("_ring")
    if ring is None:
        ring = _ccw_order(body.vertices)
        body.__dict__["_ring"] = ring
    return ring


def convex_hull(body: ConvexBody) -> Hull:
    """The hull of a full-dimensional 3-D polytope: the one ``polytope`` kept
    from canonicalizing, else one Qhull build on the vertices, cached."""
    hull = body.__dict__.get("_hull")
    if hull is None:
        built = ConvexHull(body.vertices)
        hull = Hull(built.equations, built.neighbors, built.simplices)
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
        origin, basis = _affine_frame(verts)
        if n == 2:
            coords = verts @ basis[:, 0]
            d = verts[int(np.argmax(coords))] - verts[int(np.argmin(coords))]
            size = float(np.linalg.norm(d))
            u = np.array([d[1], -d[0]]) / size
        else:
            size = _polygon_area(_ccw_order((verts - origin) @ basis))
            u = np.cross(basis[:, 0], basis[:, 1])
        U, w = np.stack([u, -u]), np.array([size, size])
    elif n == 2:
        U, w = _polygon_edges(polygon_ring(body))
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

_BLOCK = 2 ** 14  # entries per block of ``affine_values``: temporaries the allocator reuses


def affine_values(A: np.ndarray, x: np.ndarray, c: Optional[np.ndarray] = None) -> np.ndarray:
    """A x + c at every row of x, laid out (rows of A, points).

    Each entry is the coordinate sum ((a_0 x_0 + a_1 x_1) + a_2 x_2) + c_i,
    one IEEE operation at a time, so a point gets the same floats alone as
    in any batch and in any block of rows of A.
    """
    xt = np.ascontiguousarray(x.T)
    out = np.empty((len(A), len(x)))
    step = max(1, _BLOCK // max(1, len(x)))
    for i in range(0, len(A), step):
        block = out[i:i + step]
        np.multiply(A[i:i + step, :1], xt[0], out=block)
        for k in range(1, A.shape[1]):
            block += A[i:i + step, k:k + 1] * xt[k]
        if c is not None:
            block += c[i:i + step, None]
    return out


def point_norms(x: np.ndarray) -> np.ndarray:
    """|x| at every row of x from the coordinate sum of squares."""
    return np.sqrt(sum(x[:, k] * x[:, k] for k in range(x.shape[1])))


def _flat_margins(verts: np.ndarray, x: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """-1 where a row of x lies within its slack of conv(verts), a hull of
    affine rank below n, else +1: every row projects onto one affine frame."""
    if len(verts) == 1:
        return np.where(np.abs(x - verts[0]).max(axis=1) <= slack, -1.0, 1.0)
    origin, basis = _affine_frame(verts)
    d = x - origin
    coords = affine_values(basis.T, d)  # (rank, points)
    inside = point_norms(d - affine_values(basis, coords.T).T) <= slack
    ends = affine_values(basis.T, verts - origin).T
    if basis.shape[1] == 1:
        inside &= (ends.min() - slack <= coords[0]) & (coords[0] <= ends.max() + slack)
    else:
        ring = _ccw_order(ends)
        A, _ = _polygon_edges(ring)  # canonical vertices leave no zero-length edge
        inside &= affine_values(A, coords.T, -np.einsum("ij,ij->i", A, ring)).max(axis=0) <= slack
    return np.where(inside, -1.0, 1.0)


def membership_margin(body: ConvexBody, x, tol: float = 1e-9):
    """Signed slack of x against the body: at most 0 iff x lies in it
    (within tol), positive outside: the one membership rule.  An (m, n)
    array x gets one margin per row; a point is a one-row batch, so its
    margin does not depend on the batch it comes in.

    A full-dimensional polytope gives ``max(A x - b) - tol * scale`` on its
    cached ``facets()``, with scale ``max(1, bounding radius, max|x_i|)``; a
    ball gives ``|x| - (r + tol * max(1, r))``; the empty body +inf.  A
    lower-dimensional polytope gives -1 inside and +1 outside.
    """
    x = np.asarray(x, dtype=float)
    (margins,) = _margins([body], np.atleast_2d(x), tol)
    return float(margins[0]) if x.ndim == 1 else margins


def _margins(bodies, rows: np.ndarray, tol: float = 1e-9):
    """``membership_margin`` of an (m, n) batch against each body in turn;
    the batch is transposed and its max|x_i| found once for all of them."""
    if any(body.is_polytope for body in bodies):
        # coordinates first: faster reductions, and no copy in ``affine_values``
        xt = np.ascontiguousarray(rows.T)
        xmax = np.abs(xt).max(axis=0)
    for body in bodies:
        if body.is_empty:
            yield np.full(len(rows), math.inf)
        elif body.is_ball:
            yield point_norms(rows) - (body.radius + tol * max(1.0, body.radius))
        else:
            scale = np.maximum(max(1.0, body.bounding_radius()), xmax)
            if body.affine_rank() == body.dim:
                A, b = body.facets()
                yield affine_values(A, xt.T, -b).max(axis=0) - tol * scale
            else:
                yield _flat_margins(body.vertices, rows, tol * scale)


def contains_point(body: ConvexBody, x, tol: float = 1e-9) -> bool:
    """True iff x lies in the body (within tol): ``membership_margin`` <= 0."""
    return membership_margin(body, x, tol) <= 0.0


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
    if a.dim == 2 and a.affine_rank() == 2 and b.affine_rank() == 2:
        ring = _merged_ring(polygon_ring(a), polygon_ring(b))
        verts = _prune_convex_ring(ring, *_resolution(ring))
        if verts is not None:
            out = ConvexBody(dim=2, kind="polytope", vertices=verts)
            out.__dict__["_affine_rank"] = 2  # a sum of two polygons is one
            return out
    pts = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    return ConvexBody._from_points(pts)


def scale(a: ConvexBody, lam: float) -> ConvexBody:
    """Homothet lam * a, lam > 0."""
    check_scale(lam)
    if a.is_empty:
        return a
    if a.is_ball:
        return ConvexBody.ball(a.radius * lam, a.dim)
    out = ConvexBody(dim=a.dim, kind="polytope", vertices=_sort_lex(a.vertices * lam))
    if "_affine_rank" in a.__dict__:  # the rule of ``_resolution`` scales with the body
        out.__dict__["_affine_rank"] = a.__dict__["_affine_rank"]
    return out


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
        return _polygon_area(polygon_ring(a))
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


def _polygon_inradius(A: np.ndarray, b: np.ndarray) -> float:
    """Inradius of the polygon {x : A x <= b}, its unit edge normals in ccw
    order, by pushing every edge inward at unit speed.

    At time t the polygon is {A x <= b - t}.  An edge shrinks to a point when
    the offset lines of the edge and its two current neighbours meet; the
    edge that does so first drops out, and its neighbours, now adjacent,
    get new meeting times.  When three edges are left, their meeting point is
    the Chebyshev centre (the optimum of max r subject to A x + r <= b), and
    the radius returned is the largest ball that centre admits, min(b - A x),
    so a rounding error can only make it smaller.  O(m log m) for an m-gon.
    """
    normals, offsets = A.tolist(), b.tolist()
    m = len(normals)
    prv, nxt = [m - 1, *range(m - 1)], [*range(1, m), 0]
    version = [0] * m

    def meeting(i):
        """(t, x, y): where the offset lines of i and its neighbours meet."""
        (ax, ay), ai = normals[i], offsets[i]
        (px, py), (qx, qy) = normals[prv[i]], normals[nxt[i]]
        u1, v1, c1 = px - ax, py - ay, offsets[prv[i]] - ai
        u2, v2, c2 = qx - ax, qy - ay, offsets[nxt[i]] - ai
        det = u1 * v2 - u2 * v1
        x, y = (c1 * v2 - c2 * v1) / det, (u1 * c2 - u2 * c1) / det
        return ai - ax * x - ay * y, x, y

    heap = [(meeting(i)[0], i, 0) for i in range(m)]
    heapq.heapify(heap)
    for _ in range(m - 3):
        _, i, ver = heapq.heappop(heap)
        while ver != version[i]:  # stale: a neighbour has dropped out since
            _, i, ver = heapq.heappop(heap)
        version[i] = -1
        p, q = prv[i], nxt[i]
        nxt[p], prv[q] = q, p
        for j in (p, q):
            version[j] += 1
            heapq.heappush(heap, (meeting(j)[0], j, version[j]))
    last = next(i for i in range(m) if version[i] >= 0)
    _, x, y = meeting(last)
    return float(np.min(b - A @ np.array([x, y])))


def inradius(a: ConvexBody) -> float:
    """Radius of the largest centered-anywhere ball inside the body.

    A polygon's is exact and needs no LP (``_polygon_inradius``).  In
    3-space the Chebyshev-centre LP is solved with HiGHS; a failed solve
    raises ``NumericalFailure``.
    """
    if a.is_empty:
        return 0.0
    if a.is_ball:
        return a.radius
    if a.affine_rank() < a.dim:
        return 0.0
    if a.dim == 1:
        return 0.5 * float(a.vertices.max() - a.vertices.min())
    A, b = a.facets()
    if a.dim == 2:
        # offsets measured from a vertex: b itself can be far larger than the
        # polygon and would cost its inradius that many digits
        ring = polygon_ring(a)
        return _polygon_inradius(A, np.einsum("ij,ij->i", A, ring - ring[0]))
    from scipy.optimize import linprog

    n = a.dim
    res = linprog(c=[0.0] * n + [-1.0],
                  A_ub=np.hstack([A, np.ones((len(A), 1))]), b_ub=b,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise NumericalFailure(f"Chebyshev-centre LP failed: {res.message}")
    return float(res.x[-1])


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

    A polytope or a point ``b`` is exact via vertex membership: every
    vertex has a ``membership_margin`` in ``a`` of at most 0.  A ball ``b``
    reduces to support-function dominance on the facet normals of ``a``.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("containment needs equal dimensions")
    if b.is_empty:
        return True
    if a.is_empty:
        return False
    if b.is_polytope or b.radius == 0.0:
        points = b.vertices if b.is_polytope else np.zeros((1, b.dim))
        return bool(np.all(membership_margin(a, points, tol) <= 0.0))
    slack = tol * max(1.0, a.bounding_radius(), b.radius)
    if a.is_ball:
        return b.radius <= a.radius + slack
    if a.affine_rank() < a.dim:
        return False
    return bool(np.min(a.facets()[1]) >= b.radius - slack)


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
    ra, rb = a.bounding_radius(), b.bounding_radius()
    slack = tol * max(1.0, ra, rb)
    # matched vertices within slack put the largest norms within slack; the
    # margin covers the rounding of both norms and of the differences (for
    # coordinates whose squares do not underflow), so this rejects nothing
    # that the all-pairs test below accepts
    if abs(ra - rb) > 2.0 * slack + 8.0 * np.finfo(float).eps * max(ra, rb):
        return False
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


@parsing_input()
def body_from_json(obj: dict) -> ConvexBody:
    kind = obj.get("type")
    if kind == "empty":
        return ConvexBody.empty(int(obj["dim"]))
    if kind == "ball":
        return ConvexBody.ball(float(obj["radius"]), int(obj["dim"]))
    if kind == "polytope":
        return ConvexBody.polytope(obj["vertices"])
    raise ValueError(f"unknown body type {kind!r}")
