"""Mixed volumes V(K_1, ..., K_n), Minkowski polynomial fits, quermassintegrals.

Mixed volumes come from facet measures (Schneider, *Convex Bodies: The
Brunn-Minkowski Theory*, ch. 5): with (u_F, w_F) the unit normals and
(n-1)-measures of the facets of K (``bodies.facet_measure``, cached on the
body),

    V(K, ..., K)   = Vol(K)                                  (cached volume)
    V(K, L)        = 1/2 sum_{F of K} h_L(u_F) w_F           (plane)
    V(K, K, L)     = 1/3 sum_{F of K} h_L(u_F) w_F           (space)
    V(K, L, M)     = 1/6 sum_{e of K, f of L crossing} h_M(+-e x f),

the last over the edges whose arcs on the Gauss images of K and L cross
(``_crossing_terms``), so no tuple of solids costs a Minkowski sum.  Where a
crossing is undecided at round-off (parallel edges, a facet normal on an
arc) or K or L is not a solid, V(K, L, M) = 1/6 [sum_{K+L} - sum_K - sum_L]
h_M(u_F) w_F costs one.  A ball goes to the h slot, where h = r, so every
ball mixture is exact: the quermassintegral patterns V(K, ..., K, B, ..., B)
use closed forms (perimeter, surface area, edge exterior angles) and
V(K, L, B(r)) is r/6 sum |e x f| over the crossings.

`minkowski_polynomial` recovers the same coefficients from a deterministic
grid fit of Vol(sum eps_i K_i) and serves as an independent oracle: it reads
volumes only, never facet measures.  For positive weights the normal fan of
sum eps_i K_i does not depend on eps, so in the plane and in space its grid
values come from one triangulation of the vertex-tuple family, not from one
hull per grid point (``_tuple_volumes``).  On the line, for a body of affine
rank below n, and where Qhull fails on the tuple cloud, each grid point's sum
is built and measured on its own.  The fit is also the only place that
substitutes a fixed polytope for the unit ball (`unit_ball_polytope`), since
a fit needs bodies it can add and measure: the Minkowski average of the
inscribed and circumscribed regular 128-gon in the plane, the Minkowski
average of a geodesic 320-facet sphere and its polar dual in 3-space, and the
exact segment [-1, 1] on the line, each rescaled to the exact ball volume.
Measured support-function error of the stand-ins: about 5e-5 (2-D) and 3e-3
(3-D).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .bodies import (
    ConvexBody,
    UNIT_BALL_VOLUME,
    QhullError,
    _affine_frame,
    _ccw_order,
    _polygon_area,
    _polygon_edges,
    approx_equal,
    convex_hull,
    facet_measure,
    minkowski_sum,
    polar,
    scale,
    volume,
)
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    NumericalFailure,
    SingularSystem,
)

BALL_NGON = 128          # 2-D: inscribed/circumscribed regular-gon average
SPHERE_FREQUENCY = 4     # 3-D: icosahedron subdivision, 20 * f^2 = 320 facets


# ---------------------------------------------------------------------------
# unit ball substitutes
# ---------------------------------------------------------------------------

def _icosphere_points(freq: int) -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    base = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    base /= np.linalg.norm(base[0])
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    pts = []
    for ia, ib, ic in faces:
        a, b, c = base[ia], base[ib], base[ic]
        for i in range(freq + 1):
            for j in range(freq + 1 - i):
                p = a * (freq - i - j) + b * i + c * j
                pts.append(p / np.linalg.norm(p))
    return np.array(pts)


@lru_cache(maxsize=4)
def unit_ball_polytope(dim: int) -> ConvexBody:
    """Fixed polytope substitute for the unit ball, volume-matched exactly."""
    if dim == 1:
        return ConvexBody.interval(-1.0, 1.0)
    if dim == 2:
        m = BALL_NGON
        ang_in = 2.0 * np.pi * np.arange(m) / m
        inscribed = ConvexBody.polytope(np.stack([np.cos(ang_in), np.sin(ang_in)], axis=1))
        rho = 1.0 / math.cos(math.pi / m)
        ang_out = ang_in + math.pi / m
        circumscribed = ConvexBody.polytope(
            rho * np.stack([np.cos(ang_out), np.sin(ang_out)], axis=1))
        avg = minkowski_sum(scale(inscribed, 0.5), scale(circumscribed, 0.5))
        return scale(avg, (UNIT_BALL_VOLUME[2] / volume(avg)) ** 0.5)
    inscribed = ConvexBody.polytope(_icosphere_points(SPHERE_FREQUENCY))
    avg = minkowski_sum(scale(inscribed, 0.5), scale(polar(inscribed), 0.5))
    return scale(avg, (UNIT_BALL_VOLUME[3] / volume(avg)) ** (1.0 / 3.0))


def _resolve(body: ConvexBody) -> ConvexBody:
    """Replace a ball by the scaled unit-ball polytope; pass others through."""
    if body.is_ball:
        if body.radius == 0.0:
            return ConvexBody.polytope(np.zeros((1, body.dim)))
        return scale(unit_ball_polytope(body.dim), body.radius)
    return body


# ---------------------------------------------------------------------------
# exact quermassintegrals of polytopes
# ---------------------------------------------------------------------------

class GaussArcs(NamedTuple):
    """The edges of a full-dimensional 3-D polytope, one row each.

    Edge e joins facets with outer unit normals n1, n2 and carries the arc
    of the Gauss image from n1 to n2 (the edge's normal cone).  ``d`` is the
    edge vector, oriented so that d . (n1 x n2) > 0; then a unit u _|_ d lies
    on the arc iff u . p >= 0 and u . q >= 0 for p = d x n1 and q = n2 x d.
    ``ends`` stacks n1 over -n2: since p x d = |d|^2 n1 and q x d = -|d|^2 n2,
    the two signs of w = d x d' for an edge vector d' are those of
    ``ends @ d'``, on rows e and E + e.
    """

    d: np.ndarray       # (E, 3) edge vectors
    unit: np.ndarray    # (E, 3) d / |d|
    ends: np.ndarray    # (2E, 3) n1 rows, then -n2 rows


def _arc_index(body: ConvexBody) -> np.ndarray:
    """(4, E) int32 rows (tail, head, facet of n1, facet of n2) into the
    vertices and the ``convex_hull`` planes, one column per edge whose two
    triangles have different planes; cached on the body, which keeps its
    hull anyway.  Qhull gives the triangles of one facet identical planes,
    so the seams of its triangulation drop out exactly."""
    index = body.__dict__.get("_arc_index")
    if index is None:
        hull = convex_hull(body)
        f, k = np.nonzero(hull.neighbors > np.arange(len(hull.neighbors))[:, None])
        g = hull.neighbors[f, k]
        ridge = np.any(hull.equations[f] != hull.equations[g], axis=1)
        f, k, g = f[ridge], k[ridge], g[ridge]
        ends = hull.simplices[f[:, None], (k[:, None] + [1, 2]) % 3]
        d = body.vertices[ends[:, 1]] - body.vertices[ends[:, 0]]
        flip = np.einsum("ij,ij->i", d, np.cross(hull.equations[f, :3], hull.equations[g, :3])) < 0
        ends[flip] = ends[flip, ::-1]
        index = np.stack([ends[:, 0], ends[:, 1], f, g]).astype(np.int32)
        body.__dict__["_arc_index"] = index
    return index


def _gauss_arcs(body: ConvexBody) -> GaussArcs:
    """The body's `GaussArcs`, from its cached ``_arc_index``."""
    index = _arc_index(body)
    d = np.take(body.vertices, index[1], axis=0) - np.take(body.vertices, index[0], axis=0)
    ends = np.take(convex_hull(body).equations, index[2:].ravel(), axis=0)[:, :3]
    ends[len(d):] *= -1.0
    return GaussArcs(d, d / np.sqrt(np.einsum("ij,ij->i", d, d))[:, None], ends)


def _edge_angle_sum_3d(body: ConvexBody) -> float:
    """Sum over edges of length * exterior angle (the edge's normal-cone angle).

    A solid sums over its `_gauss_arcs`, which leave out the seams of
    Qhull's triangulation (angle 0).  A flat polygon's edges have exterior
    angle pi, a segment's 2 pi.
    """
    rank = body.affine_rank()
    verts = body.vertices
    if rank <= 0:
        return 0.0
    if rank < 3:
        origin, basis = _affine_frame(verts)
        coords = (verts - origin) @ basis
        if rank == 1:
            return 2.0 * math.pi * float(coords.max() - coords.min())
        return math.pi * float(_polygon_edges(_ccw_order(coords))[1].sum())
    arcs = _gauss_arcs(body)
    n1, minus_n2 = np.split(arcs.ends, 2)
    # atan2 keeps small angles exact, where acos(dot) would turn one ulp of
    # the dot product into an angle of 1.5e-8
    angle = np.arctan2(np.linalg.norm(np.cross(n1, minus_n2), axis=1),
                       -np.einsum("ij,ij->i", n1, minus_n2))
    return float(np.sum(np.linalg.norm(arcs.d, axis=1) * angle))


def _quermass_exact(body: ConvexBody, i: int) -> float:
    """W_i(K) of a polytope for 0 < i < n, in closed form.

    From Vol(K + tD) = sum_k C(n,k) W_k(K) t^k: W_1 = S(K)/n, the facet
    measure's total mass, and in 3-space W_2 = (1/6) sum_edges length *
    exterior angle.  Values are memoized on the (immutable) body.
    """
    cache = body.__dict__.setdefault("_quermass", {})
    if i not in cache:
        if i == 1:
            cache[i] = float(facet_measure(body)[1].sum()) / body.dim
        else:
            cache[i] = _edge_angle_sum_3d(body) / 6.0
    return cache[i]


# ---------------------------------------------------------------------------
# mixed volumes from facet measures
# ---------------------------------------------------------------------------

def _weighted_sum(bodies, weights) -> ConvexBody:
    """sum w_i K_i over the nonzero weights, added left to right."""
    acc = None
    for body, w in zip(bodies, weights):
        if w != 0:
            term = scale(body, float(w))
            acc = term if acc is None else minkowski_sum(acc, term)
    return acc


# Nothing in qcvx calls these.  The benchmark tracer (bench/tracer.py) binds
# both names at install and fails without them, so they stay until it drops
# them.
_SUM_VOLUME_CACHE: dict = {}


def _cached_sum_volume(reps, counts) -> float:
    key = tuple(sorted((id(b), c) for b, c in zip(reps, counts) if c))
    hit = _SUM_VOLUME_CACHE.get(key)
    if hit is not None:
        return hit[0]
    val = volume(_weighted_sum(reps, counts))
    if len(_SUM_VOLUME_CACHE) > 65536:
        _SUM_VOLUME_CACHE.clear()
    _SUM_VOLUME_CACHE[key] = (val, tuple(b for b, c in zip(reps, counts) if c))
    return val


def _group_distinct(bodies):
    """Collapse equal-by-identity/value bodies into (body, multiplicity) pairs."""
    groups: list[tuple[ConvexBody, int]] = []
    for body in bodies:
        for k, (rep, mult) in enumerate(groups):
            if rep is body or approx_equal(rep, body, 1e-12):
                groups[k] = (rep, mult + 1)
                break
        else:
            groups.append((body, 1))
    return groups


def _facet_terms(measured: ConvexBody, h_body: ConvexBody, coef: float) -> np.ndarray:
    """coef * h_{h_body}(u_F) * w_F over the facets F of ``measured``."""
    U, w = facet_measure(measured)
    if h_body.is_ball:
        h = np.full(len(w), h_body.radius)
    else:
        h = np.max(U @ h_body.vertices.T, axis=1)
    return coef * h * w


# |ends @ unit| at most this is a sign lost to round-off: the two edges are
# parallel or a facet normal of one lies on an arc of the other
CROSSING_TOL = 1e-12


def _crossing_terms(bodies):
    """|w| h_M(w/|w|) / 6 over the crossings of the Gauss images of K and L,
    or None where only the sum hull can settle V(K, L, M).

    The atoms of the mixed area measure S(K, L; .) of two polytopes sit at
    the crossings u of an arc of an edge e of K with an arc of an edge f of
    L, u = +-w/|w| for w = e x f, each of mass |w|/2 (Schneider, *Convex
    Bodies*, sections 4.2 and 5.1); V(K, L, M) = 1/3 sum h_M(u) S(K, L; {u}).
    K and L are the two solids with the fewest edges and M, the h slot, is
    the ball or the third body.  u = w/|w| lies on both arcs iff the four
    signs below are positive, -w/|w| iff all are negative.  None where K or
    L is not a solid, or a sign within ``CROSSING_TOL`` of 0 leaves a pair
    undecided (parallel edges, a facet normal on an arc).
    """
    def edges(b):
        return _arc_index(b).shape[1] if b.is_polytope and b.affine_rank() == 3 else math.inf

    k, l, m = sorted(bodies, key=lambda b: (b.is_ball, edges(b)))
    if edges(l) == math.inf:
        return None
    a, b = _gauss_arcs(k), _gauss_arcs(l)
    ne, nf = len(a.d), len(b.d)
    s = a.ends @ b.unit.T               # rows e, ne + e: the arc of e against f
    t = np.negative(a.unit @ b.ends.T)  # columns f, nf + f: the arc of f against e
    lo = np.minimum(np.minimum(s[:ne], s[ne:]), np.minimum(t[:, :nf], t[:, nf:]))
    hi = np.maximum(np.maximum(s[:ne], s[ne:]), np.maximum(t[:, :nf], t[:, nf:]))
    if np.any(np.abs(lo) <= CROSSING_TOL) or np.any(np.abs(hi) <= CROSSING_TOL):
        return None
    e, f = np.nonzero((lo > 0) | (hi < 0))
    w = np.cross(a.d[e], b.d[f])
    w[hi[e, f] < 0] *= -1.0
    h = m.radius * np.linalg.norm(w, axis=1) if m.is_ball else np.max(w @ m.vertices.T, axis=1)
    return [h / 6.0]


def mixed_volume(bodies) -> float:
    """Mixed volume of exactly n bodies in dimension n (n = 1, 2, 3).

    Ball-quermassintegral patterns V(K, ..., K, B(r_1), ..., B(r_k)) take the
    exact closed forms; a distinct triple in space sums over the crossings of
    two Gauss images, and every other tuple is a facet-measure sum (see the
    module docstring).
    """
    bodies = list(bodies)
    if not bodies:
        raise ArityMismatch("need at least one body")
    n = bodies[0].dim
    if len(bodies) != n:
        raise ArityMismatch(f"mixed volume in dimension {n} needs exactly {n} bodies")
    if any(b.dim != n for b in bodies):
        raise DimensionMismatch("all bodies must share the ambient dimension")
    if any(b.is_empty for b in bodies):
        return 0.0
    if all(b.is_ball for b in bodies):
        return UNIT_BALL_VOLUME[n] * math.prod(b.radius for b in bodies)

    balls = [b for b in bodies if b.is_ball]
    others = _group_distinct(b for b in bodies if not b.is_ball)
    if len(others) == 1 and balls:
        return math.prod(b.radius for b in balls) * _quermass_exact(others[0][0], len(balls))

    # from here on at most one ball remains, in a distinct triple
    groups = _group_distinct(bodies) if balls else others
    if len(groups) == 1:
        total = magnitude = volume(groups[0][0])
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            if len(groups) == 2:
                (k, _), (l, _) = sorted(groups, key=lambda g: -g[1])
                terms = [_facet_terms(k, l, 1.0 / n)]
            else:
                terms = _crossing_terms([g[0] for g in groups])
            if terms is None:
                # the h slot takes the ball, else the body with most vertices,
                # so the one Minkowski sum is the smallest
                k, l, m = sorted((g[0] for g in groups),
                                 key=lambda b: math.inf if b.is_ball else len(b.vertices))
                terms = [_facet_terms(minkowski_sum(k, l), m, 1.0 / 6.0),
                         _facet_terms(k, m, -1.0 / 6.0), _facet_terms(l, m, -1.0 / 6.0)]
            total = float(sum(t.sum() for t in terms))
            magnitude = float(sum(np.abs(t).sum() for t in terms))
    # a mixed volume is nonnegative: only round-off may take the sum below 0
    if not (math.isfinite(total) and math.isfinite(magnitude)) or total < -1e-12 * magnitude:
        raise NumericalFailure(
            f"facet-measure sum {total} of terms totalling {magnitude} is not a "
            "mixed volume; the bodies span more scales than the vertex tolerance allows")
    return max(0.0, total)


def quermassintegral_body(k: ConvexBody, i: int) -> float:
    """W_i(K) = V(K, ..., K, D, ..., D) with i copies of the unit ball."""
    n = k.dim
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"quermassintegral index must lie in [0, {n}], got {i}")
    if i == n:
        return UNIT_BALL_VOLUME[n]
    if i == 0:
        return volume(k)
    ball = ConvexBody.ball(1.0, n)
    return mixed_volume([k] * (n - i) + [ball] * i)


def surface_area_body(k: ConvexBody) -> float:
    """S(K) = n * V(K, ..., K, D)."""
    return k.dim * quermassintegral_body(k, 1)


# ---------------------------------------------------------------------------
# Minkowski polynomial fit (independent oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinkowskiPolynomial:
    """Vol(sum eps_i K_i) as a degree-n form with multiset-indexed coefficients."""

    dim: int
    arity: int
    coefficients: dict  # multiset tuple (i_1 <= ... <= i_n) -> V(K_{i_1}, ..., K_{i_n})

    def multisets(self):
        return sorted(self.coefficients)

    def coefficient(self, multiset) -> float:
        return self.coefficients[tuple(sorted(multiset))]

    def evaluate(self, eps) -> float:
        eps = np.asarray(eps, dtype=float)
        if eps.shape != (self.arity,):
            raise ArityMismatch(f"expected {self.arity} weights")
        total = 0.0
        for ms, coeff in self.coefficients.items():
            mult = _multiset_multiplicity(ms, self.dim)
            term = coeff * mult
            for i in ms:
                term *= eps[i]
            total += term
        return total


def _multiset_multiplicity(ms, n) -> int:
    counts: dict[int, int] = {}
    for i in ms:
        counts[i] = counts.get(i, 0) + 1
    ways = factorial(n)
    for c in counts.values():
        ways //= factorial(c)
    return ways


def _fit_polynomial(values_fn, arity: int, n: int) -> dict:
    """Least-squares coefficients of the degree-n form through values_fn on
    the grid {1..n+1}^arity; raises SingularSystem if the system is rank
    deficient."""
    multisets = list(itertools.combinations_with_replacement(range(arity), n))
    grid = list(itertools.product(range(1, n + 2), repeat=arity))
    rows, rhs = [], []
    for tup in grid:
        eps = np.array(tup, dtype=float)
        row = []
        for ms in multisets:
            term = float(_multiset_multiplicity(ms, n))
            for i in ms:
                term *= eps[i]
            row.append(term)
        rows.append(row)
        rhs.append(values_fn(eps))
    A = np.array(rows)
    y = np.array(rhs)
    sol, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < len(multisets):
        raise SingularSystem("evaluation grid is rank deficient")
    return {ms: float(c) for ms, c in zip(multisets, sol)}


def _vertex_tuples(verts):
    """(tuples, hull): the vertex tuples of K_1 + ... + K_m, as rows of
    indices into ``verts``, and the Qhull hull of their sums.

    A vertex of K_1 + ... + K_k is a sum of vertices, and the sum of its
    first k - 1 entries is a vertex of K_1 + ... + K_{k-1}, so K_k is added
    only to the vertex tuples of the previous hull: one build per added body.
    """
    # looked up on ``bodies`` at call time, so whatever counts the body
    # kernel's Qhull builds there counts these too
    from .bodies import ConvexHull

    idx = np.arange(len(verts[0]))[:, None]
    hull = ConvexHull(verts[0]) if len(verts) == 1 else None
    for v in verts[1:]:
        if hull is not None:
            idx = idx[hull.vertices]
        idx = np.concatenate([np.repeat(idx, len(v), axis=0),
                              np.tile(np.arange(len(v)), len(idx))[:, None]], axis=1)
        hull = ConvexHull(sum(w[col] for w, col in zip(verts, idx.T)))
    return idx, hull


def _tuple_volumes(bodies, n: int):
    """Vol(sum eps_i K_i) for every eps > 0, on one triangulation, or None
    where the kernel cannot take the bodies: on the line, for a body of
    affine rank below n, and where Qhull fails on the tuple cloud.

    For positive weights the normal fan of sum eps_i K_i does not depend on
    eps, so every such sum has the same vertex tuples and the same facets:
    the triangles (n = 3) or the ccw ring (n = 2) of the hull at eps = 1,
    indexed by tuples, serve every weight.  The volume at eps is then
    sum |det| / 6 over those triangles, or the shoelace area of that ring,
    at the points sum eps_i V_i[tuple_i], measured from their centroid.
    """
    if n == 1 or not all(b.is_polytope and b.affine_rank() == n for b in bodies):
        return None
    verts = [b.vertices for b in bodies]
    try:
        idx, hull = _vertex_tuples(verts)
    except QhullError:
        return None
    tuples = idx[hull.vertices]
    if n == 3:
        slot = np.empty(len(idx), dtype=np.intp)
        slot[hull.vertices] = np.arange(len(tuples))
        triangles = slot[hull.simplices]
    corners = np.stack([w[col] for w, col in zip(verts, tuples.T)])

    def value(eps):
        pts = np.tensordot(eps, corners, axes=1)
        pts = pts - pts.mean(axis=0)
        if n == 2:
            return _polygon_area(pts)       # Qhull lists 2-D vertices ccw
        tri = pts[triangles]
        dets = np.einsum("fi,fi->f", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))
        return float(np.sum(np.abs(dets)) / 6.0)

    return value


def minkowski_polynomial(bodies) -> MinkowskiPolynomial:
    """Fit Vol(sum eps_i K_i) on the deterministic grid {1..n+1}^m.

    Balls enter as the fixed polytope stand-in (``unit_ball_polytope``).
    In the plane and in space, with every body full-dimensional, all grid
    values come from one triangulation of the vertex-tuple family of
    K_1 + ... + K_m (``_tuple_volumes``): one Qhull build per added body
    and no Minkowski sum.  On the line, with a body of lower affine rank
    (its sum with the others may change combinatorics or rank), or where
    Qhull fails on the tuple cloud, each grid point is summed and measured
    on its own (``_weighted_sum``, ``volume``).  Either way the fit reads
    only volumes, never facet measures, so it stays an independent oracle
    for ``mixed_volume``.
    The design matrix depends on the grid alone and has full rank for every
    n <= 3 and m <= 7 (condition number at most about 4e2), so there is no
    refit; a singular system raises SingularSystem.
    """
    bodies = [_resolve(b) for b in bodies]
    if not bodies:
        raise ArityMismatch("need at least one body")
    n = bodies[0].dim
    if any(b.dim != n for b in bodies):
        raise DimensionMismatch("all bodies must live in the polynomial's dimension")

    values = _tuple_volumes(bodies, n) or (lambda eps: volume(_weighted_sum(bodies, eps)))
    return MinkowskiPolynomial(dim=n, arity=len(bodies),
                               coefficients=_fit_polynomial(values, len(bodies), n))
