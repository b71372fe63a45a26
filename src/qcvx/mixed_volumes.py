"""Mixed volumes V(K_1, ..., K_n), Minkowski polynomial fits, quermassintegrals.

Mixed volumes come from facet measures (Schneider, *Convex Bodies: The
Brunn-Minkowski Theory*, ch. 5): with (u_F, w_F) the unit normals and
(n-1)-measures of the facets of K (``bodies.facet_measure``, cached on the
body),

    V(K, ..., K)   = Vol(K)                                  (cached volume)
    V(K, L)        = 1/2 sum_{F of K} h_L(u_F) w_F           (plane)
    V(K, K, L)     = 1/3 sum_{F of K} h_L(u_F) w_F           (space)
    V(K, L, M)     = 1/6 [sum_{K+L} - sum_K - sum_L] h_M(u_F) w_F,

so a distinct triple costs one Minkowski sum and nothing costs more.  A ball
goes to the h slot, where h = r, so every ball mixture is exact: the
quermassintegral patterns V(K, ..., K, B, ..., B) use closed forms
(perimeter, surface area, edge exterior angles) and V(K, L, B(r)) is
r/6 [S(K+L) - S(K) - S(L)].

`minkowski_polynomial` recovers the same coefficients from a deterministic
grid fit of Vol(sum eps_i K_i) and serves as an independent oracle.  It, and
`qc.epsilon_extension`, substitute a fixed polytope for the unit ball
(`unit_ball_polytope`): the Minkowski average of the inscribed and
circumscribed regular 128-gon in the plane, the Minkowski average of a
geodesic 320-facet sphere and its polar dual in 3-space, and the exact
segment [-1, 1] on the line, each rescaled to the exact ball volume.
Measured support-function error of the stand-ins: about 5e-5 (2-D) and 3e-3
(3-D).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .bodies import (
    ConvexBody,
    UNIT_BALL_VOLUME,
    VERTEX_TOL,
    _affine_frame,
    _polygon_edges,
    convex_hull,
    facet_measure,
    minkowski_sum,
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
    from .bodies import polar

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

def _edge_angle_sum_3d(body: ConvexBody) -> float:
    """Sum over edges of length * exterior angle (the edge's normal-cone angle).

    Qhull triangulates coplanar facets; the seam edges have angle 0 and
    contribute nothing, so the triangulated sum is already exact.  A flat
    polygon's edges have exterior angle pi, a segment's 2 pi.
    """
    rank = body.affine_rank()
    verts = body.vertices
    if rank <= 0:
        return 0.0
    if rank < 3:
        origin, basis = _affine_frame(verts, VERTEX_TOL)
        coords = (verts - origin) @ basis
        if rank == 1:
            return 2.0 * math.pi * float(coords.max() - coords.min())
        return math.pi * float(_polygon_edges(coords)[2].sum())
    hull = convex_hull(body)
    f, k = np.nonzero(hull.neighbors > np.arange(len(hull.neighbors))[:, None])
    g = hull.neighbors[f, k]
    shared = hull.simplices[f[:, None], (k[:, None] + [1, 2]) % 3]
    length = np.linalg.norm(verts[shared[:, 0]] - verts[shared[:, 1]], axis=1)
    nf, ng = hull.equations[f, :3], hull.equations[g, :3]
    # atan2 keeps the near-zero seam angles exact, where acos(dot) would
    # turn one ulp of the dot product into an angle of 1.5e-8
    angle = np.arctan2(np.linalg.norm(np.cross(nf, ng), axis=1),
                       np.einsum("ij,ij->i", nf, ng))
    return float(np.sum(length * angle))


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
    acc = None
    for body, w in zip(bodies, weights):
        if w == 0:
            continue
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
    from .bodies import approx_equal

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


def mixed_volume(bodies) -> float:
    """Mixed volume of exactly n bodies in dimension n (n = 1, 2, 3).

    Ball-quermassintegral patterns V(K, ..., K, B(r_1), ..., B(r_k)) take the
    exact closed forms; every other tuple is a facet-measure sum (see the
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
    groups = _group_distinct(bodies)
    if len(groups) == 1:
        return volume(groups[0][0])
    with np.errstate(over="ignore", invalid="ignore"):
        if len(groups) == 2:
            (k, _), (l, _) = sorted(groups, key=lambda g: -g[1])
            terms = [_facet_terms(k, l, 1.0 / n)]
        else:
            # the h slot takes the ball, else the body with most vertices, so
            # the one Minkowski sum is the smallest
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


def _fit_polynomial(values_fn, arity: int, n: int, jitter: float = 0.0) -> dict:
    multisets = list(itertools.combinations_with_replacement(range(arity), n))
    grid = list(itertools.product(range(1, n + 2), repeat=arity))
    rows, rhs = [], []
    for tup in grid:
        eps = np.array(tup, dtype=float) * (1.0 + jitter) ** np.arange(1, arity + 1)
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


def minkowski_polynomial(bodies, dim: int | None = None) -> MinkowskiPolynomial:
    """Fit Vol(sum eps_i K_i) on the deterministic grid {1..n+1}^m.

    Retried once with a jittered grid if the system is singular, then fatal.
    """
    bodies = [_resolve(b) for b in bodies]
    if not bodies:
        raise ArityMismatch("need at least one body")
    n = dim if dim is not None else bodies[0].dim
    if any(b.dim != n for b in bodies):
        raise DimensionMismatch("all bodies must live in the polynomial's dimension")

    def values(eps):
        return volume(_weighted_sum(bodies, eps))

    try:
        coeffs = _fit_polynomial(values, len(bodies), n)
    except SingularSystem:
        coeffs = _fit_polynomial(values, len(bodies), n, jitter=0.0123)
    return MinkowskiPolynomial(dim=n, arity=len(bodies), coefficients=coeffs)
