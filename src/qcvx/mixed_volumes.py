"""Mixed volumes V(K_1, ..., K_n), Minkowski polynomial fits, quermassintegrals.

The polarization identity

    V(K_1, ..., K_n) = (1/n!) * sum_{S nonempty} (-1)^(n-|S|) Vol(sum_{i in S} K_i)

is the primary algorithm; repeated bodies are collapsed into homothets so an
n-tuple needs at most 2^d - 1 hull/volume calls for d distinct bodies.

Ball arguments: the quermassintegral patterns V(K, ..., K, B, ..., B) use
exact closed forms (perimeter, surface area, edge dihedral angles), so the
values that dominate the inequality checks carry no approximation at all.
Any other ball mixture substitutes a fixed polytope stand-in for the unit
ball (`unit_ball_polytope`): the Minkowski average of the inscribed and
circumscribed regular 128-gon in the plane, the Minkowski average of a
geodesic 320-facet sphere and its polar dual in 3-space, and the exact
segment [-1, 1] on the line, each rescaled to the exact ball volume.
Measured support-function error of the stand-ins: about 5e-5 (2-D) and 3e-3
(3-D); because one fixed substitute is used everywhere, every mixed-volume
identity and inequality still holds exactly for the computed values.

`minkowski_polynomial` recovers the same coefficients from a deterministic
grid fit of Vol(sum eps_i K_i) and serves as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .bodies import (
    ConvexBody,
    UNIT_BALL_VOLUME,
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
NEGATIVE_ROUNDOFF = 1e-6  # largest negative polarization sum, relative, clamped to 0


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
# exact quermassintegrals of full-dimensional polytopes
# ---------------------------------------------------------------------------

def _perimeter_2d(verts: np.ndarray) -> float:
    from .bodies import _ccw_order

    ring = _ccw_order(verts)
    return float(np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1).sum())


def _surface_area_3d(verts: np.ndarray) -> float:
    from scipy.spatial import ConvexHull

    hull = ConvexHull(verts)
    tri = verts[hull.simplices]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return float(0.5 * np.linalg.norm(cross, axis=1).sum())


def _edge_angle_sum_3d(verts: np.ndarray) -> float:
    """Sum over edges of length * exterior dihedral angle.

    Qhull triangulates coplanar facets; the seam edges have angle 0 and
    contribute nothing, so the triangulated sum is already exact.
    """
    from scipy.spatial import ConvexHull

    hull = ConvexHull(verts)
    normals = hull.equations[:, :3]
    total = 0.0
    for f, simplex in enumerate(hull.simplices):
        for k in range(3):
            g = int(hull.neighbors[f, k])
            if g < f:
                continue
            shared = np.delete(simplex, k)
            length = float(np.linalg.norm(verts[shared[0]] - verts[shared[1]]))
            cosang = float(np.clip(np.dot(normals[f], normals[g]), -1.0, 1.0))
            total += length * math.acos(cosang)
    return total


def _quermass_exact(body: ConvexBody, i: int) -> float | None:
    """W_i(K) in closed form, or None when no exact path applies.

    From Vol(K + tD) = sum_k C(n,k) W_k(K) t^k: in the plane W_1 = Per/2;
    in 3-space W_1 = Area/3 and W_2 = (1/6) sum_edges length * dihedral angle.
    Values are memoized on the (immutable) body.
    """
    n = body.dim
    if body.is_empty:
        return 0.0
    if body.is_ball:
        return UNIT_BALL_VOLUME[n] * body.radius ** (n - i)
    if i == n:
        return UNIT_BALL_VOLUME[n]
    if i == 0:
        return volume(body)
    cache = body.__dict__.setdefault("_quermass", {})
    if i in cache:
        return cache[i]
    if body.affine_rank() < n:
        return None
    if n == 2:
        val = 0.5 * _perimeter_2d(body.vertices)
    elif n == 3 and i == 1:
        val = _surface_area_3d(body.vertices) / 3.0
    elif n == 3 and i == 2:
        val = _edge_angle_sum_3d(body.vertices) / 6.0
    else:
        return None
    cache[i] = val
    return val


# ---------------------------------------------------------------------------
# mixed volumes by polarization
# ---------------------------------------------------------------------------

def _weighted_sum(bodies, weights) -> ConvexBody:
    acc = None
    for body, w in zip(bodies, weights):
        if w == 0:
            continue
        term = scale(body, float(w))
        acc = term if acc is None else minkowski_sum(acc, term)
    return acc


# volumes of weighted Minkowski sums recur across height bands; keyed by the
# operand identities (refs kept in the value so ids stay valid)
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


def mixed_volume(bodies) -> float:
    """Mixed volume of exactly n bodies in dimension n (n = 1, 2, 3).

    Ball-quermassintegral patterns V(K, ..., K, B(r_1), ..., B(r_k)) take the
    exact closed forms; remaining ball mixtures substitute the fixed unit-ball
    polytope before polarization.
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
        prod = 1.0
        for b in bodies:
            prod *= b.radius
        return UNIT_BALL_VOLUME[n] * prod

    balls = [b for b in bodies if b.is_ball]
    others = _group_distinct(b for b in bodies if not b.is_ball)
    if len(others) == 1 and balls:
        rep = others[0][0]
        w = _quermass_exact(rep, len(balls))
        if w is not None:
            prod = 1.0
            for b in balls:
                prod *= b.radius
            return prod * w

    groups = _group_distinct(_resolve(b) for b in bodies)
    reps = [g[0] for g in groups]
    mults = [g[1] for g in groups]
    total = 0.0
    magnitude = 0.0
    for counts in itertools.product(*(range(m + 1) for m in mults)):
        k = sum(counts)
        if k == 0:
            continue
        ways = 1
        for c, m in zip(counts, mults):
            ways *= comb(m, c)
        term = ways * _cached_sum_volume(reps, counts)
        total += (-1) ** (n - k) * term
        magnitude += term
    # a mixed volume is nonnegative: only round-off may take the sum below 0
    if not math.isfinite(total) or total < -NEGATIVE_ROUNDOFF * magnitude:
        raise NumericalFailure(
            f"polarization sum {total} of volumes totalling {magnitude} is not a "
            "mixed volume; the bodies span more scales than the vertex tolerance allows")
    return max(0.0, total / factorial(n))


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
