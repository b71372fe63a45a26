"""Size functionals and the ball rearrangements they induce.

A size functional of degree m fixes n - m compact reference bodies and maps
A -> V(A, ..., A, K_1, ..., K_{n-m}).  Its ball rearrangement replaces a body
by the centered ball of equal size, and a quasi-concave function by the
levelwise rearrangement of its level sets; volume as the size functional
gives the symmetric decreasing rearrangement.

The generalized variant weights the reference slots with quasi-concave
functions having homothetic level sets c_i(t) * K_i; it reduces to the plain
functional times the constant C = integral of prod c_i(t) dt, so rearranges
identically.  Arbitrary weight functions are rejected: without the homothety
the rearrangement would not preserve the functional's value.

The size of a sum is never measured on the sum itself: Phi is a mixed volume
(a mixed integral for functions) and so multilinear, and ``eval_sum``
expands Phi(P_1 + ... + P_k) into mixed volumes (mixed integrals) of the
parts (Schneider, *Convex Bodies*, sec. 5.1; the paper's polarization of the
Lebesgue integral, int f oplus g = sum_j C(n, j) V(f[j], g[n-j])).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, body_from_json
from .errors import ArityMismatch, DegenerateBody, DimensionMismatch, parsing_input
from .mixed_volumes import _multiset_multiplicity, mixed_volume
from .qc import LevelStack, QCFunction, RadialQC, indicator, mixed_integral, terms_at
from .quadrature import integrate_height


@dataclass(frozen=True)
class SizeFunctional:
    """A -> V(A, ..., A (m times), references...)."""

    dim: int
    degree: int
    references: tuple = ()
    weights: tuple = ()   # optional RadialQC weights for the generalized variant
    name: str = ""

    def __post_init__(self):
        n, m = self.dim, self.degree
        if not 1 <= m <= n:
            raise ValueError(f"degree must lie in [1, {n}], got {m}")
        refs = tuple(self.references)
        weights = tuple(self.weights)
        if weights:
            if refs:
                raise ValueError("give either reference bodies or weight functions")
            for w in weights:
                if not isinstance(w, RadialQC):
                    raise ValueError(
                        "generalized size functionals need weights with homothetic "
                        "level sets (a radial representation); got a general function")
            refs = tuple(w.base for w in weights)
        if len(refs) != n - m:
            raise ValueError(f"need exactly {n - m} reference bodies")
        for ref in refs:
            if ref.dim != n:
                raise DimensionMismatch("references must live in the ambient dimension")
            if ref.is_empty or (ref.is_ball and ref.radius <= 0) or (
                    ref.is_polytope and ref.affine_rank() < n):
                raise ValueError("references must be compact with nonempty interior")
        object.__setattr__(self, "references", refs)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def vol(cls, dim: int) -> "SizeFunctional":
        return cls(dim=dim, degree=dim, name="vol")

    @classmethod
    def quermass(cls, dim: int, k: int) -> "SizeFunctional":
        """W_k as a size functional: k unit-ball references, degree n - k."""
        if not 0 <= k < dim:
            raise ValueError("quermassintegral index must lie in [0, n)")
        refs = tuple(ConvexBody.ball(1.0, dim) for _ in range(k))
        return cls(dim=dim, degree=dim - k, references=refs, name=f"W{k}")

    @property
    def weight_constant(self) -> float:
        """C = integral of prod c_i(t) dt for the generalized variant, else 1.

        The generalized functional equals C times the plain one built on the
        weight bases, so both rearrange bodies identically.
        """
        if not self.weights:
            return 1.0
        cached = self.__dict__.get("_weight_constant")
        if cached is None:
            profiles = [w.profile for w in self.weights]
            cached = integrate_height(functools.partial(
                terms_at, profiles, [(1.0, tuple(range(len(profiles))))]))
            if not 0.0 < cached < np.inf:
                raise ValueError("weight functions must have finite positive mass")
            self.__dict__["_weight_constant"] = cached
        return cached

    def ball_value(self) -> float:
        """Size of the unit ball (cached)."""
        cached = self.__dict__.get("_ball_value")
        if cached is None:
            cached = self.eval_body(ConvexBody.ball(1.0, self.dim))
            self.__dict__["_ball_value"] = cached
        return cached

    def eval_sum(self, parts) -> float:
        """Phi(P_1 + ... + P_k) of a Minkowski sum of bodies, or of an oplus
        sum of functions, without building the sum.

        By multilinearity V((P_1 + ... + P_k)[m], refs) is the sum over the
        multisets {i_1, ..., i_m} of the multinomial coefficient times
        V(P_{i_1}, ..., P_{i_m}, refs): ``mixed_volume`` for bodies (times
        ``weight_constant``, as for a single body) and ``mixed_integral``
        for functions (with the weights, or the references' indicators, in
        the reference slots).  One part is Phi of that part.
        """
        parts = list(parts)
        if not parts:
            raise ArityMismatch("need at least one part")
        if any(p.dim != self.dim for p in parts):
            raise DimensionMismatch("part dimension does not match the functional")
        if all(isinstance(p, ConvexBody) for p in parts):
            measure, fixed, const = mixed_volume, list(self.references), self.weight_constant
        elif all(isinstance(p, QCFunction) for p in parts):
            fixed = list(self.weights) or [indicator(ref) for ref in self.references]
            measure, const = mixed_integral, None
        else:
            raise TypeError("the parts of a sum must be all bodies or all functions")
        total = 0.0
        for ms in itertools.combinations_with_replacement(range(len(parts)), self.degree):
            ways = _multiset_multiplicity(ms, self.degree)
            total += ways * measure([parts[i] for i in ms] + fixed)
        return total if const is None else const * total

    def eval_body(self, a: ConvexBody) -> float:
        """Phi(A) = V(A, ..., A, references), weighted by C when generalized."""
        return self.eval_sum([a])

    def eval_fn(self, f: QCFunction) -> float:
        """Phi(f) = integral over t of Phi(level set at t)."""
        return self.eval_sum([f])


def eval_body(phi: SizeFunctional, a: ConvexBody) -> float:
    return phi.eval_body(a)


def eval_fn(phi: SizeFunctional, f: QCFunction) -> float:
    return phi.eval_fn(f)


def ball_radius(phi: SizeFunctional, parts) -> float:
    """Radius of the centered ball whose Phi-size is Phi(P_1 + ... + P_k)
    for bodies P_i, the size taken by ``eval_sum`` and the sum never built.

    A size of 0 gives radius 0, unless a part is a full-dimensional polytope.
    """
    value = phi.eval_sum(parts)
    if value <= 0.0:
        if any(p.is_polytope and p.affine_rank() == p.dim for p in parts):
            raise DegenerateBody("full-dimensional body with zero size")
        return 0.0
    return (value / phi.ball_value()) ** (1.0 / phi.degree)


def ball_rearrange(phi: SizeFunctional, a: ConvexBody) -> ConvexBody:
    """The centered ball with the same Phi-size as a.

    Lower-dimensional bodies have Phi = 0 and map to the zero ball.
    """
    if a.is_empty:
        return ConvexBody.empty(phi.dim)
    return ConvexBody.ball(ball_radius(phi, [a]), phi.dim)


def phi_rearrange(phi: SizeFunctional, f: QCFunction) -> QCFunction:
    """Levelwise ball rearrangement f^Phi (rotation invariant, same Phi-size)."""
    if isinstance(f, LevelStack):
        return LevelStack(
            [(float(t), ball_rearrange(phi, b)) for t, b in zip(f.heights, f.bodies)],
            validate=False)
    if isinstance(f, RadialQC):
        # levelwise: Phi(r * base) = r^m Phi(base), so the rearranged function
        # is radial over the ball matched to the base
        return RadialQC(ConvexBody.ball(ball_radius(phi, [f.base]), f.dim), f.profile)
    heights = np.geomspace(1.0, 1e-3, 64)
    return LevelStack([(float(t), ball_rearrange(phi, f.level_set(float(t))))
                       for t in heights], validate=False)


def sdr(f: QCFunction) -> QCFunction:
    """Symmetric decreasing rearrangement: levelwise equal-volume balls."""
    return phi_rearrange(SizeFunctional.vol(f.dim), f)


@parsing_input()
def size_functional_from_json(obj: dict) -> SizeFunctional:
    return SizeFunctional(dim=int(obj["dim"]), degree=int(obj["degree"]),
                          references=tuple(body_from_json(b)
                                           for b in obj.get("references", [])),
                          name=obj.get("name", ""))
