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

``PhiBallProfile`` is the one Phi-profile of a band: t -> Phi(K_t) expanded
once (``band_size``), the radius of the Phi-balls that a rearrangement carries,
and the inverse that rescalings take (``reshape.phi_profile``).

The size of a sum is never measured on the sum itself: Phi is a mixed volume
(a mixed integral for functions) and so multilinear, and ``eval_sum``
expands Phi(P_1 + ... + P_k) into mixed volumes (mixed integrals) of the
parts (Schneider, *Convex Bodies*, sec. 5.1; the paper's polarization of the
Lebesgue integral, int f oplus g = sum_j C(n, j) V(f[j], g[n-j])).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, body_from_json, scale
from .errors import (
    ArityMismatch,
    DegenerateBody,
    DimensionMismatch,
    HeightOutOfRange,
    NonInvertibleProfile,
    parsing_input,
)
from .mixed_volumes import _multiset_multiplicity, mixed_volume
from .profiles import Profile, margin_root
from .qc import (
    Band,
    LevelStack,
    QCFunction,
    RadialQC,
    SumQC,
    _scaled_coef,
    band_terms,
    indicator,
    integrate_terms,
    mixed_integral,
    terms_at,
)


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
            raise ValueError(f"quermassintegral index must lie in [0, {dim}), got {k}")
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
            cached = integrate_terms(profiles, [(1.0, tuple(range(len(profiles))))])
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

    def band_size(self, parts):
        """t -> Phi(K_t), one value per height of t (constant factors alone
        too), K_t the sum of coef(t) * base over a band's parts, expanded once
        (``band_terms``); each call inverts each distinct profile once."""
        const, profiles, terms = band_terms([tuple(parts)] * self.degree
                                            + [((1.0, ref),) for ref in self.references])
        return lambda t: self.weight_constant * (const + terms_at(profiles, terms, t) + 0.0 * t)

    def eval_body(self, a: ConvexBody) -> float:
        """Phi(A) = V(A, ..., A, references), weighted by C when generalized."""
        return self.eval_sum([a])

    def eval_fn(self, f: QCFunction) -> float:
        """Phi(f) = integral over t of Phi(level set at t)."""
        return self.eval_sum([f])


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


class PhiBallProfile(Profile):
    """The Phi-profile of one band: the size t -> Phi(K_t) of its level sets
    K_t (``size``), the radius (Phi(K_t) / Phi(D))^(1/m) of their Phi-balls
    (``inv``, a rearrangement's band coefficient) and the height of a given
    size (``height``).  Phi(K_t) is the band expanded once (``band_size``),
    so an array of heights costs one inversion per distinct profile."""

    def __init__(self, phi: SizeFunctional, parts):
        self.phi, self.parts, self._size = phi, tuple(parts), phi.band_size(parts)

    def size(self, t):
        """Phi of the level set at a height in (0, 1], or at each of an array
        of heights (every entry the float the height gives alone)."""
        ts = np.asarray(t, dtype=float)
        bad = ts[~((ts > 0.0) & (ts <= 1.0))]
        if bad.size:  # the first one, as a node alone would name it
            raise HeightOutOfRange(f"height must lie in (0, 1], got {bad[0]}")
        return float(self._size(float(ts))) if ts.ndim == 0 else self._size(ts)

    def inv(self, t):
        return (self._size(t) / self.phi.ball_value()) ** (1.0 / self.phi.degree)

    def height(self, v: float) -> float:
        """The height of size v, for a size falling strictly with the height:
        closed form for one part with a profile, else ``margin_root``."""
        if v < 0:
            raise NonInvertibleProfile("profile values are nonnegative")
        if v == 0.0:
            return 1.0
        m = 1.0 / self.phi.degree
        (coef, base), *rest = self.parts
        if not rest and isinstance(coef, Profile):  # Phi(r * base) = r^m Phi(base)
            return float(coef.value((v / self.phi.eval_body(base)) ** m))

        def margin(t):  # the Phi-ball radii: smoother in log t than Phi itself
            return v ** m - self.size(t) ** m

        m_lo, m_hi = margin(1e-300), margin(1.0)
        if m_lo > 0.0:
            raise NonInvertibleProfile(f"value {v} beyond the resolvable range")
        return 1.0 if m_hi <= 0.0 else margin_root(margin, 1e-300, 1.0, m_lo, m_hi)

    def _scaled(self, lam):
        return PhiBallProfile(self.phi, [(_scaled_coef(c, lam), base) for c, base in self.parts])

    def is_log_concave(self):
        # Phi^(1/m) is concave under Minkowski combination (Brunn-Minkowski)
        return all(not isinstance(c, Profile) or c.is_log_concave() for c, _ in self.parts)


def phi_rearrange(phi: SizeFunctional, f: QCFunction) -> QCFunction:
    """Levelwise ball rearrangement f^Phi (rotation invariant, same Phi-size).

    A stack goes to the stack of its levels' Phi-balls, a radial function
    to the one over its base's Phi-ball, and any other banded function to
    one part per band: its ``PhiBallProfile`` times the unit ball, or, for
    a band of constant factors alone, its one level set's Phi-ball, as a
    stack level.  A function without bands raises TypeError.
    """
    if isinstance(f, LevelStack):
        return LevelStack(
            [(float(t), ball_rearrange(phi, b)) for t, b in zip(f.heights, f.bodies)],
            validate=False)
    if isinstance(f, RadialQC):
        return RadialQC(ConvexBody.ball(ball_radius(phi, [f.base]), f.dim), f.profile)
    bands = f.bands()
    if bands is None:
        raise TypeError(f"cannot rearrange {type(f).__name__}: it has no bands")

    def rearranged(parts):
        if any(isinstance(c, Profile) for c, _ in parts):
            return PhiBallProfile(phi, parts), ConvexBody.ball(1.0, f.dim)
        return 1.0, ConvexBody.ball(ball_radius(phi, [scale(b, c) for c, b in parts]), f.dim)

    return SumQC([Band(b.lo, b.hi, (rearranged(b.parts),)) for b in bands])


def sdr(f: QCFunction) -> QCFunction:
    """Symmetric decreasing rearrangement: levelwise equal-volume balls."""
    return phi_rearrange(SizeFunctional.vol(f.dim), f)


@parsing_input()
def size_functional_from_json(obj: dict) -> SizeFunctional:
    return SizeFunctional(dim=int(obj["dim"]), degree=int(obj["degree"]),
                          references=tuple(body_from_json(b)
                                           for b in obj.get("references", [])),
                          name=obj.get("name", ""))
