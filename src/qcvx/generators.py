"""Seeded random inputs for the inequality harness.

Polytopes are hulls of 4-10 uniform points in [-1, 1]^n conditioned on full
affine rank; stacks use 2-6 geometric heights with bodies nested by Minkowski
bumps; radial profiles draw from the exponential / Gaussian / stretched /
power-law families with parameters in safe integrability ranges.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

import numpy as np

from .bodies import ConvexBody, inradius, minkowski_sum
from .duality import GeomConvexFn, lower_level_set
from .profiles import PowerLawProfile, StretchedExponentialProfile
from .qc import LevelStack, RadialQC
from .rearrange import SizeFunctional


_DRAWS: ContextVar[dict | None] = ContextVar("qcvx_shared_draws", default=None)


def rng_for(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


@contextmanager
def shared_draws() -> Iterator[None]:
    """Inside the block, ``random_polytope``, ``random_stack`` and
    ``random_radial`` called from a generator state and with arguments seen
    before in the block return the object built the first time and move the
    generator to where that first call left it, so every draw, this one and
    every later one, is the same as without the block.  The memo is dropped
    when the block exits, also on a raise."""
    token = _DRAWS.set({})
    try:
        yield
    finally:
        _DRAWS.reset(token)


def _frozen(value):
    """A hashable copy of a bit generator's ``state`` dict."""
    if isinstance(value, dict):
        return tuple((key, _frozen(value[key])) for key in sorted(value))
    return value


def _shared(draw):
    """``draw(rng, ...)``, memoized inside a ``shared_draws`` block on the
    generator's full state and the other arguments."""

    @functools.wraps(draw)
    def shared(rng, *args, **kwargs):
        memo = _DRAWS.get()
        if memo is None:
            return draw(rng, *args, **kwargs)
        key = (draw, _frozen(rng.bit_generator.state), args, tuple(sorted(kwargs.items())))
        hit = memo.get(key)
        if hit is None:
            out = draw(rng, *args, **kwargs)
            memo[key] = out, rng.bit_generator.state
            return out
        out, state = hit
        rng.bit_generator.state = state
        return out

    return shared


@_shared
def random_polytope(rng, dim: int, npts: int | None = None,
                    origin_interior: bool = False) -> ConvexBody:
    npts = int(npts or rng.integers(4, 11))
    while True:
        pts = rng.uniform(-1.0, 1.0, (npts, dim))
        if origin_interior:
            pts = np.vstack([pts, -pts[: max(1, npts // 2)]])
        body = ConvexBody.polytope(pts)
        if body.affine_rank() < dim:
            continue
        if origin_interior:
            A, b = body.facets()
            if np.min(b) < 0.05:
                continue
        return body


def random_ball(rng, dim: int) -> ConvexBody:
    return ConvexBody.ball(float(rng.uniform(0.3, 1.5)), dim)


@_shared
def random_stack(rng, dim: int, nlevels: int | None = None,
                 rotation_invariant: bool = False) -> LevelStack:
    nlevels = int(nlevels or rng.integers(2, 7))
    heights = [1.0] + np.sort(rng.uniform(0.04, 0.96, nlevels - 1))[::-1].tolist()
    if rotation_invariant:
        radii = np.cumsum(rng.uniform(0.2, 1.0, nlevels))
        bodies = [ConvexBody.ball(float(r), dim) for r in radii]
    else:
        body = random_polytope(rng, dim, int(rng.integers(4, 8)))
        bodies = [body]
        for _ in range(nlevels - 1):
            bump = ConvexBody.polytope(
                np.vstack([rng.uniform(-1.0, 1.0, (4, dim)), np.zeros((1, dim))]))
            body = minkowski_sum(body, bump)
            bodies.append(body)
    return LevelStack(list(zip(heights, bodies)))


def random_profile(rng, dim: int, log_concave: bool = False):
    kinds = ("exp", "gauss", "stretched") if log_concave else \
        ("exp", "gauss", "stretched", "powerlaw")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "exp":
        return StretchedExponentialProfile(float(rng.uniform(0.4, 2.5)), 1.0)
    if kind == "gauss":
        return StretchedExponentialProfile(float(rng.uniform(0.4, 2.5)), 2.0)
    if kind == "stretched":
        return StretchedExponentialProfile(float(rng.uniform(0.4, 2.5)),
                                           float(rng.uniform(1.0, 3.0)))
    # keep every moment up to r^n integrable with margin
    return PowerLawProfile(float(rng.uniform(dim + 1.5, 8.0)),
                           float(rng.uniform(0.5, 2.0)))


@_shared
def random_radial(rng, dim: int, log_concave: bool = False,
                  ball_base: bool | None = None) -> RadialQC:
    if ball_base is None:
        ball_base = bool(rng.integers(2))
    base = random_ball(rng, dim) if ball_base else \
        random_polytope(rng, dim, origin_interior=True)
    return RadialQC(base, random_profile(rng, dim, log_concave))


def random_size_functional(rng, dim: int, name: str | None = None):
    if name == "vol" or dim == 1 or (name is None and rng.integers(2)):
        return SizeFunctional.vol(dim)
    if name in ("W1", "W2") or name is None:
        k = int(name[1]) if name else int(rng.integers(1, dim))
        return SizeFunctional.quermass(dim, k)
    raise ValueError(f"unknown functional name {name!r}")


def random_geom_convex_fn(rng, dim: int, npieces: int | None = None):
    """Coercive piecewise-affine geometric convex function."""
    npieces = int(npieces or rng.integers(2, 6))
    slopes = rng.normal(size=(npieces, dim)) * rng.uniform(0.5, 2.0)
    slopes = np.vstack([slopes, -slopes])  # symmetric slopes keep level sets bounded
    offsets = -rng.uniform(0.0, 0.5, len(slopes))
    offsets[npieces:] = 0.0
    return GeomConvexFn.from_pieces(slopes, offsets)


def conditioned_geom_convex_fn(rng, dim: int, max_aspect: float = 12.0):
    """Like random_geom_convex_fn, conditioned on well-shaped level sets.

    Near-degenerate slope draws make a level set hundreds of units long and
    its polar a sliver; polarity checks resample until the unit level set
    has bounded aspect ratio.
    """
    while True:
        phi = random_geom_convex_fn(rng, dim)
        try:
            level = lower_level_set(phi, 1.0)
        except ValueError:
            continue
        r = inradius(level)
        big = level.bounding_radius()
        if r > 1e-9 and big / r <= max_aspect and big <= 25.0:
            return phi
