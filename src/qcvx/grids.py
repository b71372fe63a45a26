"""Uniform lattices and sampled fields shared by the grid oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GridTooCoarse


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice on a box: lo/hi per axis, npts points per axis."""

    lo: tuple
    hi: tuple
    npts: int = 41

    @classmethod
    def cube(cls, half_width: float, dim: int, npts: int = 41) -> "GridSpec":
        if npts < 2:
            raise ValueError(f"a lattice needs at least 2 points per axis, got {npts}")
        return cls(tuple([-half_width] * dim), tuple([half_width] * dim), npts)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def step(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / (self.npts - 1)

    def axes(self):
        return [np.linspace(lo, hi, self.npts) for lo, hi in zip(self.lo, self.hi)]

    def points(self) -> np.ndarray:
        """All lattice points, shape (npts^dim, dim), axis 0 fastest last."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def doubled(self) -> "GridSpec":
        """Lattice of pairwise sums x + y of this lattice (same step)."""
        lo = tuple(2 * a for a in self.lo)
        hi = tuple(2 * b for b in self.hi)
        return GridSpec(lo, hi, 2 * self.npts - 1)


@dataclass(frozen=True)
class SampledField:
    """Values of a function on a GridSpec lattice."""

    grid: GridSpec
    values: np.ndarray  # shape (npts,) * dim

    def __post_init__(self):
        expected = (self.grid.npts,) * self.grid.dim
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")


# Largest scratch buffer one lattice convolution allocates, in bytes.
_SCRATCH_BYTES = 2 << 20

# The value that never wins a reduction: the fill of the scratch padding.
_NEUTRAL = {np.minimum: np.inf, np.maximum: -np.inf}

# Numpy's ufunc buffer size while a convolution runs.  With a
# buffer longer than the op call's inner loop (one G: 1681 cells at 41²),
# numpy 2.4 copies the broadcast F values through it and the op takes twice
# as long (a 41² convolution 7-8 ms instead of 4-5).  No operand of the
# kernel is cast, so none needs a buffer.
_UFUNC_BUFFER = 64


def lattice_convolution(F: np.ndarray, G: np.ndarray, op, reduce, identity: float) -> np.ndarray:
    """out[i] = reduce over j of op(F[j], G[i - j]), starting from identity, on
    the lattice of pairwise sums (shape ``F.shape + G.shape - 1``).

    The one kernel behind the sup-min oracle (reduce ``np.maximum``, op
    ``np.minimum``, identity 0) and the tests' min-plus and inf-max
    lattice oracles (reduce ``np.minimum``, identity +inf), on two 1-D or
    two 2-D arrays; anything else raises GridTooCoarse.  Entries ``F[j] ==
    identity`` are skipped: op(identity, g) is +inf or at most 0 there,
    which never moves an accumulator that starts at identity.

    Python loops once per live row r of F.  One op call fills a scratch
    buffer with op(F[r, c], G[k, m]) for a block of columns c, through a
    skew view that puts it at (c, c + m, k); one reduction over c then gives
    row r's contribution to ``out[r:r + G.shape[0]]``, folded in transposed.
    The result is bitwise that of the per-entry fold of the definition.
    Min and max are exact and keep their second operand on a tie, which
    decides the sign of a zero result, so only the order of the fold
    matters, not its grouping:

    - Contributions fold in the C order of j (rows of F ascending, then
      columns ascending), each new value as the second operand.
    - The skew padding and the skipped columns hold the reduction's neutral
      value (+inf for min, -inf for max), never identity: the sup-min
      identity +0.0 would tie a live -0.0.  Entries of G equal to identity
      take part like any other, for the same reason.
    - Each row of F is cropped to the span of its live entries, so a sparse
      indicator field pays for its support only.
    - Blocks of columns, and of G rows when G is large, keep the scratch
      buffer within ``_SCRATCH_BYTES`` (or one G row, if that is longer).
    """
    if F.ndim not in (1, 2) or G.ndim != F.ndim:
        raise GridTooCoarse(f"lattice convolutions take two 1-D or two 2-D arrays, "
                            f"got {F.ndim}-D and {G.ndim}-D")
    out = np.full(tuple(a + b - 1 for a, b in zip(F.shape, G.shape)), identity)
    live = F != identity
    if not live.any():
        return out
    neutral = _NEUTRAL[reduce]
    F, G, live, acc = (np.atleast_2d(a) for a in (F, G, live, out))  # 1-D: one row
    rows = np.flatnonzero(live.any(axis=1))
    first = live.argmax(axis=1)  # each row's live span: [first, stop)
    stop = F.shape[1] - live[:, ::-1].argmax(axis=1)
    gaps = live.sum(axis=1) < stop - first  # a skipped entry inside the span
    g0, g1 = G.shape
    GT = np.ascontiguousarray(G.T)
    kb = min(g0, max(1, _SCRATCH_BYTES // (out.itemsize * g1)))
    budget = _SCRATCH_BYTES // (out.itemsize * kb)  # cb * (cb + g1 - 1) cells
    cb = min(int(np.max((stop - first)[rows])),
             max(1, (math.isqrt((g1 - 1) ** 2 + 4 * budget) - (g1 - 1)) // 2))
    scratch = np.full((cb, cb + g1 - 1, kb), neutral)
    s0, s1, s2 = scratch.strides
    skew = as_strided(scratch, (cb, g1, kb), (s0 + s1, s1, s2))
    bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        for r in rows:
            for c in range(first[r], stop[r], cb):
                w = min(cb, stop[r] - c)
                for k in range(0, g0, kb):
                    h = min(kb, g0 - k)
                    band = skew[:w, :, :h]
                    op(F[r, c:c + w, None, None], GT[:, k:k + h], out=band)
                    if gaps[r]:
                        band[~live[r, c:c + w]] = neutral
                    part = reduce.reduce(scratch[:w, :w + g1 - 1, :h], axis=0)
                    block = acc[r + k:r + k + h, c:c + w + g1 - 1]
                    reduce(block, part.T, out=block)
    finally:
        np.setbufsize(bufsize)
    return out
