"""Uniform lattices and sampled fields shared by the grid oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def lattice_convolution(F: np.ndarray, G: np.ndarray, op, reduce, identity: float) -> np.ndarray:
    """out[i] = reduce over j of op(F[j], G[i - j]), starting from identity, on
    the lattice of pairwise sums (shape ``F.shape + G.shape - 1``).

    The one kernel behind the min-plus and inf-max convolutions (reduce
    ``np.minimum``, identity +inf) and the sup-min oracle (reduce
    ``np.maximum``, op ``np.minimum``, identity 0).  Entries ``F[j] ==
    identity`` are skipped: op(identity, g) is +inf or at most 0 there, which
    never moves an accumulator that starts at identity.
    """
    out = np.full(tuple(a + b - 1 for a, b in zip(F.shape, G.shape)), identity)
    for j in zip(*np.nonzero(F != identity)):
        block = out[tuple(slice(k, k + n) for k, n in zip(j, G.shape))]
        reduce(block, op(F[j], G), out=block)
    return out
