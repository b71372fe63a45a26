"""Composite Gauss-Legendre quadrature for height and radial integrals.

Integrals over heights t in (0, 1] use the substitution t = e^(-s), which
turns every supported profile into a smooth integrand on [0, inf).  Panels
are doubled until two successive composite estimates agree to 1e-10 relative,
with a hard cap of 2^14 nodes; integrands that keep growing at the cap raise
``DivergentIntegral``.  ``node_cap`` lowers or raises the cap for the calls
made inside one ``with`` block (the CLI's ``--panels``); outside any block the
cap is 2^14.  An integrand takes an array of nodes and must act on each node
alone: one call covers the 1- and 2-panel rules that every interval forms,
and in a tail those of the first four panels, which it always reaches.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import DivergentIntegral

NODES_PER_PANEL = 64
DEFAULT_MAX_NODES = 2 ** 14
REL_TOL = 1e-10

_NODE_CAP: ContextVar[int] = ContextVar("qcvx_node_cap", default=DEFAULT_MAX_NODES)


@contextmanager
def node_cap(max_nodes: int) -> Iterator[None]:
    """Cap the quadrature nodes of every call made inside the block; the
    previous cap comes back when the block exits.  Must be at least 1."""
    if max_nodes < 1:
        raise ValueError(f"node cap must be at least 1, got {max_nodes}")
    token = _NODE_CAP.set(int(max_nodes))
    try:
        yield
    finally:
        _NODE_CAP.reset(token)


@lru_cache(maxsize=1)
def _gl_nodes():
    return np.polynomial.legendre.leggauss(NODES_PER_PANEL)


def gl_panel(fn: Callable[[np.ndarray], np.ndarray], rules) -> list[float]:
    """The composite GL rule of each (a, b, panels), from one call of fn on all
    their nodes; each panel is its own dot product, so no rule sees the others."""
    x, w = _gl_nodes()
    lo, hi = np.array([span for a, b, panels in rules
                       for span in itertools.pairwise(_panel_edges(a, b, panels))]).T
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = np.reshape(fn((mid[:, None] + half[:, None] * x).ravel()), (len(lo), -1))
    sums = iter([float(h * np.dot(w, v)) for h, v in zip(half, vals)])
    return [sum(itertools.islice(sums, panels)) for _, _, panels in rules]


def _panel_edges(a: float, b: float, panels: int) -> list[float]:
    """The floats of ``np.linspace(a, b, panels + 1)``: k·step + a below the
    last edge, which is b itself."""
    step = (b - a) / panels
    return [k * step + a for k in range(panels)] + [b]


def integrate_interval(fn, a: float, b: float, rel_tol: float = REL_TOL,
                       max_nodes: int | None = None, opening=None) -> float:
    """Adaptive composite GL on a finite interval, panels doubled until stable.
    ``opening`` holds the 1- and 2-panel estimates where ``_tail`` formed them."""
    if b <= a:
        return 0.0
    max_nodes = _NODE_CAP.get() if max_nodes is None else max_nodes
    if opening is None:  # one gl_panel call, the 1-panel rule alone below a cap of 128
        opening = gl_panel(fn, [(a, b, 1), (a, b, 2)][:1 + (2 * NODES_PER_PANEL <= max_nodes)])
    panels, prev = 1, opening[0]
    while panels * 2 * NODES_PER_PANEL <= max_nodes:
        panels *= 2
        cur = opening[1] if panels == 2 else gl_panel(fn, [(a, b, panels)])[0]
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def integrate_height(fn, lo: float = 0.0, hi: float = 1.0,
                     rel_tol: float = REL_TOL, max_nodes: int | None = None) -> float:
    """Integral of fn(t) dt over (lo, hi] in (0, 1].

    A positive ``lo`` stays in t-space; lo == 0 switches to s = log(1/t) with
    geometrically growing panels so that profile blow-ups near t = 0 are
    resolved.  Non-integrable tails raise DivergentIntegral.
    """
    if hi <= lo:
        return 0.0
    max_nodes = _NODE_CAP.get() if max_nodes is None else max_nodes
    if lo > 0.0:
        return integrate_interval(fn, lo, hi, rel_tol, max_nodes)

    def g(s):
        t = np.exp(-s)
        return fn(t) * t

    return _tail(g, -np.log(hi), rel_tol, max_nodes, "height integral", " near t = 0")


def integrate_radial(fn) -> float:
    """Integral of fn(r) dr over [0, inf) on geometrically growing panels."""
    return _tail(fn, 0.0, REL_TOL, None, "radial integral", "")


def _tail(fn, start: float, rel_tol: float, max_nodes, what: str, near: str) -> float:
    """Integral of fn over [start, inf) on panels of width 1, 2, 4, ..., up to
    the first panel past start + 4 (the fourth or a later one) that adds at
    most rel_tol of the total; eight growing panels in a row or the node cap
    raise DivergentIntegral.  So the 1- and 2-panel rules of the first four
    panels (within the cap) are always formed, in one ``gl_panel`` call."""
    max_nodes = _NODE_CAP.get() if max_nodes is None else max_nodes
    edges = itertools.accumulate((1.0, 2.0, 4.0), initial=start)  # edge += width
    ahead = list(zip(edges, (1.0, 2.0, 4.0, 8.0)))[:-(-max_nodes // NODES_PER_PANEL)]
    opened = (gl_panel(fn, [(a, a + w, panels) for a, w in ahead for panels in (1, 2)])
              if ahead and all(a + w > a for a, w in ahead) else [])
    total, edge, width, k, last, grew = 0.0, start, 1.0, 0, np.inf, 0
    while k * NODES_PER_PANEL < max_nodes:
        panel = integrate_interval(fn, edge, edge + width, rel_tol, 4 * NODES_PER_PANEL,
                                   opened[2 * k:2 * k + 2] or None)
        total += panel
        k += 1
        if abs(panel) <= rel_tol * max(abs(total), 1e-300) and edge > start + 4.0:
            return total
        grew = grew + 1 if abs(panel) > abs(last) else 0
        if grew >= 8:
            raise DivergentIntegral(f"{what} does not converge{near}")
        last = panel
        edge += width
        width *= 2.0
    raise DivergentIntegral(f"{what} did not settle within the node cap")
