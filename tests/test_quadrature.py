"""Node-set quadrature against the panel-by-panel rule it replaces.

``gl_panel`` evaluates every node set the adaptive rule is certain to need in
one integrand call.  The reference below is the rule as it was before: one
integrand call per 64-node panel, each composite rule summed panel by panel.
Every value must come out the same float, every failure the same message,
and the integrand must see exactly the same nodes.
"""

import sys

import numpy as np
import pytest

from qcvx import quadrature
from qcvx.bodies import ConvexBody
from qcvx.errors import DivergentIntegral
from qcvx.generators import random_polytope, random_stack
from qcvx.profiles import (
    GaussianProfile,
    PowerLawProfile,
    RescaledProfile,
    StretchedExponentialProfile,
    TableProfile,
    exponential_profile,
)
from qcvx.qc import RadialQC, integral, mixed_integral, oplus, quermassintegral_fn
from qcvx.quadrature import (
    NODES_PER_PANEL,
    REL_TOL,
    _panel_edges,
    integrate_height,
    integrate_interval,
    integrate_radial,
    node_cap,
)
from qcvx.rearrange import SizeFunctional
from qcvx.reshape import ParabolicCapQC

# -- the panel-by-panel reference ----------------------------------------------


def _ref_panel(fn, a, b):
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.dot(w, fn(mid + half * x)))


def _ref_fixed(fn, a, b, panels):
    edges = _panel_edges(a, b, panels)
    return sum(_ref_panel(fn, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def _ref_interval(fn, a, b, rel_tol=REL_TOL, max_nodes=None):
    if b <= a:
        return 0.0
    max_nodes = quadrature._NODE_CAP.get() if max_nodes is None else max_nodes
    panels = 1
    prev = _ref_fixed(fn, a, b, panels)
    while panels * 2 * NODES_PER_PANEL <= max_nodes:
        panels *= 2
        cur = _ref_fixed(fn, a, b, panels)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def _ref_tail(fn, start, rel_tol, max_nodes, what, near):
    max_nodes = quadrature._NODE_CAP.get() if max_nodes is None else max_nodes
    total, edge, width, used, last, grew = 0.0, start, 1.0, 0, np.inf, 0
    while used < max_nodes:
        panel = _ref_interval(fn, edge, edge + width, rel_tol, 4 * NODES_PER_PANEL)
        total += panel
        used += NODES_PER_PANEL
        if abs(panel) <= rel_tol * max(abs(total), 1e-300) and edge > start + 4.0:
            return total
        grew = grew + 1 if abs(panel) > abs(last) else 0
        if grew >= 8:
            raise DivergentIntegral(f"{what} does not converge{near}")
        last = panel
        edge += width
        width *= 2.0
    raise DivergentIntegral(f"{what} did not settle within the node cap")


def _ref_height(fn, lo=0.0, hi=1.0, rel_tol=REL_TOL, max_nodes=None):
    if hi <= lo:
        return 0.0
    max_nodes = quadrature._NODE_CAP.get() if max_nodes is None else max_nodes
    if lo > 0.0:
        return _ref_interval(fn, lo, hi, rel_tol, max_nodes)

    def g(s):
        t = np.exp(-s)
        return fn(t) * t

    return _ref_tail(g, -np.log(hi), rel_tol, max_nodes, "height integral", " near t = 0")


def _ref_radial(fn):
    return _ref_tail(fn, 0.0, REL_TOL, None, "radial integral", "")


REFERENCE = {integrate_height: _ref_height, integrate_interval: _ref_interval,
             integrate_radial: _ref_radial}


def _outcome(call):
    """The float a call returns, to the bit, or the error it raises."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 (the failure is the outcome)
        return ("raises", type(exc).__name__, str(exc))
    return ("value", float(value).hex())


def _both(call, monkeypatch):
    """(outcome with the node-set rule, outcome with the reference bound in
    every qcvx module in its place).  ``call`` builds its inputs afresh, so
    no cached integral carries over from one run to the other; it reaches
    the quadrature through the package, never through this module's names."""
    new = _outcome(call)
    with monkeypatch.context() as patch:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qcvx" or name.startswith("qcvx.")):
                continue
            for attr, value in list(vars(mod).items()):
                for public, ref in REFERENCE.items():
                    if value is public:
                        patch.setattr(mod, attr, ref)
        old = _outcome(call)
    return new, old


def _nodes_seen(run, fn):
    """(integrand calls, sorted bytes of every node) of run(integrand), which
    may end in DivergentIntegral."""
    seen = []

    def counted(x):
        seen.append(np.array(x, dtype=float))
        return fn(x)

    try:
        run(counted)
    except DivergentIntegral:
        pass
    return len(seen), np.sort(np.concatenate(seen)).tobytes()


# -- bitwise agreement ---------------------------------------------------------

FAMILIES = {
    "exp": lambda: exponential_profile(1.3),
    "gauss": lambda: GaussianProfile(0.7),
    "stretched": lambda: StretchedExponentialProfile(1.5, 1.7),
    "powerlaw": lambda: PowerLawProfile(4.5, 0.5),
    "table": lambda: TableProfile([0.0, 0.5, 1.0, 2.0, 3.5], [1.0, 0.8, 0.45, 0.1, 0.0]),
    "rescaled": lambda: RescaledProfile(exponential_profile(1.0), np.sqrt, np.square),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_is_bitwise_the_panel_by_panel_rule(family, monkeypatch):
    make = FAMILIES[family]
    calls = [
        lambda: make().height_integral(2.5),
        lambda: make().height_integral(0.5),
        lambda: make().moment(1.5),
        lambda: make().moment(2.0),
        lambda: quadrature.integrate_height(lambda t: make().inv(t) ** 1.5),
        lambda: quadrature.integrate_height(lambda t: make().inv(t) ** 2, 0.2, 0.9),
        lambda: quadrature.integrate_radial(lambda r: make().value(r) * np.power(r, 0.75)),
        lambda: quadrature.integrate_interval(lambda r: make().value(r) * r, 0.1, 2.7),
    ]
    for call in calls:
        new, old = _both(call, monkeypatch)
        assert new == old
        assert new[0] == "value"


def _seeded_functions(dim):
    rng = np.random.default_rng(2700 + dim)
    f = RadialQC(random_polytope(rng, dim, 8, origin_interior=True), GaussianProfile(0.8))
    g = RadialQC(ConvexBody.ball(1.0, dim), StretchedExponentialProfile(1.2, 1.4))
    stack = random_stack(rng, dim, 3)
    return f, oplus(f, g), oplus(stack, g)


@pytest.mark.parametrize("dim", [2, 3])
def test_mixed_integrals_of_sums_and_bands_are_bitwise_the_reference(dim, monkeypatch):
    calls = [lambda: mixed_integral(list(_seeded_functions(dim))[:dim][::-1])]
    for k in range(3):  # radial, summed, banded
        calls += [lambda k=k: integral(_seeded_functions(dim)[k]),
                  lambda k=k: quermassintegral_fn(_seeded_functions(dim)[k], 1)]
    for call in calls:
        new, old = _both(call, monkeypatch)
        assert new == old
        assert new[0] == "value"


def test_non_banded_mixed_integral_is_bitwise_the_reference(monkeypatch):
    """ParabolicCapQC has no bands: mixed_integral's fallback integrand takes
    one mixed volume of level sets per node."""
    exp_disc = RadialQC(ConvexBody.ball(1.0, 2), exponential_profile(1.0))
    new, old = _both(lambda: mixed_integral([ParabolicCapQC(8), exp_disc]), monkeypatch)
    assert new == old
    assert new[0] == "value"


def test_generalized_weight_constant_is_bitwise_the_reference(monkeypatch):
    def weight_constant():
        weights = (RadialQC(ConvexBody.ball(1.0, 3), GaussianProfile(1.0)),
                   RadialQC(ConvexBody.box([-1] * 3, [1] * 3), PowerLawProfile(5.0, 1.0)))
        return SizeFunctional(dim=3, degree=1, weights=weights).weight_constant

    new, old = _both(weight_constant, monkeypatch)
    assert new == old
    assert new[0] == "value"


@pytest.mark.parametrize("cap", [1, 64, 128, 200, 256, None])
def test_node_caps_give_the_reference_outcome_on_the_same_nodes(cap):
    """Below 128 nodes an interval forms its 1-panel rule only, and a tail
    stops at ceil(cap / 64) panels; a slow power-law tail raises there."""
    prof = PowerLawProfile(4.5, 0.5)

    def height(t):
        return prof.inv(t) ** 2

    def radial(r):
        return prof.value(r) * r

    runs = [(integrate_height, _ref_height, height),
            (lambda f: integrate_height(f, 0.05, 0.8), lambda f: _ref_height(f, 0.05, 0.8), height),
            (lambda f: integrate_interval(f, 0.05, 0.8), lambda f: _ref_interval(f, 0.05, 0.8),
             height),
            (integrate_radial, _ref_radial, radial)]
    with node_cap(cap or quadrature.DEFAULT_MAX_NODES):
        outcomes = []
        for run, ref, fn in runs:
            outcomes.append(_outcome(lambda: run(fn)))
            assert outcomes[-1] == _outcome(lambda: ref(fn))
            assert _nodes_seen(run, fn)[1] == _nodes_seen(ref, fn)[1]
    settled = [outcome[0] == "value" for outcome in outcomes]
    assert settled == ([False, True, True, False] if cap else [True] * 4)


def test_a_divergent_moment_raises_the_reference_message(monkeypatch):
    def divergent():
        return RescaledProfile(PowerLawProfile(2.5, 1.0), np.sqrt, np.square).moment(2.0)

    new, old = _both(divergent, monkeypatch)
    assert new == old
    assert new[:2] == ("raises", "DivergentIntegral")
    new, old = _both(lambda: quadrature.integrate_height(lambda t: 1.0 / t), monkeypatch)
    assert new == old
    assert new[:2] == ("raises", "DivergentIntegral")


# -- one integrand call per node set --------------------------------------------

def test_a_height_integral_makes_at_most_four_integrand_calls():
    """Powers of the level radius of exp(-|x|): 18-22 calls panel by panel,
    at most four now, on exactly the same nodes."""
    prof = exponential_profile(1.0)
    for p in (1.0, 1.5, 2.0, 2.5, 3.0):
        calls, nodes = _nodes_seen(integrate_height, lambda t: prof.inv(t) ** p)
        ref_calls, ref_nodes = _nodes_seen(_ref_height, lambda t: prof.inv(t) ** p)
        assert calls <= 4 < 18 <= ref_calls
        assert nodes == ref_nodes


@pytest.mark.parametrize("edge", [0.3, 0.7, 2.5, 5.0, 9.0])
def test_an_integrand_that_names_its_first_bad_node_raises_the_reference_error(edge):
    """A node set lists its nodes in the order the panel-by-panel rule
    reaches them, so the first node an integrand rejects is the same."""
    def picky(s):
        bad = s[s > edge]
        if bad.size:
            raise ValueError(f"node {bad[0]!r}")
        return np.exp(-s)

    runs = ((lambda: quadrature._tail(picky, 0.0, REL_TOL, None, "", ""),
             lambda: _ref_tail(picky, 0.0, REL_TOL, None, "", "")),
            (lambda: integrate_interval(picky, 0.0, 1.0),
             lambda: _ref_interval(picky, 0.0, 1.0)))
    for run, ref in runs[:1 + (edge < 1.0)]:
        assert _outcome(run) == _outcome(ref)
        assert _outcome(run)[:2] == ("raises", "ValueError")


def test_tail_evaluates_no_node_the_panel_by_panel_rule_skips():
    """A tail that settles on its fourth panel never forms a fifth, and an
    interval whose 1- and 2-panel rules agree never forms its 4-panel rule."""
    for fn in (lambda s: np.exp(-40.0 * s), lambda s: np.exp(-s) * (1 + s * s)):
        for run, ref in ((lambda f: quadrature._tail(f, 0.0, REL_TOL, None, "", ""),
                          lambda f: _ref_tail(f, 0.0, REL_TOL, None, "", "")),
                         (lambda f: integrate_interval(f, 0.0, 3.0),
                          lambda f: _ref_interval(f, 0.0, 3.0))):
            assert _nodes_seen(run, fn)[1] == _nodes_seen(ref, fn)[1]
