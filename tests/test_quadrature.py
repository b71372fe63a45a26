"""Node-set quadrature against the panel-by-panel rule it replaces, and the
closed forms that take stretched-exponential terms off the quadrature.

``gl_panel`` evaluates every node set the adaptive rule is certain to need in
one integrand call.  The reference below is the rule as it was before: one
integrand call per 64-node panel, each composite rule summed panel by panel,
with the same substitutions.  Every value must come out the same float, every
failure the same message, and the integrand must see exactly the same nodes.

A product of stretched-exponential radii is k * log(1/t)^s and integrates to
incomplete Gamma values; those are checked against a series reference that
shares no code with scipy.
"""

import math
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
from qcvx.qc import (
    RadialQC,
    indicator,
    integral,
    integrate_terms,
    mixed_integral,
    oplus,
    quermassintegral_fn,
)
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
    if lo > 0.0 and hi < 1.0:
        return _ref_interval(fn, lo, hi, rel_tol, max_nodes)

    def g(u):  # s = u^3 near t = 1: on the first panel of (0, 1], on all of (lo, 1]
        if hi == 1.0 and (lo > 0.0 or u[0] < 1.0):
            t = np.exp(-(u * u * u))
            return fn(t) * t * (3.0 * u * u)
        t = np.exp(-u)
        return fn(t) * t

    if lo > 0.0:
        return _ref_interval(g, 0.0, (-math.log(lo)) ** (1.0 / 3.0), rel_tol, max_nodes)
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
    stops at ceil(cap / 64) panels; a slow power-law tail raises there.  A
    band (lo, 1] is one interval in u = log(1/t)^(1/3)."""
    prof = PowerLawProfile(4.5, 0.5)

    def height(t):
        return prof.inv(t) ** 2

    def radial(r):
        return prof.value(r) * r

    runs = [(integrate_height, _ref_height, height),
            (lambda f: integrate_height(f, 0.05, 0.8), lambda f: _ref_height(f, 0.05, 0.8), height),
            (lambda f: integrate_height(f, 0.05, 1.0), lambda f: _ref_height(f, 0.05, 1.0), height),
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
    assert settled == ([False, True, True, True, False] if cap else [True] * 5)


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


# -- closed forms ---------------------------------------------------------------

def _lower_gamma(a, x):
    """gamma(a, x) = x^a e^(-x) sum_k x^k / (a (a + 1) ... (a + k)): positive
    terms, summed exactly until they stop counting; Gamma(a) at x = inf."""
    if x == math.inf:
        return math.gamma(a)
    terms = [1.0 / a]
    while terms[-1] > 1e-20 * max(terms):
        terms.append(terms[-1] * x / (a + len(terms)))
    return x ** a * math.exp(-x) * math.fsum(terms)


def _log_power_reference(e, lo, hi):
    """Integral of log(1/t)^e dt over (lo, hi] = gamma(e + 1, log 1/lo)
    - gamma(e + 1, log 1/hi)."""
    x_lo = math.inf if lo == 0.0 else -math.log(lo)
    return _lower_gamma(e + 1.0, x_lo) - _lower_gamma(e + 1.0, -math.log(hi))


def _panel_calls(monkeypatch):
    """The list that every later ``gl_panel`` call appends its rules to."""
    calls, panel = [], quadrature.gl_panel

    def counting(fn, rules):
        calls.append(rules)
        return panel(fn, rules)

    monkeypatch.setattr(quadrature, "gl_panel", counting)
    return calls


BANDS = [(0.0, 1.0), (0.0, 0.6), (0.2, 1.0), (0.2, 0.6)]


@pytest.mark.parametrize("lo, hi", BANDS)
@pytest.mark.parametrize("e", [0.2, 1 / 3, 0.5, 2 / 3, 0.9])
def test_one_stretched_factor_integrates_to_its_gamma_value(e, lo, hi):
    """The level radius of exp(-c r^(1/e)) is (log(1/t) / c)^e: in closed form
    and by the graded quadrature, its integral over a band is
    c^(-e) gamma(e + 1, .) to 1e-12, at t = 1 too, where the radius has an
    e-th power singularity in s = log(1/t)."""
    c = 1.3
    prof = StretchedExponentialProfile(c, 1.0 / e)
    exact = c ** -e * _log_power_reference(e, lo, hi)
    assert integrate_terms([prof], [(1.0, (0,))], lo, hi) == pytest.approx(exact, rel=1e-12)
    assert integrate_height(prof.inv, lo, hi) == pytest.approx(exact, rel=1e-12)
    if (lo, hi) == (0.0, 1.0):
        assert prof.height_integral(1.5) == pytest.approx(
            c ** (-1.5 * e) * math.gamma(1.0 + 1.5 * e), rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_square_against_a_stretched_disc_is_its_mixed_area_times_gamma(p):
    """K = [-1, 1]^2, B the unit disc: V(K, r B) = 4 r, so the mixed integral
    of 1_K and exp(-|x|^p) is V(K, B) Gamma(1 + 1/p) with V(K, B) = 4."""
    square = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    disc = RadialQC(ConvexBody.ball(1.0, 2), StretchedExponentialProfile(1.0, p))
    assert mixed_integral([indicator(square), disc]) == pytest.approx(
        4.0 * math.gamma(1.0 + 1.0 / p), rel=1e-12)


def test_square_plus_a_gaussian_disc_is_its_steiner_sum(monkeypatch):
    """|K + r B| = 4 + 2 V(K, B) r + pi r^2 with r = log(1/t)^(1/2), so the
    integral of 1_K (+) exp(-|x|^2) is 4 + 2 V(K, B) Gamma(3/2) + pi; its band
    has stretched-exponential radii alone and takes no quadrature panel."""
    calls = _panel_calls(monkeypatch)
    square = ConvexBody.box([-1.0, -1.0], [1.0, 1.0])
    gauss = RadialQC(ConvexBody.ball(1.0, 2), GaussianProfile(1.0))
    assert integral(oplus(indicator(square), gauss)) == pytest.approx(
        4.0 + 8.0 * math.gamma(1.5) + math.pi, rel=1e-12)
    assert calls == []


def test_stretched_only_bands_take_no_quadrature_panel(monkeypatch):
    """Sums of stretched-exponential radial functions, their quermassintegrals,
    a generalized weight constant of such weights and a non-integer height
    integral are all closed forms; a power-law factor still takes panels."""
    calls = _panel_calls(monkeypatch)
    for dim in (2, 3):
        f, summed, banded = _seeded_functions(dim)
        for h in (summed, banded):
            integral(h)
            quermassintegral_fn(h, 1)
        mixed_integral([summed, f, banded][:dim])
    weights = (RadialQC(ConvexBody.ball(1.0, 3), GaussianProfile(0.9)),
               RadialQC(ConvexBody.box([-1] * 3, [1] * 3), exponential_profile(1.4)))
    SizeFunctional(dim=3, degree=1, weights=weights).weight_constant
    StretchedExponentialProfile(1.5, 1.7).height_integral(0.5)
    assert calls == []
    weights = weights[:1] + (RadialQC(ConvexBody.ball(1.0, 3), PowerLawProfile(5.0, 1.0)),)
    SizeFunctional(dim=3, degree=1, weights=weights).weight_constant
    assert calls


def test_a_power_at_or_below_minus_one_diverges_at_t_one():
    for s in (-1.0, -1.5):
        with pytest.raises(DivergentIntegral, match="near t = 1"):
            quadrature.log_power_integral(s)
    assert quadrature.log_power_integral(0.5, 0.6, 0.6) == 0.0
