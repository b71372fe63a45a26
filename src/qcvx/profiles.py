"""Decreasing radial profiles h: [0, inf) -> [0, 1] with h(0) = 1.

A profile together with a base body describes a quasi-concave function with
homothetic level sets: the level set at height t is r(t) * base, where
r = inv is the generalized inverse of h (largest radius, matching closed
upper level sets).  Closed-form moments are provided wherever the profile
family admits them; everything else falls back to adaptive quadrature.

Moment conventions used throughout the package:

    moment(p)          = integral_0^inf h(r) r^p dr          (p > -1)
    height_integral(p) = integral_0^1 r(t)^p dt = p * moment(p - 1)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gamma

from .errors import DivergentIntegral, NonpositiveScale, parsing_input
from .quadrature import integrate_height, integrate_interval, integrate_radial


_EPS = math.ulp(1.0)


def _geometric_mean(lo: float, hi: float) -> float:
    """sqrt(lo * hi), from the roots where the product would underflow."""
    prod = lo * hi
    return math.sqrt(prod) if prod >= sys.float_info.min else math.sqrt(lo) * math.sqrt(hi)


def margin_root(margin, lo: float, hi: float, m_lo: float, m_hi: float) -> float:
    """The sign change of a rising ``margin`` in (lo, hi], given
    margin(lo) = m_lo <= 0 < m_hi = margin(hi): a safeguarded secant search
    in u = log t, finished by geometric bisection.  Every height search of
    the package runs it: sums, dilations, radius sums and size profiles.

    Each step is the Illinois regula falsi point in u, taken from the end
    whose margin is nearer 0 and kept 4 ulps of t (of u below t = 1/e)
    inside the bracket, since a margin computed through log t tells no
    closer heights apart.  The geometric midpoint replaces it in a narrower
    bracket, at a margin that is not finite (an empty level set), or once
    the log-width is more than two halvings behind plain bisection, which
    bounds the steps on a margin that jumps (a band edge), only gives its
    sign (a flat level set) or spans many decades (a power-law radius).
    Once hi <= lo * (1 + 8 eps), geometric bisection runs until the
    midpoint rounds onto an end, and lo is returned.  A smooth margin takes
    8-16 evaluations, any other at most three more than plain bisection.
    """
    width, steps, kept = math.log(hi) - math.log(lo), 0, 0
    while hi > lo * (1.0 + 8.0 * _EPS):
        u_lo, u_hi = math.log(lo), math.log(hi)
        on_schedule = u_hi - u_lo <= width * 2.0 ** (2 - steps)
        pad = 1.0 + 4.0 * _EPS * max(1.0, -u_lo)
        if on_schedule and math.isfinite(m_lo) and math.isfinite(m_hi) and hi > lo * pad * pad:
            u = (u_lo - m_lo * (u_hi - u_lo) / (m_hi - m_lo) if -m_lo < m_hi
                 else u_hi - m_hi * (u_hi - u_lo) / (m_hi - m_lo))
            t = min(max(math.exp(u), lo * pad), hi / pad)
        else:
            t = _geometric_mean(lo, hi)
        m = margin(t)
        steps += 1
        if m <= 0.0:
            lo, m_lo = t, m
            if kept < 0:  # hi kept twice running: Illinois halves its margin
                m_hi *= 0.5
            kept = -1
        else:
            hi, m_hi = t, m
            if kept > 0:
                m_lo *= 0.5
            kept = 1
    while True:
        mid = _geometric_mean(lo, hi)
        if mid == lo or mid == hi:
            return lo
        lo, hi = (mid, hi) if margin(mid) <= 0.0 else (lo, mid)


class Profile:
    """Interface shared by all profile families."""

    def value(self, r):
        raise NotImplementedError

    def inv(self, t):
        """Generalized inverse sup{r : h(r) >= t} for t in (0, 1]."""
        raise NotImplementedError

    def moment(self, p: float) -> float:
        if p <= -1:
            raise DivergentIntegral("moments need p > -1")
        return integrate_radial(lambda r: self.value(r) * np.power(r, p))

    def height_integral(self, p: float) -> float:
        if p == 0:
            return 1.0
        if p >= 1 and float(p).is_integer():
            return p * self.moment(p - 1.0)
        return integrate_height(lambda t: self.inv(t) ** p)

    def is_log_concave(self) -> bool:
        """Midpoint test of log h on a sample grid; subclasses override."""
        r = np.linspace(0.0, 8.0 * self.inv(0.5), 257)
        h = np.maximum(np.asarray(self.value(r), dtype=float), 1e-300)
        logh = np.log(h)
        return bool(np.all(logh[1:-1] >= 0.5 * (logh[:-2] + logh[2:]) - 1e-9))

    def is_regular(self) -> bool:
        """Continuous, strictly decreasing, vanishing at infinity."""
        return False

    def scaled(self, lam: float) -> "Profile":
        """Profile of the lam-homothety: every level radius multiplied by lam."""
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return ScaledProfile(self, lam) if lam != 1.0 else self


@dataclass(frozen=True)
class StretchedExponentialProfile(Profile):
    """h(r) = exp(-c r^p); p = 1 exponential, p = 2 Gaussian."""

    c: float
    p: float = 1.0

    def __post_init__(self):
        if self.c <= 0 or self.p < 1.0:
            raise ValueError("need c > 0 and p >= 1")

    def value(self, r):
        return np.exp(-self.c * np.power(np.maximum(r, 0.0), self.p))

    def inv(self, t):
        return np.power(np.log(1.0 / t) / self.c, 1.0 / self.p)

    def moment(self, p):
        if p <= -1:
            raise DivergentIntegral("moments need p > -1")
        q = (p + 1.0) / self.p
        return float(gamma(q) / (self.p * self.c ** q))

    def is_log_concave(self):
        return True

    def is_regular(self):
        return True

    def scaled(self, lam):
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return StretchedExponentialProfile(self.c / lam ** self.p, self.p)


def exponential_profile(c: float = 1.0) -> StretchedExponentialProfile:
    return StretchedExponentialProfile(c, 1.0)


def GaussianProfile(c: float = 1.0) -> StretchedExponentialProfile:
    return StretchedExponentialProfile(c, 2.0)


@dataclass(frozen=True)
class PowerLawProfile(Profile):
    """h(r) = (1 + r/s)^(-a); quasi-concave but not log-concave."""

    a: float
    s: float = 1.0

    def __post_init__(self):
        if self.a <= 2 or self.s <= 0:
            raise ValueError("need a > 2 and s > 0")

    def value(self, r):
        return np.power(1.0 + np.maximum(r, 0.0) / self.s, -self.a)

    def inv(self, t):
        return self.s * (np.power(t, -1.0 / self.a) - 1.0)

    def moment(self, p):
        if p <= -1:
            raise DivergentIntegral("moments need p > -1")
        if self.a <= p + 1:
            raise DivergentIntegral(
                f"tail (1+r/s)^(-{self.a}) is not integrable against r^{p}")
        return float(self.s ** (p + 1) * gamma(p + 1) * gamma(self.a - p - 1) / gamma(self.a))

    def is_log_concave(self):
        return False

    def is_regular(self):
        return True

    def scaled(self, lam):
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return PowerLawProfile(self.a, self.s * lam)


class TableProfile(Profile):
    """Monotone interpolation through knots; zero beyond the last knot."""

    def __init__(self, knots: Sequence[float], values: Sequence[float]):
        # imported here: scipy.interpolate (and the scipy.optimize it loads)
        # costs every process about 0.25 s, and only table profiles use it
        from scipy.interpolate import PchipInterpolator

        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots[0] != 0.0 or abs(values[0] - 1.0) > 1e-12:
            raise ValueError("table must start at h(0) = 1")
        if np.any(np.diff(knots) <= 0) or np.any(np.diff(values) > 0):
            raise ValueError("knots must increase and values must not increase")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("values must lie in [0, 1]")
        self.knots = knots
        self.values = values
        self._interp = PchipInterpolator(knots, values, extrapolate=False)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = self._interp(np.clip(r, self.knots[0], self.knots[-1]))
        out = np.where(r > self.knots[-1], 0.0, out)
        return np.clip(out, 0.0, 1.0)

    def inv(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.empty_like(t)
        for k, ti in enumerate(t):
            if ti <= self.values[-1]:
                out[k] = self.knots[-1]
                continue
            lo_i = int(np.searchsorted(-self.values, -ti, side="right")) - 1
            lo, hi = self.knots[lo_i], self.knots[min(lo_i + 1, len(self.knots) - 1)]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(self._interp(mid)) >= ti:
                    lo = mid
                else:
                    hi = mid
            out[k] = lo
        return float(out[0]) if scalar else out

    def moment(self, p):
        if p <= -1:
            raise DivergentIntegral("moments need p > -1")
        return integrate_interval(lambda r: self.value(r) * np.power(r, p),
                                  0.0, float(self.knots[-1]), 1e-12)

    def is_regular(self):
        return False  # either discontinuous at the cutoff or not strictly decreasing

    def scaled(self, lam):
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return TableProfile(self.knots * lam, self.values)


@dataclass(frozen=True)
class ScaledProfile(Profile):
    """Level radii of `inner` multiplied by lam: h(r) = inner(r / lam)."""

    inner: Profile
    lam: float

    def value(self, r):
        return self.inner.value(np.asarray(r, dtype=float) / self.lam)

    def inv(self, t):
        return self.lam * self.inner.inv(t)

    def moment(self, p):
        return self.lam ** (p + 1) * self.inner.moment(p)

    def is_log_concave(self):
        return self.inner.is_log_concave()

    def is_regular(self):
        return self.inner.is_regular()

    def scaled(self, lam):
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return ScaledProfile(self.inner, self.lam * lam)


@dataclass(frozen=True)
class ShiftedProfile(Profile):
    """Epsilon-extension profile h(r) = inner(max(r - eps, 0))."""

    inner: Profile
    eps: float

    def value(self, r):
        return self.inner.value(np.maximum(np.asarray(r, dtype=float) - self.eps, 0.0))

    def inv(self, t):
        return self.inner.inv(t) + self.eps

    def moment(self, p):
        if float(p).is_integer() and p >= 0:
            p = int(p)
            total = self.eps ** (p + 1) / (p + 1)
            for j in range(p + 1):
                total += math.comb(p, j) * self.eps ** (p - j) * self.inner.moment(j)
            return total
        return super().moment(p)

    def is_log_concave(self):
        return self.inner.is_log_concave()

    def is_regular(self):
        return False  # constant on [0, eps]


class SumProfile(Profile):
    """Levelwise radius sum: r(t) = sum_i r_i(t); h recovered by ``margin_root``."""

    def __init__(self, parts: Sequence[Profile]):
        flat: list[Profile] = []
        for part in parts:
            if isinstance(part, SumProfile):
                flat.extend(part.parts)
            else:
                flat.append(part)
        self.parts = tuple(flat)

    def inv(self, t):
        total = self.parts[0].inv(t)
        for part in self.parts[1:]:
            total = total + part.inv(t)
        return total

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.array([self._height(rk) for rk in r.ravel().tolist()]).reshape(r.shape)
        return float(out) if r.ndim == 0 else out

    def _height(self, r: float) -> float:
        """sup{t : r(t) >= r} on [1e-300, 1], where r - r(t) changes sign."""
        m_lo, m_hi = r - float(self.inv(1e-300)), r - float(self.inv(1.0))
        if m_hi <= 0.0:
            return 1.0
        return 1e-300 if m_lo > 0.0 else \
            margin_root(lambda t: r - float(self.inv(t)), 1e-300, 1.0, m_lo, m_hi)

    def moment(self, p):
        return self.height_integral(p + 1.0) / (p + 1.0)

    def height_integral(self, p):
        if p == 0:
            return 1.0
        return integrate_height(lambda t: self.inv(t) ** p)

    def is_regular(self):
        return all(part.is_regular() for part in self.parts)

    def scaled(self, lam):
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return SumProfile([part.scaled(lam) for part in self.parts])


class RescaledProfile(Profile):
    """alpha o h for an increasing bijection alpha of [0, 1]."""

    def __init__(self, inner: Profile, alpha: Callable, alpha_inv: Callable):
        self.inner = inner
        self.alpha = alpha
        self.alpha_inv = alpha_inv

    def value(self, r):
        return self.alpha(self.inner.value(r))

    def inv(self, t):
        return self.inner.inv(self.alpha_inv(t))

    def is_regular(self):
        return self.inner.is_regular()

    def scaled(self, lam):
        if lam <= 0:
            raise NonpositiveScale(f"scale factor must be positive, got {lam}")
        return RescaledProfile(self.inner.scaled(lam), self.alpha, self.alpha_inv)


def profile_to_json(profile: Profile) -> dict:
    if isinstance(profile, StretchedExponentialProfile):
        if profile.p == 1.0:
            return {"kind": "exp", "c": profile.c}
        if profile.p == 2.0:
            return {"kind": "gauss", "c": profile.c}
        return {"kind": "stretched", "c": profile.c, "p": profile.p}
    if isinstance(profile, PowerLawProfile):
        return {"kind": "powerlaw", "a": profile.a, "s": profile.s}
    if isinstance(profile, TableProfile):
        return {"kind": "table", "knots": profile.knots.tolist(),
                "values": profile.values.tolist()}
    raise ValueError(f"profile {type(profile).__name__} has no JSON form")


@parsing_input()
def profile_from_json(obj: dict) -> Profile:
    kind = obj.get("kind")
    if kind == "exp":
        return StretchedExponentialProfile(float(obj["c"]), 1.0)
    if kind == "gauss":
        return StretchedExponentialProfile(float(obj["c"]), 2.0)
    if kind == "stretched":
        return StretchedExponentialProfile(float(obj["c"]), float(obj["p"]))
    if kind == "powerlaw":
        return PowerLawProfile(float(obj["a"]), float(obj["s"]))
    if kind == "table":
        return TableProfile(obj["knots"], obj["values"])
    raise ValueError(f"unknown profile kind {kind!r}")
