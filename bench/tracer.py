"""Per-layer spans of the qcvx package, recorded from outside it.

``Tracer.install`` replaces each traced function under every name that a
loaded ``qcvx`` module binds it to (``from .bodies import minkowski_sum``
gives ``qc.minkowski_sum`` its own reference), so calls made inside the
package are traced as well as calls made by the benchmark.  Methods are
replaced on their classes; ``profiles.inv`` covers every ``Profile`` subclass.

Each call records one span (name, start, end, parent span, operation id) in
flat arrays kept in memory; ``layer_stats`` derives call counts, inclusive
time and self time (duration minus the part covered by child spans), and
``save`` writes the spans out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# module -> functions traced under "<module>.<function>"
FUNCTIONS = {
    "bodies": ("minkowski_sum", "volume", "contains", "contains_point"),
    "mixed_volumes": ("mixed_volume", "minkowski_polynomial"),
    "quadrature": ("integrate_height", "integrate_interval", "gl_panel"),
    "qc": ("oplus", "integral", "mixed_integral", "supmin_arrays", "supmin_bracket"),
    "rearrange": ("ball_rearrange", "phi_rearrange"),
    "reshape": ("rescale_to_match", "rescaled_af", "dilate_to_exponential",
                "phi_profile"),
    "duality": ("a_transform_values", "lower_level_set", "sandwich_check",
                "polarity_sandwich_check"),
}

# (module, class, method, span name); polytope is a classmethod
METHODS = (
    ("bodies", "ConvexBody", "polytope", "bodies.polytope"),
    ("bodies", "ConvexBody", "facets", "bodies.facets"),
    ("report", "CheckReport", "to_json", "report.to_json"),
)


def _qcvx_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qcvx" or name.startswith("qcvx."))]


def _rebind(original, replacement) -> int:
    """Point every qcvx module attribute bound to ``original`` at ``replacement``."""
    count = 0
    for mod in _qcvx_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


class Tracer:
    """In-memory span recorder; one instance per traced interpreter."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = 0
        self._stack = [-1]
        self.counters = {"bodies.qhull.builds": 0, "bodies.qhull.qj_retries": 0,
                         "mixed_volumes.sum_volume.lookups": 0,
                         "mixed_volumes.sum_volume.hits": 0}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        clock = time.perf_counter
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import qcvx  # noqa: F401  (loads every submodule the package imports)
        import qcvx.cli  # noqa: F401
        from qcvx import bodies, checks, mixed_volumes, profiles

        for modname, fnames in FUNCTIONS.items():
            mod = sys.modules[f"qcvx.{modname}"]
            for fname in fnames:
                original = getattr(mod, fname)
                if _rebind(original, self.wrap(f"{modname}.{fname}", original)) == 0:
                    raise RuntimeError(f"qcvx.{modname}.{fname} is bound nowhere")

        for modname, clsname, meth, span in METHODS:
            cls = getattr(sys.modules[f"qcvx.{modname}"], clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(span, raw))

        pending = [profiles.Profile]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "inv" in cls.__dict__:
                setattr(cls, "inv", self.wrap("profiles.inv", cls.__dict__["inv"]))

        for name in list(checks.CHECKS):
            checks.CHECKS[name] = self.wrap(f"checks.{name}", checks.CHECKS[name])

        counters = self.counters
        real_hull = bodies.ConvexHull

        def counting_hull(points, *args, **kwargs):
            counters["bodies.qhull.builds"] += 1
            if "QJ" in str(kwargs.get("qhull_options") or ""):
                counters["bodies.qhull.qj_retries"] += 1
            return real_hull(points, *args, **kwargs)

        bodies.ConvexHull = counting_hull

        cache = mixed_volumes._SUM_VOLUME_CACHE
        real_lookup = mixed_volumes._cached_sum_volume

        def counting_lookup(reps, counts):
            before = len(cache)
            value = real_lookup(reps, counts)
            counters["mixed_volumes.sum_volume.lookups"] += 1
            if len(cache) == before:
                counters["mixed_volumes.sum_volume.hits"] += 1
            return value

        _rebind(real_lookup, counting_lookup)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_stats(self) -> dict:
        """name -> {"calls", "incl_s", "self_s"} over every recorded span."""
        spans = self.arrays()
        parent = spans["parent"]
        dur = spans["end"] - spans["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=k)
        incl = np.bincount(spans["name_id"], weights=dur, minlength=k)
        own = np.bincount(spans["name_id"], weights=dur - covered, minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(own[i])} for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

