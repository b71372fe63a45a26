"""Check reports, one record per verified inequality instance, and
``judge``, the one rule that decides their verdicts."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import NumericalFailure


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check, built only by ``judge``.

    ``margin`` is each check's own slack: left - right over ``pair_scale``
    for the scalar harness checks, the worst relative gap for the levelwise,
    lattice and support-function checks, and the absolute left - right
    (judged at ``pair_scale``) for the reshape reports.  ``verdict`` follows
    ``judge``: ``violated`` exactly when the relative margin is below -tol
    (witness attached), ``holds-with-equality`` when the check's own
    equality test passed, and ``holds`` otherwise.
    """

    name: str
    statement: str
    left: float
    right: float
    margin: float
    verdict: str
    tol: float
    details: dict = field(default_factory=dict)
    witness: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.verdict in ("holds", "holds-with-equality")

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "statement": self.statement,
            "left": self.left,
            "right": self.right,
            "margin": self.margin,
            "verdict": self.verdict,
            "tol": self.tol,
            "details": self.details,
        }
        if self.witness is not None:
            payload["witness"] = self.witness
        return json.dumps(payload, sort_keys=True)


def pair_scale(left: float, right: float) -> float:
    """The scale a left/right comparison is judged at: max(|left|, |right|, 1)."""
    return max(abs(left), abs(right), 1.0)


def judge(name: str, statement: str, left: float, right: float, margin: float,
          tol: float, *, scale: float = 1.0, equality: Optional[bool] = None,
          details: Optional[dict] = None,
          witness: Optional[Callable[[], dict]] = None) -> CheckReport:
    """Decide a verdict and build its report; every check comes through here.

    The relative margin is ``margin / scale``.  The verdict is ``violated``
    iff it is below ``-tol``, ``holds-with-equality`` iff the caller's
    ``equality`` test passed (by default: the relative margin is within
    ``tol`` of 0), and ``holds`` otherwise.  ``witness`` builds the record
    of the inputs and is called only on a violation.  A margin that is not
    finite raises ``NumericalFailure``.
    """
    rel = margin / scale
    if not math.isfinite(rel):
        raise NumericalFailure(f"{name}: margin {margin!r} at scale {scale!r} is not finite")
    if equality is None:
        equality = abs(rel) <= tol
    verdict = "violated" if rel < -tol else "holds-with-equality" if equality else "holds"
    kept = witness() if verdict == "violated" and witness is not None else None
    return CheckReport(name=name, statement=statement, left=left, right=right,
                       margin=margin, verdict=verdict, tol=tol, details=details or {},
                       witness=kept)
