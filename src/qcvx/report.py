"""Check reports: one record per verified inequality instance."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    ``margin`` is left - right (or the minimum containment slack); the verdict
    is measured relative to scale = max(|left|, |right|, 1):

        holds                margin / scale >  tol
        holds-with-equality  |margin| / scale <= tol
        violated             margin / scale < -tol  (witness attached)
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


def verdict_for(margin: float, scale: float, tol: float) -> str:
    rel = margin / max(abs(scale), 1.0)
    if rel < -tol:
        return "violated"
    if abs(rel) <= tol:
        return "holds-with-equality"
    return "holds"


def make_report(name: str, statement: str, left: float, right: float, tol: float,
                details: Optional[dict] = None, witness: Optional[dict] = None,
                margin: Optional[float] = None) -> CheckReport:
    """Build a report from left/right values (margin defaults to left - right)."""
    margin = (left - right) if margin is None else margin
    scale = max(abs(left), abs(right), 1.0)
    verdict = verdict_for(margin, scale, tol)
    return CheckReport(name=name, statement=statement, left=left, right=right,
                       margin=margin, verdict=verdict, tol=tol,
                       details=details or {},
                       witness=witness if verdict == "violated" else None)
