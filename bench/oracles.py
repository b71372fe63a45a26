"""Independent computations and output checks; nothing here imports qcvx.

Volumes come from scipy's Qhull (``ConvexHull(...).volume``) on vertex-sum
clouds, mixed volumes from the polarization identity over those volumes, and
Minkowski-sum membership from the hull's facet equations.  The row, summary
and determinism checks read the files ``qcvx check`` writes.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math

import numpy as np
from scipy.spatial import ConvexHull

# the program's documented tolerances
TOL_EXACT = 1e-9
TOL_QUAD = 1e-6
TOL_MARGIN = 1e-8


# ---------------------------------------------------------------------------
# geometry by Qhull
# ---------------------------------------------------------------------------

def hull_vertices(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return pts[ConvexHull(pts).vertices]


def sum_cloud(*vertex_sets) -> np.ndarray:
    """Vertices of the Minkowski sum of the hulls of the given vertex sets."""
    acc = np.asarray(vertex_sets[0], dtype=float)
    for verts in vertex_sets[1:]:
        verts = np.asarray(verts, dtype=float)
        acc = hull_vertices((acc[:, None, :] + verts[None, :, :]).reshape(-1, acc.shape[1]))
    return acc


def hull_volume(*vertex_sets) -> float:
    """Volume (area in the plane) of the Minkowski sum of the given hulls."""
    return float(ConvexHull(sum_cloud(*vertex_sets)).volume)


def mixed_volume(vertex_sets) -> float:
    """V(K_1, ..., K_n) = (1/n!) sum_S (-1)^(n-|S|) Vol(sum_{i in S} K_i)."""
    n = len(vertex_sets)
    total = 0.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(vertex_sets, size):
            total += (-1) ** (n - size) * hull_volume(*subset)
    return total / math.factorial(n)


def perimeter(vertices) -> float:
    verts = np.asarray(vertices, dtype=float)
    ring = verts[ConvexHull(verts).vertices]  # counterclockwise in 2-D
    return float(np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1).sum())


def inside_sum(points, *vertex_sets, tol: float = 1e-9) -> np.ndarray:
    """Membership of each point in the Minkowski sum of the hulls."""
    eq = ConvexHull(sum_cloud(*vertex_sets)).equations
    return np.all(np.asarray(points) @ eq[:, :-1].T + eq[:, -1] <= tol, axis=1)


def off_boundary_band(exact: np.ndarray, cells: int) -> np.ndarray:
    """Lattice points more than ``cells`` cells from a jump of the 0/1 field."""
    from scipy.ndimage import maximum_filter, minimum_filter

    size = 2 * cells + 1
    return maximum_filter(exact, size=size) == minimum_filter(exact, size=size)


def section_exponent(xs, values) -> float:
    """Exponent q of a fit exp(-C x^q) by log-log regression."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (values > 1e-12) & (values < 1.0 - 1e-12)
    slope, _ = np.polyfit(np.log(xs[keep]), np.log(-np.log(values[keep])), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# value checks
# ---------------------------------------------------------------------------

def close(value, expected: float, tol: float, what: str = "value") -> list[str]:
    """|value - expected| <= tol * max(|expected|, 1)."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return [f"{what}: not a number: {value!r}"]
    if not math.isfinite(value) or abs(value - expected) > tol * max(abs(expected), 1.0):
        return [f"{what}: got {value!r}, expected {expected!r} (tol {tol:g})"]
    return []


def at_least(value, bound: float, what: str = "value") -> list[str]:
    value = float(value)
    if not (math.isfinite(value) and value >= bound):
        return [f"{what}: got {value!r}, expected >= {bound!r}"]
    return []


# ---------------------------------------------------------------------------
# checks of `qcvx check` output files
# ---------------------------------------------------------------------------

def read_rows(jsonl_text: str) -> list[dict]:
    return [json.loads(line) for line in jsonl_text.splitlines() if line.strip()]


def check_rows(rows: list[dict], names, trials: int) -> list[str]:
    """One row per check and trial; verdict `violated` exactly when
    margin < -tol; no violation at all, since every checked inequality is a
    theorem."""
    problems = []
    counts: dict[str, int] = {}
    for k, row in enumerate(rows):
        name = row.get("name")
        counts[name] = counts.get(name, 0) + 1
        try:
            margin, tol, verdict = float(row["margin"]), float(row["tol"]), row["verdict"]
        except (KeyError, TypeError, ValueError):
            problems.append(f"row {k} ({name}): missing margin, tol or verdict")
            continue
        if verdict not in ("holds", "holds-with-equality", "violated"):
            problems.append(f"row {k} ({name}): unknown verdict {verdict!r}")
        elif (verdict == "violated") != (margin < -tol):
            problems.append(f"row {k} ({name}): verdict {verdict} contradicts "
                            f"margin {margin!r} at tol {tol!r}")
        elif verdict == "violated":
            problems.append(f"row {k} ({name}): theorem reported violated, "
                            f"margin {margin!r}")
    for name in sorted(set(names) | set(counts)):
        if counts.get(name, 0) != trials:
            problems.append(f"check {name}: {counts.get(name, 0)} rows, expected {trials}")
    return problems


def check_summary(rows: list[dict], csv_text: str) -> list[str]:
    """The CSV summary agrees with the JSONL rows, check by check."""
    problems = []
    by_name: dict[str, list[dict]] = {}
    for row in rows:
        by_name.setdefault(row.get("name"), []).append(row)
    summary = list(csv.DictReader(csv_text.splitlines()))
    if sorted(r.get("name") for r in summary) != sorted(by_name):
        return [f"summary names {sorted(r.get('name') for r in summary)} "
                f"!= row names {sorted(by_name)}"]
    for srow in summary:
        group = by_name[srow["name"]]
        expect = {
            "trials": len(group),
            "min_margin": min(float(r["margin"]) for r in group),
            "equality_hits": sum(r["verdict"] == "holds-with-equality" for r in group),
            "violations": sum(r["verdict"] == "violated" for r in group),
        }
        for key, want in expect.items():
            got = float(srow[key]) if key == "min_margin" else int(srow[key])
            if got != want:
                problems.append(f"summary {srow['name']}.{key} = {srow[key]}, "
                                f"rows give {want!r}")
    return problems


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def check_identical(digests: list[str]) -> list[str]:
    """Same-seed runs must write byte-identical output files."""
    if len(set(digests)) > 1:
        return [f"same-seed runs wrote {len(set(digests))} different outputs"]
    return []
