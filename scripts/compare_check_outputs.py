#!/usr/bin/env python3
"""Run `qcvx check all` on the standard seed set, or compare two such runs.

    compare_check_outputs.py run OUTDIR
        Writes one JSONL and one CSV file per run into OUTDIR:
        `--dim 3 --trials 1` at seeds 7, 1, 2, 3 and 11 and
        `--dim 2 --trials 2` at seeds 7, 1 and 2.  The qcvx package is the
        one Python imports, so set PYTHONPATH to pick a checkout.

    compare_check_outputs.py diff OLD NEW
        Reports which files are byte-identical and, on the same line,
        whether every verdict is unchanged (the JSONL `verdict` field, the
        CSV `equality_hits` and `violations` tallies).  For each row that
        differs it lists the check, the trial, the field and the old and new
        values of every field whose relative change exceeds 1e-12 (strings
        and other non-numbers when they differ at all); numeric lists are
        compared element by element, so `details.lhs[3]` names one entry.
        Exits 0 when every file is byte-identical and 1 otherwise.

Typical use, parent commit against a working tree:

    PYTHONPATH=parent/src python3 scripts/compare_check_outputs.py run out/old
    PYTHONPATH=src python3 scripts/compare_check_outputs.py run out/new
    python3 scripts/compare_check_outputs.py diff out/old out/new
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import subprocess
import sys
from pathlib import Path

STANDARD_RUNS = [(3, 1, seed) for seed in (7, 1, 2, 3, 11)] + \
                [(2, 2, seed) for seed in (7, 1, 2)]
REL_TOL = 1e-12
VERDICT_FIELDS = ("verdict", "equality_hits", "violations")


def run(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for dim, trials, seed in STANDARD_RUNS:
        prefix = outdir / f"check-d{dim}-t{trials}-s{seed}"
        cmd = [sys.executable, "-m", "qcvx.cli", "check", "all", "--dim", str(dim),
               "--trials", str(trials), "--seed", str(seed), "--out", str(prefix)]
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        print(f"{prefix.name}: exit {code}")
        status = max(status, code)
    return status


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{k}]")
    else:
        yield prefix, value


def _as_number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _moved(old, new) -> bool:
    a, b = _as_number(old), _as_number(new)
    if a is None or b is None:
        return old != new
    if a == b or (math.isnan(a) and math.isnan(b)):
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return True
    return abs(a - b) > REL_TOL * max(abs(a), abs(b))


def _rows(path: Path) -> list[dict]:
    """Rows keyed by (check name, trial index within that check)."""
    if path.suffix == ".jsonl":
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
                   if line.strip()]
    else:
        with path.open(encoding="utf-8", newline="") as fh:
            records = list(csv.DictReader(fh))
    seen: dict[str, int] = {}
    out = []
    for rec in records:
        name = rec.get("name", "?")
        out.append({"check": name, "trial": seen.get(name, 0),
                    "fields": dict(_flatten(rec))})
        seen[name] = seen.get(name, 0) + 1
    return out


def _diff_file(old: Path, new: Path) -> tuple[list[str], int]:
    """(report lines, number of changed verdicts) for two differing files."""
    old_rows, new_rows = _rows(old), _rows(new)
    lines = []
    verdicts = abs(len(old_rows) - len(new_rows))
    if len(old_rows) != len(new_rows):
        lines.append(f"  row count {len(old_rows)} -> {len(new_rows)}")
    for a, b in zip(old_rows, new_rows):
        where = f"{a['check']}#{a['trial']}"
        if (a["check"], a["trial"]) != (b["check"], b["trial"]):
            lines.append(f"  {where}: row is {b['check']}#{b['trial']} in the new run")
            verdicts += 1
            continue
        for key in sorted(set(a["fields"]) | set(b["fields"])):
            va, vb = a["fields"].get(key, "<absent>"), b["fields"].get(key, "<absent>")
            if _moved(va, vb):
                lines.append(f"  {where} {key}: {va!r} -> {vb!r}")
                verdicts += key in VERDICT_FIELDS
    return lines, verdicts


def diff(old_dir: Path, new_dir: Path) -> int:
    for d in (old_dir, new_dir):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    same = True
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {old_dir if old.is_file() else new_dir}")
            same = False
        elif old.read_bytes() == new.read_bytes():
            print(f"{name}: byte-identical; every verdict unchanged")
        else:
            same = False
            lines, verdicts = _diff_file(old, new)
            print(f"{name}: differs; " + (f"{verdicts} verdict(s) changed" if verdicts
                                          else "every verdict unchanged"))
            for line in lines:
                print(line)
    return 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the standard seed set into a directory")
    p.add_argument("outdir", type=Path)
    p = sub.add_parser("diff", help="compare two run directories")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args()
    if args.command == "run":
        return run(args.outdir)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
