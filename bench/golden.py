"""Golden expectations for the benchmark's cases, and the comparator.

An expectation holds a case's exit code and, per direction, the outcome,
``max_slack`` and the counterexample's kind, points, target, axis, lhs
and rhs.  ``compare`` never accepts a changed exit code, outcome, kind,
point, target or axis.  lhs, rhs and max_slack may differ within
REL_TOL (relative) or ABS_TOL (absolute), which admits last-bit changes
from a different summation order but stays far below the checker's
default tol of 1e-9, so it cannot hide a changed verdict.  The
``timing`` block and every field not named here are ignored, so a later
report schema that adds fields still compares.

Regenerate from the current code (only at a commit whose verdicts are
trusted):

    python3 bench/golden.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

REL_TOL = 1e-9
ABS_TOL = 1e-12

_EXACT_CEX_KEYS = ("kind", "u_low", "u_high", "target", "axis")
_CLOSE_CEX_KEYS = ("lhs", "rhs")


def expectation(rc: int, report: dict | None) -> dict:
    """The golden entry for one case from its exit code and json report."""
    directions = {}
    for v in (report or {}).get("verdicts", []):
        cex = v.get("counterexample")
        directions[v["direction"]] = {
            "outcome": v["outcome"],
            "max_slack": v.get("max_slack"),
            "counterexample": (
                None
                if cex is None
                else {k: cex.get(k) for k in _EXACT_CEX_KEYS + _CLOSE_CEX_KEYS}
            ),
        }
    return {"exit_code": rc, "directions": directions}


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(expected: dict, rc: int, report: dict | None) -> list[str]:
    """Every way the case's result differs from ``expected``; [] if none."""
    problems = []
    if rc != expected["exit_code"]:
        problems.append(f"exit code {rc}, expected {expected['exit_code']}")
    got = {v.get("direction"): v for v in (report or {}).get("verdicts", [])}
    want = expected["directions"]
    if set(got) != set(want):
        problems.append(f"directions {sorted(got)} differ from {sorted(want)}")
    for token, exp in want.items():
        v = got.get(token)
        if v is None:
            continue
        if v.get("outcome") != exp["outcome"]:
            problems.append(f"{token}: outcome {v.get('outcome')}, expected {exp['outcome']}")
        if not _close(v.get("max_slack"), exp["max_slack"]):
            problems.append(f"{token}: max_slack {v.get('max_slack')} != {exp['max_slack']}")
        exp_cex, got_cex = exp["counterexample"], v.get("counterexample")
        if exp_cex is None or got_cex is None:
            if exp_cex is not got_cex:
                problems.append(f"{token}: counterexample {got_cex}, expected {exp_cex}")
            continue
        for key in _EXACT_CEX_KEYS:
            if got_cex.get(key) != exp_cex[key]:
                problems.append(
                    f"{token}: counterexample {key} {got_cex.get(key)}, expected {exp_cex[key]}"
                )
        for key in _CLOSE_CEX_KEYS:
            if not _close(got_cex.get(key), exp_cex[key]):
                problems.append(
                    f"{token}: counterexample {key} {got_cex.get(key)} != {exp_cex[key]}"
                )
    return problems


def load(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    import run  # the case runner; imported here because run imports this module

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        entries = {}
        for case in workload.cases:
            rc, report, stderr = run.run_once(case)
            if "Traceback" in stderr:
                print(f"{name}/{case.id}: crashed\n{stderr}", file=sys.stderr)
                return 1
            entries[case.id] = expectation(rc, report)
            print(f"{name}/{case.id}: exit {rc}", file=sys.stderr)
        with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
