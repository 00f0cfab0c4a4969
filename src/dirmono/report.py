"""Run configuration, scan reports and their serializations.

The json form is the canonical one: it is versioned, deterministic
apart from the timing block, and lossless: every double is written with
``repr``, so ``json.loads`` gives it back bit for bit.  Text is a human
table, csv one row per direction.  Reports are output only; nothing
reads one back into objects.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any

from .checker import (
    Counterexample,
    DirectionVerdict,
    PASS_AT_RESOLUTION,
    REFUTED,
)
from .core import Direction, Notion
from .families import CopulaSpec

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Everything a scan needs; echoed verbatim into the report."""

    spec: CopulaSpec
    directions: tuple[Direction, ...] | None  # None means all 2^n
    grid: int
    method: str
    notion: Notion
    tol: float
    eps_den: float
    fmt: str = "text"
    out: str | None = None


@dataclass(frozen=True)
class ScanReport:
    config: RunConfig
    verdicts: tuple[DirectionVerdict, ...]
    disagreements: tuple[str, ...]
    elapsed_seconds: float
    minor_faults: int | None = None  # taken during the scan; None without ``resource``


def exit_code(report: ScanReport) -> int:
    """0 all passed, 1 any refuted or not fully supported, 3 disagreement."""
    if report.disagreements:
        return 3
    # a refuted or unsupported verdict: a pass cannot be claimed
    return 0 if all(v.outcome == PASS_AT_RESOLUTION for v in report.verdicts) else 1


# ---------------------------------------------------------------- dict forms


def _spec_to_dict(spec: CopulaSpec) -> dict[str, Any]:
    return {
        "family": spec.family,
        "dim": spec.dim,
        "params": {k: float(v) for k, v in sorted(spec.params.items())},
        "inner": _spec_to_dict(spec.inner) if spec.inner is not None else None,
    }


def _cex_to_dict(cex: Counterexample | None) -> dict[str, Any] | None:
    if cex is None:
        return None
    return {
        "kind": cex.kind,
        "direction": cex.direction.token(),
        "u_low": [float(x) for x in cex.u_low],
        "u_high": [float(x) for x in cex.u_high],
        "lhs": float(cex.lhs),
        "rhs": float(cex.rhs),
        "violation": float(cex.violation),
        "target": [float(x) for x in cex.target] if cex.target is not None else None,
        # axes are 1-based in serialized reports
        "axis": cex.axis + 1 if cex.axis is not None else None,
    }


def _verdict_to_dict(v: DirectionVerdict) -> dict[str, Any]:
    return {
        "direction": v.direction.token(),
        "outcome": v.outcome,
        "method": v.method,
        "pairs_tested": v.pairs_tested,
        "max_slack": float(v.max_slack) if v.max_slack is not None else None,
        "counterexample": _cex_to_dict(v.counterexample),
        "inequality_outcome": v.inequality_outcome,
        "oracle_outcome": v.oracle_outcome,
        "methods_agree": v.methods_agree,
    }


def _config_to_dict(cfg: RunConfig) -> dict[str, Any]:
    return {
        "family": _spec_to_dict(cfg.spec),
        "directions": (
            "all" if cfg.directions is None else [d.token() for d in cfg.directions]
        ),
        "grid": cfg.grid,
        "method": cfg.method,
        "notion": cfg.notion.value,
        "derived_by_duality": cfg.notion is Notion.DECREASING,
        "tol": float(cfg.tol),
        "eps_den": float(cfg.eps_den),
        "format": cfg.fmt,
        "out": cfg.out,
    }


def report_to_dict(report: ScanReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "config": _config_to_dict(report.config),
        "verdicts": [_verdict_to_dict(v) for v in report.verdicts],
        "disagreements": list(report.disagreements),
        "timing": {"elapsed_seconds": float(report.elapsed_seconds),
                   "minor_faults": report.minor_faults},
    }


def report_to_json(report: ScanReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


# ------------------------------------------------------------- text and csv


def _point(p) -> str:
    return "(" + ",".join(repr(float(x)) for x in p) + ")"


def _outcome_label(v: DirectionVerdict, grid: int) -> str:
    if v.outcome == PASS_AT_RESOLUTION:
        return f"PASS@g={grid}"
    if v.outcome == REFUTED:
        return f"REFUTED@g={grid}"
    return "UNSUPPORTED"


def format_text(report: ScanReport) -> str:
    cfg = report.config
    lines = [
        f"# dirmono scan report (schema {SCHEMA_VERSION}, tool {TOOL_VERSION})",
        f"# copula: {cfg.spec.describe()}  grid: g={cfg.grid}  method: {cfg.method}"
        f"  notion: {cfg.notion.value}  tol: {cfg.tol:g}  eps_den: {cfg.eps_den:g}",
    ]
    if cfg.notion is Notion.DECREASING:
        lines.append("# decreasing notion: every comparison of both routes is reversed")
    for v in report.verdicts:
        slack = "n/a" if v.max_slack is None else f"{v.max_slack:.6e}"
        lines.append(
            f"{v.direction.pretty():<14} {_outcome_label(v, cfg.grid):<14} "
            f"{v.method:<11} pairs={v.pairs_tested} slack={slack}"
        )
        cex = v.counterexample
        if cex is not None:
            detail = (
                f"    counterexample[{cex.kind}]: u={_point(cex.u_low)} u'={_point(cex.u_high)} "
                f"lhs={cex.lhs!r} rhs={cex.rhs!r} violation={cex.violation!r}"
            )
            if cex.target is not None:
                detail += f" target={_point(cex.target)} axis={cex.axis + 1}"
            lines.append(detail)
    if report.disagreements:
        lines.append("# METHOD DISAGREEMENT on: " + ", ".join(report.disagreements))
    lines.append(f"# elapsed: {report.elapsed_seconds:.3f} s")
    return "\n".join(lines) + "\n"


_CSV_FIELDS = [
    "direction",
    "outcome",
    "method",
    "pairs_tested",
    "max_slack",
    "inequality_outcome",
    "oracle_outcome",
    "methods_agree",
    "cex_kind",
    "cex_u_low",
    "cex_u_high",
    "cex_lhs",
    "cex_rhs",
    "cex_violation",
    "cex_target",
    "cex_axis",
]


def _csv_cell(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(repr(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return value


def format_csv(report: ScanReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=_CSV_FIELDS, lineterminator="\n", extrasaction="ignore"
    )
    writer.writeheader()
    for v in report.verdicts:
        row = _verdict_to_dict(v)
        row.update((f"cex_{k}", x) for k, x in (_cex_to_dict(v.counterexample) or {}).items())
        writer.writerow({k: _csv_cell(x) for k, x in row.items()})
    return buf.getvalue()


def format_report(report: ScanReport, fmt: str) -> str:
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return format_csv(report)
    if fmt == "text":
        return format_text(report)
    raise ValueError(f"unknown report format {fmt!r}")
