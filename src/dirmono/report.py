"""Run configuration, scan reports and their serializations.

The json form is the canonical one: it is versioned, deterministic
apart from the timing block, and lossless: every double is written with
``repr``, so ``json.loads`` gives it back bit for bit.  Text is a human
table, csv one row per direction; both render the json form's dicts of
the verdicts.  Reports are output only; nothing reads one back into
objects.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

from .checker import PASS_AT_RESOLUTION, REFUTED, DirectionVerdict
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
    elapsed_seconds: float
    minor_faults: int | None = None  # taken during the scan; None without ``resource``

    @property
    def disagreements(self) -> tuple[str, ...]:
        """The directions whose routes disagreed or whose counterexample failed its recheck."""
        return tuple(v.direction.token() for v in self.verdicts if v.methods_agree is False)


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


def _floats(point) -> list[float]:
    return [float(x) for x in point]


# the report keys of a counterexample and of a verdict, in report order: each
# names the attribute it writes, and how; json, text and csv all read these
_CEX_KEYS: dict[str, Callable[[Any], Any]] = {
    "kind": str,
    "direction": Direction.token,
    "u_low": _floats,
    "u_high": _floats,
    "lhs": float,
    "rhs": float,
    "violation": float,
    "target": _floats,
    "axis": lambda axis: axis + 1,  # axes are 1-based in serialized reports
}
_VERDICT_KEYS: dict[str, Callable[[Any], Any]] = {
    "direction": Direction.token,
    "outcome": str,
    "method": str,
    "pairs_tested": int,
    "max_slack": float,
    "counterexample": lambda cex: _dict_form(cex, _CEX_KEYS),
    "inequality_outcome": str,
    "oracle_outcome": str,
    "methods_agree": bool,
}


def _dict_form(obj: Any, keys: dict[str, Callable[[Any], Any]]) -> dict[str, Any]:
    """Each attribute of ``obj`` that ``keys`` names, written as it says; None stays None."""
    return {k: None if (x := getattr(obj, k)) is None else write(x) for k, write in keys.items()}


def _verdict_to_dict(v: DirectionVerdict) -> dict[str, Any]:
    return _dict_form(v, _VERDICT_KEYS)


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


def _point(p: list[float]) -> str:
    return "(" + ",".join(map(repr, p)) + ")"


def format_text(report: ScanReport) -> str:
    cfg = report.config
    lines = [
        f"# dirmono scan report (schema {SCHEMA_VERSION}, tool {TOOL_VERSION})",
        f"# copula: {cfg.spec.describe()}  grid: g={cfg.grid}  method: {cfg.method}"
        f"  notion: {cfg.notion.value}  tol: {cfg.tol:g}  eps_den: {cfg.eps_den:g}",
    ]
    if cfg.notion is Notion.DECREASING:
        lines.append("# decreasing notion: every comparison of both routes is reversed")
    labels = {PASS_AT_RESOLUTION: f"PASS@g={cfg.grid}", REFUTED: f"REFUTED@g={cfg.grid}"}
    for v in map(_verdict_to_dict, report.verdicts):
        slack = "n/a" if v["max_slack"] is None else f"{v['max_slack']:.6e}"
        lines.append(
            f"{'(' + v['direction'] + ')':<14} {labels.get(v['outcome'], 'UNSUPPORTED'):<14} "
            f"{v['method']:<11} pairs={v['pairs_tested']} slack={slack}"
        )
        cex = v["counterexample"]
        if cex is not None:
            detail = (
                f"    counterexample[{cex['kind']}]: u={_point(cex['u_low'])} "
                f"u'={_point(cex['u_high'])} lhs={cex['lhs']!r} rhs={cex['rhs']!r} "
                f"violation={cex['violation']!r}"
            )
            if cex["target"] is not None:
                detail += f" target={_point(cex['target'])} axis={cex['axis']}"
            lines.append(detail)
    if report.disagreements:
        lines.append("# METHOD DISAGREEMENT on: " + ", ".join(report.disagreements))
    lines.append(f"# elapsed: {report.elapsed_seconds:.3f} s")
    return "\n".join(lines) + "\n"


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
    """One row per verdict: its report keys, then ``cex_`` and each of its
    counterexample's, the direction, which the row has, left out."""
    columns = [k for k in _VERDICT_KEYS if k != "counterexample"]
    columns += [f"cex_{k}" for k in _CEX_KEYS if k != "direction"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    for row in map(_verdict_to_dict, report.verdicts):
        row.update((f"cex_{k}", x) for k, x in (row["counterexample"] or {}).items())
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
