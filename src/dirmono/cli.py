"""Command-line front end.

One subcommand, ``check``: build a run configuration from flags and an
optional json config file (flags win on conflict), execute the scan,
write the report in the requested format.

Exit codes: 0 every requested direction passed at the grid resolution,
1 some direction was refuted (or could not be fully checked), 2 usage or
configuration error, 3 the two check methods disagreed somewhere or a
reported counterexample did not re-verify (an internal defect worth
reporting, not a property of the copula).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Sequence

from .checker import GridSpec, scan_all_directions
from .core import DimensionError, DirectionError, Notion, direction_from_token
from .families import CopulaSpec, ParameterError, validate
from .orthant import DEFAULT_EPS_DEN
from .report import (
    RunConfig,
    ScanReport,
    exit_code,
    format_report,
)

_FAMILY_HELP = "product|m|w|fgm|amh|convexpim|survival-of:<family>"


class UsageError(Exception):
    """Bad flags or config file content; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirmono",
        description="Classify directional monotonicity of a copula on a grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="scan directions for one copula")
    check.add_argument("--family", help=_FAMILY_HELP)
    check.add_argument("--dim", type=int, help="copula dimension n >= 2")
    check.add_argument("--lambda", dest="lam", type=float, help="fgm parameter in [-1,1]")
    check.add_argument("--delta", type=float, help="amh parameter in [-1,1]")
    check.add_argument("--theta", type=float, help="convexpim parameter in [0,1]")
    group = check.add_mutually_exclusive_group()
    group.add_argument(
        "--direction",
        action="append",
        metavar="s1,s2,...",
        help="sign token like '+,-' (repeatable)",
    )
    group.add_argument(
        "--all-directions", action="store_true", help="scan all 2^n directions (default)"
    )
    check.add_argument("--grid", type=int, help="lattice resolution g >= 2")
    check.add_argument("--method", choices=["inequality", "oracle", "both"])
    check.add_argument("--notion", choices=["I", "D"])
    check.add_argument("--tol", type=float, help="inequality tolerance (default 1e-9)")
    check.add_argument("--eps-den", type=float, help="conditioning-mass guard (default 1e-12)")
    check.add_argument("--format", dest="fmt", choices=["text", "json", "csv"])
    check.add_argument("--out", help="output path (default stdout)")
    check.add_argument("--config", help="json config file; flags override its values")
    check.add_argument(
        "--allow-conjectural-pure",
        action="store_true",
        help="also compute the unproven single-swap inequality for pure directions in dim >= 4",
    )
    return parser


_CONFIG_KEYS = {
    "family", "dim", "lambda", "delta", "theta", "direction", "all_directions",
    "grid", "method", "notion", "tol", "eps_den", "format", "out",
    "allow_conjectural_pure",
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid json: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a json object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config key(s) in {path}: {sorted(unknown)}")
    return data


def _pick(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _build_spec(family: str, dim: int, params: dict[str, float]) -> CopulaSpec:
    if family.startswith("survival-of:"):
        inner_tag = family[len("survival-of:"):]
        inner = CopulaSpec(family=inner_tag, dim=dim, params=params)
        return CopulaSpec(family="survival", dim=dim, inner=inner)
    return CopulaSpec(family=family, dim=dim, params=params)


def _typed(value, key: str, kind, name: str):
    """``value`` unchanged if it has json type ``kind``, else a UsageError."""
    # json true/false arrive as bool, which is a subclass of int
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
        raise UsageError(f"{key} must be {name}, got {value!r}")
    return value


def _positive(value, key: str) -> float:
    x = float(_typed(value, key, (int, float), "a number"))
    if not (math.isfinite(x) and x > 0):
        raise UsageError(f"{key} must be finite and positive, got {x}")
    return x


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Turn argv (after the program name) into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    config = _load_config_file(args.config) if args.config else {}

    family = _pick(args.family, config, "family", None)
    if not family:
        raise UsageError("--family is required (flag or config file)")
    dim = _pick(args.dim, config, "dim", None)
    if dim is None:
        raise UsageError("--dim is required (flag or config file)")
    dim = _typed(dim, "dim", int, "an integer")

    params: dict[str, float] = {}
    for flag_value, key in ((args.lam, "lambda"), (args.delta, "delta"), (args.theta, "theta")):
        value = _pick(flag_value, config, key, None)
        if value is not None:
            params[key] = float(_typed(value, key, (int, float), "a number"))

    spec = _build_spec(str(family), dim, params)
    try:
        validate(spec)
    except (ParameterError, DimensionError) as exc:
        raise UsageError(str(exc)) from exc

    all_dirs = args.all_directions or _typed(
        config.get("all_directions", False), "all_directions", bool, "true or false"
    )
    tokens = args.direction if args.direction else config.get("direction")
    directions = None
    if tokens is not None and not all_dirs:
        if isinstance(tokens, str):
            tokens = [tokens]
        if not isinstance(tokens, list) or not tokens or not all(
            isinstance(t, str) for t in tokens
        ):
            raise UsageError(
                f"direction must be a sign token or a non-empty list of them, got {tokens!r}"
            )
        try:
            parsed = tuple(direction_from_token(t) for t in tokens)
        except (DirectionError, DimensionError) as exc:
            raise UsageError(str(exc)) from exc
        for d in parsed:
            if d.dim != dim:
                raise UsageError(
                    f"direction {d.pretty()} has {d.dim} entries, copula dim is {dim}"
                )
        directions = parsed

    grid = _pick(args.grid, config, "grid", GridSpec.default_resolution(dim))
    grid = _typed(grid, "grid", int, "an integer")
    if grid < 2:
        raise UsageError(f"grid resolution must be >= 2, got {grid}")
    method = str(_pick(args.method, config, "method", "both"))
    if method not in ("inequality", "oracle", "both"):
        raise UsageError(f"unknown method {method!r}")
    notion_token = str(_pick(args.notion, config, "notion", "I"))
    try:
        notion = Notion(notion_token)
    except ValueError as exc:
        raise UsageError(f"unknown notion {notion_token!r}") from exc
    tol = _positive(_pick(args.tol, config, "tol", 1e-9), "tol")
    eps_den = _positive(_pick(args.eps_den, config, "eps_den", DEFAULT_EPS_DEN), "eps_den")
    fmt = str(_pick(args.fmt, config, "format", "text"))
    if fmt not in ("text", "json", "csv"):
        raise UsageError(f"unknown format {fmt!r}")
    out = _pick(args.out, config, "out", None)
    if out is not None:
        _typed(out, "out", str, "a path")
    conjectural = args.allow_conjectural_pure or _typed(
        config.get("allow_conjectural_pure", False), "allow_conjectural_pure", bool,
        "true or false",
    )

    return RunConfig(
        spec=spec,
        directions=directions,
        grid=grid,
        method=method,
        notion=notion,
        tol=tol,
        eps_den=eps_den,
        fmt=fmt,
        out=out,
        allow_conjectural_pure=conjectural,
    )


def run(config: RunConfig) -> int:
    """Execute the scan described by ``config`` and write the report."""
    start = time.perf_counter()
    verdicts = scan_all_directions(
        config.spec,
        GridSpec(config.grid),
        method=config.method,
        tol=config.tol,
        eps_den=config.eps_den,
        notion=config.notion,
        allow_conjectural_pure=config.allow_conjectural_pure,
        directions=config.directions,
    )
    elapsed = time.perf_counter() - start
    report = ScanReport(
        config=config,
        verdicts=tuple(verdicts),
        disagreements=tuple(
            v.direction.token() for v in verdicts if v.methods_agree is False
        ),
        elapsed_seconds=elapsed,
    )
    payload = format_report(report, config.fmt)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"dirmono: cannot write {config.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return exit_code(report)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"dirmono: error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (ParameterError, DimensionError, DirectionError, ValueError) as exc:
        print(f"dirmono: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
