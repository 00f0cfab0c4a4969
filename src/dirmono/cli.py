"""Command-line front end.

One subcommand, ``check``: build a run configuration from flags and an
optional json config file, execute the scan, write the report in the
requested format. The ``check`` parser is the one definition of each
setting. A config file sets the same settings under the flags' dest
names, checked against the flag: json type, choices, then its ``type``.
Flags win; a direction flag replaces the config's directions as a whole.
The library states what the values must be (the spec, the directions,
grid, tol, eps_den): a ValueError from parsing or from the scan is one
usage-error line.

Exit codes: 0 every requested direction passed at the grid resolution,
1 some direction was refuted (or could not be fully checked), 2 usage or
configuration error, a scan that ran out of memory, a scan worker that
ended without a result, or an output file or stdout that cannot be
written, 3 the two check methods disagreed somewhere or a reported
counterexample did not re-verify (an internal defect worth reporting,
not a property of the copula).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from typing import Sequence

from .checker import DEFAULT_TOL, METHOD_BOTH, METHODS, GridSpec, scan_all_directions
from .core import Notion, direction_from_token
from .families import CopulaSpec
from .orthant import DEFAULT_EPS_DEN
from .report import RunConfig, ScanReport, exit_code, format_report

try:
    import resource
except ImportError:  # Windows
    resource = None

_DEFAULTS = {"all_directions": False, "method": METHOD_BOTH, "notion": Notion.INCREASING.value,
             "tol": DEFAULT_TOL, "eps_den": DEFAULT_EPS_DEN, "format": "text"}

# the json types a config value may have, by the name of its flag's type;
# a flag without a type takes a string
_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number")}


class UsageError(ValueError):
    """Bad flags or config file content; exits 2, as the library's ValueErrors do."""


class _Unwritable(Exception):
    """The report cannot be written to ``--out`` or stdout; exits 2."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit."""
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.Action]]:
    """The parser, and the ``check`` actions that a config file may set, by dest."""
    parser = _Parser(
        prog="dirmono", description="Classify directional monotonicity of a copula on a grid."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # an unset flag stays out of the namespace, so it cannot hide a config value
    check = sub.add_parser(
        "check", help="scan directions for one copula", argument_default=argparse.SUPPRESS
    )
    group = check.add_mutually_exclusive_group()
    settings = [
        check.add_argument("--family", help="product|m|w|fgm|amh|convexpim|survival-of:<family>"),
        check.add_argument("--dim", type=int, help="copula dimension n >= 2"),
        check.add_argument("--lambda", type=float, help="fgm parameter in [-1,1]"),
        check.add_argument("--delta", type=float, help="amh parameter in [-1,1]"),
        check.add_argument("--theta", type=float, help="convexpim parameter in [0,1]"),
        group.add_argument("--direction", action="append", metavar="s1,s2,...",
                           help="sign token like '+,-' (repeatable)"),
        group.add_argument(
            "--all-directions", action="store_true", help="scan all 2^n directions (default)"
        ),
        check.add_argument("--grid", type=int, help="lattice resolution g, points per axis"),
        check.add_argument("--method", choices=METHODS),
        check.add_argument("--notion", choices=[notion.value for notion in Notion]),
        check.add_argument("--tol", type=float, help=(
            f"violation tolerance of both routes (default {DEFAULT_TOL:g})")),
        check.add_argument("--eps-den", type=float,
                           help=f"conditioning-mass guard (default {DEFAULT_EPS_DEN:g})"),
        check.add_argument("--format", choices=["text", "json", "csv"]),
        check.add_argument("--out", help="output path (default stdout)"),
    ]
    check.add_argument("--config", help="json config file; flags override its values")
    return parser, {action.dest: action for action in settings}


def _json_value(action: argparse.Action, value):
    """A config value, checked and converted as a flag value for ``action`` is."""
    if action.dest == "direction":  # appends: a token or a non-empty list of them
        tokens = [value] if isinstance(value, str) else value
        if isinstance(tokens, list) and tokens and all(isinstance(t, str) for t in tokens):
            return tokens
        raise UsageError(
            f"direction: must be a sign token or a non-empty list of them, got {value!r}"
        )
    if action.nargs == 0:
        kind, what = bool, "true or false"
    else:
        kind, what = _JSON_TYPES.get(getattr(action.type, "__name__", None), (str, "a string"))
    # json true/false arrive as bool, which is a subclass of int
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
        raise UsageError(f"{action.dest}: must be {what}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise UsageError(f"{action.dest}: must be one of {choices}, got {value!r}")
    try:
        return action.type(value) if action.type else value
    except OverflowError as exc:
        raise UsageError(f"{action.dest}: {exc}") from exc


def _load_config_file(path: str, actions: dict[str, argparse.Action]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid json: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a json object")
    unknown = set(data) - set(actions)
    if unknown:
        raise UsageError(f"unknown config key(s) in {path}: {sorted(unknown)}")
    return {key: _json_value(actions[key], value) for key, value in data.items()}


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Turn argv (after the program name) into a validated RunConfig."""
    parser, actions = _build_parser()
    flags = vars(parser.parse_args(argv))
    del flags["command"]
    path = flags.pop("config", None)
    config = _load_config_file(path, actions) if path else {}
    if {"direction", "all_directions"} & flags.keys():
        config.pop("direction", None)
        config.pop("all_directions", None)
    settings = {**_DEFAULTS, **config, **flags}

    for key in ("family", "dim"):
        if key not in settings:
            raise UsageError(f"--{key} is required (flag or config file)")
    family, dim = settings["family"], settings["dim"]
    params = {k: settings[k] for k in ("lambda", "delta", "theta") if k in settings}
    spec = CopulaSpec(family, dim, params)
    if family.startswith("survival-of:"):
        inner = CopulaSpec(family.removeprefix("survival-of:"), dim, params)
        spec = CopulaSpec("survival", dim, inner=inner)

    directions = None
    if "direction" in settings and not settings["all_directions"]:
        directions = tuple(direction_from_token(t) for t in settings["direction"])

    return RunConfig(
        spec=spec,
        directions=directions,
        grid=settings.get("grid", GridSpec.default_resolution(dim)),
        method=settings["method"],
        notion=Notion(settings["notion"]),
        tol=settings["tol"],
        eps_den=settings["eps_den"],
        fmt=settings["format"],
        out=settings.get("out"),
    )


def _keep_freed_memory() -> bool:
    """Have glibc keep the memory a scan frees mapped, for reuse; False,
    with nothing done, where there is no mallopt (macOS, Windows, musl).

    Under glibc's default thresholds each inequality array of a direction
    is mmapped and unmapped again, and each 128 KiB oracle block is trimmed
    off the heap top and faulted back in: fgm (5,4) took 18,961 minor faults
    over its 30 inequality directions, 1 with both thresholds raised (either
    alone was slower).  Only the CLI, which exits after its one scan, sets
    this; forked workers inherit it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3), whose glibc maximum is 32 MiB
        return all([mallopt(-1, 256 << 20), mallopt(-3, 32 << 20)])
    except (OSError, AttributeError, TypeError):
        return False


def _minor_faults() -> int:
    """Minor page faults of this process and its reaped workers so far."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``), scan, write the report and
    return the exit code; a failed step prints one error line and returns 2."""
    try:
        config = parse_config(list(sys.argv[1:] if argv is None else argv))
        _keep_freed_memory()
        faults = _minor_faults() if resource else None
        start = time.perf_counter()
        try:
            verdicts = scan_all_directions(
                config.spec,
                GridSpec(config.grid),
                method=config.method,
                tol=config.tol,
                eps_den=config.eps_den,
                notion=config.notion,
                directions=config.directions,
            )
        except MemoryError as exc:
            raise MemoryError(
                f"not enough memory to scan the lattice of grid {config.grid} in dim "
                f"{config.spec.dim} ({str(exc) or 'out of memory'}); try a smaller --grid or --dim"
            ) from exc
        report = ScanReport(
            config=config,
            verdicts=tuple(verdicts),
            elapsed_seconds=time.perf_counter() - start,
            minor_faults=None if faults is None else _minor_faults() - faults,
        )
        payload = format_report(report, config.fmt)
        try:
            if config.out:
                with open(config.out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            else:
                sys.stdout.write(payload)
                sys.stdout.flush()
        except OSError as exc:
            if not config.out:  # a reader that closed the pipe early, a full disk:
                # the unwritten report stays buffered; at exit it flushes to devnull
                with open(os.devnull, "wb") as devnull:
                    os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise _Unwritable(f"cannot write {config.out or 'the report to stdout'}: {exc}")
    except (ValueError, ChildProcessError, MemoryError, _Unwritable) as exc:
        print(f"dirmono: error: {exc}", file=sys.stderr)
        return 2
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
