"""One benchmark process: import dirmono, optionally trace it, run one case.

Usage (argv after the script name):

    probe <meta>              import dirmono and exit
    cli <meta> <trace> ARGS   run ARGS as ``python -m dirmono ARGS`` would
    inproc <meta> <trace> ARGS
                              call ``dirmono.cli.main(ARGS)`` once, timed
                              from argv to the written report

``<meta>`` is a json file this process writes when it ends: the
``time.perf_counter`` reading just after ``import dirmono`` returned (the
clock is system-wide, so the parent subtracts its spawn reading), the
in-process wall time, and with ``<trace>`` = 1 the recorded spans.

dirmono is imported before anything else, so the spawn-to-import time
covers what every CLI call pays and no more.
"""

import sys
import time

import dirmono  # noqa: F401  (the import being measured)

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402

from dirmono import checker, cli, families, orthant  # noqa: E402


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _points(arr) -> int:
    count = 1
    for size in arr.shape[:-1]:
        count *= int(size)
    return count


def _cdf_counts(args, kwargs, result):
    spec, arr = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "arr")
    # a survival spec only dispatches to _survival_array; its inner calls
    # are the evaluations, so only plain-family calls count as points
    leaf = spec.family != families.SURVIVAL
    points = _points(arr) if leaf else 0
    return {"leaf": int(leaf), "points": points, "bytes": points * (spec.dim + 1) * 8}


def _oracle_counts(args, kwargs, result):
    n = _arg(args, kwargs, 0, "spec").dim
    g = _arg(args, kwargs, 2, "grid").resolution
    # computed, not measured: the dense flat_join and cond matrices
    return {"comparisons": result.pairs_tested, "matrix_bytes": 16 * (g**n) ** 2}


# (module, attribute, span name, counters from (args, kwargs, result)).
# Each entry is the name a caller module looks up at call time, so
# wrapping it there sees exactly the calls that module makes.
TRACED = (
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "scan_all_directions", "checker.scan",
     lambda a, k, r: {"directions": len(r)}),
    (cli, "format_report", "report.format",
     lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    (checker, "scan_direction", "checker.scan_direction", None),
    (checker, "_grid_pairs", "checker.pair_index",
     lambda a, k, r: {"pairs": len(r[0])}),
    (checker, "check_direction_inequality", "checker.inequality",
     lambda a, k, r: {"pairs": r.pairs_tested}),
    (checker, "check_direction_oracle", "checker.oracle", _oracle_counts),
    (checker, "_orthant_array", "orthant",
     lambda a, k, r: {"points": _points(_arg(a, k, 2, "arr"))}),
    (checker, "_cdf_array", "families.cdf", _cdf_counts),
    (checker, "_survival_array", "families.survival",
     lambda a, k, r: {"points": _points(_arg(a, k, 1, "arr"))}),
    (orthant, "_cdf_array", "families.cdf", _cdf_counts),
    (families, "_cdf_array", "families.cdf", _cdf_counts),
    (families, "_survival_array", "families.survival",
     lambda a, k, r: {"points": _points(_arg(a, k, 1, "arr"))}),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module, attr, name, count in TRACED:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, count))

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span[4] = count(args, kwargs, result)
                except Exception as exc:  # a changed signature loses counts, not the run
                    span[4] = {"error": repr(exc)}
            return result

        return traced


def main(argv: list[str]) -> int:
    mode, meta_path = argv[0], argv[1]
    if mode not in ("probe", "cli", "inproc"):
        print(f"child: unknown mode {mode!r}", file=sys.stderr)
        return 2
    meta: dict = {"imported_at": IMPORTED_AT}
    tracer = None
    if mode != "probe" and argv[2] == "1":
        tracer = Tracer()
        tracer.install()
    rc = 0
    try:
        if mode == "cli":
            sys.argv = ["dirmono", *argv[3:]]
            runpy.run_module("dirmono", run_name="__main__", alter_sys=True)
        elif mode == "inproc":
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv[3:])
            meta["wall_s"] = time.perf_counter() - start
            sys.stdout.write(buf.getvalue())
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            meta["spans"] = tracer.spans
            meta["missing"] = tracer.missing
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
