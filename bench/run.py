"""The dirmono benchmark: four fixed workloads, checked against golden verdicts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout this file sits in and builds
nothing (dirmono is imported from ``src/``).  Each workload is a fixed
set of cases, run closed-loop by one client: one case at a time, each in
a fresh process.  The seed only shuffles case order within each pass.
Passes repeat while the next one is expected to end within ``--seconds``
(at least one pass; with ``--trace 1`` at least one untraced and one
traced pass, alternating).

Every case is checked: its exit code, each direction's outcome and
counterexample against ``golden/<workload>.json`` (see golden.py), no
method disagreement or exit 3, no traceback, and every reported
counterexample re-verified in this process through
``dirmono.checker.recheck_counterexample``.  A case whose estimated
memory exceeds MEM_SHARE of MemAvailable is refused, not run, and counts
as failed.

The last stdout line is one json object: ``correct``, ``attempted`` and
``failed`` count case runs, and ``metrics`` holds the END_TO_END metrics
(``--trace 0``) or the PER_LAYER metrics (``--trace 1``).  ``failed``
over ``attempted`` is the error rate.  Lines before it name every metric
with its unit, the host (nproc, MemTotal, Python, numpy), the seed and
each pass's case order.  Spans and per-case results of the run are
written to ``bench/out/`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import golden

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
CASES_DIR = BENCH / "cases"

# Refuse a case whose estimated peak memory exceeds this share of MemAvailable.
MEM_SHARE = 0.5
# Interpreter plus numpy, with margin (a bare fixture case peaks near 40 MiB).
BASE_BYTES = 64 << 20
# The oracle holds dense g^n x g^n int64 flat_join and float64 cond
# matrices (16 bytes per entry) plus same-sized temporaries; peaks
# measured at 43-44 bytes per entry on (3,15) and (2,60) with numpy 2.4.
ORACLE_BYTES_PER_ENTRY = 48
# The inequality route keeps about a dozen float64 arrays of pairs x n.
INEQUALITY_ARRAYS = 16

# Setup probes at the start of a run, after one discarded warm-up probe.
SETUP_PROBES = 3
# A case longer than this is followed by one more probe, so that setup
# samples spread over the run instead of bunching at its start: on a
# shared machine the speed of import-bound work drifts within tens of seconds.
PROBE_AFTER_S = 2.0
CASE_TIMEOUT_S = 120


@dataclass(frozen=True)
class Case:
    """One dirmono invocation: its argv after the program name."""

    id: str
    argv: tuple[str, ...]
    dim: int
    grid: int
    method: str
    cli: bool = False  # run as ``python -m dirmono`` runs it; time spawn to exit


@dataclass(frozen=True)
class Workload:
    why: str
    cases: tuple[Case, ...]


def _fixture_case(path: Path) -> Case:
    # every fixture config names its grid and method
    config = json.loads(path.read_text(encoding="utf-8"))
    return Case(
        id=path.stem,
        argv=("check", "--config", str(path), "--format", "json"),
        dim=int(config["dim"]),
        grid=int(config["grid"]),
        method=config["method"],
        cli=True,
    )


def _case(id: str, family: str, dim: int, grid: int, method: str,
          notion: str = "I", **params: float) -> Case:
    argv = ["check", "--family", family, "--dim", str(dim)]
    for name, value in params.items():
        argv += [f"--{name}", repr(value)]
    argv += ["--grid", str(grid), "--all-directions", "--method", method,
             "--notion", notion, "--format", "json"]
    return Case(id=id, argv=tuple(argv), dim=dim, grid=grid, method=method)


WORKLOADS = {
    "fixtures-cli": Workload(
        "the 14 fixture configs through python -m dirmono; start-up, cli and "
        "report bound, except fgm4_parity, which is inequality bound",
        tuple(_fixture_case(p) for p in sorted(CASES_DIR.glob("*.json"))),
    ),
    "dim-ladder": Workload(
        "fgm at the default grids for n=5 and n=6, all directions, both routes; "
        "inequality route plus orthant and families dominate",
        (
            _case("fgm-n5-g4", "fgm", 5, 4, "both", **{"lambda": 0.5}),
            _case("fgm-n6-g3", "fgm", 6, 3, "both", **{"lambda": 0.5}),
        ),
    ),
    "grid-oracle": Workload(
        "oracle only on large lattices; dense g^n x g^n matrices take the time "
        "and memory, families and orthant almost none",
        (
            _case("fgm-n3-g15-oracle", "fgm", 3, 15, "oracle", **{"lambda": 0.5}),
            _case("amh-n2-g60-oracle", "amh", 2, 60, "oracle", delta=0.5),
        ),
    ),
    "survival-dual": Workload(
        "survival-of families, 2^n inner copula calls per point, with the "
        "single-swap pure branch and the D notion; 14 counterexamples",
        (
            _case("sfgm-n3-g9-I", "survival-of:fgm", 3, 9, "both", **{"lambda": 0.5}),
            _case("scpm-n3-g9-D", "survival-of:convexpim", 3, 9, "both",
                  notion="D", theta=0.5),
            _case("samh-n2-g21-I", "survival-of:amh", 2, 21, "both", delta=0.5),
        ),
    ),
}


# name -> (unit, better, definition)
END_TO_END = {
    "setup_s": ("s", "lower", "median spawn-to-import time of a fresh process"),
    "wall_s": ("s", "lower", "median time of one pass over the case set"),
    "check_s.p50": ("s", "lower", "median over passes of the pass's median case time"),
    "peak_rss_mb": ("MiB", "lower", "median over passes of the largest case peak RSS"),
}

_CLI = "check_s.p50 on fixtures-cli"
_LADDER = "wall_s on dim-ladder"
_INNER = "wall_s on dim-ladder and survival-dual"
_ORACLE = "wall_s and peak_rss_mb on grid-oracle"
_RECHECK = "error rate on every workload; wall_s on survival-dual once the scan rechecks"
# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.parse_config_s": ("s", "lower", _CLI),
    "report.format_s": ("s", "lower", _CLI),
    "report.bytes": ("B", "lower", _CLI),
    "checker.scan_s": ("s", "lower", _LADDER),
    "checker.directions_reported": ("count", "higher", _LADDER),
    "checker.directions_scanned": ("count", "lower", _LADDER),
    "checker.pair_index_s": ("s", "lower", _LADDER),
    "checker.pair_index_pairs": ("count", "lower", _LADDER),
    "checker.inequality_s": ("s", "lower", _INNER + "; flat on grid-oracle"),
    "checker.inequality_self_s": ("s", "lower", _INNER + "; flat on grid-oracle"),
    "checker.inequality_pairs": ("count", "lower", _INNER + "; flat on grid-oracle"),
    "checker.oracle_s": ("s", "lower", _ORACLE),
    "checker.oracle_comparisons": ("count", "lower", _ORACLE),
    "checker.oracle_matrix_bytes": ("B", "lower", _ORACLE + " (computed: 16*(g^n)^2)"),
    "checker.recheck_s": ("s", "lower", _RECHECK),
    "checker.recheck_attempted": ("count", "higher", _RECHECK + " (ratio base)"),
    "checker.recheck_confirmed_ratio": ("ratio", "higher", _RECHECK),
    "orthant.calls": ("count", "lower", _INNER),
    "orthant.points": ("count", "lower", _INNER),
    "orthant.s": ("s", "lower", _INNER),
    "orthant.self_s": ("s", "lower", _INNER),
    "families.cdf_calls": ("count", "lower", _INNER),
    "families.cdf_points": ("count", "lower", _INNER),
    "families.cdf_s": ("s", "lower", _INNER + " (self time)"),
    "families.survival_calls": ("count", "lower", "wall_s on survival-dual"),
    "families.survival_points": ("count", "lower", "wall_s on survival-dual"),
    "families.survival_s": ("s", "lower", "wall_s on survival-dual (self time)"),
    "families.cdf_bytes": ("B", "lower", _INNER + " (computed: points*(n+1)*8)"),
    "trace_overhead_s": ("s", "lower", "traced wall_s minus untraced wall_s"),
}


# ------------------------------------------------------------------ host


def _meminfo() -> dict[str, int]:
    info = {}
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            key, value = line.split(":", 1)
            info[key] = int(value.split()[0]) * 1024
    return info


def host() -> dict:
    import numpy

    mem = _meminfo()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_bytes": mem["MemTotal"],
        "mem_available_bytes": mem["MemAvailable"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def estimate_bytes(case: Case) -> int:
    """Analytic peak-memory estimate of one case, before it runs."""
    estimate = BASE_BYTES
    if case.method != "inequality":
        entries = (case.grid**case.dim) ** 2
        estimate += ORACLE_BYTES_PER_ENTRY * entries
    if case.method != "oracle":
        pairs = (case.grid * (case.grid + 1) // 2) ** case.dim
        estimate += INEQUALITY_ARRAYS * 8 * case.dim * pairs
    return estimate


def refusal(case: Case, mem_available: int) -> str | None:
    estimate = estimate_bytes(case)
    if estimate > MEM_SHARE * mem_available:
        return (
            f"refused: estimated {estimate / 2**20:.0f} MiB exceeds {MEM_SHARE:.0%} "
            f"of MemAvailable ({mem_available / 2**20:.0f} MiB)"
        )
    return None


# --------------------------------------------------------------- processes


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Proc:
    rc: int
    stdout: str
    stderr: str
    spawned_at: float
    wall_s: float  # spawn to exit
    maxrss_mb: float


def spawn(cmd: list[str], tmp: Path) -> Proc:
    """Run ``cmd`` to completion; return its output, times and peak RSS."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=_env()
        )
        timer = threading.Timer(CASE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return Proc(
        rc=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        spawned_at=start,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    )


def _read_meta(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def probe_setup(tmp: Path) -> float | None:
    """Seconds from spawning a fresh process until ``import dirmono`` returned."""
    meta = tmp / "probe.json"
    proc = spawn([sys.executable, str(CHILD), "probe", str(meta)], tmp)
    imported_at = _read_meta(meta).get("imported_at")
    if proc.rc != 0 or imported_at is None:
        return None
    return imported_at - proc.spawned_at


def run_once(case: Case) -> tuple[int, dict | None, str]:
    """Run a case untraced, unchecked: (exit code, json report, stderr)."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        proc = spawn(_command(case, Path(tmp) / "meta.json", traced=False), Path(tmp))
    return proc.rc, _parse_report(proc.stdout), proc.stderr


def _command(case: Case, meta: Path, traced: bool) -> list[str]:
    mode = "cli" if case.cli else "inproc"
    return [sys.executable, str(CHILD), mode, str(meta), str(int(traced)), *case.argv]


def _parse_report(stdout: str) -> dict | None:
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


# ------------------------------------------------------------------ checks


@dataclass
class CaseResult:
    case_id: str
    traced: bool
    problems: list[str]
    wall_s: float | None = None
    maxrss_mb: float | None = None
    setup_s: float | None = None
    layers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    untraced: list[str] = field(default_factory=list)


def recheck(case: Case, report: dict) -> tuple[int, int, float, list[str]]:
    """Re-verify each reported counterexample: (attempted, confirmed, s, problems)."""
    from dirmono import checker, cli
    from dirmono.core import direction_from_token

    cexs = [v["counterexample"] for v in report.get("verdicts", []) if v.get("counterexample")]
    if not cexs:
        return 0, 0, 0.0, []
    config = cli.parse_config(list(case.argv))
    confirmed, seconds, problems = 0, 0.0, []
    for c in cexs:
        try:
            cex = checker.Counterexample(
                direction=direction_from_token(c["direction"]),
                u_low=tuple(c["u_low"]),
                u_high=tuple(c["u_high"]),
                lhs=c["lhs"],
                rhs=c["rhs"],
                violation=c["violation"],
                kind=c["kind"],
                target=tuple(c["target"]) if c.get("target") is not None else None,
                axis=c["axis"] - 1 if c.get("axis") is not None else None,
            )
            start = time.perf_counter()
            ok = checker.recheck_counterexample(
                config.spec, cex, config.tol, config.eps_den, config.notion
            )
            seconds += time.perf_counter() - start
        except Exception as exc:  # a crash in the recheck is a failed case
            problems.append(f"{c.get('direction')}: recheck raised {exc!r}")
            continue
        if ok:
            confirmed += 1
        else:
            problems.append(f"{c['direction']}: counterexample does not re-verify")
    return len(cexs), confirmed, seconds, problems


def check(proc: Proc, report: dict | None, expected: dict | None) -> list[str]:
    """Every failure of one finished case, recheck aside."""
    problems = []
    if "Traceback (most recent call last)" in proc.stderr:
        problems.append("traceback: " + proc.stderr.strip().splitlines()[-1])
    if proc.rc == 3:
        problems.append("exit 3: the two routes disagree")
    if proc.stdout.strip() and report is None:
        problems.append("report is not a json object")
    for v in (report or {}).get("verdicts", []):
        if v.get("methods_agree") is False:
            problems.append(f"{v.get('direction')}: methods_agree is false")
    if expected is None:
        problems.append("no golden expectation")
    else:
        problems += golden.compare(expected, proc.rc, report)
    return problems


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer times and counts of one case from its spans.

    A span is [name, start, end, parent index, counters].  Self time is a
    span's duration minus the time its direct children cover, so the
    nested _survival_array -> _cdf_array calls count once.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    m: dict[str, float] = defaultdict(int)
    for i, (name, start, end, _, counts, *_) in enumerate(spans):
        dur = end - start
        own = dur - covered[i]
        counts = counts or {}
        if name == "cli.parse_config":
            m["cli.parse_config_s"] += dur
        elif name == "report.format":
            m["report.format_s"] += dur
            m["report.bytes"] += counts.get("bytes", 0)
        elif name == "checker.scan":
            m["checker.scan_s"] += dur
            m["checker.directions_reported"] += counts.get("directions", 0)
        elif name == "checker.scan_direction":
            m["checker.directions_scanned"] += 1
        elif name == "checker.pair_index":
            m["checker.pair_index_s"] += dur
            m["checker.pair_index_pairs"] += counts.get("pairs", 0)
        elif name == "checker.inequality":
            m["checker.inequality_s"] += dur
            m["checker.inequality_self_s"] += own
            m["checker.inequality_pairs"] += counts.get("pairs", 0)
        elif name == "checker.oracle":
            m["checker.oracle_s"] += dur
            m["checker.oracle_comparisons"] += counts.get("comparisons", 0)
            m["checker.oracle_matrix_bytes"] += counts.get("matrix_bytes", 0)
        elif name == "orthant":
            m["orthant.calls"] += 1
            m["orthant.points"] += counts.get("points", 0)
            m["orthant.s"] += dur
            m["orthant.self_s"] += own
        elif name == "families.cdf":
            m["families.cdf_s"] += own
            m["families.cdf_calls"] += counts.get("leaf", 0)
            m["families.cdf_points"] += counts.get("points", 0)
            m["families.cdf_bytes"] += counts.get("bytes", 0)
        elif name == "families.survival":
            m["families.survival_calls"] += 1
            m["families.survival_points"] += counts.get("points", 0)
            m["families.survival_s"] += own
    return dict(m)


def run_case(case: Case, expected: dict | None, traced: bool, tmp: Path,
             mem_available: int) -> CaseResult:
    refused = refusal(case, mem_available)
    if refused:
        return CaseResult(case.id, traced, [refused])
    meta_path = tmp / "meta.json"
    meta_path.unlink(missing_ok=True)
    proc = spawn(_command(case, meta_path, traced), tmp)
    meta = _read_meta(meta_path)
    report = _parse_report(proc.stdout)
    result = CaseResult(
        case.id,
        traced,
        check(proc, report, expected),
        wall_s=proc.wall_s if case.cli else meta.get("wall_s"),
        maxrss_mb=proc.maxrss_mb,
    )
    if "imported_at" in meta:
        result.setup_s = meta["imported_at"] - proc.spawned_at
    if result.wall_s is None:
        result.problems.append("no wall time reported")
    if report is not None:
        attempted, confirmed, seconds, problems = recheck(case, report)
        result.problems += problems
        result.layers.update({
            "checker.recheck_attempted": attempted,
            "checker.recheck_confirmed": confirmed,
            "checker.recheck_s": seconds,
        })
    if traced:
        result.spans = [span + [case.id] for span in meta.get("spans", [])]
        result.layers.update(layer_metrics(result.spans))
        # a name the code no longer has is reported, not failed: its metrics read 0
        result.untraced = meta.get("missing", [])
    return result


# -------------------------------------------------------------------- runs


def run_pass(cases, expected: dict, traced: bool, tmp: Path, mem_available: int,
             setup: list[float] | None = None) -> list[CaseResult]:
    """Run ``cases`` in order; append setup samples to ``setup`` if given."""
    results = []
    for case in cases:
        result = run_case(case, expected.get(case.id), traced, tmp, mem_available)
        results.append(result)
        if setup is not None:
            samples = [result.setup_s]
            if (result.wall_s or 0) > PROBE_AFTER_S:
                samples.append(probe_setup(tmp))
            setup += filter(None, samples)
    return results


def pass_summary(results: list[CaseResult]) -> dict[str, float]:
    walls = [r.wall_s for r in results if r.wall_s is not None]
    rss = [r.maxrss_mb for r in results if r.maxrss_mb is not None]
    layers: dict[str, float] = defaultdict(int)
    for r in results:
        for key, value in r.layers.items():
            layers[key] += value
    attempted = layers.pop("checker.recheck_attempted", 0)
    confirmed = layers.pop("checker.recheck_confirmed", 0)
    layers["checker.recheck_attempted"] = attempted
    layers["checker.recheck_confirmed_ratio"] = confirmed / attempted if attempted else 0.0
    return {
        "wall_s": sum(walls) if walls else 0.0,
        "check_s.p50": statistics.median(walls) if walls else 0.0,
        "peak_rss_mb": max(rss) if rss else 0.0,
        **layers,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure ``workload`` for about ``seconds``; return the run record."""
    cases = WORKLOADS[workload].cases
    expected = golden.load(workload)
    rng = random.Random(seed)
    mem_available = _meminfo()["MemAvailable"]
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + seconds
    passes: list[dict] = []
    results: list[CaseResult] = []
    setup: list[float] = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        probe_setup(tmp)  # warm-up: bytecode caches, page cache
        setup += filter(None, (probe_setup(tmp) for _ in range(SETUP_PROBES)))
        modes = (False, True) if traced else (False,)
        longest = 0.0
        while True:
            mode = modes[len(passes) % len(modes)]
            order = list(cases)
            rng.shuffle(order)
            start = time.perf_counter()
            pass_results = run_pass(order, expected, mode, tmp, mem_available, setup)
            longest = max(longest, time.perf_counter() - start)
            results += pass_results
            passes.append({
                "traced": mode,
                "order": [c.id for c in order],
                **pass_summary(pass_results),
            })
            if len(passes) >= len(modes) and time.perf_counter() + longest > deadline:
                break

    table = PER_LAYER if traced else END_TO_END
    plain = [p for p in passes if not p["traced"]]
    measured = [p for p in passes if p["traced"]] if traced else plain
    metrics = {name: _median(p.get(name, 0) for p in measured) for name in table}
    if traced:
        metrics["trace_overhead_s"] = (
            _median(p["wall_s"] for p in measured) - _median(p["wall_s"] for p in plain)
        )
    else:
        metrics["setup_s"] = _median(setup)
    failed = sum(1 for r in results if r.problems)
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "host": host(),
        "setup_samples_s": setup,
        "passes": passes,
        "cases": [
            {k: v for k, v in vars(r).items() if k != "spans" or traced} for r in results
        ],
        "result": {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": table[name][0]} for name in table},
        },
    }


def _require_source() -> None:
    """Exit 2 unless dirmono imports from this checkout's src/."""
    if not (SRC / "dirmono" / "__init__.py").is_file():
        sys.exit(f"bench: no dirmono package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dirmono

    if Path(dirmono.__file__).resolve().parent != (SRC / "dirmono").resolve():
        sys.exit(f"bench: dirmono imported from {dirmono.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    result = record["result"]
    table = PER_LAYER if args.trace else END_TO_END
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} passes {len(record['passes'])}")
    for i, p in enumerate(record["passes"]):
        mode = "traced" if p["traced"] else "untraced"
        print(f"pass {i} {mode} wall_s={p['wall_s']!r} order={','.join(p['order'])}")
    for case in record["cases"]:
        for problem in case["problems"]:
            print(f"FAILED {case['case_id']}: {problem}")
    untraced = sorted({name for case in record["cases"] for name in case["untraced"]})
    if untraced:
        print("names not found, so not traced: " + ", ".join(untraced))
    rate = result["failed"] / result["attempted"]
    print(f"error_rate = {rate!r} ({result['failed']}/{result['attempted']} case runs)")
    for metric, value in result["metrics"].items():
        unit, better, note = table[metric]
        print(f"{metric} = {value['value']!r} {unit} ({better} is better; {note})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _require_source()
    sys.exit(main())
