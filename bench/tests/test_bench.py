"""Tests of the benchmark itself, on tiny lattices.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import run  # noqa: E402

run._require_source()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_GRID = {2: 5, 3: 3}  # 2 for every larger dimension
ROOMY = 8 << 30


def _tiny(case: run.Case) -> run.Case:
    grid = TINY_GRID.get(case.dim, 2)
    argv = list(case.argv)
    if "--grid" in argv:
        argv[argv.index("--grid") + 1] = str(grid)
    else:  # a fixture config: the flag overrides the file
        argv += ["--grid", str(grid)]
    return dataclasses.replace(case, argv=tuple(argv), grid=grid)


@functools.cache
def _tiny_workload(name: str) -> tuple[run.Workload, dict]:
    """The workload on tiny lattices, with expectations from one run of each case."""
    cases = tuple(_tiny(c) for c in run.WORKLOADS[name].cases)
    expected = {}
    for case in cases:
        rc, report, _ = run.run_once(case)
        expected[case.id] = golden.expectation(rc, report)
    return run.Workload(run.WORKLOADS[name].why, cases), expected


def _run(monkeypatch, name: str, expected: dict | None = None, traced: bool = False,
         cases=None) -> dict:
    workload, tiny_expected = _tiny_workload(name)
    if cases is not None:
        workload = run.Workload(workload.why, cases)
    monkeypatch.setitem(run.WORKLOADS, name, workload)
    monkeypatch.setattr(golden, "load", lambda _: expected or tiny_expected)
    return run.run(name, seed=7, seconds=0, traced=traced)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_smoke_run_is_correct(monkeypatch, name):
    record = _run(monkeypatch, name)
    result = record["result"]
    assert [c["problems"] for c in record["cases"]] == [[]] * len(record["cases"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.WORKLOADS[name].cases)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_golden_raises_error_rate(monkeypatch):
    case = next(c for c in run.WORKLOADS["fixtures-cli"].cases if c.id == "fgm2_mixed_refuted")
    expected = golden.load("fixtures-cli")
    assert _run(monkeypatch, "fixtures-cli", expected, cases=(case,))["result"]["failed"] == 0

    tampered = copy.deepcopy(expected)
    tampered[case.id]["directions"]["+,-"]["outcome"] = "pass_at_resolution"
    result = _run(monkeypatch, "fixtures-cli", tampered, cases=(case,))["result"]
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(monkeypatch, name):
    record = _run(monkeypatch, name, traced=True)
    result = record["result"]
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert [p["traced"] for p in record["passes"]] == [False, True]
    assert result["metrics"]["checker.recheck_attempted"]["value"] > 0
    assert result["metrics"]["checker.recheck_confirmed_ratio"]["value"] == 1.0


def test_traced_counts_repeat_exactly():
    workload, expected = _tiny_workload("dim-ladder")
    counts = (
        "families.cdf_points",
        "orthant.points",
        "checker.inequality_pairs",
        "checker.oracle_comparisons",
        "checker.directions_scanned",
    )
    summaries = []
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for _ in range(2):
            results = run.run_pass(workload.cases, expected, True, Path(tmp), ROOMY)
            assert [r.problems for r in results] == [[], []]
            summaries.append({k: run.pass_summary(results)[k] for k in counts})
    assert summaries[0] == summaries[1]
    assert all(v > 0 for v in summaries[0].values())


def test_memory_estimate_refuses_before_spawning():
    huge = run._case("product-n9-g3", "product", 9, 3, "both")
    assert run.estimate_bytes(huge) >= 16 * (3**9) ** 2
    assert run.refusal(huge, ROOMY) is not None
    for workload in run.WORKLOADS.values():
        for case in workload.cases:
            assert run.refusal(case, ROOMY) is None, case.id
    # with no memory available, even a tiny case is refused and never started
    tiny = _tiny(run.WORKLOADS["dim-ladder"].cases[0])
    result = run.run_case(tiny, None, False, run.OUT, mem_available=1)
    assert result.problems and result.problems[0].startswith("refused")
    assert result.wall_s is None


def _report_like(expected: dict) -> dict:
    """A json report carrying ``expected``'s verdicts plus fields it does not know."""
    verdicts = []
    for token, exp in expected["directions"].items():
        cex = None
        if exp["counterexample"] is not None:
            cex = {**exp["counterexample"], "direction": token, "certified": True}
        verdicts.append({"direction": token, "outcome": exp["outcome"],
                         "max_slack": exp["max_slack"], "counterexample": cex,
                         "oracle_skipped_undefined": 0})
    return {"schema_version": 2, "timing": {"phases": {"scan": 1.0}}, "verdicts": verdicts}


def test_comparator_accepts_last_bits_and_unknown_fields_only():
    expected = golden.load("fixtures-cli")["fgm2_mixed_refuted"]
    report = _report_like(expected)
    assert golden.compare(expected, 1, report) == []

    verdict = report["verdicts"][0]
    verdict["max_slack"] *= 1 + 4e-16
    verdict["counterexample"]["lhs"] *= 1 - 4e-16
    assert golden.compare(expected, 1, report) == []

    for mutate in (
        lambda v: v.update(outcome="pass_at_resolution"),
        lambda v: v["counterexample"]["u_low"].__setitem__(0, 0.5),
        lambda v: v["counterexample"].update(kind="step"),
        lambda v: v["counterexample"].update(rhs=v["counterexample"]["rhs"] * 1.01),
    ):
        changed = copy.deepcopy(report)
        mutate(changed["verdicts"][0])
        assert golden.compare(expected, 1, changed) != []
    assert golden.compare(expected, 0, report) != []
