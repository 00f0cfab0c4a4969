"""Every benchmark case, run in process through the CLI, against its golden
verdicts, so that a change of outcome or counterexample shows here before
a benchmark run."""

import sys
from pathlib import Path

import pytest

from dirmono import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import golden  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize(
    "workload, case",
    [(name, case) for name, workload in run.WORKLOADS.items() for case in workload.cases],
    ids=lambda c: c if isinstance(c, str) else c.id,
)
def test_case_matches_golden(capsys, workload, case):
    code = cli.main(list(case.argv))
    report = run._parse_report(capsys.readouterr().out)
    assert golden.compare(golden.load(workload)[case.id], code, report) == []
