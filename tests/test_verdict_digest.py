"""The pinned verdict digest, ``tests/verdict_digest.txt``, against this
checkout: each group that runs in seconds is computed in process and must
equal its line, so that a verdict, table, report or error message that
moves without a re-made file fails here.  A change that means to move a
group re-makes the file with

    python3 tools/verdict_digest.py > tests/verdict_digest.txt

and names the group in CHANGES.md."""

import json
import sys
from pathlib import Path

import pytest
from helpers import SCAN_ARGVS, run_main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import verdict_digest  # noqa: E402

FILE = ROOT / "tests" / "verdict_digest.txt"
PINNED = [line.rsplit(" ", 1) for line in FILE.read_text().splitlines()]
# 10-32 s each on a 2-CPU box; CI runs the whole tool against the file
CI_ONLY = {"oracle block=1", "oracle block=2", "oracle block=7"}


def test_the_file_pins_the_tools_groups_in_order():
    assert [name for name, _ in PINNED] == list(verdict_digest.GROUPS)
    assert CI_ONLY <= set(verdict_digest.GROUPS)


@pytest.mark.parametrize("name", [name for name in verdict_digest.GROUPS if name not in CI_ONLY])
def test_group_matches_the_pinned_digest(name):
    assert verdict_digest.GROUPS[name]() == dict(PINNED).get(name), (
        f"the {name!r} group moved; re-make tests/verdict_digest.txt if it should"
    )


@pytest.mark.parametrize("name, argv", SCAN_ARGVS, ids=[name for name, _ in SCAN_ARGVS])
def test_each_scan_is_the_one_its_name_says(name, argv):
    """The digest pins these scans' bytes but not which scan moved; this
    says, per case, that the scan ran every direction of the copula, notion
    and method that its name and argv give, and exited by its verdicts."""
    flags = {}
    rest = argv[1:]
    for i, tok in enumerate(rest):
        if tok.startswith("--"):
            has_value = i + 1 < len(rest) and not rest[i + 1].startswith("--")
            flags[tok] = rest[i + 1] if has_value else True
    code, out, err = run_main(argv + ["--format", "json"])
    report = json.loads(out)
    config, verdicts = report["config"], report["verdicts"]
    assert err == ""
    assert config["family"]["dim"] == int(flags["--dim"])
    assert config["grid"] == int(flags["--grid"])
    assert config["method"] == flags["--method"] and name.endswith("_" + flags["--method"])
    assert (config["notion"] == "D") == ("--notion" in flags) == ("_D_" in name)
    if "--eps-den" in flags:
        assert config["eps_den"] == float(flags["--eps-den"])
    dim = config["family"]["dim"]
    assert len({v["direction"] for v in verdicts}) == len(verdicts) == 2**dim
    for v in verdicts:
        # under "both", a route that cannot decide defers to the other
        if v["method"] != config["method"]:
            assert config["method"] == "both"
            assert "unsupported" in (v["inequality_outcome"], v["oracle_outcome"])
    passed = all(v["outcome"] == "pass_at_resolution" for v in verdicts)
    assert code == (3 if report["disagreements"] else 0 if passed else 1)
