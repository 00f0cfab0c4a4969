"""The pinned verdict digest, ``tests/verdict_digest.txt``, against this
checkout: each group that runs in seconds is computed in process and must
equal its line, so that a verdict, table, report or error message that
moves without a re-made file fails here.  A change that means to move a
group re-makes the file with

    python3 tools/verdict_digest.py > tests/verdict_digest.txt

and names the group in CHANGES.md."""

import sys
from pathlib import Path

import pytest

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
