"""Print one sha256 per group of dirmono results, to show that a change
keeps every verdict bit for bit.

    python3 tools/verdict_digest.py [ROOT]

ROOT is a dirmono checkout (default: the one this file sits in); the
package is imported from its ``src/`` and the spec zoo from its
``tests/helpers.py``, and its fixtures are run.  Nothing is written.
Run it on two checkouts and compare the lines: a group whose digest
differs holds a verdict that changed.

Groups:

* ``oracle block=B``: the ``repr`` of every ``check_direction_oracle``
  verdict of the zoo grid with ``checker._BLOCK`` set to B, for B in 1,
  2, 7 and the default; the blocks below the default leave out n = 5,
  where a block of one pair takes half a second per verdict;
* ``inequality``: the ``repr`` of every ``check_direction_inequality``
  verdict of the zoo grid (it reads no ``eps_den``);
* ``fixtures``: each fixture config run in process through ``cli.main``
  as ``check --config PATH --format json``: its exit code, its stderr and
  its json report without the ``timing`` block.

The zoo grid is ``family_zoo()`` plus fgm n=5 with lambda -1 and 1, on
the lattices of 6, 4, 3 and 3 points per axis for n = 2, 3, 4 and 5,
with every direction, both notions, ``eps_den`` 1e-12, 0.05 and 0.3, and
``tol`` 1e-9 and 1e-3.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dirmono import CopulaSpec, checker, cli  # noqa: E402
from dirmono.core import Notion, all_directions  # noqa: E402
from helpers import family_zoo  # noqa: E402

GRIDS = {2: 6, 3: 4, 4: 3, 5: 3}
EPS_DENS = (1e-12, 0.05, 0.3)
TOLS = (1e-9, 1e-3)
BLOCKS = (1, 2, 7, checker._BLOCK)


def zoo(max_dim: int = 5):
    specs = family_zoo() + [CopulaSpec("fgm", 5, {"lambda": lam}) for lam in (-1.0, 1.0)]
    for spec in (s for s in specs if s.dim <= max_dim):
        grid = checker.GridSpec(GRIDS[spec.dim])
        for d in all_directions(spec.dim):
            for notion in Notion:
                for tol in TOLS:
                    yield spec, d, grid, notion, tol


def oracle_digest(block: int) -> str:
    default, checker._BLOCK = checker._BLOCK, block
    try:
        digest = hashlib.sha256()
        for spec, d, grid, notion, tol in zoo(5 if block == default else 4):
            for eps_den in EPS_DENS:
                v = checker.check_direction_oracle(spec, d, grid, tol, eps_den, notion)
                digest.update(repr(v).encode())
        return digest.hexdigest()
    finally:
        checker._BLOCK = default


def inequality_digest() -> str:
    digest = hashlib.sha256()
    for spec, d, grid, notion, tol in zoo():
        v = checker.check_direction_inequality(spec, d, grid, tol, notion)
        digest.update(repr(v).encode())
    return digest.hexdigest()


def fixtures_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", "--config", str(path), "--format", "json"])
        report = json.loads(out.getvalue()) if out.getvalue() else None
        if report is not None:
            del report["timing"]
        digest.update(json.dumps([path.name, code, err.getvalue(), report]).encode())
    return digest.hexdigest()


def main() -> None:
    for block in BLOCKS:
        print(f"oracle block={block}", oracle_digest(block), flush=True)
    print("inequality", inequality_digest(), flush=True)
    print("fixtures", fixtures_digest(), flush=True)


if __name__ == "__main__":
    main()
