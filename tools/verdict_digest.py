"""Print one sha256 per group of dirmono results, to show that a change
keeps every verdict bit for bit.

    python3 tools/verdict_digest.py [ROOT]

ROOT is a dirmono checkout (default: the one this file sits in); the
package is imported from its ``src/`` and the spec zoo from its
``tests/helpers.py``, and its fixtures are run.  Nothing is written but
the bad config files of the ``errors`` group, in a temporary directory.
Run it on two checkouts and compare the lines: a group whose digest
differs holds a verdict that changed.

Groups:

* ``oracle block=B``: the ``repr`` of every ``check_direction_oracle``
  verdict of the zoo grid with ``checker._BLOCK`` set to B, for B in 1,
  2, 7 and the default; the blocks below the default leave out n = 5,
  where a block of one pair takes half a second per verdict;
* ``oracle g=9``: the same ``repr`` at the default block for the dim-2
  specs of the zoo grid on the lattice of 9 points per axis, where m and
  convexpim theta=0 hold passes whose maximum only a step that leaves the
  join with the target where it is reaches;
* ``inequality``: the ``repr`` of every ``check_direction_inequality``
  verdict of the zoo grid (it reads no ``eps_den``);
* ``tables``: the bytes of ``checker._copula_table``, of every
  direction's ``checker._orthant_table`` read off it, and of
  ``survival_cdf`` at the lattice points, for every spec of the zoo grid
  and survival-of fgm n=6 on the lattice of 3 points per axis;
* ``fixtures``: each fixture config run in process through ``cli.main``
  as ``check --config PATH --format json``: its exit code, its stderr and
  its json report without the ``timing`` block;
* ``errors``: the exit code and stderr of ``cli.main`` on each bad input
  of ``BAD_ARGVS`` (the argvs of ``test_usage_errors`` in
  ``tests/test_cli.py``) and of ``BAD_CONFIGS`` (the config values of its
  ``test_malformed_config_value_exits_two``, each in a config file of fgm
  n=2 lambda 0.5), so that a change can show its error paths unchanged.

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
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dirmono import CopulaSpec, checker, cli, survival_cdf  # noqa: E402
from dirmono.core import Notion, all_directions  # noqa: E402
from helpers import family_zoo  # noqa: E402

GRIDS = {2: 6, 3: 4, 4: 3, 5: 3, 6: 3}
EPS_DENS = (1e-12, 0.05, 0.3)
TOLS = (1e-9, 1e-3)
BLOCKS = (1, 2, 7, checker._BLOCK)

_PRODUCT = ["check", "--family", "product", "--dim", "2"]
BAD_ARGVS = [
    ["check", "--family", "amh", "--dim", "3", "--delta", "0.5"],
    ["check", "--family", "w", "--dim", "3"],
    ["check", "--family", "squircle", "--dim", "2"],
    ["check", "--family", "fgm", "--dim", "2", "--lambda", "1.5"],
    ["check", "--family", "fgm", "--dim", "2"],
    _PRODUCT + ["--direction", "+,?"],
    _PRODUCT + ["--direction", "+"],
    _PRODUCT + ["--grid", "1"],
    _PRODUCT + ["--tol", "0"],
    _PRODUCT + ["--tol", "inf"],
    _PRODUCT + ["--tol", "nan"],
    _PRODUCT + ["--eps-den", "inf"],
    ["check", "--family", "fgm", "--dim", "2", "--lambda", "0.5", "--grid", "5",
     "--direction", "+,-", "--direction", "+,-"],
    ["check", "--dim", "2"],
]
BAD_CONFIGS = [
    {"grid": "abc"}, {"grid": 4.5}, {"lambda": "x"}, {"direction": 5}, {"direction": [5]},
    {"direction": []}, {"dim": 2.7}, {"dim": True}, {"tol": "inf"}, {"eps_den": 1e999},
    {"all_directions": "no"}, {"out": 5}, {"out": None}, {"direction": None},
    {"notion": None}, {"method": "fast"}, {"format": 1}, {"family": 5}, {"grid": 1},
    {"tol": 10**400},
]


def zoo_specs() -> list[CopulaSpec]:
    return family_zoo() + [CopulaSpec("fgm", 5, {"lambda": lam}) for lam in (-1.0, 1.0)]


def zoo(max_dim: int = 5, grids: dict[int, int] = GRIDS):
    for spec in (s for s in zoo_specs() if s.dim <= max_dim):
        grid = checker.GridSpec(grids[spec.dim])
        for d in all_directions(spec.dim):
            for notion in Notion:
                for tol in TOLS:
                    yield spec, d, grid, notion, tol


def oracle_digest(runs) -> str:
    digest = hashlib.sha256()
    for spec, d, grid, notion, tol in runs:
        for eps_den in EPS_DENS:
            v = checker.check_direction_oracle(spec, d, grid, tol, eps_den, notion)
            digest.update(repr(v).encode())
    return digest.hexdigest()


def blocked_oracle_digest(block: int) -> str:
    default, checker._BLOCK = checker._BLOCK, block
    try:
        return oracle_digest(zoo(5 if block == default else 4))
    finally:
        checker._BLOCK = default


def inequality_digest() -> str:
    digest = hashlib.sha256()
    for spec, d, grid, notion, tol in zoo():
        v = checker.check_direction_inequality(spec, d, grid, tol, notion)
        digest.update(repr(v).encode())
    return digest.hexdigest()


def tables_digest() -> str:
    digest = hashlib.sha256()
    fgm6 = CopulaSpec("fgm", 6, {"lambda": 0.5})
    for spec in zoo_specs() + [CopulaSpec("survival", 6, inner=fgm6)]:
        grid = checker.GridSpec(GRIDS[spec.dim])
        ctable = checker._copula_table(spec, grid)
        digest.update(ctable.tobytes())
        for d in all_directions(spec.dim):
            digest.update(checker._orthant_table(ctable, d).tobytes())
        axes = np.meshgrid(*[grid.points()] * spec.dim, indexing="ij")
        digest.update(survival_cdf(spec, np.stack(axes, axis=-1)).tobytes())
    return digest.hexdigest()


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def fixtures_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        code, out, err = run_main(["check", "--config", str(path), "--format", "json"])
        report = json.loads(out) if out else None
        if report is not None:
            del report["timing"]
        digest.update(json.dumps([path.name, code, err, report]).encode())
    return digest.hexdigest()


def error_runs():
    """(input, exit code, stderr) of every bad input, the config file's
    path in stderr written as CONFIG."""
    for argv in BAD_ARGVS:
        code, _, err = run_main(argv)
        yield " ".join(argv), code, err
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        for bad in BAD_CONFIGS:
            path.write_text(json.dumps({"family": "fgm", "dim": 2, "lambda": 0.5, **bad}))
            code, _, err = run_main(["check", "--config", str(path)])
            yield repr(bad), code, err.replace(str(path), "CONFIG")


def errors_digest() -> str:
    digest = hashlib.sha256()
    for run in error_runs():
        digest.update(json.dumps(run).encode())
    return digest.hexdigest()


def main() -> None:
    for block in BLOCKS:
        print(f"oracle block={block}", blocked_oracle_digest(block), flush=True)
    print("oracle g=9", oracle_digest(zoo(2, {2: 9})), flush=True)
    print("inequality", inequality_digest(), flush=True)
    print("tables", tables_digest(), flush=True)
    print("fixtures", fixtures_digest(), flush=True)
    print("errors", errors_digest(), flush=True)


if __name__ == "__main__":
    main()
