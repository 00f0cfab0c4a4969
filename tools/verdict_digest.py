"""Print one sha256 per group of dirmono results, to show that a change
keeps every verdict bit for bit.

    python3 tools/verdict_digest.py

The package is imported from this checkout's ``src/`` and the spec zoo
from its ``tests/helpers.py``, and its fixtures are run.  Nothing is
written but the bad config files of the ``errors`` group, in a temporary
directory.

The digest is pinned in ``tests/verdict_digest.txt``; a change that
moves a group re-makes it with

    python3 tools/verdict_digest.py > tests/verdict_digest.txt

and names the moved group in CHANGES.md.  ``tests/test_verdict_digest.py``
computes every group but ``oracle block=1``, ``2`` and ``7`` in tier-1
and compares it with the file; CI runs the whole tool against the file.
Times on a 2-CPU x86-64 box (Intel Xeon, Python 3.11.7) shared with
other work, over three runs: ``oracle block=1`` 39-44 s, ``2`` 30-34 s
and ``7`` 11-14 s; the default block 1.6-1.9 s, ``oracle g=9``,
``inequality`` and ``fixtures`` 0.2-0.4 s each, ``tables`` 0.1-0.2 s,
``formats`` 0.5-0.6 s and ``errors`` under 0.1 s; the whole tool 77-97 s
over four runs.

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
* ``fixtures``: each case run in process through ``cli.main`` with
  ``--format json``: its exit code, its stderr and its json report
  without the ``timing`` block;
* ``formats``: each case run in process through ``cli.main`` with
  ``--format text`` and with ``--format csv``: its exit code and its
  report, the text's ``# elapsed:`` line dropped;
* ``errors``: the exit code and stderr of ``cli.main`` on each bad input
  of ``BAD_ARGVS`` and of ``BAD_CONFIGS`` (each value in a config file of
  fgm n=2 lambda 0.5), both from ``tests/helpers.py``, which
  ``test_usage_errors`` and ``test_malformed_config_value_exits_two`` in
  ``tests/test_cli.py`` run too, so that a change can show its error
  paths unchanged.

The cases are each fixture config, as ``check --config PATH``, and then
each scan of ``SCAN_ARGVS`` from ``tests/helpers.py``.

The zoo grid is ``family_zoo()`` plus fgm n=5 with lambda -1 and 1, on
the lattices of 6, 4, 3 and 3 points per axis for n = 2, 3, 4 and 5,
with every direction, both notions, ``eps_den`` 1e-12, 0.05 and 0.3, and
``tol`` 1e-9 and 1e-3.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dirmono import CopulaSpec, checker, survival_cdf  # noqa: E402
from dirmono.core import Notion, all_directions  # noqa: E402
from helpers import BAD_ARGVS, BAD_CONFIGS, SCAN_ARGVS, family_zoo, run_main  # noqa: E402

GRIDS = {2: 6, 3: 4, 4: 3, 5: 3, 6: 3}
EPS_DENS = (1e-12, 0.05, 0.3)
TOLS = (1e-9, 1e-3)


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


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) of each fixture config, then of each scan of
    ``SCAN_ARGVS``; the argv names no format."""
    fixtures = [(p.name, ["check", "--config", str(p)])
                for p in sorted((ROOT / "fixtures").glob("*.json"))]
    return fixtures + SCAN_ARGVS


def fixture_runs():
    """(case, exit code, stderr, json report without its ``timing``) of each case."""
    for name, argv in cases():
        code, out, err = run_main(argv + ["--format", "json"])
        report = json.loads(out) if out else None
        if report is not None:
            del report["timing"]
        yield name, code, err, report


def formats_runs():
    """(case, format, exit code, stdout) of each case as text and as csv,
    without the text's ``# elapsed:`` line."""
    for name, argv in cases():
        for fmt in ("text", "csv"):
            code, out, _ = run_main(argv + ["--format", fmt])
            lines = out.splitlines(keepends=True)
            yield name, fmt, code, "".join(x for x in lines if not x.startswith("# elapsed:"))


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


def runs_digest(runs) -> str:
    digest = hashlib.sha256()
    for run in runs:
        digest.update(json.dumps(run).encode())
    return digest.hexdigest()


# name -> digest, in the order of the pinned file
GROUPS = {
    **{
        f"oracle block={block}": partial(blocked_oracle_digest, block)
        for block in (1, 2, 7, checker._BLOCK)
    },
    "oracle g=9": lambda: oracle_digest(zoo(2, {2: 9})),
    "inequality": inequality_digest,
    "tables": tables_digest,
    "fixtures": lambda: runs_digest(fixture_runs()),
    "formats": lambda: runs_digest(formats_runs()),
    "errors": lambda: runs_digest(error_runs()),
}


def main() -> None:
    for name, digest in GROUPS.items():
        print(name, digest(), flush=True)


if __name__ == "__main__":
    main()
