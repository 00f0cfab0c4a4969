"""Time ``check_direction_oracle`` on a fixed set of cases in two checkouts.

    python3 tools/oracle_timing.py ROOT_A ROOT_B [--rounds N]

This is not the benchmark (``bench/run.py`` is): it times one function
on prebuilt tables, to compare two versions of the oracle's scan case by
case.  Each case of each round runs in a fresh child process that
imports ``dirmono`` from ``ROOT/src``, pins itself to one CPU, builds
the copula table and every direction's F_d, runs the oracle once over
all directions to warm up, then times REPEATS passes over all directions
and reads its own minor page faults (``ru_minflt``) over them.  Rounds
alternate which root runs first.  For each case it prints the median
over rounds of each root's median pass time, B's time over A's, how
many rounds B was faster, and the median minor page faults per pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPEATS = 7

# (label, family, dim, params, survival-of, grid, notion)
CASES = [
    ("fgm (3,15) I", "fgm", 3, {"lambda": 0.5}, False, 15, "I"),
    ("fgm (3,15) D", "fgm", 3, {"lambda": 0.5}, False, 15, "D"),
    ("amh (2,60) I", "amh", 2, {"delta": 0.5}, False, 60, "I"),
    ("amh (2,60) D", "amh", 2, {"delta": 0.5}, False, 60, "D"),
    ("s-convexpim (3,9) D", "convexpim", 3, {"theta": 0.5}, True, 9, "D"),
    ("fgm (5,4) D", "fgm", 5, {"lambda": 0.5}, False, 4, "D"),
    ("fgm (6,3) D", "fgm", 6, {"lambda": 0.5}, False, 3, "D"),
    ("m (2,21) I", "m", 2, {}, False, 21, "I"),
    ("w (2,21) I", "w", 2, {}, False, 21, "I"),
    ("m (4,6) I", "m", 4, {}, False, 6, "I"),
]


def child(root: str, index: int) -> None:
    """Time one case in this process and print its json result."""
    import os
    import resource
    import time

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(root) / "src"))
    from dirmono import CopulaSpec, checker
    from dirmono.core import all_directions

    _, family, dim, params, survival, g, notion = CASES[index]
    spec = CopulaSpec(family, dim, params)
    if survival:
        spec = CopulaSpec("survival", dim, inner=spec)
    grid = checker.GridSpec(g)
    ctable = checker._copula_table(spec, grid)
    tables = [(d, checker._orthant_table(ctable, d)) for d in all_directions(dim)]

    def scan() -> None:
        for d, table in tables:
            checker.check_direction_oracle(spec, d, grid, notion=notion, table=table)

    scan()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        scan()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(json.dumps({"s": statistics.median(times), "faults": faults / REPEATS}))


def run_child(root: str, index: int) -> dict:
    argv = [sys.executable, __file__, "--child", root, str(index)]
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    roots = [str(Path(r).resolve()) for r in (args.root_a, args.root_b)]
    print(f"{'case':<21}{'A ms':>9}{'B ms':>9}{'B/A':>7}{'B wins':>8}{'A flt':>9}{'B flt':>9}")
    for index, case in enumerate(CASES):
        runs: list[list[dict]] = [[], []]
        for r in range(args.rounds):
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                runs[side].append(run_child(roots[side], index))
        a, b = ([x["s"] * 1e3 for x in side] for side in runs)
        fa, fb = (statistics.median(x["faults"] for x in side) for side in runs)
        wins = sum(y < x for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        print(
            f"{case[0]:<21}{ma:>9.2f}{mb:>9.2f}{mb / ma:>7.3f}{f'{wins}/{args.rounds}':>8}"
            f"{fa:>9.0f}{fb:>9.0f}",
            flush=True,
        )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], int(sys.argv[3]))
    else:
        main()
