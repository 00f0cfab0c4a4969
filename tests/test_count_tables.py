"""Both routes against the oracle's definition in exact arithmetic, on
count tables: the cumulative sums of a table of counts are N times a
checkerboard copula on the lattice of its bin edges, so F_d is an integer
table and every conditional of the definition a quotient of integers.
The oracle reads F_d off the float copula table cumsum / N, as a scan
reads it off ``checker._copula_table``."""

import pytest

from dirmono import (
    CopulaSpec,
    GridSpec,
    Notion,
    all_directions,
    check_direction_inequality,
    check_direction_oracle,
    checker,
)
from helpers import count_table, cumulative, exact_oracle_outcome

PER_BIN = 350


def tables(counts):
    """The total of ``counts``, and their F_d per direction: as integers,
    and off the float copula table."""
    ctable = cumulative(counts)
    total = int(ctable[(-1,) * counts.ndim])
    return total, {d: (checker._orthant_table(ctable, d), checker._orthant_table(ctable / total, d))
                   for d in all_directions(counts.ndim)}


@pytest.mark.parametrize("n, m", [(2, 5), (3, 4), (4, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_the_oracle_gives_the_exact_outcome(n, m, seed):
    counts = count_table(n, m, PER_BIN, seed)
    for k in range(n):
        margin = counts.sum(axis=tuple(j for j in range(n) if j != k))
        assert (margin == counts.sum() // m).all(), f"axis {k}: {margin}"
    total, by_direction = tables(counts)
    for d, (exact, approx) in by_direction.items():
        for notion in Notion:
            verdict = check_direction_oracle(
                CopulaSpec("product", n), d, GridSpec(m - 1), notion=notion, table=approx
            )
            expected = exact_oracle_outcome(
                exact, total, d.signs, notion, checker.DEFAULT_TOL, checker.DEFAULT_EPS_DEN
            )
            assert verdict.outcome == expected, (d.pretty(), notion.value)


# ROADMAP item 1: the single-swap inequality route tests one swap pattern of
# the 2^(n-1) - 1, which is complete only for n = 2, and passes some mixed
# directions that the definition refutes; making the route complete turns this
# into a pass.  Pure directions are left out: the all-positive one reads the
# spec's survival table, not ``table=``.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the inequality route is incomplete for n >= 3")
@pytest.mark.parametrize("n, m", [(3, 4), (4, 3)])
def test_the_inequality_route_gives_the_exact_outcome(n, m):
    wrong = []
    for seed in range(12):
        total, by_direction = tables(count_table(n, m, PER_BIN, seed))
        for d, (exact, approx) in by_direction.items():
            if d.is_pure:
                continue
            verdict = check_direction_inequality(
                CopulaSpec("product", n), d, GridSpec(m - 1), table=approx
            )
            expected = exact_oracle_outcome(
                exact, total, d.signs, Notion.INCREASING, checker.DEFAULT_TOL,
                checker.DEFAULT_EPS_DEN,
            )
            if verdict.outcome != expected:
                wrong.append((seed, d.pretty(), verdict.outcome, expected))
    assert wrong == []
