"""Verification engine for directional monotonicity of copulas.

Two independent routes decide whether a copula is monotone according to a
direction, both restricted to a finite interior lattice:

* inequality: for every ordered grid pair u <= u', a product inequality
  between orthant probabilities (mixed directions swap the negative-axis
  coordinates between the two points; pure directions in dims 2 and 3
  swap the first coordinate, with the plain copula for the all-negative
  direction and the survival copula for the all-positive one);
* oracle: for every pair of grid points (target, condition) and every
  axis, the conditional orthant probability must move the right way as
  the conditioning point takes one grid step along that axis.

Every point either route touches is a lattice point, and F_d is a signed
sum of margins of C, which are C with some coordinates pinned to 1.  So
``scan_all_directions`` evaluates C once, per axis on the lattice's axes
with 1.0 appended to each (``_copula_table``), and hands that table to
``scan_direction``, which reads each direction's F_d, shape (g,)*n, off
it by slicing and hands it to both routes.  The pure single-swap form
reads F_d too (C, for the all-negative direction), but the all-positive
one reads the survival copula (``_survival_table``), evaluated per axis
too since flipping C's table is not bit-exact.  Both routes gather from
these tables by per-axis ``take``s of the per-axis pairs lo <= hi, with no
per-pair index vectors.  The oracle takes those pairs as a condition w
and its join z with the target: a step leaves z as it is, or, where the
two share the stepped coordinate (an informative step), steps it with w,
so a comparison depends on the target only through z, and each distinct
(w, z, axis) is evaluated at most once; its count is taken once per
direction, off the mask of defined conditions, before any is evaluated.
It reads F_d with the negative axes flipped, where a step along d raises
every index, so the same per-axis pairs serve all 2^n directions.

The oracle scans in chains.  A chain runs along one axis k, block by
block, over the quotients F_d(z) / den(w) of the conditions w_k = i at
their own joins z_k = i (the informative steps), or all at one join
z_k = h (the steps that leave the join where it is), with one pair on
each of the first few other axes and every pair on the rest; it compares
each row with the next, carrying a block's last row into the next.  Under
I the oracle first runs an O(n g^n) guard: every entry of the table is in
[+0.0, 2] (its sign bit clear, and small enough that no quotient by a
den >= eps_den overflows), and along every axis den, F_d where defined,
never rises at a step between defined ends.  Then a step that is not
informative has the slack fl(x/a) - fl(x/b), x = F_d(z) >= 0 and
a = den(w) >= b = den(w + e_k) > 0, at most +0.0 as correctly rounded
division and subtraction are monotone, and the informative steps hold
1.0 - 1.0 = +0.0 at w = z.  So the oracle runs only the chains of
conditions at their own joins, one per axis and head, n g (g(g+1)/2)^(n-1)
quotients, and keeps the maximum, the verdict and every report byte.
Under D, whose other steps have positive slacks, and where the guard
fails, it also runs one chain per axis, head and join h = 1 .. g-1: this
full scan computes each of the (g(g+1)/2)^n quotients once per axis
(those at w_k = z_k > 0 twice).  The quotients are computed in blocks of
at most _BLOCK (w, z) pairs, so the memory is O(block + (g+1)^n), never
g^n x g^n.  The scan only decides, keeping the maximum slack; when it
exceeds tol, a locate step applies the definition to chunks of 1, 2,
4, ... targets in lattice order, up to about _BLOCK (target, condition)
pairs, reading F_d at each target's join with every condition, and stops
at the first chunk that holds a violation.

The scalar functions ``check_pair`` (one pair, either direction kind)
and ``conditional_prob`` are the independent recheck path: they evaluate
F_d at single points as the signed sum of margins (``_orthant_array``),
not off the table, every counterexample a scan reports is recomputed
through them, and one that does not re-verify is flagged as a
disagreement.

A direction that survives every check at a given resolution is reported
as a pass at that resolution, never as proved; an oracle scan left with
no defined comparison is unsupported, not a pass.  Pure directions in
dimension >= 4 have no supported inequality form and are routed to the
oracle.

No scan stops at its first violation, so its maximum slack is always
the maximum over every comparison, though the oracle under the guard
reaches it without evaluating the steps that cannot set it.  The
reported counterexample is the first violation in lexicographic order of
the concatenated pair coordinates (inequality) or of the flat (target,
earlier condition, axis) indices (oracle), which keeps results
deterministic and independent of block size.  Both find it after the
scan: the inequality route axis by axis in its slack array, the
oracle's locate step at the first violating target, which it reaches in
lattice order.

``scan_all_directions`` splits its directions into w interleaved shares,
``chosen[i::w]``, where w is the least of the CPUs this process may use,
the number of directions, how many of ``_check_lattice``'s charges fit in
memory, and how many times the scan's comparisons, as ``_comparisons``
estimates them, hold _SHARE_COMPARISONS, the least work that pays for a
fork (but at least 1), so that a scan of a few ms runs here.  It scans
share 0 itself and each other share in a worker forked after the
copula table is built, which reads the table it inherits and pipes back
its pickled verdicts, or the exception it raised, raised again with its
type and message; one that ends without a result, or with one cut short,
raises ChildProcessError.  Every worker is reaped before the scan returns
or raises.  Without ``os.fork`` or ``os.sched_getaffinity``, or when a
worker's pipe or fork cannot be made, its share is scanned in this
process.  Every verdict comes from ``scan_direction`` either way, so
none depends on w.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import DimensionError, Direction, Notion, all_directions
from .families import SURVIVAL, CopulaSpec, _cdf_axes, _signed_sum, survival_cdf, validate
from .families import _points
from .orthant import DEFAULT_EPS_DEN, MIN_EPS_DEN, _check_direction, _check_eps_den
from .orthant import _orthant_array, conditional_prob

DEFAULT_TOL = 1e-9

PASS_AT_RESOLUTION = "pass_at_resolution"
REFUTED = "refuted"
UNSUPPORTED = "unsupported"

METHOD_INEQUALITY = "inequality"
METHOD_ORACLE = "oracle"
METHOD_BOTH = "both"
METHODS = (METHOD_INEQUALITY, METHOD_ORACLE, METHOD_BOTH)

_DEFAULT_RESOLUTIONS = {2: 21, 3: 9, 4: 6, 5: 4}

# numpy arrays have at most 64 axes (32 before numpy 2), so a larger dim
# has no lattice table
_MAX_DIM = 64

# physical memory, which a scan's peak may not exceed
_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
# peak bytes of the inequality route per (u, u') pair: 25.0 to 28.3 under
# tracemalloc, passing and refuted, at (6,3), (5,4), (4,6), (3,9), (3,15), (2,60)
_PAIR_PEAK_BYTES = 29
# peak bytes of a scan's tables per (g+1)^n point (the copula table, F_d, the
# survival table and the oracle's copies of F_d): 2.2 to 8.1 floats under
# tracemalloc over 12 specs from (2,1000) to (8,5), the most at survival-of amh
# (2,400); the oracle's blocks add O(_BLOCK)
_TABLE_PEAK_BYTES = 72

# the least comparisons (``_comparisons``) that pay for a fork; one process against
# two on 2 CPUs, CLI elapsed_seconds, medians of 24 alternating runs: survival-of fgm
# (3,9), 1.17M, 13.8 vs 13.9 ms; survival-of convexpim (3,9) D, 2.92M, 19.9 vs 17.1 ms;
# fgm (3,15) oracle, 5.18M, 18.8 vs 19.5 ms; fgm (4,6), 6.67M, 38.4 vs 27.8 ms
_SHARE_COMPARISONS = 1 << 20

# (condition, join) pairs in one block of the oracle's conditionals;
# larger blocks gain no speed and raise peak memory
_BLOCK = 1 << 14


class UnsupportedDirectionError(ValueError):
    """The requested pairwise check does not cover this direction."""


@dataclass(frozen=True)
class GridSpec:
    """Open interior lattice: points k/(g+1) for k = 1..g on every axis."""

    resolution: int

    def __post_init__(self) -> None:
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, Integral):
            raise ValueError(f"grid resolution must be an integer, got {self.resolution!r}")
        # a Python int, so that a numpy integer cannot wrap _check_lattice's charge
        object.__setattr__(self, "resolution", int(self.resolution))
        if self.resolution < 2:
            raise ValueError(f"grid resolution must be >= 2, got {self.resolution}")

    def points(self) -> np.ndarray:
        g = self.resolution
        return np.arange(1, g + 1, dtype=float) / (g + 1)

    @staticmethod
    def default_resolution(dim: int) -> int:
        return _DEFAULT_RESOLUTIONS.get(dim, 3)


@dataclass(frozen=True)
class Counterexample:
    """A concrete violation, normalized to the form lhs <= rhs.

    ``kind`` is "pair" for pairwise-inequality violations (u_low/u_high
    are the ordered pair) and "step" for oracle violations (u_low/u_high
    are the two conditioning points, differing on one axis, with the
    fixed target point and the stepped axis recorded as well; the axis
    is 0-based here and rendered 1-based in reports).  ``violation`` is
    lhs - rhs: a value passed for it (``bench/run.py`` passes one) is replaced.
    """

    direction: Direction
    u_low: tuple[float, ...]
    u_high: tuple[float, ...]
    lhs: float
    rhs: float
    violation: float = math.nan
    kind: str = "pair"
    target: tuple[float, ...] | None = None
    axis: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "violation", self.lhs - self.rhs)


@dataclass(frozen=True)
class DirectionVerdict:
    """Outcome of checking one direction.

    ``method`` names the route that produced the official outcome; when a
    combined run has both routes available, it is "both" and the two
    sub-outcomes plus their agreement are recorded.  ``max_slack`` is the
    largest lhs - rhs seen over all comparisons (<= tol on a pass).
    """

    direction: Direction
    method: str
    outcome: str
    pairs_tested: int
    max_slack: float | None
    counterexample: Counterexample | None
    inequality_outcome: str | None = None
    oracle_outcome: str | None = None
    methods_agree: bool | None = None


def _check_settings(
    tol: float, notion: Notion | str, eps_den: float = MIN_EPS_DEN, method: str = METHOD_BOTH
) -> Notion:
    """Refuse a bad scan setting; ``notion`` comes back as a Notion, which
    "I" and "D" name."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    _check_eps_den(eps_den)
    return Notion(notion)


def _check_lattice(n: int, g: int, method: str) -> int:
    """Refuse, before anything is allocated, a lattice that no table can
    hold: more axes than an array has, or more bytes at the peak of the
    tables, with the inequality route's pair arrays when it runs, than the
    machine has memory.  Returns the bytes charged, at most the memory."""
    if n > _MAX_DIM:
        raise DimensionError(f"dim {n} exceeds the {_MAX_DIM} axes a lattice table can have")
    charge = (g + 1) ** n * _TABLE_PEAK_BYTES
    if charge > _MEMORY:
        raise MemoryError(f"the {g + 1}^{n} points of the copula table do not fit in memory")
    pairs = g * (g + 1) // 2
    charge += 0 if method == METHOD_ORACLE else pairs**n * _PAIR_PEAK_BYTES
    if charge > _MEMORY:
        raise MemoryError(f"the {pairs}^{n} pairs of the inequality route and the tables "
                          "do not fit in memory")
    return charge


def _comparisons(n: int, g: int, method: str, notion: Notion) -> int:
    """One direction's comparisons, estimated: with P = g(g+1)/2, the inequality
    route's P^n pairs and the oracle's quotients, n g P^(n-1) informative ones
    under I and n P^n under D, where the full scan computes each once per axis."""
    pairs = g * (g + 1) // 2
    work = 0 if method == METHOD_ORACLE else pairs**n
    if method != METHOD_INEQUALITY:
        work += n * (g if notion is Notion.INCREASING else pairs) * pairs ** (n - 1)
    return work


def _check_tol(tol: float) -> None:
    """Refuse a nan ``tol``, under which every comparison would pass."""
    if math.isnan(tol):
        raise ValueError(f"tol must not be nan, got {tol!r}")


def check_pair(
    spec: CopulaSpec,
    d: Direction,
    u: Sequence[float],
    up: Sequence[float],
    tol: float = DEFAULT_TOL,
    notion: Notion | str = Notion.INCREASING,
) -> Counterexample | None:
    """Pairwise inequality for one ordered pair u <= up, through the scalar
    evaluators.

    A mixed direction compares orthant probabilities with the
    negative-axis coordinates of u and up traded; a pure one (dims 2 and
    3 only) trades the first coordinate and reads F_d, which is C, when
    all-negative and the survival copula when all-positive.  Returns None
    on a pass, otherwise the pair with both sides.  Any ``tol`` but nan is
    taken, so that ``-inf`` reads every slack; a coordinate that is nan or
    outside [0, 1] raises ValueError.
    """
    _check_tol(tol)
    validate(spec)
    notion = Notion(notion)
    u = tuple(float(x) for x in u)
    up = tuple(float(x) for x in up)
    if not spec.dim == d.dim == len(u) == len(up):
        raise DimensionError(
            f"direction dim {d.dim} and points of {len(u)}/{len(up)} coordinates "
            f"do not match copula dim {spec.dim}"
        )
    if d.is_pure and spec.dim > 3:
        raise UnsupportedDirectionError(
            f"pure-direction pairwise check is not supported for dim {spec.dim}"
        )
    if any(a > b for a, b in zip(u, up)):
        raise ValueError("pair is not ordered: u <= u' componentwise required")
    swapped = (0,) if d.is_pure else d.neg_idx
    lo = tuple(up[i] if i in swapped else u[i] for i in range(d.dim))
    hi = tuple(u[i] if i in swapped else up[i] for i in range(d.dim))
    corners = _points(spec, [u, up, lo, hi])
    if d.is_pure and d.signs[0] > 0:
        h = survival_cdf(spec, corners)
    else:
        h = _orthant_array(spec, d, corners)
    plain, crossed = float(h[0] * h[1]), float(h[2] * h[3])
    lhs, rhs = (crossed, plain) if d.is_pure else (plain, crossed)
    if notion is Notion.DECREASING:
        lhs, rhs = rhs, lhs
    if lhs - rhs > tol:
        return Counterexample(d, u, up, lhs, rhs, kind="pair")
    return None


def _axes(points: np.ndarray, n: int) -> list[np.ndarray]:
    """``points`` on each of n axes, shaped to broadcast to the (m,)*n lattice."""
    return [points.reshape((-1,) + (1,) * (n - 1 - k)) for k in range(n)]


def _copula_table(spec: CopulaSpec, grid: GridSpec) -> np.ndarray:
    """C on the lattice with 1.0 appended to every axis, shape (g+1,)*n.

    Reading an axis at index g pins its coordinate to 1, so every margin
    of C on the lattice is a slice of this table.
    """
    validate(spec)
    table = _cdf_axes(spec, _axes(np.append(grid.points(), 1.0), spec.dim))
    table.setflags(write=False)
    return table


def _orthant_table(ctable: np.ndarray, d: Direction) -> np.ndarray:
    """F_d on the (g,)*n lattice: the signed sum of ``_orthant_array``,
    with each margin a slice of the copula table."""
    g, n = ctable.shape[0] - 1, ctable.ndim

    def margin(selected: tuple[int, ...]) -> np.ndarray:
        return ctable[tuple(slice(g) if k in selected else slice(g, None) for k in range(n))]

    return _signed_sum(margin, d.neg_idx, d.pos_idx)


def _survival_table(spec: CopulaSpec, grid: GridSpec) -> np.ndarray:
    """The survival copula of ``spec`` on the (g,)*n lattice, which the all-positive
    direction's pairwise form reads; flipping C's table is not bit-exact."""
    validate(spec)
    return _cdf_axes(CopulaSpec(SURVIVAL, spec.dim, inner=spec), _axes(grid.points(), spec.dim))


def check_direction_inequality(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
    notion: Notion | str = Notion.INCREASING,
    *,
    table: np.ndarray | None = None,
) -> DirectionVerdict:
    """Scan every ordered grid pair with the pairwise inequality.

    Mixed directions swap the negative-axis coordinates of u and u' and
    read F_d; pure ones in dims 2 and 3 swap axis 0 and read the copula
    (all-negative) or survival copula (all-positive).  Pure directions in
    dim >= 4 come back as unsupported; route those to the oracle.
    ``table`` is F_d on the lattice, which the all-positive direction
    ignores for ``_survival_table``; when not given, it is read off the
    copula table as ``scan_direction`` reads it.
    """
    _check_direction(spec, d)
    notion = _check_settings(tol, notion)
    if d.is_pure and spec.dim > 3:
        return DirectionVerdict(d, METHOD_INEQUALITY, UNSUPPORTED, 0, None, None)
    g, n = grid.resolution, spec.dim
    _check_lattice(n, g, METHOD_INEQUALITY)
    if d.is_pure and d.signs[0] > 0:
        table = _survival_table(spec, grid)
    elif table is None:
        table = _orthant_table(_copula_table(spec, grid), d)
    table = table.reshape((g,) * n)
    # per axis, every ordered pair lo <= hi of lattice indices
    lo, hi = np.triu_indices(g)

    def side(parts: Sequence[np.ndarray]) -> np.ndarray:
        # table at every combination of the per-axis indices ``parts``; the
        # last axis first, so that the largest take copies whole rows
        out = table
        for k in reversed(range(n)):
            out = out.take(parts[k], axis=k)
        return out

    def corners(swapped: Sequence[int]) -> np.ndarray:
        # F at the pair's two corners, with lo and hi traded on ``swapped``
        low = [hi if k in swapped else lo for k in range(n)]
        high = [lo if k in swapped else hi for k in range(n)]
        # in place, so that the product needs no third array of pairs
        product = side(low)
        product *= side(high)
        return product

    plain, crossed = corners(()), corners([0] if d.is_pure else d.neg_idx)
    lhs, rhs = (crossed, plain) if d.is_pure else (plain, crossed)
    if notion is Notion.DECREASING:
        lhs, rhs = rhs, lhs
    slack = lhs - rhs
    max_slack = float(slack.max())
    violating = slack > tol
    if not violating.any():
        return DirectionVerdict(
            d, METHOD_INEQUALITY, PASS_AT_RESOLUTION, slack.size, max_slack, None
        )
    # the first violation in lexicographic (u, u') order: axis by axis, the
    # smallest lo that holds one, whose pairs are a run in triu order; then
    # the first of the remaining hi in row-major order
    start = []
    for k in range(n):
        a = int(violating.any(axis=tuple(m for m in range(n) if m != k)).argmax())
        violating = violating[(slice(None),) * k + (slice(a, np.searchsorted(lo, lo[a], "right")),)]
        start.append(a)
    i = tuple(np.add(start, np.unravel_index(int(violating.argmax()), violating.shape)))
    cex = Counterexample(
        d,
        tuple(grid.points()[lo[list(i)]].tolist()),
        tuple(grid.points()[hi[list(i)]].tolist()),
        float(lhs[i]),
        float(rhs[i]),
        kind="pair",
    )
    return DirectionVerdict(d, METHOD_INEQUALITY, REFUTED, slack.size, max_slack, cex)


def check_direction_oracle(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
    eps_den: float = DEFAULT_EPS_DEN,
    notion: Notion | str = Notion.INCREASING,
    *,
    table: np.ndarray | None = None,
) -> DirectionVerdict:
    """Check conditional orthant probabilities straight off the definition.

    For every grid target v and grid condition w, the conditional at w
    is compared against the conditional at the neighbor of w one grid
    step further along each axis (a step toward larger coordinates on
    positive axes, smaller on negative axes).  Comparisons touching an
    undefined conditional (conditioning probability below eps_den) are
    nan, and both the maximum (``np.fmax``) and the locate step (``> tol``)
    skip them; a direction left with no defined comparison is unsupported.
    ``table`` is F_d on the lattice; when not given, it is read off the
    copula table as ``scan_direction`` reads it.

    The conditional at w is F_d(z) / F_d(w), where z is the join of v and
    w in d's order; the (w, z) quotients are computed in chains along one
    axis k, in blocks of at most _BLOCK (w, z) pairs, each compared with
    the next along k.
    ``pairs_tested`` counts every target, paired with every defined
    condition that steps to a defined condition, along every axis; it is
    counted before any is evaluated.

    The scan only decides, by the maximum slack.  Under I, when F_d is in
    [+0.0, 2] and no defined conditioning probability rises at a step to
    a defined one, it compares only the informative steps, where w and z
    share the stepped coordinate: every other step divides one
    F_d(z) >= 0 by a conditioning probability that does not rise, so its
    slack is at most +0.0 after rounding, and the informative steps hold
    +0.0 at w = z, so the maximum is the same, bit for bit.  Under D, and
    where that guard fails, it compares every step, one chain per axis and
    join, and so computes each quotient once per axis.  On a refutation a
    locate step applies the definition to chunks of targets in lattice
    order: the first True of a chunk's (target, condition, axis)
    violations in C order is the counterexample, each quotient the scan's
    division of its operands.
    """
    _check_direction(spec, d)
    notion = _check_settings(tol, notion, eps_den)
    g, n = grid.resolution, spec.dim
    _check_lattice(n, g, METHOD_ORACLE)
    if table is None:
        table = _orthant_table(_copula_table(spec, grid), d)
    # flip the negative axes: in this table a step along d raises the index
    flip = tuple(slice(None, None, s) for s in d.signs)
    table = np.ascontiguousarray(table.reshape((g,) * n)[flip])
    defined = table >= eps_den
    total = table.size
    # each defined condition that steps to a defined one stands for every target
    steps = (np.moveaxis(defined, k, 0) for k in range(n))
    comparisons = total * sum(int(np.count_nonzero(m[:-1] & m[1:])) for m in steps)
    if not comparisons:
        # no defined comparison at all would make a pass vacuous
        return DirectionVerdict(d, METHOD_ORACLE, UNSUPPORTED, 0, None, None)
    # an undefined conditional is nan, and so is every slack it touches
    den = np.where(defined, table, np.nan)
    # per axis, pair a is a condition lo[a] and a join hi[a] >= lo[a]
    lo, hi = np.triu_indices(g)
    pairs = lo.size
    # a chain's axis takes a run of rows, the first lead other axes one pair
    # each and the tail, the axes after those, every pair
    lead = next(j for j in range(n) if pairs ** (n - 1 - j) <= _BLOCK)
    tail = n - 1 - lead
    run = _BLOCK // pairs**tail
    max_slack = -np.inf
    # the last block of the call before, kept until the next call has one, so
    # that the allocator does not give that memory back only to take it again
    spent = None

    def oriented(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # the slack of a comparison in the notion's order, nan where undefined
        return rhs - lhs if notion is Notion.DECREASING else lhs - rhs

    def compare(lhs: np.ndarray, rhs: np.ndarray) -> None:
        # fmax skips an undefined slack; a block of them reduces to nan, which
        # max against the running value skips too
        nonlocal max_slack
        max_slack = max(max_slack, float(np.fmax.reduce(oriented(lhs, rhs), axis=None)))

    def chain(k: int, head: tuple, join=None) -> None:
        # along axis k, block by block, the quotients F_d(z) / den(w) of the
        # conditions w_k = i at their own join z_k = i (join None) or at
        # z_k = join, the pairs head on the first lead other axes and every
        # pair of the tail, each row compared with the next
        nonlocal spent
        joins, conditions = table.swapaxes(0, k), den.swapaxes(0, k)
        last = None  # the last row of the block before
        end = g if join is None else join + 1
        for i0 in range(0, end, run):
            rows = slice(i0, min(i0 + run, end))
            at = rows if join is None else slice(join, join + 1)
            z = joins[(at,) + tuple(hi[a] for a in head)]
            w = conditions[(rows,) + tuple(lo[a] for a in head)]
            for m in range(tail, 0, -1):
                z, w = z.take(hi, axis=m), w.take(lo, axis=m)
            block = z / w
            spent = None  # this call has a block now
            if last is not None:
                compare(last, block[0])
            last = block[-1]  # a view: the block before is freed here
            if len(block) > 1:
                compare(block[:-1], block[1:])
        spent = block

    # the guard of the module docstring: then every other comparison is
    # fl(x/a) - fl(x/b) with 0 <= x <= 2 and a >= b >= eps_den, at most +0.0
    # and never nan, and the informative ones hold 1.0 - 1.0 at w = z
    informative_only = (
        notion is Notion.INCREASING
        and not np.signbit(table).any()
        and table.max() <= 2.0
        and not any((np.diff(den, axis=k) > 0).any() for k in range(n))
    )
    for k in range(n):
        for head in np.ndindex((pairs,) * lead):
            chain(k, head)  # the informative steps
            if not informative_only:
                # the steps that leave the join z_k = h where it is, from the
                # last join down, so that no block outgrows the one before
                for h in range(g - 1, 0, -1):
                    chain(k, head, h)
    spent = None  # the locate step does not read it
    if not max_slack > tol:
        return DirectionVerdict(d, METHOD_ORACLE, PASS_AT_RESOLUTION, comparisons, max_slack, None)

    # the locate step, on chunks of 1, 2, 4, ... targets, up to _BLOCK pairs
    shape, flat_table, divisor = (g,) * n, table.ravel(), den[flip]
    # per axis, the oriented table's flat offset of each lattice index
    per_axis = zip(_axes(np.arange(g), n), d.signs)
    axes = [a[::s] * g ** (n - 1 - k) for k, (a, s) in enumerate(per_axis)]

    def conditionals(p0: int, p1: int) -> np.ndarray:
        # the conditional of each target p0:p1 at every condition, both in
        # lattice order: F_d at their join over F_d at the condition
        targets = np.unravel_index(np.arange(p0, p1).reshape((-1,) + (1,) * n), shape)
        return flat_table[sum(np.maximum(a, a.ravel()[v]) for a, v in zip(axes, targets))] / divisor

    def violations(p0: int, p1: int) -> np.ndarray:
        # for the targets p0:p1, whether each condition and its step along
        # each axis violate
        conditional = conditionals(p0, p1)
        violating = np.zeros(conditional.shape + (n,), dtype=bool)
        for k, s in enumerate(d.signs):
            # the conditions that step along k, and their steps
            parts = (slice(None),) * (k + 1)
            earlier, later = (parts + (slice(-1),), parts + (slice(1, None),))[::s]
            violating[earlier + (..., k)] = oriented(conditional[earlier], conditional[later]) > tol
        return violating

    p0, size = 0, 1
    while not (violating := violations(p0, min(p0 + size, total))).any():
        p0, size = p0 + size, min(2 * size, max(1, _BLOCK // total))
        assert p0 < total, "the locate step found no violation that the scan found"
    t, *earlier, k = map(int, np.unravel_index(violating.argmax(), violating.shape))
    later = [e + d.signs[k] * (m == k) for m, e in enumerate(earlier)]
    conditional = conditionals(p0 + t, p0 + t + 1)[0]
    sides = [float(conditional[tuple(i)]) for i in (earlier, later)]
    lhs_val, rhs_val = sides[::-1] if notion is Notion.DECREASING else sides
    low, high, points = *sorted([earlier, later]), grid.points()  # they differ on axis k
    cex = Counterexample(
        d,
        tuple(points[low].tolist()),
        tuple(points[high].tolist()),
        lhs_val,
        rhs_val,
        kind="step",
        target=tuple(points[list(np.unravel_index(p0 + t, shape))].tolist()),
        axis=k,
    )
    return DirectionVerdict(d, METHOD_ORACLE, REFUTED, comparisons, max_slack, cex)


def scan_direction(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    method: str = METHOD_BOTH,
    tol: float = DEFAULT_TOL,
    eps_den: float = DEFAULT_EPS_DEN,
    notion: Notion | str = Notion.INCREASING,
    *,
    ctable: np.ndarray | None = None,
) -> DirectionVerdict:
    """One direction, one combined verdict.

    Runs the routes ``method`` names.  With method "both" the two routes
    must agree wherever both are supported; on disagreement the oracle's
    outcome is reported with ``methods_agree`` set to False (callers
    treat that as an internal defect, not a property of the copula).  A
    reported counterexample that does not re-verify through the scalar
    path (``recheck_counterexample``) sets ``methods_agree`` to False too.
    The settings are checked as ``_check_settings`` checks them, whatever
    the method.

    Both routes take F_d read off ``ctable``, the copula table of the
    spec and lattice (``_copula_table``), which ``scan_all_directions``
    builds once for all its directions; it is built here when not given.
    The lattice is charged as ``scan_all_directions`` charges it.
    """
    _check_direction(spec, d)
    notion = _check_settings(tol, notion, eps_den, method)
    _check_lattice(spec.dim, grid.resolution, method)
    if ctable is None:
        ctable = _copula_table(spec, grid)
    table = _orthant_table(ctable, d)
    ineq = orac = None
    if method != METHOD_ORACLE:
        ineq = check_direction_inequality(spec, d, grid, tol, notion, table=table)
    if method != METHOD_INEQUALITY:
        orac = check_direction_oracle(spec, d, grid, tol, eps_den, notion, table=table)
    outcomes = dict(
        inequality_outcome=ineq.outcome if ineq else None,
        oracle_outcome=orac.outcome if orac else None,
    )
    # a route that did not run or could not decide defers to the other
    if ineq is None or (ineq.outcome == UNSUPPORTED and orac is not None):
        verdict = replace(orac, **outcomes)
    elif orac is None or orac.outcome == UNSUPPORTED:
        verdict = replace(ineq, **outcomes)
    else:
        agree = ineq.outcome == orac.outcome
        outcome = ineq.outcome if agree else orac.outcome
        cex = ineq.counterexample or orac.counterexample
        verdict = DirectionVerdict(
            d,
            METHOD_BOTH,
            outcome,
            ineq.pairs_tested + orac.pairs_tested,
            max(ineq.max_slack, orac.max_slack),
            None if outcome == PASS_AT_RESOLUTION else cex,
            methods_agree=agree,
            **outcomes,
        )

    cex = verdict.counterexample
    if cex is not None and not recheck_counterexample(spec, cex, tol, eps_den, notion):
        # the scan and the scalar path disagree: an internal defect
        verdict = replace(verdict, methods_agree=False)
    return verdict


def scan_all_directions(
    spec: CopulaSpec,
    grid: GridSpec,
    method: str = METHOD_BOTH,
    tol: float = DEFAULT_TOL,
    eps_den: float = DEFAULT_EPS_DEN,
    notion: Notion | str = Notion.INCREASING,
    directions: Iterable[Direction] | None = None,
) -> list[DirectionVerdict]:
    """Verdicts for every requested direction (default: all 2^n of them).

    The spec, the settings (as ``scan_direction`` checks them) and the
    dim of every requested direction are checked first, and a direction
    requested twice is refused; ``directions`` may be any iterable, read
    once.  A lattice that no table can hold is refused before anything is
    allocated, as ``_check_lattice`` refuses it.  The copula table is built
    once and handed to every direction.  The directions are scanned in
    interleaved shares, one per usable CPU as far as memory and the work
    (_SHARE_COMPARISONS per share) allow, each but the first in a forked
    worker (``_in_workers``).
    """
    validate(spec)
    notion = _check_settings(tol, notion, eps_den, method)
    if directions is not None:
        directions = list(directions)
        seen = set()
        for d in directions:
            _check_direction(spec, d)
            if d in seen:
                raise ValueError(f"direction {d.token()} is requested more than once")
            seen.add(d)
        if not directions:
            return []
    charge = _check_lattice(spec.dim, grid.resolution, method)
    chosen = all_directions(spec.dim) if directions is None else directions
    ctable = _copula_table(spec, grid)
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if can_fork else 1
    work = len(chosen) * _comparisons(spec.dim, grid.resolution, method, notion)
    w = min(cpus, len(chosen), _MEMORY // charge, max(1, work // _SHARE_COMPARISONS))

    def scan(share: list[Direction]) -> list[DirectionVerdict]:
        return [scan_direction(spec, d, grid, method, tol, eps_den, notion, ctable=ctable)
                for d in share]

    shares = _in_workers(scan, [chosen[i::w] for i in range(w)])
    return [shares[i % w][i // w] for i in range(len(chosen))]


def _in_workers(scan: Callable[[list], list], shares: list) -> list:
    """``scan`` of each share: the first here, each other in a forked worker
    that pipes back its result or its exception, or here when its pipe or
    its fork cannot be made.
    Every worker is reaped before this returns or raises."""
    pipes = {}  # share index -> (pid, read end of the worker's pipe)
    try:
        for i in range(1, len(shares)):
            try:
                r, w = os.pipe()
            except OSError:  # no descriptor to spare (EMFILE, ENFILE)
                continue
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                continue
            if pid == 0:  # the worker, which must not return
                try:
                    with os.fdopen(w, "wb") as out:
                        try:
                            out.write(pickle.dumps((True, scan(shares[i]))))
                        except Exception as exc:
                            out.write(pickle.dumps((False, exc)))
                finally:
                    os._exit(0)
            os.close(w)
            pipes[i] = (pid, os.fdopen(r, "rb"))
        results = [None if i in pipes else scan(share) for i, share in enumerate(shares)]
        for i, (_, out) in pipes.items():
            try:
                ok, results[i] = pickle.loads(out.read())
            except (pickle.UnpicklingError, EOFError) as exc:
                # nothing, or a pickle cut short by the worker's end
                raise ChildProcessError("a scan worker ended without a result") from exc
            if not ok:
                raise results[i]
        return results
    finally:
        for pid, out in pipes.values():
            out.close()
            # a worker whose result was read has only its exit left; stop any other
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def recheck_counterexample(
    spec: CopulaSpec,
    cex: Counterexample,
    tol: float = DEFAULT_TOL,
    eps_den: float = DEFAULT_EPS_DEN,
    notion: Notion | str = Notion.INCREASING,
) -> bool:
    """Recompute a counterexample from scratch through the scalar path.

    Returns True when the recomputed violation still exceeds tol; used to
    keep the vectorized scan honest.  ``eps_den`` is checked as
    ``conditional_prob`` checks it, whatever the kind, and a nan ``tol``
    is refused as ``check_pair`` refuses it.
    """
    _check_tol(tol)
    _check_eps_den(eps_den)
    d, notion = cex.direction, Notion(notion)
    if cex.kind == "pair":
        return check_pair(spec, d, cex.u_low, cex.u_high, tol, notion) is not None
    if cex.kind == "step":
        if cex.target is None or cex.axis is None:
            raise ValueError("a step counterexample needs a target and an axis")
        step_up = cex.axis in d.pos_idx
        earlier = cex.u_low if step_up else cex.u_high
        later = cex.u_high if step_up else cex.u_low
        c_earlier = conditional_prob(spec, d, cex.target, earlier, eps_den)
        c_later = conditional_prob(spec, d, cex.target, later, eps_den)
        if c_earlier is None or c_later is None:
            return False
        violation = c_earlier - c_later if notion is Notion.INCREASING else c_later - c_earlier
        return violation > tol
    raise ValueError(f"unknown counterexample kind {cex.kind!r}")
