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
``scan_all_directions`` evaluates C once, on the lattice with 1.0
appended to every axis (``_copula_table``), and hands that table to
``scan_direction``, which reads each direction's F_d, shape (g,)*n, off
it by slicing and runs the routes on it; the pure single-swap form reads
the raw copula slice or the survival copula, evaluated on its own since
flipping C's table is not bit-exact.  Both routes gather from these n-D
tables by per-axis ``take``s of the per-axis pairs lo <= hi, with no
per-pair index vectors.  The oracle takes those pairs as a condition w
and its join z with the target: a step leaves z as it is, or steps it
with w where the two share the stepped coordinate, so a comparison
depends on the target only through z, and each distinct (w, z, axis) is
evaluated once; its count is taken once per direction, off the mask of
defined conditions, before any is evaluated.  It reads F_d with
the negative axes flipped, where a step along d raises every index, so
the same per-axis pairs serve all 2^n directions.  It works in blocks of
(w, z) pairs, so its memory is O(block + (g+1)^n), never g^n x g^n.  It
walks its lead axis one join j at a time, from the last, and the
conditions of a join from the largest, so that a lead-axis step reads
the next row of its block, the first row of the join's previous block,
or, from the diagonal (j, j), the diagonal row (j+1, j+1) kept from the
join before.  The walk only decides, and keeps the rows that hold a
violation and can hold the first; a locate step re-evaluates only those.
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

Scans evaluate every pair (no short-circuit) so that slack statistics
are always complete; the reported counterexample is the first violation
in lexicographic order of the concatenated pair coordinates (inequality)
or of the flat (target, earlier condition, axis) indices (oracle), which
keeps results deterministic and independent of block size; neither
scan builds a key for every pair to find it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Sequence

import numpy as np

from .core import DimensionError, Direction, Notion, iter_directions
from .families import (
    CopulaSpec, _cdf_array, _signed_sum, _survival_array, cdf, survival_cdf, validate
)
from .orthant import DEFAULT_EPS_DEN, _orthant_array, conditional_prob

DEFAULT_TOL = 1e-9

PASS_AT_RESOLUTION = "pass_at_resolution"
REFUTED = "refuted"
UNSUPPORTED = "unsupported"

METHOD_INEQUALITY = "inequality"
METHOD_ORACLE = "oracle"
METHOD_BOTH = "both"
METHODS = (METHOD_INEQUALITY, METHOD_ORACLE, METHOD_BOTH)

# the smallest normal double: with F_d at most about 1, every defined
# quotient of the oracle, and every difference of two, is then finite
MIN_EPS_DEN = float(np.finfo(float).tiny)

_DEFAULT_RESOLUTIONS = {2: 21, 3: 9, 4: 6, 5: 4}

# numpy arrays have at most 64 axes (32 before numpy 2), so a larger dim
# has no lattice table
_MAX_DIM = 64

# physical memory, which a scan's peak may not exceed
_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
# peak bytes of the inequality route per (u, u') pair: 25.0 to 28.3 under
# tracemalloc, passing and refuted, at (6,3), (5,4), (4,6), (3,9), (3,15), (2,60)
_PAIR_PEAK_BYTES = 29

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
    is 0-based here and rendered 1-based in reports).
    """

    direction: Direction
    u_low: tuple[float, ...]
    u_high: tuple[float, ...]
    lhs: float
    rhs: float
    violation: float
    kind: str = "pair"
    target: tuple[float, ...] | None = None
    axis: int | None = None


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


def _check_direction(spec: CopulaSpec, d: Direction) -> None:
    if d.dim != spec.dim:
        raise DimensionError(f"direction dim {d.dim} does not match copula dim {spec.dim}")


def _check_settings(method: str, eps_den: float) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not eps_den >= MIN_EPS_DEN:
        raise ValueError(f"eps_den must be at least {MIN_EPS_DEN!r}, got {eps_den!r}")


def check_pair(
    spec: CopulaSpec,
    d: Direction,
    u: Sequence[float],
    up: Sequence[float],
    tol: float = DEFAULT_TOL,
    notion: Notion = Notion.INCREASING,
) -> Counterexample | None:
    """Pairwise inequality for one ordered pair u <= up, through the scalar
    evaluators.

    A mixed direction compares orthant probabilities with the
    negative-axis coordinates of u and up traded; a pure one (dims 2 and
    3 only) trades the first coordinate and reads the copula for the
    all-negative direction, its survival transform for the all-positive
    one.  Returns None on a pass, otherwise the pair with both sides.
    """
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
    corners = [u, up, lo, hi]
    if d.is_pure:
        h = (cdf if d.signs[0] < 0 else survival_cdf)(spec, corners)
    else:
        h = _orthant_array(spec, d, np.array(corners))
    plain, crossed = float(h[0] * h[1]), float(h[2] * h[3])
    lhs, rhs = (crossed, plain) if d.is_pure else (plain, crossed)
    if notion is Notion.DECREASING:
        lhs, rhs = rhs, lhs
    violation = lhs - rhs
    if violation > tol:
        return Counterexample(d, u, up, lhs, rhs, violation, kind="pair")
    return None


def _lattice(points: np.ndarray, n: int) -> np.ndarray:
    """Every combination of ``points`` on n axes, shape (m,)*n + (n,)."""
    return np.stack(np.meshgrid(*[points] * n, indexing="ij", copy=False), axis=-1)


def _copula_table(spec: CopulaSpec, grid: GridSpec) -> np.ndarray:
    """C on the lattice with 1.0 appended to every axis, shape (g+1,)*n.

    Reading an axis at index g pins its coordinate to 1, so every margin
    of C on the lattice is a slice of this table.
    """
    validate(spec)
    n = spec.dim
    table = _cdf_array(spec, _lattice(np.append(grid.points(), 1.0), n))
    # the empty margin is 1, as _pinned_cdf takes it, whatever C(1, ..., 1)
    # rounds to
    table[(grid.resolution,) * n] = 1.0
    table.setflags(write=False)
    return table


def _orthant_table(ctable: np.ndarray, d: Direction) -> np.ndarray:
    """F_d on the (g,)*n lattice: the signed sum of ``_orthant_array``,
    with each margin a slice of the copula table."""
    g, n = ctable.shape[0] - 1, ctable.ndim

    def margin(selected: tuple[int, ...]) -> np.ndarray:
        return ctable[tuple(slice(g) if k in selected else slice(g, None) for k in range(n))]

    return _signed_sum(margin, d.neg_idx, d.pos_idx, (g,) * n)


def _read_tables(ctable: np.ndarray, d: Direction) -> tuple[np.ndarray, np.ndarray | None]:
    """F_d, and the table the pairwise form of ``d`` reads, off the copula
    table.

    A mixed direction's pairwise form reads F_d, the all-negative one C,
    as the raw slice so that its signed zeros stay.  The all-positive one
    reads the survival copula, which is evaluated on its own, since
    flipping C's table is not bit-exact; it comes back as None.
    """
    g, n = ctable.shape[0] - 1, ctable.ndim
    table = _orthant_table(ctable, d)
    if not d.is_pure:
        return table, table
    return table, ctable[(slice(g),) * n] if d.signs[0] < 0 else None


def _point(grid: GridSpec, n: int, flat: int) -> tuple[float, ...]:
    """The lattice point with flat (row-major) index ``flat``."""
    return tuple(grid.points()[list(np.unravel_index(flat, (grid.resolution,) * n))])


def check_direction_inequality(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
    notion: Notion = Notion.INCREASING,
    *,
    table: np.ndarray | None = None,
) -> DirectionVerdict:
    """Scan every ordered grid pair with the pairwise inequality.

    Mixed directions swap the negative-axis coordinates of u and u' and
    read F_d; pure ones in dims 2 and 3 swap axis 0 and read the copula
    (all-negative) or survival copula (all-positive).  Pure directions in
    dim >= 4 come back as unsupported; route those to the oracle.
    ``table`` is that table on the lattice; when not given, it is read
    off the copula table as ``scan_direction`` reads it, and the survival
    copula is evaluated here.
    """
    _check_direction(spec, d)
    if d.is_pure and spec.dim > 3:
        return DirectionVerdict(d, METHOD_INEQUALITY, UNSUPPORTED, 0, None, None)
    g, n = grid.resolution, spec.dim
    if table is None and not (d.is_pure and d.signs[0] > 0):
        table = _read_tables(_copula_table(spec, grid), d)[1]
    if table is None:
        validate(spec)
        table = _survival_array(spec, _lattice(grid.points(), n))
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
        tuple(grid.points()[lo[list(i)]]),
        tuple(grid.points()[hi[list(i)]]),
        float(lhs[i]),
        float(rhs[i]),
        float(slack[i]),
        kind="pair",
    )
    return DirectionVerdict(d, METHOD_INEQUALITY, REFUTED, slack.size, max_slack, cex)


def check_direction_oracle(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
    eps_den: float = DEFAULT_EPS_DEN,
    notion: Notion = Notion.INCREASING,
    *,
    table: np.ndarray | None = None,
) -> DirectionVerdict:
    """Check conditional orthant probabilities straight off the definition.

    For every grid target v and grid condition w, the conditional at w
    is compared against the conditional at the neighbor of w one grid
    step further along each axis (a step toward larger coordinates on
    positive axes, smaller on negative axes).  Comparisons touching an
    undefined conditional (conditioning probability below eps_den) are
    skipped; a direction left with no comparison is unsupported.
    ``eps_den`` is at least ``MIN_EPS_DEN``.  ``table`` is F_d on the
    lattice; when not given, it is read off the copula table as
    ``scan_direction`` reads it.

    The conditional at w is F_d(z) / F_d(w), where z is the join of v and
    w in d's order; each distinct (w, z, axis) is evaluated once, in
    blocks of at most _BLOCK (w, z) pairs.  ``pairs_tested`` counts every
    target, paired with every defined condition that steps to a defined
    condition, along every axis; it is counted before the walk.

    The walk only decides; a locate step re-evaluates, each once at most
    and by least key, the violating rows that can hold the first violation.
    """
    _check_direction(spec, d)
    _check_settings(METHOD_ORACLE, eps_den)
    g, n = grid.resolution, spec.dim
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
    some_undefined = not defined.all()
    den = np.where(defined, table, np.nan)
    # per axis, pair a is a condition lo[a] and a join hi[a] >= lo[a]
    lo, hi = np.triu_indices(g)
    pairs = lo.size
    pair = np.zeros((g, g), dtype=lo.dtype)
    pair[lo, hi] = np.arange(pairs)
    # the condition steps, and the join with it when the two are equal; the
    # last pair, (g-1, g-1), has no step
    nxt = pair[lo[:-1] + 1, np.maximum(hi[:-1], lo[:-1] + 1)]
    # axes before lead take one pair per block, lead a run of conditions
    # of one join and the axes after it every pair
    lead = next(j for j in range(n) if pairs ** (n - 1 - j) <= _BLOCK)
    tail = n - 1 - lead
    run = _BLOCK // pairs**tail
    at = (slice(None),) * lead

    def quotient(head: tuple, i0: int, i1: int, j: int) -> np.ndarray:
        # conditionals of a block: the pairs ``head`` before lead, the
        # conditions i0:i1 of join j on lead and every pair after it; the
        # tail is taken from its last axis back
        z = table[tuple(hi[a] for a in head) + (j,)]
        w = den[tuple(lo[a] for a in head) + (slice(i0, i1),)]
        for k in range(tail, 0, -1):
            z, w = z.take(hi, axis=k - 1), w.take(lo, axis=k)
        return (z / w).reshape((1,) * lead + (i1 - i0,) + (pairs,) * tail)

    def oriented(lhs: np.ndarray, rhs: np.ndarray):
        # the comparison in the notion's order, and its slack
        if notion is Notion.DECREASING:
            lhs, rhs = rhs, lhs
        slack = lhs - rhs
        if some_undefined:
            # an undefined comparison is neither a maximum nor a violation
            slack = np.where(np.isnan(slack), -np.inf, slack)
        return lhs, rhs, slack

    def compare_block(head: tuple, i0: int, i1: int, j: int, block: np.ndarray, following):
        # each comparison of rows i0:i1 of join j, whose next row along lead is
        # ``following``: the axis, the lead pairs compared, lhs, rhs and slack
        ids = pair[i0:i1, j]
        for k, a in enumerate(head):
            # a step before lead leaves the block: compute its neighbour
            if a < len(nxt):
                rhs = quotient(head[:k] + (nxt[a],) + head[k + 1 :], i0, i1, j)
                yield (k, ids) + oriented(block, rhs)
        rhs = block[at + (slice(1, None),)]
        if following is not None:
            yield (lead, ids) + oriented(block, np.concatenate([rhs, following], axis=lead))
        elif i1 - i0 > 1:
            yield (lead, ids[:-1]) + oriented(block[at + (slice(-1),)], rhs)
        for k in range(lead + 1, n):
            lhs = block[(slice(None),) * k + (slice(pairs - 1),)]
            yield (k, ids) + oriented(lhs, block.take(nxt, axis=k))

    # the key of a pair is the lattice index of the smallest target that
    # joins its condition to its join, times g^n, plus the condition's
    # index, in the lattice's own coordinates; summed over the axes, with
    # the lattice's strides, the keys give p * g^n + q
    keys = []
    for k, s in enumerate(d.signs):
        w, z = (lo, hi) if s > 0 else (g - 1 - lo, g - 1 - hi)
        keys.append((np.where(lo == hi, 0 if s > 0 else w, z) * total + w) * g ** (n - 1 - k))
    # the keys of every combination of pairs after lead
    tail_key = np.zeros((), dtype=keys[0].dtype)
    for key in keys[lead + 1 :]:
        tail_key = np.add.outer(tail_key, key)

    # the walk keeps the maximum slack and each run of violating rows of a
    # block, with its least key; a run starts and ends where ``hit``, padded
    # with False, changes.  A row's keys are at most ``spread`` above its
    # least, so runs whose least exceeds ``upper`` are dropped
    max_slack, upper, found, limit = -np.inf, np.inf, [], 64
    spread = int(tail_key.max() - tail_key.min())
    for head in np.ndindex((pairs,) * lead):
        head_key = sum(int(keys[k][a]) for k, a in enumerate(head)) + int(tail_key.min())
        # the diagonal row of the join before; the last join's has no step
        diagonal_row = None
        for j in range(g - 1, -1, -1):
            # the row after the block's last, along lead
            following = diagonal_row
            for i1 in range(j + 1, 0, -run):
                i0 = max(i1 - run, 0)
                block, hit = quotient(head, i0, i1, j), None
                for _, ids, _, _, slack in compare_block(head, i0, i1, j, block, following):
                    max_slack = max(max_slack, local_max := float(slack.max()))
                    if local_max > tol:
                        hit = np.zeros(i1 - i0 + 2, dtype=bool) if hit is None else hit
                        hit[1 : ids.size + 1] |= slack.reshape(ids.size, -1).max(axis=1) > tol
                    del slack, _  # freed before the next comparison is computed
                if hit is not None:
                    edges = i0 + np.flatnonzero(hit[1:] != hit[:-1])
                    for r0, r1 in edges.reshape(-1, 2).tolist():
                        least = head_key + int(keys[lead][pair[r0:r1, j]].min())
                        upper = min(upper, least + spread)
                        found.append((least, head, j, r0, r1))
                if len(found) > limit:
                    found = [f for f in found if f[0] <= upper]
                    limit = 2 * len(found) + 64
                # copied, so that the rest of the block can be freed
                if i1 == j + 1:
                    diagonal_row = block[at + (slice(-1, None),)].copy()
                following = block[at + (slice(1),)].copy()
    if not found:
        return DirectionVerdict(d, METHOD_ORACLE, PASS_AT_RESOLUTION, comparisons, max_slack, None)

    # the locate step re-evaluates the runs by their least key, until that
    # exceeds the first violation in (target, earlier condition, axis) order
    first: tuple[int, float, float] | None = None
    for least, head, j, i0, i1 in sorted(found):
        if first is not None and least * n > first[0]:
            break
        # the row after the run's last: the next condition, or the next diagonal
        following = quotient(head, i1, i1 + 1, j + (i1 > j)) if i1 < g else None
        block = quotient(head, i0, i1, j)
        for k, ids, lhs, rhs, slack in compare_block(head, i0, i1, j, block, following):
            after = (slice(None),) * (k - lead - 1) + (slice(pairs - 1),) if k > lead else ()
            key = sum(int(keys[m][a]) for m, a in enumerate(head)) + keys[lead][ids]
            key = (key.reshape((-1,) + (1,) * tail) + tail_key[after]).reshape(slack.shape)
            key[slack <= tol] = np.iinfo(key.dtype).max
            i = int(key.argmin())
            key_k = int(key.flat[i]) * n + k
            if slack.flat[i] > tol and (first is None or key_k < first[0]):
                first = (key_k, float(lhs.flat[i]), float(rhs.flat[i]))

    key, lhs_val, rhs_val = first
    p, rest = divmod(key, total * n)
    q, k = divmod(rest, n)
    q_later = q + g ** (n - 1 - k) * d.signs[k]
    earlier_pt, later_pt = _point(grid, n, q), _point(grid, n, q_later)
    low_pt, high_pt = (earlier_pt, later_pt) if k in d.pos_idx else (later_pt, earlier_pt)
    cex = Counterexample(
        d,
        low_pt,
        high_pt,
        lhs_val,
        rhs_val,
        lhs_val - rhs_val,
        kind="step",
        target=_point(grid, n, p),
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
    notion: Notion = Notion.INCREASING,
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
    ``eps_den`` must be at least ``MIN_EPS_DEN``, whatever the method.

    Both routes read their tables off ``ctable``, the copula table of the
    spec and lattice (``_copula_table``), which ``scan_all_directions``
    builds once for all its directions; it is built here when not given.
    """
    _check_direction(spec, d)
    _check_settings(method, eps_den)
    if ctable is None:
        ctable = _copula_table(spec, grid)
    table, pairwise = _read_tables(ctable, d)
    ineq = orac = None
    if method != METHOD_ORACLE:
        ineq = check_direction_inequality(spec, d, grid, tol, notion, table=pairwise)
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
    notion: Notion = Notion.INCREASING,
    directions: Sequence[Direction] | None = None,
) -> list[DirectionVerdict]:
    """Verdicts for every requested direction (default: all 2^n of them).

    The spec, the method, ``eps_den`` (as ``scan_direction`` checks them)
    and the dim of every requested direction are checked first.  A lattice that no table
    can hold is refused before anything is allocated: more axes than an
    array has, more bytes at the peak of the copula table's build than the
    machine has memory, or, when the inequality route runs, more at the
    peak of its pair arrays.  The copula table is built once and handed to
    every direction.
    """
    validate(spec)
    _check_settings(method, eps_den)
    if directions is not None:
        for d in directions:
            _check_direction(spec, d)
        if not directions:
            return []
    g, n = grid.resolution, spec.dim
    if n > _MAX_DIM:
        raise DimensionError(f"dim {n} exceeds the {_MAX_DIM} axes a lattice table can have")
    # building the copula table peaks at just over 4n + 3 floats per point
    # for a survival-of family, the most measured, and n + 1 for product
    if (g + 1) ** n * (4 * n + 4) * 8 > _MEMORY:
        raise MemoryError(f"the {g + 1}^{n} points of the copula table do not fit in memory")
    pairs = g * (g + 1) // 2
    if method != METHOD_ORACLE and pairs**n * _PAIR_PEAK_BYTES > _MEMORY:
        raise MemoryError(f"the {pairs}^{n} pairs of the inequality route do not fit in memory")
    chosen = iter_directions(n) if directions is None else directions
    ctable = _copula_table(spec, grid)
    return [
        scan_direction(spec, d, grid, method, tol, eps_den, notion, ctable=ctable)
        for d in chosen
    ]


def recheck_counterexample(
    spec: CopulaSpec,
    cex: Counterexample,
    tol: float = DEFAULT_TOL,
    eps_den: float = DEFAULT_EPS_DEN,
    notion: Notion = Notion.INCREASING,
) -> bool:
    """Recompute a counterexample from scratch through the scalar path.

    Returns True when the recomputed violation still exceeds tol; used to
    keep the vectorized scan honest.
    """
    d = cex.direction
    if cex.kind == "pair":
        return check_pair(spec, d, cex.u_low, cex.u_high, tol, notion) is not None
    if cex.kind == "step":
        assert cex.target is not None and cex.axis is not None
        step_up = cex.axis in d.pos_idx
        earlier = cex.u_low if step_up else cex.u_high
        later = cex.u_high if step_up else cex.u_low
        c_earlier = conditional_prob(spec, d, cex.target, earlier, eps_den)
        c_later = conditional_prob(spec, d, cex.target, later, eps_den)
        if c_earlier is None or c_later is None:
            return False
        if notion is Notion.INCREASING:
            violation = c_earlier - c_later
        else:
            violation = c_later - c_earlier
        return violation > tol
    raise ValueError(f"unknown counterexample kind {cex.kind!r}")
