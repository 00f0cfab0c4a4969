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

Every point either route touches is a lattice point, so both evaluate
one table per direction on the g^n lattice (F_d, or for the pure
single-swap form the copula or survival copula) and become index
arithmetic on it.  The scalar pair and conditional functions are the
independent recheck path: every counterexample a scan reports is
recomputed through them, and one that does not re-verify is flagged as
a disagreement.

A direction that survives every check at a given resolution is reported
as a pass at that resolution, never as proved; an oracle scan left with
no defined comparison is unsupported, not a pass.  Pure directions in
dimension >= 4 have no supported inequality form and are routed to the
oracle; a single-coordinate-swap variant can be computed behind an
explicit conjectural flag but never contributes to official verdicts.

Scans evaluate every pair (no short-circuit) so that slack statistics
are always complete; the reported counterexample is the first violation
in lexicographic order of the concatenated pair coordinates (inequality)
or of (target, condition, axis) indices (oracle), which keeps results
deterministic and independent of any parallel execution strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    DimensionError,
    Direction,
    Notion,
    all_directions,
)
from .families import CopulaSpec, _cdf_array, _survival_array, validate
from .orthant import (
    DEFAULT_EPS_DEN,
    _orthant_array,
    conditional_prob,
    orthant_prob,
)

DEFAULT_TOL = 1e-9

PASS_AT_RESOLUTION = "pass_at_resolution"
REFUTED = "refuted"
UNSUPPORTED = "unsupported"

METHOD_INEQUALITY = "inequality"
METHOD_ORACLE = "oracle"
METHOD_BOTH = "both"

_DEFAULT_RESOLUTIONS = {2: 21, 3: 9, 4: 6, 5: 4}


class UnsupportedDirectionError(ValueError):
    """The requested pairwise check does not cover this direction."""


@dataclass(frozen=True)
class GridSpec:
    """Open interior lattice: points k/(g+1) for k = 1..g on every axis."""

    resolution: int

    def __post_init__(self) -> None:
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
    largest lhs - rhs seen over all comparisons (<= tol on a pass);
    ``conjectural_outcome`` is only filled for pure directions in dim >= 4
    when the conjectural single-swap inequality was explicitly requested.
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
    conjectural_outcome: str | None = None


def check_pair_mixed(
    spec: CopulaSpec,
    d: Direction,
    u: Sequence[float],
    up: Sequence[float],
    tol: float = DEFAULT_TOL,
    notion: Notion = Notion.INCREASING,
) -> Counterexample | None:
    """Product inequality between orthant probabilities for one pair.

    Requires a mixed direction and u <= up componentwise.  Returns None
    on a pass, otherwise the violating pair with both sides.
    """
    if d.is_pure:
        raise UnsupportedDirectionError(
            f"direction {d.pretty()} is pure; mixed-direction check does not apply"
        )
    u = tuple(float(x) for x in u)
    up = tuple(float(x) for x in up)
    if any(a > b for a, b in zip(u, up)):
        raise ValueError("pair is not ordered: u <= u' componentwise required")
    neg = set(d.neg_idx)
    swapped_lo = tuple(up[i] if i in neg else u[i] for i in range(d.dim))
    swapped_hi = tuple(u[i] if i in neg else up[i] for i in range(d.dim))
    lhs = orthant_prob(spec, d, u) * orthant_prob(spec, d, up)
    rhs = orthant_prob(spec, d, swapped_lo) * orthant_prob(spec, d, swapped_hi)
    if notion is Notion.DECREASING:
        lhs, rhs = rhs, lhs
    violation = lhs - rhs
    if violation > tol:
        return Counterexample(d, u, up, lhs, rhs, violation, kind="pair")
    return None


def check_pair_pure(
    spec: CopulaSpec,
    sign: int,
    u: Sequence[float],
    up: Sequence[float],
    tol: float = DEFAULT_TOL,
    notion: Notion = Notion.INCREASING,
) -> Counterexample | None:
    """First-coordinate-swap inequality for an all-equal-sign direction.

    Supported for dims 2 and 3: the all-negative direction tests the
    copula itself, the all-positive one tests its survival transform.
    """
    if spec.dim > 3:
        raise UnsupportedDirectionError(
            f"pure-direction pairwise check is not supported for dim {spec.dim}"
        )
    if sign != 1 and sign != -1:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    u = tuple(float(x) for x in u)
    up = tuple(float(x) for x in up)
    if any(a > b for a, b in zip(u, up)):
        raise ValueError("pair is not ordered: u <= u' componentwise required")
    d = Direction(
        signs=(sign,) * spec.dim,
        neg_idx=tuple(range(spec.dim)) if sign < 0 else (),
        pos_idx=tuple(range(spec.dim)) if sign > 0 else (),
    )
    arr = np.asarray([u, up, (up[0],) + u[1:], (u[0],) + up[1:]], dtype=float)
    h = _cdf_array(spec, arr) if sign < 0 else _survival_array(spec, arr)
    lhs = float(h[2] * h[3])
    rhs = float(h[0] * h[1])
    if notion is Notion.DECREASING:
        lhs, rhs = rhs, lhs
    violation = lhs - rhs
    if violation > tol:
        return Counterexample(d, u, up, lhs, rhs, violation, kind="pair")
    return None


def _lattice(grid: GridSpec, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index vectors of the g^n lattice in flat (row-major) order, their
    points, and the strides that map an index vector to its flat index."""
    g = grid.resolution
    idx = np.indices((g,) * dim).reshape(dim, -1).T
    strides = np.array([g ** (dim - 1 - k) for k in range(dim)], dtype=np.int64)
    return idx, grid.points()[idx], strides


def _grid_pairs(grid: GridSpec, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice index vectors (one row per pair) of all ordered pairs u <= u'."""
    lo, hi = np.triu_indices(grid.resolution)
    mesh = np.indices((lo.size,) * dim).reshape(dim, -1)
    return lo[mesh].T, hi[mesh].T


def _pairwise_verdict(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    pairs: tuple[np.ndarray, np.ndarray],
    tol: float,
    notion: Notion,
) -> DirectionVerdict:
    """Pairwise inequality gathered from one lattice table of the direction.

    Mixed directions swap the negative-axis coordinates of u and u';
    pure ones swap axis 0 and read the copula or survival table.
    """
    u_idx, up_idx = pairs
    _, points, strides = _lattice(grid, spec.dim)
    swap = [0] if d.is_pure else list(d.neg_idx)
    u, up = u_idx @ strides, up_idx @ strides
    shift = (up_idx[:, swap] - u_idx[:, swap]) @ strides[swap]
    lo, hi = u + shift, up - shift
    if d.is_pure:
        table = (_cdf_array if d.signs[0] < 0 else _survival_array)(spec, points)
        lhs, rhs = table[lo] * table[hi], table[u] * table[up]
    else:
        table = _orthant_array(spec, d, points)
        lhs, rhs = table[u] * table[up], table[lo] * table[hi]
    if notion is Notion.DECREASING:
        lhs, rhs = rhs, lhs
    slack = lhs - rhs
    max_slack = float(slack.max())
    violating = slack > tol
    if violating.any():
        # the first violation in lexicographic (u, u') order
        hits = np.flatnonzero(violating)
        i = int(hits[np.argmin(u[hits] * len(points) + up[hits])])
        cex = Counterexample(
            d,
            tuple(points[u[i]]),
            tuple(points[up[i]]),
            float(lhs[i]),
            float(rhs[i]),
            float(slack[i]),
            kind="pair",
        )
        return DirectionVerdict(d, METHOD_INEQUALITY, REFUTED, len(slack), max_slack, cex)
    return DirectionVerdict(d, METHOD_INEQUALITY, PASS_AT_RESOLUTION, len(slack), max_slack, None)


def check_direction_inequality(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
    notion: Notion = Notion.INCREASING,
    _pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> DirectionVerdict:
    """Scan every ordered grid pair with the pairwise inequality.

    Pure directions in dim >= 4 come back as unsupported; route those to
    the oracle.
    """
    if d.dim != spec.dim:
        raise DimensionError(f"direction dim {d.dim} does not match copula dim {spec.dim}")
    if d.is_pure and spec.dim > 3:
        return DirectionVerdict(d, METHOD_INEQUALITY, UNSUPPORTED, 0, None, None)
    pairs = _pairs if _pairs is not None else _grid_pairs(grid, spec.dim)
    return _pairwise_verdict(spec, d, grid, pairs, tol, notion)


def check_direction_oracle(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
    eps_den: float = DEFAULT_EPS_DEN,
    notion: Notion = Notion.INCREASING,
) -> DirectionVerdict:
    """Check conditional orthant probabilities straight off the definition.

    For every grid target v and grid condition v', the conditional at v'
    is compared against the conditional at the neighbor of v' one grid
    step further along each axis (a step toward larger coordinates on
    positive axes, smaller on negative axes).  Comparisons touching an
    undefined conditional (conditioning probability below eps_den) are
    skipped; a direction left with no comparison is unsupported.
    """
    if d.dim != spec.dim:
        raise DimensionError(f"direction dim {d.dim} does not match copula dim {spec.dim}")
    g = grid.resolution
    n = spec.dim
    shape = (g,) * n
    total = g**n
    idx, grid_points, strides = _lattice(grid, n)
    f_grid = np.asarray(_orthant_array(spec, d, grid_points))

    flat_join = np.zeros((total, total), dtype=np.int64)
    for k in range(n):
        a = idx[:, k][:, None]
        b = idx[:, k][None, :]
        joined = np.maximum(a, b) if k in d.pos_idx else np.minimum(a, b)
        flat_join += joined.astype(np.int64) * strides[k]

    defined = f_grid >= eps_den
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = f_grid[flat_join] / f_grid[None, :]
    cond[:, ~defined] = np.nan
    cond = cond.reshape((total,) + shape)

    comparisons = 0
    max_slack: float | None = None
    first: tuple[tuple[int, int, int], Counterexample] | None = None
    increasing = notion is Notion.INCREASING
    for k in range(n):
        axis = 1 + k
        sl_lo = [slice(None)] * (n + 1)
        sl_hi = [slice(None)] * (n + 1)
        sl_lo[axis] = slice(0, g - 1)
        sl_hi[axis] = slice(1, g)
        lower = cond[tuple(sl_lo)]
        higher = cond[tuple(sl_hi)]
        step_up = k in d.pos_idx
        earlier, later = (lower, higher) if step_up else (higher, lower)
        lhs, rhs = (earlier, later) if increasing else (later, earlier)
        ok = np.isfinite(lhs) & np.isfinite(rhs)
        comparisons += int(ok.sum())
        if not ok.any():
            continue
        slack = lhs - rhs
        local_max = float(slack[ok].max())
        max_slack = local_max if max_slack is None else max(max_slack, local_max)
        violating = ok & (slack > tol)
        if not violating.any():
            continue
        loc = np.unravel_index(int(np.argmax(violating)), violating.shape)
        p = int(loc[0])
        cond_idx = list(loc[1:])
        # map the sliced condition index back to the earlier point's index
        earlier_idx = list(cond_idx)
        later_idx = list(cond_idx)
        if step_up:
            later_idx[k] += 1
        else:
            earlier_idx[k] += 1
        pts = grid.points()
        earlier_pt = tuple(pts[i] for i in earlier_idx)
        later_pt = tuple(pts[i] for i in later_idx)
        low_pt, high_pt = (
            (earlier_pt, later_pt) if step_up else (later_pt, earlier_pt)
        )
        q_flat = int(sum(e * s for e, s in zip(earlier_idx, strides)))
        key = (p, q_flat, k)
        if first is None or key < first[0]:
            lhs_val = float(lhs[loc])
            rhs_val = float(rhs[loc])
            cex = Counterexample(
                d,
                low_pt,
                high_pt,
                lhs_val,
                rhs_val,
                lhs_val - rhs_val,
                kind="step",
                target=tuple(grid_points[p]),
                axis=k,
            )
            first = (key, cex)

    if first is not None:
        return DirectionVerdict(
            d, METHOD_ORACLE, REFUTED, comparisons, max_slack, first[1]
        )
    # no defined comparison at all would make a pass vacuous
    outcome = PASS_AT_RESOLUTION if comparisons else UNSUPPORTED
    return DirectionVerdict(d, METHOD_ORACLE, outcome, comparisons, max_slack, None)


def scan_direction(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    method: str = METHOD_BOTH,
    tol: float = DEFAULT_TOL,
    eps_den: float = DEFAULT_EPS_DEN,
    notion: Notion = Notion.INCREASING,
    allow_conjectural_pure: bool = False,
    _pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> DirectionVerdict:
    """One direction, one combined verdict.

    With method "both" the two routes must agree wherever both are
    supported; on disagreement the oracle's outcome is reported with
    ``methods_agree`` set to False (callers treat that as an internal
    defect, not a property of the copula).  A reported counterexample
    that does not re-verify through the scalar path
    (``recheck_counterexample``) sets ``methods_agree`` to False too.
    """
    conjectural: str | None = None
    needs_conjectural = (
        allow_conjectural_pure
        and d.is_pure
        and spec.dim > 3
        and method != METHOD_ORACLE
    )
    if needs_conjectural:
        pairs = _pairs if _pairs is not None else _grid_pairs(grid, spec.dim)
        conj = _pairwise_verdict(spec, d, grid, pairs, tol, notion)
        conjectural = conj.outcome

    if method == METHOD_INEQUALITY:
        ineq = check_direction_inequality(spec, d, grid, tol, notion, _pairs=_pairs)
        verdict = replace(
            ineq, inequality_outcome=ineq.outcome, conjectural_outcome=conjectural
        )
    elif method == METHOD_ORACLE:
        orac = check_direction_oracle(spec, d, grid, tol, eps_den, notion)
        verdict = replace(orac, oracle_outcome=orac.outcome)
    elif method == METHOD_BOTH:
        ineq = check_direction_inequality(spec, d, grid, tol, notion, _pairs=_pairs)
        orac = check_direction_oracle(spec, d, grid, tol, eps_den, notion)
        outcomes = dict(
            inequality_outcome=ineq.outcome,
            oracle_outcome=orac.outcome,
            conjectural_outcome=conjectural,
        )
        # a route that could not decide defers to the other
        if ineq.outcome == UNSUPPORTED:
            verdict = replace(orac, **outcomes)
        elif orac.outcome == UNSUPPORTED:
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
    else:
        raise ValueError(f"unknown method {method!r}")

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
    allow_conjectural_pure: bool = False,
    directions: Sequence[Direction] | None = None,
) -> list[DirectionVerdict]:
    """Verdicts for every requested direction (default: all 2^n of them)."""
    validate(spec)
    if directions is None:
        chosen = all_directions(spec.dim)
    else:
        chosen = list(directions)
    pairs: tuple[np.ndarray, np.ndarray] | None = None
    if method != METHOD_ORACLE and chosen:
        pairs = _grid_pairs(grid, spec.dim)
    return [
        scan_direction(
            spec,
            d,
            grid,
            method,
            tol,
            eps_den,
            notion,
            allow_conjectural_pure,
            _pairs=pairs,
        )
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
        if d.is_pure:
            again = check_pair_pure(spec, d.signs[0], cex.u_low, cex.u_high, tol, notion)
        else:
            again = check_pair_mixed(spec, d, cex.u_low, cex.u_high, tol, notion)
        return again is not None and again.violation > tol
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
