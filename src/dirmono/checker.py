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
one table per direction on the lattice, as an n-D array of shape (g,)*n
(F_d, or for the pure single-swap form the copula or survival copula),
and become index arithmetic on it through one helper, ``_flat``, that
maps per-axis lattice indices to flat table indices for every
combination of them.  The inequality route gathers each side of every
ordered pair from the per-axis pairs lo <= hi, so it holds a few numbers
per pair and no per-pair index vectors.  The oracle gathers its
conditionals one block of target rows at a time, shaped (rows, g, ...,
g), and compares the :-1 and 1: slices of each axis in the order d gives
it, so its memory is O(block + g^n), never g^n x g^n.  The scalar pair
and conditional functions are the independent recheck path: every
counterexample a scan reports is recomputed through them, and one that
does not re-verify is flagged as a disagreement.

A direction that survives every check at a given resolution is reported
as a pass at that resolution, never as proved; an oracle scan left with
no defined comparison is unsupported, not a pass.  Pure directions in
dimension >= 4 have no supported inequality form and are routed to the
oracle; a single-coordinate-swap variant can be computed behind an
explicit conjectural flag but never contributes to official verdicts.

Scans evaluate every pair (no short-circuit) so that slack statistics
are always complete; the reported counterexample is the first violation
in lexicographic order of the concatenated pair coordinates (inequality)
or of the flat (target, earlier condition, axis) indices (oracle), which
keeps results deterministic and independent of block size or any
parallel execution strategy.
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

# entries of the oracle's per-block conditional matrix (target rows x g^n
# conditions); larger blocks gain little speed and raise peak memory
_BLOCK = 1 << 16


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


def _flat(parts: Sequence[np.ndarray], g: int) -> np.ndarray:
    """Flat (row-major) indices into the (g,)*n lattice of every combination
    of per-axis lattice indices: ``parts[k]`` has shape (rows, m_k), and the
    result has shape (rows, m_0, ..., m_{n-1})."""
    n = len(parts)
    flat = 0
    for k, part in enumerate(parts):
        rows, m = part.shape
        flat = flat * g + part.reshape((rows,) + (1,) * k + (m,) + (1,) * (n - 1 - k))
    return flat


def _pairwise_verdict(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    tol: float,
    notion: Notion,
) -> DirectionVerdict:
    """Pairwise inequality gathered from one lattice table of the direction.

    Mixed directions swap the negative-axis coordinates of u and u';
    pure ones swap axis 0 and read the copula or survival table.
    """
    g, n = grid.resolution, spec.dim
    lattice = grid.points()[np.stack(np.indices((g,) * n), axis=-1)]
    if d.is_pure:
        table = (_cdf_array if d.signs[0] < 0 else _survival_array)(spec, lattice)
    else:
        table = _orthant_array(spec, d, lattice)
    table = table.ravel()
    # per axis, every ordered pair lo <= hi of lattice indices
    lo, hi = (a[None] for a in np.triu_indices(g))

    def corners(swapped: Sequence[int]) -> np.ndarray:
        # F at the pair's two corners, with lo and hi traded on ``swapped``
        low = [hi if k in swapped else lo for k in range(n)]
        high = [lo if k in swapped else hi for k in range(n)]
        return table[_flat(low, g)] * table[_flat(high, g)]

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
    # the first violation in lexicographic (u, u') order: smallest
    # flat(u) * g^n + flat(u')
    key = _flat([lo * table.size + hi] * n, g)
    key[~violating] = np.iinfo(key.dtype).max
    i = int(key.argmin())
    u, up = divmod(int(key.flat[i]), table.size)
    points = lattice.reshape(-1, n)
    cex = Counterexample(
        d,
        tuple(points[u]),
        tuple(points[up]),
        float(lhs.flat[i]),
        float(rhs.flat[i]),
        float(slack.flat[i]),
        kind="pair",
    )
    return DirectionVerdict(d, METHOD_INEQUALITY, REFUTED, slack.size, max_slack, cex)


def check_direction_inequality(
    spec: CopulaSpec,
    d: Direction,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
    notion: Notion = Notion.INCREASING,
) -> DirectionVerdict:
    """Scan every ordered grid pair with the pairwise inequality.

    Pure directions in dim >= 4 come back as unsupported; route those to
    the oracle.
    """
    if d.dim != spec.dim:
        raise DimensionError(f"direction dim {d.dim} does not match copula dim {spec.dim}")
    if d.is_pure and spec.dim > 3:
        return DirectionVerdict(d, METHOD_INEQUALITY, UNSUPPORTED, 0, None, None)
    return _pairwise_verdict(spec, d, grid, tol, notion)


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

    Conditionals are gathered from the direction's lattice table one
    block of target rows at a time, so memory stays O(_BLOCK + g^n).  The
    reported violation is the one with the smallest key
    (p * g^n + q) * n + k, for flat target index p, flat index q of the
    earlier condition and axis k.
    """
    if d.dim != spec.dim:
        raise DimensionError(f"direction dim {d.dim} does not match copula dim {spec.dim}")
    g, n = grid.resolution, spec.dim
    shape = (g,) * n
    lattice = grid.points()[np.stack(np.indices(shape), axis=-1)]
    table = _orthant_array(spec, d, lattice)
    den = np.where(table >= eps_den, table, np.nan)
    total = table.size
    # per axis, the lattice index of join(target, condition) as a g x g table
    span = np.arange(g)
    joins = [(np.maximum if k in d.pos_idx else np.minimum).outer(span, span) for k in range(n)]

    def step(arr: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        # (earlier, later) views of arr's trailing lattice axes for one
        # step along d on axis k
        head = (Ellipsis, slice(None, -1)) + (slice(None),) * (n - 1 - k)
        tail = (Ellipsis, slice(1, None)) + (slice(None),) * (n - 1 - k)
        return (arr[head], arr[tail]) if k in d.pos_idx else (arr[tail], arr[head])

    comparisons = 0
    max_slack: float | None = None
    first: tuple[int, int, float, float] | None = None
    targets = np.indices(shape).reshape(n, total)
    rows = max(1, _BLOCK // total)
    for p0 in range(0, total, rows):
        block = targets[:, p0 : p0 + rows]
        cond = table.ravel()[_flat([joins[k][block[k]] for k in range(n)], g)] / den
        for k in range(n):
            lhs, rhs = step(cond, k)
            if notion is Notion.DECREASING:
                lhs, rhs = rhs, lhs
            slack = lhs - rhs
            ok = np.isfinite(slack)
            count = int(ok.sum())
            if not count:
                continue
            comparisons += count
            local_max = float(slack[ok].max())
            max_slack = local_max if max_slack is None else max(max_slack, local_max)
            violating = ok & (slack > tol)
            if violating.any():
                earlier, later = step(np.arange(total).reshape(shape), k)
                r, c = divmod(int(np.argmax(violating)), earlier.size)
                key = ((p0 + r) * total + int(earlier.flat[c])) * n + k
                if first is None or key < first[0]:
                    first = (key, int(later.flat[c]), float(lhs[r].flat[c]), float(rhs[r].flat[c]))

    if first is None:
        # no defined comparison at all would make a pass vacuous
        outcome = PASS_AT_RESOLUTION if comparisons else UNSUPPORTED
        return DirectionVerdict(d, METHOD_ORACLE, outcome, comparisons, max_slack, None)
    key, q_later, lhs_val, rhs_val = first
    p, rest = divmod(key, total * n)
    q, k = divmod(rest, n)
    points = lattice.reshape(-1, n)
    earlier_pt, later_pt = tuple(points[q]), tuple(points[q_later])
    low_pt, high_pt = (earlier_pt, later_pt) if k in d.pos_idx else (later_pt, earlier_pt)
    cex = Counterexample(
        d,
        low_pt,
        high_pt,
        lhs_val,
        rhs_val,
        lhs_val - rhs_val,
        kind="step",
        target=tuple(points[p]),
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
    allow_conjectural_pure: bool = False,
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
        conjectural = _pairwise_verdict(spec, d, grid, tol, notion).outcome

    if method == METHOD_INEQUALITY:
        ineq = check_direction_inequality(spec, d, grid, tol, notion)
        verdict = replace(
            ineq, inequality_outcome=ineq.outcome, conjectural_outcome=conjectural
        )
    elif method == METHOD_ORACLE:
        orac = check_direction_oracle(spec, d, grid, tol, eps_den, notion)
        verdict = replace(orac, oracle_outcome=orac.outcome)
    elif method == METHOD_BOTH:
        ineq = check_direction_inequality(spec, d, grid, tol, notion)
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
    chosen = all_directions(spec.dim) if directions is None else directions
    return [
        scan_direction(
            spec, d, grid, method, tol, eps_den, notion, allow_conjectural_pure
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
