"""Marginal evaluation and directional orthant probabilities.

The central quantity is ``orthant_prob(spec, d, v)``: the probability
that every positive-axis coordinate exceeds its threshold while every
negative-axis coordinate stays below its threshold,

    F_d(v) = P[U_j > v_j for j positive, U_i < v_i for i negative],

computed as a signed sum of marginals over subsets of the positive axes:

    F_d(v) = sum over S subset of pos_idx of
             (-1)**|S| * marginal_cdf(spec, neg_idx + S, v).

All functions accept a single point or an ndarray of points (last axis =
dim) and are pure.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .core import DimensionError, Direction, join_direction
from .families import CopulaSpec, _cdf_array

DEFAULT_EPS_DEN = 1e-12


def marginal_cdf(spec: CopulaSpec, indices: Iterable[int], u) -> float | np.ndarray:
    """Marginal of the copula on ``indices`` (0-based), at point(s) ``u``.

    Coordinates outside ``indices`` are integrated out (set to 1).  The
    empty selection returns 1 by convention.
    """
    idx = sorted(set(int(i) for i in indices))
    for i in idx:
        if not 0 <= i < spec.dim:
            raise IndexError(f"marginal index {i} out of range for dim {spec.dim}")
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != spec.dim:
        raise DimensionError(
            f"point with {arr.shape[-1] if arr.ndim else 0} coordinates "
            f"does not match copula of dim {spec.dim}"
        )
    out = _pinned_cdf(spec, idx, arr)
    if out.ndim == 0:
        return float(out)
    return out


def _pinned_cdf(spec: CopulaSpec, selected: Sequence[int], arr: np.ndarray) -> np.ndarray:
    """Copula at ``arr`` with the coordinates outside ``selected`` (distinct
    valid indices) pinned to 1; the empty selection gives ones."""
    if len(selected) == spec.dim:
        return _cdf_array(spec, arr)
    if not selected:
        return np.ones(arr.shape[:-1])
    point = np.ones_like(arr)
    for i in selected:
        point[..., i] = arr[..., i]
    return _cdf_array(spec, point)


def orthant_prob(spec: CopulaSpec, d: Direction, v) -> float | np.ndarray:
    """Directional orthant probability F_d(v); see module docstring.

    Collapses to the plain copula value for the all-negative direction
    and to the survival value at 1-v for the all-positive direction.
    The raw signed sum is returned unclamped; it lies within
    [-1e-12, 1 + 1e-12] of [0, 1] in floating point.
    """
    arr = np.asarray(v, dtype=float)
    if d.dim != spec.dim:
        raise DimensionError(f"direction dim {d.dim} does not match copula dim {spec.dim}")
    if arr.ndim == 0 or arr.shape[-1] != spec.dim:
        raise DimensionError(
            f"point with {arr.shape[-1] if arr.ndim else 0} coordinates "
            f"does not match copula of dim {spec.dim}"
        )
    out = _orthant_array(spec, d, arr)
    if out.ndim == 0:
        return float(out)
    return out


def _orthant_array(spec: CopulaSpec, d: Direction, arr: np.ndarray) -> np.ndarray:
    total = np.zeros(arr.shape[:-1])
    for size in range(len(d.pos_idx) + 1):
        sign = -1.0 if size % 2 else 1.0
        for subset in itertools.combinations(d.pos_idx, size):
            total = total + sign * _pinned_cdf(spec, d.neg_idx + subset, arr)
    return total


def conditional_prob(
    spec: CopulaSpec,
    d: Direction,
    v,
    vp,
    eps_den: float = DEFAULT_EPS_DEN,
) -> float | None:
    """P[directional event at v | directional event at vp], or None.

    None signals an undefined conditional: the conditioning event has
    probability below ``eps_den``.
    """
    num = orthant_prob(spec, d, join_direction(d, tuple(v), tuple(vp)))
    den = orthant_prob(spec, d, vp)
    if den < eps_den:
        return None
    return float(num) / float(den)
