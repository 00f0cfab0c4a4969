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

from typing import Iterable

import numpy as np

from .core import DimensionError, Direction, join_direction
from .families import CopulaSpec, _pinned_cdf, _points, _signed_sum, _value

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
    return _value(_pinned_cdf(spec, idx, _points(spec, u)))


def orthant_prob(spec: CopulaSpec, d: Direction, v) -> float | np.ndarray:
    """Directional orthant probability F_d(v); see module docstring.

    Collapses to the plain copula value for the all-negative direction
    and to the survival value at 1-v for the all-positive direction.
    The raw signed sum is returned unclamped; it lies within
    [-1e-12, 1 + 1e-12] of [0, 1] in floating point.
    """
    if d.dim != spec.dim:
        raise DimensionError(f"direction dim {d.dim} does not match copula dim {spec.dim}")
    return _value(_orthant_array(spec, d, _points(spec, v)))


def _orthant_array(spec: CopulaSpec, d: Direction, arr: np.ndarray) -> np.ndarray:
    return _signed_sum(spec, arr, d.neg_idx, d.pos_idx)


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
