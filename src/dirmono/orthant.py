"""Marginal evaluation and directional orthant probabilities.

The central quantity is ``orthant_prob(spec, d, v)``: the probability
that every positive-axis coordinate exceeds its threshold while every
negative-axis coordinate stays below its threshold,

    F_d(v) = P[U_j > v_j for j positive, U_i < v_i for i negative],

computed as a signed sum of marginals over subsets of the positive axes:

    F_d(v) = sum over S subset of pos_idx of
             (-1)**|S| * C(v with the axes outside neg_idx + S pinned to 1).

All functions accept a single point or an ndarray of points (last axis =
dim) and are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DimensionError, Direction, join_direction
from .families import CopulaSpec, _cdf_array, _points, _signed_sum, _value

DEFAULT_EPS_DEN = 1e-12
# the smallest normal double: with F_d at most about 1, every defined
# quotient of the oracle, and every difference of two, is then finite
MIN_EPS_DEN = float(np.finfo(float).tiny)


def _check_eps_den(eps_den: float) -> None:
    """Refuse an eps_den that is not finite or is below MIN_EPS_DEN."""
    if not MIN_EPS_DEN <= eps_den < math.inf:
        raise ValueError(f"eps_den must be finite and >= {MIN_EPS_DEN!r}, got {eps_den!r}")


def _check_direction(spec: CopulaSpec, d: Direction) -> None:
    if d.dim != spec.dim:
        raise DimensionError(f"direction dim {d.dim} does not match copula dim {spec.dim}")


def orthant_prob(spec: CopulaSpec, d: Direction, v) -> float | np.ndarray:
    """Directional orthant probability F_d(v); see module docstring.

    Collapses to the plain copula value for the all-negative direction
    and to the survival value at 1-v for the all-positive direction.
    The raw signed sum is returned unclamped; it lies within
    [-1e-12, 1 + 1e-12] of [0, 1] in floating point.
    """
    _check_direction(spec, d)
    return _value(_orthant_array(spec, d, _points(spec, v)))


def _orthant_array(spec: CopulaSpec, d: Direction, arr: np.ndarray) -> np.ndarray:
    def margin(selected: tuple[int, ...]) -> np.ndarray:
        return _cdf_array(spec, np.where([k in selected for k in range(spec.dim)], arr, 1.0))

    return _signed_sum(margin, d.neg_idx, d.pos_idx)


def conditional_prob(
    spec: CopulaSpec,
    d: Direction,
    v,
    vp,
    eps_den: float = DEFAULT_EPS_DEN,
) -> float | None:
    """P[directional event at v | directional event at vp], or None.

    None signals an undefined conditional: the conditioning event has
    probability below ``eps_den``.  An ``eps_den`` that is not finite or
    is below MIN_EPS_DEN raises ValueError, as in the scans, and so does a
    coordinate of v or vp that is nan or outside [0, 1].
    """
    _check_eps_den(eps_den)
    # both are checked first, since their join may drop a bad coordinate
    v, vp = (tuple(_points(spec, p)) for p in (v, vp))
    num = orthant_prob(spec, d, join_direction(d, v, vp))
    den = orthant_prob(spec, d, vp)
    if den < eps_den:
        return None
    return float(num) / float(den)
