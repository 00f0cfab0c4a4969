"""Closed-form copula families and the survival (reflection) transform.

The public evaluators validate the spec and accept either a single point
(sequence of ``dim`` floats) or an ndarray whose last axis has length
``dim``; they return a float for a single point and an ndarray otherwise.
Specs are immutable; evaluation is pure.

One function, ``_cdf_axes``, evaluates every family on per-axis
coordinates that broadcast together, with 1 pinning an axis; survival
evaluates each margin of its inner copula only on the axes it keeps.
Its literals are integers, so that ``Fraction`` coordinates and
parameters give ``Fraction`` values, and floats the same floats.

Families:

====================  =========================================================
``product``           C(u) = prod(u_i), independence, any n >= 2
``m``                 C(u) = min(u_i), comonotone upper bound, any n >= 2
``w``                 C(u, v) = max(0, u + v - 1), countermonotone, n = 2 only
``fgm``               C(u) = prod(u_i) * (1 + lambda * prod(1 - u_i)),
                      lambda in [-1, 1], any n >= 2
``amh``               C(u, v) = uv / (1 + delta*(1-u)*(1-v)),
                      delta in [-1, 1], n = 2 only
``convexpim``         C(u) = theta*prod(u_i) + (1-theta)*min(u_i),
                      theta in [0, 1], any n >= 2
``survival``          reflection of an inner spec (nesting depth 1)
====================  =========================================================
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import DimensionError

PRODUCT = "product"
UPPER_FRECHET = "m"
LOWER_FRECHET = "w"
FGM = "fgm"
AMH = "amh"
CONVEX_PI_M = "convexpim"
SURVIVAL = "survival"

# family tag -> (required parameter names, (low, high) per parameter)
_PARAM_RANGES: dict[str, dict[str, tuple[float, float]]] = {
    PRODUCT: {},
    UPPER_FRECHET: {},
    LOWER_FRECHET: {},
    FGM: {"lambda": (-1.0, 1.0)},
    AMH: {"delta": (-1.0, 1.0)},
    CONVEX_PI_M: {"theta": (0.0, 1.0)},
    SURVIVAL: {},
}

# families restricted to the bivariate case
_BIVARIATE_ONLY = (LOWER_FRECHET, AMH)


class ParameterError(ValueError):
    """A copula spec has a bad family tag, dimension or parameter."""


@dataclass(frozen=True)
class CopulaSpec:
    """Immutable description of a copula: family tag, dimension, parameters.

    ``params`` maps parameter names ("lambda", "delta", "theta") to float
    values.  ``inner`` is only set for the survival family.  Treat
    instances as read-only.
    """

    family: str
    dim: int
    params: dict[str, float] = field(default_factory=dict)
    inner: "CopulaSpec | None" = None

    def __hash__(self) -> int:
        return hash((self.family, self.dim, tuple(sorted(self.params.items())), self.inner))

    def describe(self) -> str:
        if self.inner is not None:
            return f"survival-of:{self.inner.describe()}"
        ps = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family}(n={self.dim}" + (f",{ps}" if ps else "") + ")"


def validate(spec: CopulaSpec) -> None:
    """Raise ParameterError / DimensionError unless ``spec`` is well formed."""
    if spec.family not in _PARAM_RANGES:
        raise ParameterError(f"unknown copula family {spec.family!r}")
    if not isinstance(spec.dim, int) or spec.dim < 2:
        raise DimensionError(f"copula dimension must be an integer >= 2, got {spec.dim!r}")
    if spec.family in _BIVARIATE_ONLY and spec.dim != 2:
        raise ParameterError(f"family {spec.family!r} is only a copula for n=2, got n={spec.dim}")

    if spec.family == SURVIVAL:
        if spec.inner is None:
            raise ParameterError("survival spec needs an inner copula spec")
        if spec.inner.family == SURVIVAL:
            raise ParameterError("survival specs do not nest beyond depth 1")
        if spec.inner.dim != spec.dim:
            raise DimensionError(
                f"survival dim {spec.dim} does not match inner dim {spec.inner.dim}"
            )
        if spec.params:
            raise ParameterError("survival spec takes no parameters of its own")
        validate(spec.inner)
        return

    if spec.inner is not None:
        raise ParameterError(f"family {spec.family!r} does not take an inner spec")
    expected = _PARAM_RANGES[spec.family]
    missing = set(expected) - set(spec.params)
    extra = set(spec.params) - set(expected)
    if missing:
        raise ParameterError(f"{spec.family}: missing parameter(s) {sorted(missing)}")
    if extra:
        raise ParameterError(f"{spec.family}: unexpected parameter(s) {sorted(extra)}")
    for name, (lo, hi) in expected.items():
        val = spec.params[name]
        if not np.isfinite(val) or not lo <= val <= hi:
            raise ParameterError(
                f"{spec.family}: parameter {name}={val!r} outside [{lo:g}, {hi:g}]"
            )


def cdf(spec: CopulaSpec, u) -> float | np.ndarray:
    """Copula value at ``u`` (scalar point or array of points).

    The spec is validated and the dimension of ``u`` checked; a coordinate
    that is nan or outside [0, 1] raises ValueError.
    """
    return _value(_cdf_array(spec, _points(spec, u)))


def _points(spec: CopulaSpec, u) -> np.ndarray:
    """``u`` as a float array whose last axis holds ``spec.dim`` coordinates in [0, 1]."""
    validate(spec)
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != spec.dim:
        raise DimensionError(
            f"point with {arr.shape[-1] if arr.ndim else 0} coordinates "
            f"does not match copula of dim {spec.dim}"
        )
    inside = (arr >= 0) & (arr <= 1)  # False for nan
    if not inside.all():
        raise ValueError(f"coordinate {float(arr[~inside][0])!r} is not in [0, 1]")
    return arr


def _value(out: np.ndarray) -> float | np.ndarray:
    """A float for a single point, the array otherwise."""
    return float(out) if out.ndim == 0 else out


def _cdf_array(spec: CopulaSpec, arr: np.ndarray) -> np.ndarray:
    """C at points whose last axis holds the ``spec.dim`` coordinates."""
    return _cdf_axes(spec, [arr[..., k] for k in range(spec.dim)])


def _cdf_axes(spec: CopulaSpec, xs: Sequence) -> np.ndarray:
    """C at ``xs``, one array or float per axis, broadcast together; each family
    combines them left to right, as a reduction over a point array's last axis does."""
    if spec.family == PRODUCT:
        return math.prod(xs)
    if spec.family == UPPER_FRECHET:
        return functools.reduce(np.minimum, xs)
    if spec.family == LOWER_FRECHET:
        return np.maximum(0, xs[0] + xs[1] - 1)
    if spec.family == FGM:
        lam = spec.params["lambda"]
        return math.prod(xs) * (1 + lam * math.prod(1 - x for x in xs))
    if spec.family == AMH:
        delta = spec.params["delta"]
        un, vn = xs
        num = un * vn
        den = 1 + delta * (1 - un) * (1 - vn)
        # delta = -1 makes the corner u = v = 0 a removable 0/0; the value is 0
        return np.where(num == 0, 0, num / np.where(den == 0, 1, den))
    if spec.family == CONVEX_PI_M:
        theta = spec.params["theta"]
        return theta * math.prod(xs) + (1 - theta) * functools.reduce(np.minimum, xs)
    if spec.family == SURVIVAL:
        flipped = [1 - x for x in xs]

        def margin(selected: tuple[int, ...]) -> np.ndarray:
            kept = [flipped[k] if k in selected else 1 for k in range(spec.dim)]
            return _cdf_axes(spec.inner, kept)

        return _signed_sum(margin, (), range(spec.dim))
    raise ParameterError(f"unknown copula family {spec.family!r}")


def survival_cdf(spec: CopulaSpec, u) -> float | np.ndarray:
    """Value of the survival copula associated with ``spec``.

    Computed as the signed sum over all coordinate subsets S of the
    S-marginal of the copula evaluated at 1-u on S (everything else
    integrated out); for n=2 this reduces to u + v - 1 + C(1-u, 1-v).
    """
    return _value(_cdf_array(CopulaSpec(SURVIVAL, spec.dim, inner=spec), _points(spec, u)))


def _signed_sum(
    margin: Callable[[tuple[int, ...]], np.ndarray], fixed: tuple, free: Sequence[int]
) -> np.ndarray:
    """Sum over subsets S of ``free`` of (-1)**|S| times ``margin(fixed + S)``:
    the copula with every coordinate outside ``fixed`` and S pinned to 1;
    the last margin, on ``fixed`` and all of ``free``, sets the shape."""
    total = 0
    for size in range(len(free) + 1):
        sign = -1 if size % 2 else 1
        for subset in itertools.combinations(free, size):
            total = total + sign * margin(fixed + subset)
    return total
