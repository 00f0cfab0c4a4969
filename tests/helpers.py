"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in plain Python (bitmask subset
loops, no numpy, no reuse of the package's signed-sum code) so that
agreement with the package is meaningful.
"""

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Sequence

import numpy as np

from dirmono import CopulaSpec, DimensionError, cdf

Point = tuple[float, ...]


def lattice(points, n):
    """Every combination of ``points`` on n axes as an array of points, shape
    (m,)*n + (n,): the reference the package's per-axis tables are compared
    with."""
    return np.stack(np.meshgrid(*[points] * n, indexing="ij"), axis=-1)


def bf_orthant(point_fn, signs, v):
    """Brute-force inclusion-exclusion orthant probability.

    ``point_fn`` evaluates the copula at a full-length point; subsets of
    the positive axes are enumerated through bitmasks and coordinates
    outside the kept set are pinned to 1.
    """
    n = len(signs)
    pos = [i for i in range(n) if signs[i] > 0]
    neg = [i for i in range(n) if signs[i] < 0]
    total = 0.0
    for mask in range(1 << len(pos)):
        keep = list(neg)
        bits = 0
        for b in range(len(pos)):
            if mask >> b & 1:
                keep.append(pos[b])
                bits += 1
        if keep:
            pt = tuple(v[i] if i in keep else 1.0 for i in range(n))
            value = point_fn(pt)
        else:
            value = 1.0
        total += (-1.0) ** bits * value
    return total


def bf_survival(point_fn, n, u):
    """Brute-force survival value: signed sum over all coordinate subsets."""
    total = 0.0
    for mask in range(1 << n):
        pt = [1.0] * n
        bits = 0
        for i in range(n):
            if mask >> i & 1:
                pt[i] = 1.0 - u[i]
                bits += 1
        total += (-1.0) ** bits * point_fn(tuple(pt))
    return total


def survival2_closed_form(point_fn, u, v):
    """Bivariate survival value u + v - 1 + C(1-u, 1-v)."""
    return u + v - 1.0 + point_fn((1.0 - u, 1.0 - v))


# hand-written family formulas, independent of the package dispatch
def fgm_formula(lam):
    return lambda u: prod(u) * (1.0 + lam * prod(1.0 - x for x in u))


def amh_formula(delta):
    return lambda u: u[0] * u[1] / (1.0 + delta * (1.0 - u[0]) * (1.0 - u[1]))


def point_fn(spec: CopulaSpec):
    """Scalar evaluator of a spec, for feeding the brute-force sums."""
    return lambda pt: cdf(spec, pt)


def family_zoo():
    """Representative validated specs across all families and dims 2..5."""
    zoo = [
        CopulaSpec("product", 2),
        CopulaSpec("product", 3),
        CopulaSpec("product", 4),
        CopulaSpec("product", 5),
        CopulaSpec("m", 2),
        CopulaSpec("m", 3),
        CopulaSpec("m", 4),
        CopulaSpec("w", 2),
        CopulaSpec("amh", 2, {"delta": -1.0}),
        CopulaSpec("amh", 2, {"delta": -0.5}),
        CopulaSpec("amh", 2, {"delta": 0.5}),
        CopulaSpec("amh", 2, {"delta": 1.0}),
        CopulaSpec("convexpim", 2, {"theta": 0.0}),
        CopulaSpec("convexpim", 2, {"theta": 0.5}),
        CopulaSpec("convexpim", 3, {"theta": 0.5}),
        CopulaSpec("convexpim", 3, {"theta": 1.0}),
        CopulaSpec("convexpim", 4, {"theta": 0.5}),
    ]
    for lam in (-1.0, -0.5, 0.5, 1.0):
        for n in (2, 3, 4):
            zoo.append(CopulaSpec("fgm", n, {"lambda": lam}))
    zoo.append(CopulaSpec("fgm", 5, {"lambda": 0.5}))
    zoo += [
        CopulaSpec("survival", 2, inner=CopulaSpec("fgm", 2, {"lambda": 0.5})),
        CopulaSpec("survival", 2, inner=CopulaSpec("amh", 2, {"delta": -0.5})),
        CopulaSpec("survival", 2, inner=CopulaSpec("w", 2)),
        CopulaSpec("survival", 3, inner=CopulaSpec("fgm", 3, {"lambda": -0.5})),
    ]
    return zoo


def bivariate_zoo():
    return [s for s in family_zoo() if s.dim == 2]


# bad inputs of the command line, each of which exits 2 with one error line:
# argvs, and values that a config file of fgm n=2 lambda 0.5 sets; both
# tests/test_cli.py and tools/verdict_digest.py run them
_PRODUCT = ["check", "--family", "product", "--dim", "2"]
BAD_ARGVS = [
    ["check", "--family", "amh", "--dim", "3", "--delta", "0.5"],
    ["check", "--family", "w", "--dim", "3"],
    ["check", "--family", "squircle", "--dim", "2"],
    ["check", "--family", "fgm", "--dim", "2", "--lambda", "1.5"],
    ["check", "--family", "fgm", "--dim", "2"],
    _PRODUCT + ["--direction", "+,?"],
    _PRODUCT + ["--direction", "+"],
    _PRODUCT + ["--grid", "1"],
    _PRODUCT + ["--tol", "0"],
    _PRODUCT + ["--tol", "inf"],
    _PRODUCT + ["--tol", "nan"],
    _PRODUCT + ["--eps-den", "inf"],
    ["check", "--family", "fgm", "--dim", "2", "--lambda", "0.5", "--grid", "5",
     "--direction", "+,-", "--direction", "+,-"],
    ["check", "--dim", "2"],
]
BAD_CONFIGS = [
    {"grid": "abc"}, {"grid": 4.5}, {"lambda": "x"}, {"direction": 5}, {"direction": [5]},
    {"direction": []}, {"dim": 2.7}, {"dim": True}, {"tol": "inf"}, {"eps_den": 1e999},
    {"all_directions": "no"}, {"out": 5}, {"out": None}, {"direction": None},
    {"notion": None}, {"method": "fast"}, {"format": 1}, {"family": 5}, {"grid": 1},
    {"tol": 10**400},
]


def oracle_max_slack(table, signs, eps_den, decreasing, informative_only=False):
    """The oracle's maximum slack, dense, off its definition: over every
    condition w, join z >= w and axis k of F_d (``table``, shape (g,)*n)
    with the negative axes of ``signs`` flipped, the quotient F_d(z)/F_d(w)
    against the one at w + e_k and its join with z, a quotient whose
    F_d(w) is below ``eps_den`` read as nan and a nan slack as -inf.
    ``informative_only`` keeps the steps where w and z share coordinate k.
    Every (w, z) pair is held at once, in numpy, so keep g^n small."""
    g, n = table.shape[0], table.ndim
    oriented = table[tuple(slice(None, None, s) for s in signs)]
    den = np.where(oriented >= eps_den, oriented, np.nan)
    points = np.array(list(product(range(g), repeat=n)))
    shape = (len(points), len(points), n)
    w, z = np.broadcast_to(points[:, None], shape), np.broadcast_to(points[None], shape)

    def at(p):
        return tuple(np.moveaxis(p, -1, 0))

    best = -np.inf
    for k in range(n):
        w2 = w.copy()
        w2[..., k] = np.minimum(w[..., k] + 1, g - 1)
        z2 = np.maximum(z, w2)
        lhs = oriented[at(z)] / den[at(w)]
        rhs = oriented[at(z2)] / den[at(w2)]
        slack = rhs - lhs if decreasing else lhs - rhs
        kept = (w <= z).all(axis=-1) & (w[..., k] < g - 1)
        if informative_only:
            kept &= w[..., k] == z[..., k]
        best = max(best, float(np.where(np.isnan(slack), -np.inf, slack)[kept].max()))
    return best

def all_sign_vectors(n):
    return list(product((1, -1), repeat=n))


def as_point(coords: Sequence[float], dim: int | None = None) -> Point:
    """Validate coordinates as a point of the closed unit hypercube."""
    pt = tuple(float(c) for c in coords)
    if len(pt) < 2:
        raise DimensionError(f"need at least 2 coordinates, got {len(pt)}")
    if dim is not None and len(pt) != dim:
        raise DimensionError(f"expected {dim} coordinates, got {len(pt)}")
    for c in pt:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"coordinate {c!r} outside [0, 1]")
    return pt


@dataclass(frozen=True)
class Box:
    """An axis-aligned box inside the unit hypercube."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        lo = as_point(self.lower)
        hi = as_point(self.upper)
        if len(lo) != len(hi):
            raise DimensionError("box corners have different dimensions")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("box lower corner exceeds upper corner")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)


def box_volume(fn: Callable[[Point], float], box: Box) -> float:
    """Alternating-sign sum of ``fn`` over the 2^n vertices of ``box``.

    Sign of a vertex is (-1)**(number of lower coordinates chosen), so
    for a distribution function this is the mass assigned to the box.
    """
    total = 0.0
    for choice in product((0, 1), repeat=box.dim):
        vertex = tuple(
            box.lower[i] if c == 0 else box.upper[i] for i, c in enumerate(choice)
        )
        sign = -1.0 if sum(1 for c in choice if c == 0) % 2 else 1.0
        total += sign * fn(vertex)
    return total


def frechet_lower(u: Sequence[float]) -> float:
    """Pointwise lower bound max(0, sum(u) - n + 1) for any copula value."""
    return max(0.0, sum(u) - len(tuple(u)) + 1.0)


def frechet_upper(u: Sequence[float]) -> float:
    """Pointwise upper bound min(u) for any copula value."""
    return min(u)
