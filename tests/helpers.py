"""Independent reference implementations used to cross-check the package:
none reuses the package's signed-sum or table code, so that agreement with
the package is meaningful."""

import contextlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

import numpy as np

from dirmono import PASS_AT_RESOLUTION, REFUTED, UNSUPPORTED
from dirmono import CopulaSpec, DimensionError, Notion, cdf, cli

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

# scans that no fixture covers (the D notion, large and tiny --eps-den,
# n = 4 and 5, a survival-of family, inequality alone), by name: the
# fixtures and formats groups of tools/verdict_digest.py run them after the
# fixture configs, each with its --format
SCAN_ARGVS = [(name, ["check", *args.split()]) for name, args in [
    ("fgm3_lambda-0.7_g7_D_oracle",
     "--family fgm --dim 3 --lambda -0.7 --grid 7 --notion D --all-directions --method oracle"),
    ("fgm3_lambda-0.7_g7_D_both",
     "--family fgm --dim 3 --lambda -0.7 --grid 7 --notion D --all-directions --method both"),
    ("m3_g6_eps0.05_oracle",
     "--family m --dim 3 --grid 6 --eps-den 0.05 --all-directions --method oracle"),
    ("m3_g6_eps0.05_both",
     "--family m --dim 3 --grid 6 --eps-den 0.05 --all-directions --method both"),
    ("w2_g25_eps1e-300_oracle",
     "--family w --dim 2 --grid 25 --eps-den 1e-300 --all-directions --method oracle"),
    ("w2_g25_eps1e-300_both",
     "--family w --dim 2 --grid 25 --eps-den 1e-300 --all-directions --method both"),
    ("convexpim4_theta0.3_g5_D_oracle",
     "--family convexpim --dim 4 --theta 0.3 --grid 5 --notion D --all-directions --method oracle"),
    ("convexpim4_theta0.3_g5_D_both",
     "--family convexpim --dim 4 --theta 0.3 --grid 5 --notion D --all-directions --method both"),
    ("fgm5_lambda0.5_g3_both",
     "--family fgm --dim 5 --lambda 0.5 --grid 3 --all-directions --method both"),
    ("survival-of-fgm3_lambda-0.5_g5_D_both",
     "--family survival-of:fgm --dim 3 --lambda -0.5 --grid 5 --notion D --all-directions "
     "--method both"),
    ("fgm4_lambda-1_g4_inequality",
     "--family fgm --dim 4 --lambda -1 --grid 4 --all-directions --method inequality"),
]]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this process: its exit code, stdout and stderr.
    Redirected rather than taken with capsys, so that a test's own printed
    lines still show under ``-s``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def oracle_max_slack(table, signs, eps_dens, informative_only=False):
    """The oracle's maximum slack, dense, off its definition, keyed (notion,
    eps_den) for both notions and each of ``eps_dens``: over every condition
    w, join z >= w and axis k of F_d (``table``, shape (g,)*n) with the
    negative axes of ``signs`` flipped, the quotient F_d(z)/F_d(w) against
    the one at w + e_k and its join with z, a quotient whose F_d(w) is below
    eps_den read as nan and a nan slack as -inf.  ``informative_only`` keeps
    the steps where w and z share coordinate k.  Every (w, z) pair is held
    at once, in numpy, so keep g^n small."""
    g, n = table.shape[0], table.ndim
    oriented = table[tuple(slice(None, None, s) for s in signs)]
    points = np.array(list(product(range(g), repeat=n)))
    # the pairs w <= z, in (w, z) lattice order
    pair_w, pair_z = np.nonzero((points[:, None] <= points[None]).all(axis=-1))
    best = {(notion, eps_den): -np.inf for notion in Notion for eps_den in eps_dens}
    for k in range(n):
        kept = points[pair_w, k] < g - 1
        if informative_only:
            kept &= points[pair_w, k] == points[pair_z, k]
        w, z = points[pair_w[kept]], points[pair_z[kept]]
        w2 = w + (np.arange(n) == k)
        # F_d at the join, the condition, the next condition and its join
        num, cond, num2, cond2 = (oriented[tuple(p.T)] for p in (z, w, np.maximum(z, w2), w2))
        for eps_den in eps_dens:
            lhs = num / np.where(cond >= eps_den, cond, np.nan)
            rhs = num2 / np.where(cond2 >= eps_den, cond2, np.nan)
            for notion, slack in ((Notion.INCREASING, lhs - rhs), (Notion.DECREASING, rhs - lhs)):
                top = float(np.where(np.isnan(slack), -np.inf, slack).max())
                best[notion, eps_den] = max(best[notion, eps_den], top)
    return best


def count_table(n, m, per_bin, seed):
    """A seeded table of counts on m bins per axis, n axes and about
    ``per_bin`` points per bin: the ranks of a Gaussian sample of
    ``per_bin * m**n`` points, correlated by a random mixing matrix, binned
    into m equal bins per axis, so that every margin holds N/m points in
    each bin.  Its cumulative sums are N times a checkerboard copula
    (Genest, Neslehova & Remillard, Bernoulli 20 (2014)).  Drawn with
    ``np.random.RandomState``, whose stream numpy keeps across versions."""
    rng = np.random.RandomState(seed)
    mixing = rng.uniform(-1.0, 1.0, size=(n, n))
    sample = rng.standard_normal((per_bin * m**n, n)) @ mixing
    bins = sample.argsort(axis=0).argsort(axis=0) * m // len(sample)
    counts = np.zeros((m,) * n, dtype=np.int64)
    np.add.at(counts, tuple(bins.T), 1)
    return counts


def cumulative(counts):
    """The cumulative sums of ``counts`` along every axis: N times its
    checkerboard copula on the lattice of m - 1 points per axis with 1
    appended, the shape of ``checker._copula_table`` at g = m - 1."""
    for k in range(counts.ndim):
        counts = counts.cumsum(axis=k)
    return counts


def exact_oracle_outcome(ftable, total, signs, notion, tol, eps_den):
    """The oracle's outcome off its definition, in exact arithmetic, for
    F_d given as integer counts ``ftable``, shape (g,)*n, out of ``total``:
    with the negative axes of ``signs`` flipped, over every target v,
    condition w and axis k, the conditional F_d(v ∨ w) / F_d(w) against the
    one at w + e_k, a comparison defined where F_d(w) / total and
    F_d(w + e_k) / total are >= eps_den; the maximum slack, a Fraction,
    against tol.  Each slack is a quotient of integers below 2^53, so its
    float is correctly rounded; rounding is monotone, so the exact maximum
    is among the slacks whose float is the largest, and only those are
    made Fractions."""
    assert total**2 < 2**53, "products of counts must stay exact in int64 and float"
    g, n = ftable.shape[0], ftable.ndim
    table = ftable[tuple(slice(None, None, s) for s in signs)]
    least = math.ceil(Fraction(eps_den) * total)
    points = np.array(list(product(range(g), repeat=n)))
    best = None
    for k in range(n):
        w = points[points[:, k] < g - 1]
        w2 = w + (np.arange(n) == k)
        den, den2 = table[tuple(w.T)], table[tuple(w2.T)]
        defined = (den >= least) & (den2 >= least)
        if not defined.any():
            continue
        w, w2, den, den2 = w[defined], w2[defined], den[defined], den2[defined]
        # F_d at the join of every target with each condition, and with its step
        num, num2 = (table[tuple(np.moveaxis(np.maximum(points[:, None], c), -1, 0))]
                     for c in (w, w2))
        diff = num * den2 - num2 * den
        if notion is Notion.DECREASING:
            diff = -diff
        prod = np.broadcast_to(den * den2, diff.shape)
        top = diff / prod == (diff / prod).max()
        worst = max(Fraction(int(a), int(b)) for a, b in zip(diff[top], prod[top]))
        best = worst if best is None else max(best, worst)
    if best is None:
        return UNSUPPORTED
    return REFUTED if best > Fraction(tol) else PASS_AT_RESOLUTION


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
