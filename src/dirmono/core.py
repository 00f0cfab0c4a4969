"""Shared domain types: sign directions and points in the unit hypercube.

Everything here is immutable and purely functional, so all of it is safe
to use from any number of threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence


class DimensionError(ValueError):
    """A point or direction has the wrong number of coordinates."""


class DirectionError(ValueError):
    """A direction entry is not exactly -1 or +1."""


class Notion(str, Enum):
    """Which way the conditional orthant probability is required to move."""

    INCREASING = "I"
    DECREASING = "D"


Point = tuple[float, ...]


@dataclass(frozen=True)
class Direction:
    """A sign vector, built from its signs alone.

    ``neg_idx`` / ``pos_idx`` are the negative and positive axes the signs
    give, 0-based (reports render them 1-based).  Pure directions (all
    signs equal) are valid values; the checker decides how they are routed.
    """

    signs: tuple[int, ...]
    neg_idx: tuple[int, ...] = field(init=False)
    pos_idx: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        for s in self.signs:
            if s != 1 and s != -1:
                raise DirectionError(f"direction entry {s!r} is not +1 or -1")
        if len(self.signs) < 2:
            raise DimensionError(f"direction needs at least 2 entries, got {len(self.signs)}")
        signs = tuple(map(int, self.signs))
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "neg_idx", tuple(i for i, s in enumerate(signs) if s < 0))
        object.__setattr__(self, "pos_idx", tuple(i for i, s in enumerate(signs) if s > 0))

    @property
    def dim(self) -> int:
        return len(self.signs)

    @property
    def is_pure(self) -> bool:
        return not self.neg_idx or not self.pos_idx

    def token(self) -> str:
        return ",".join("+" if s > 0 else "-" for s in self.signs)

    def pretty(self) -> str:
        return "(" + self.token() + ")"


def make_direction(signs: Iterable[int | float]) -> Direction:
    """Build a Direction from a sequence of +1 / -1 entries."""
    return Direction(tuple(signs))


def direction_from_token(token: str) -> Direction:
    """Parse a comma-separated sign token such as ``"+,-,+"``."""
    parts = [p.strip() for p in token.split(",")]
    signs = []
    for p in parts:
        if p == "+":
            signs.append(1)
        elif p == "-":
            signs.append(-1)
        else:
            raise DirectionError(f"bad direction token {p!r}, expected '+' or '-'")
    return make_direction(signs)


def all_directions(dim: int) -> list[Direction]:
    """Every sign vector of the given dimension, all-positive first."""
    if dim < 2:
        raise DimensionError(f"dimension must be >= 2, got {dim}")
    return list(map(make_direction, itertools.product((1, -1), repeat=dim)))


def join_direction(d: Direction, v: Sequence[float], vp: Sequence[float]) -> Point:
    """Intersection point of two directional events.

    Componentwise max on the positive axes, min on the negative axes;
    commutative, associative and idempotent for a fixed direction.
    """
    if len(v) != d.dim or len(vp) != d.dim:
        raise DimensionError(
            f"points of length {len(v)}/{len(vp)} do not match direction of dim {d.dim}"
        )
    return tuple(
        max(a, b) if s > 0 else min(a, b) for s, a, b in zip(d.signs, v, vp)
    )
