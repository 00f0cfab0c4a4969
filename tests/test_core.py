import numpy as np
import pytest

from dirmono import (
    CopulaSpec,
    DimensionError,
    Direction,
    DirectionError,
    all_directions,
    cdf,
    direction_from_token,
    join_direction,
    make_direction,
)
from helpers import Box, box_volume, frechet_lower, frechet_upper


class TestMakeDirection:
    def test_partition_mixed(self):
        d = make_direction([1, -1])
        assert d.neg_idx == (1,)
        assert d.pos_idx == (0,)
        assert not d.is_pure

    def test_partition_all_positive(self):
        d = make_direction([1, 1, 1])
        assert d.neg_idx == ()
        assert d.pos_idx == (0, 1, 2)
        assert d.is_pure

    def test_partition_all_negative(self):
        d = make_direction([-1, -1])
        assert d.neg_idx == (0, 1)
        assert d.pos_idx == ()
        assert d.is_pure

    def test_rejects_non_unit_entries(self):
        with pytest.raises(DirectionError):
            make_direction([1, 0])
        with pytest.raises(DirectionError):
            make_direction([1, 2])

    def test_rejects_short_direction(self):
        with pytest.raises(DimensionError):
            make_direction([1])

    def test_all_directions_needs_two_axes(self):
        with pytest.raises(DimensionError, match="must be >= 2, got 1"):
            all_directions(1)

    def test_direction_is_built_from_its_signs_alone(self):
        # a scan reads the partition, a report the signs: only the signs are given
        assert Direction(signs=(1, -1)) == make_direction([1, -1])
        assert list(map(type, Direction(signs=(1.0, -1)).signs)) == [int, int]
        for partition in ({"neg_idx": (1,)}, {"pos_idx": (0,)}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                Direction(signs=(1, -1), **partition)
        with pytest.raises(DirectionError, match=r"direction entry 3 is not \+1 or -1"):
            Direction(signs=(3,))
        with pytest.raises(DimensionError, match="at least 2 entries, got 1"):
            Direction(signs=(1,))

    def test_token_round_trip(self):
        d = direction_from_token("+,-,+")
        assert d.signs == (1, -1, 1)
        assert d.token() == "+,-,+"
        with pytest.raises(DirectionError):
            direction_from_token("+,x")


class TestJoinDirection:
    def test_mixed_example(self):
        d = make_direction([1, -1])
        assert join_direction(d, (0.3, 0.8), (0.5, 0.4)) == (0.5, 0.4)

    def test_all_positive_example(self):
        d = make_direction([1, 1])
        assert join_direction(d, (0.3, 0.8), (0.5, 0.4)) == (0.5, 0.8)

    def test_idempotent_example(self):
        d = make_direction([-1, -1, -1])
        v = (0.2, 0.2, 0.2)
        assert join_direction(d, v, v) == v

    def test_dimension_mismatch(self):
        d = make_direction([1, -1])
        with pytest.raises(DimensionError):
            join_direction(d, (0.1, 0.2, 0.3), (0.1, 0.2))

    def test_algebraic_laws_on_random_triples(self):
        # commutative, associative, idempotent for any fixed direction
        rng = np.random.default_rng(20240811)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            signs = rng.choice([-1, 1], size=n)
            if (signs == signs[0]).all() and rng.random() < 0.5:
                signs[0] = -signs[0]
            d = make_direction(signs.tolist())
            a, b, c = (tuple(rng.random(n)) for _ in range(3))
            assert join_direction(d, a, b) == join_direction(d, b, a)
            assert join_direction(d, a, join_direction(d, b, c)) == join_direction(
                d, join_direction(d, a, b), c
            )
            assert join_direction(d, a, a) == a


class TestBoxVolume:
    def test_product_box(self):
        spec = CopulaSpec("product", 2)
        box = Box((0.2, 0.3), (0.5, 0.6))
        assert box_volume(lambda p: cdf(spec, p), box) == pytest.approx(0.09, abs=1e-15)

    def test_min_copula_diagonal_mass(self):
        spec = CopulaSpec("m", 2)
        box = Box((0.0, 0.0), (0.5, 0.5))
        assert box_volume(lambda p: cdf(spec, p), box) == pytest.approx(0.5, abs=1e-15)

    def test_total_mass(self):
        spec = CopulaSpec("product", 3)
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert box_volume(lambda p: cdf(spec, p), box) == pytest.approx(1.0, abs=1e-15)

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            Box((0.5, 0.5), (0.4, 0.6))
        with pytest.raises(ValueError):
            Box((-0.1, 0.0), (0.5, 0.5))
        with pytest.raises(DimensionError):
            Box((0.1, 0.2), (0.5, 0.5, 0.5))


def test_frechet_bound_helpers():
    assert frechet_lower((0.9, 0.8)) == pytest.approx(0.7)
    assert frechet_lower((0.3, 0.4, 0.2)) == 0.0
    assert frechet_upper((0.9, 0.8)) == pytest.approx(0.8)
