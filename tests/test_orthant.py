import numpy as np
import pytest

from dirmono import (
    CopulaSpec,
    DimensionError,
    cdf,
    conditional_prob,
    join_direction,
    make_direction,
    orthant_prob,
    survival_cdf,
)
from helpers import all_sign_vectors, bf_orthant, family_zoo, point_fn


class TestOrthantProb:
    def test_product_mixed(self):
        spec = CopulaSpec("product", 2)
        d = make_direction([1, -1])
        assert orthant_prob(spec, d, (0.5, 0.4)) == pytest.approx(0.2, abs=1e-15)

    def test_all_negative_collapses_to_cdf(self):
        rng = np.random.default_rng(22)
        for spec in [CopulaSpec("fgm", 3, {"lambda": -0.5}), CopulaSpec("w", 2)]:
            d = make_direction([-1] * spec.dim)
            for _ in range(30):
                v = tuple(rng.random(spec.dim))
                assert orthant_prob(spec, d, v) == cdf(spec, v)

    def test_product_all_positive(self):
        spec = CopulaSpec("product", 3)
        d = make_direction([1, 1, 1])
        assert orthant_prob(spec, d, (0.5, 0.5, 0.5)) == pytest.approx(0.125, abs=1e-15)

    def test_all_positive_equals_survival_at_reflection(self):
        rng = np.random.default_rng(23)
        for spec in family_zoo():
            d = make_direction([1] * spec.dim)
            for _ in range(20):
                v = rng.random(spec.dim)
                expected = survival_cdf(spec, tuple(1.0 - v))
                assert orthant_prob(spec, d, tuple(v)) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        # >= 1000 random (spec, direction, point) triples across the zoo
        rng = np.random.default_rng(24)
        checked = 0
        for spec in family_zoo():
            fn = point_fn(spec)
            signs_list = all_sign_vectors(spec.dim)
            for signs in signs_list:
                d = make_direction(signs)
                for _ in range(4):
                    v = tuple(rng.random(spec.dim))
                    expected = bf_orthant(fn, signs, v)
                    assert orthant_prob(spec, d, v) == pytest.approx(expected, abs=1e-12)
                    checked += 1
        assert checked >= 1000

    def test_quadrant_partition_bivariate(self):
        # the four directional events partition the square
        rng = np.random.default_rng(25)
        specs = [s for s in family_zoo() if s.dim == 2]
        dirs = [make_direction(s) for s in all_sign_vectors(2)]
        for spec in specs:
            for _ in range(40):
                v = tuple(rng.random(2))
                total = sum(orthant_prob(spec, d, v) for d in dirs)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_values_stay_in_unit_range(self):
        rng = np.random.default_rng(26)
        for spec in family_zoo():
            for signs in all_sign_vectors(spec.dim):
                d = make_direction(signs)
                pts = rng.random((25, spec.dim))
                vals = orthant_prob(spec, d, pts)
                assert (vals >= -1e-12).all()
                assert (vals <= 1.0 + 1e-12).all()

    def test_monotone_in_each_axis(self):
        # nonincreasing in positive-axis coordinates, nondecreasing in negative
        grid = np.linspace(0.1, 0.9, 9)
        for spec in [
            CopulaSpec("fgm", 3, {"lambda": 0.7}),
            CopulaSpec("amh", 2, {"delta": -0.8}),
            CopulaSpec("m", 3),
        ]:
            for signs in all_sign_vectors(spec.dim):
                d = make_direction(signs)
                rng = np.random.default_rng(27)
                for _ in range(10):
                    base = grid[rng.integers(0, len(grid), size=spec.dim)]
                    for k in range(spec.dim):
                        lo = base.copy()
                        hi = base.copy()
                        hi[k] = min(0.9, hi[k] + 0.1)
                        flo = orthant_prob(spec, d, tuple(lo))
                        fhi = orthant_prob(spec, d, tuple(hi))
                        if signs[k] > 0:
                            assert fhi <= flo + 1e-12
                        else:
                            assert fhi >= flo - 1e-12

    def test_dimension_mismatch(self):
        spec = CopulaSpec("product", 3)
        with pytest.raises(DimensionError):
            orthant_prob(spec, make_direction([1, -1]), (0.5, 0.5, 0.5))
        with pytest.raises(DimensionError):
            orthant_prob(spec, make_direction([1, -1, 1]), (0.5, 0.5))


class TestConditionalProb:
    def test_independence_arithmetic(self):
        spec = CopulaSpec("product", 2)
        d = make_direction([1, 1])
        assert conditional_prob(spec, d, (0.5, 0.5), (0.2, 0.2)) == pytest.approx(
            0.390625, abs=1e-12
        )

    def test_contained_event_gives_one(self):
        # target event contains the conditioning event: v beyond v' in t-order
        rng = np.random.default_rng(28)
        for spec in [CopulaSpec("fgm", 2, {"lambda": 0.5}), CopulaSpec("product", 3)]:
            for signs in all_sign_vectors(spec.dim):
                d = make_direction(signs)
                for _ in range(20):
                    a = rng.uniform(0.05, 0.45, size=spec.dim)
                    b = rng.uniform(0.5, 0.95, size=spec.dim)
                    # v_J <= v'_J and v_I >= v'_I makes the target contain the condition
                    v = tuple(a[i] if signs[i] > 0 else b[i] for i in range(spec.dim))
                    vp = tuple(b[i] if signs[i] > 0 else a[i] for i in range(spec.dim))
                    got = conditional_prob(spec, d, v, vp)
                    if got is not None:
                        assert got == pytest.approx(1.0, abs=1e-9)

    def test_zero_mass_condition_is_undefined(self):
        # countermonotone copula puts no mass in the lower-left corner event
        spec = CopulaSpec("w", 2)
        d = make_direction([-1, -1])
        assert conditional_prob(spec, d, (0.9, 0.9), (0.2, 0.2)) is None

    @pytest.mark.parametrize("eps_den", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_eps_den_is_a_value_error(self, eps_den):
        # the condition has no mass, so without the check 0.0 divides by zero
        spec, d = CopulaSpec("w", 2), make_direction([-1, -1])
        with pytest.raises(ValueError, match="eps_den must be finite"):
            conditional_prob(spec, d, (0.5, 0.5), (0.3, 0.3), eps_den=eps_den)

    def test_numerator_uses_directional_join(self):
        rng = np.random.default_rng(29)
        spec = CopulaSpec("fgm", 3, {"lambda": -0.5})
        for signs in all_sign_vectors(3):
            d = make_direction(signs)
            for _ in range(10):
                v = tuple(rng.uniform(0.2, 0.8, 3))
                vp = tuple(rng.uniform(0.2, 0.8, 3))
                den = orthant_prob(spec, d, vp)
                num = orthant_prob(spec, d, join_direction(d, v, vp))
                assert conditional_prob(spec, d, v, vp) == pytest.approx(
                    num / den, abs=1e-15
                )
