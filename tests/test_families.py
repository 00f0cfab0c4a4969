from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dirmono import (
    CopulaSpec,
    DimensionError,
    ParameterError,
    cdf,
    check_pair,
    conditional_prob,
    make_direction,
    orthant_prob,
    survival_cdf,
    validate,
)
from dirmono import families
from dirmono.families import _cdf_axes
from helpers import (
    Box,
    bf_survival,
    bivariate_zoo,
    box_volume,
    family_zoo,
    frechet_lower,
    frechet_upper,
    point_fn,
    survival2_closed_form,
)


class TestValidate:
    def test_fgm_in_range_any_dim(self):
        validate(CopulaSpec("fgm", 4, {"lambda": 0.5}))

    def test_lower_frechet_bivariate_only(self):
        validate(CopulaSpec("w", 2))
        with pytest.raises(ParameterError):
            validate(CopulaSpec("w", 3))

    def test_amh_bivariate_and_range(self):
        validate(CopulaSpec("amh", 2, {"delta": 1.0}))
        with pytest.raises(ParameterError):
            validate(CopulaSpec("amh", 2, {"delta": 1.5}))
        with pytest.raises(ParameterError):
            validate(CopulaSpec("amh", 3, {"delta": 0.5}))

    @pytest.mark.parametrize(
        "spec",
        [
            CopulaSpec("fgm", 2, {"lambda": -1.1}),
            CopulaSpec("fgm", 2, {"lambda": float("nan")}),
            CopulaSpec("convexpim", 2, {"theta": 1.2}),
            CopulaSpec("nope", 2),
            CopulaSpec("fgm", 2, {"lambda": 0.5, "delta": 0.5}),
            CopulaSpec("product", 2, {"theta": 0.5}),
            CopulaSpec("fgm", 2),
        ],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ParameterError):
            validate(spec)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionError):
            validate(CopulaSpec("product", 1))

    def test_survival_nesting_depth_one(self):
        inner = CopulaSpec("fgm", 2, {"lambda": 0.5})
        validate(CopulaSpec("survival", 2, inner=inner))
        with pytest.raises(ParameterError):
            validate(CopulaSpec("survival", 2, inner=CopulaSpec("survival", 2, inner=inner)))
        with pytest.raises(ParameterError):
            validate(CopulaSpec("survival", 2))
        with pytest.raises(DimensionError):
            validate(CopulaSpec("survival", 3, inner=inner))

    @pytest.mark.parametrize(
        "evaluate",
        [
            cdf,
            survival_cdf,
            lambda spec, u: orthant_prob(spec, make_direction([1] + [-1] * (spec.dim - 1)), u),
            lambda spec, u: check_pair(spec, make_direction([1] + [-1] * (spec.dim - 1)), u, u),
        ],
        ids=["cdf", "survival_cdf", "orthant_prob", "check_pair"],
    )
    @pytest.mark.parametrize(
        "spec",
        [
            CopulaSpec("amh", 3, {"delta": 0.5}),
            CopulaSpec("w", 3),
            CopulaSpec("fgm", 2, {"lambda": 5.0}),
            CopulaSpec("fgm", 2),
            CopulaSpec("survival", 2),
        ],
        ids=["amh-n3", "w-n3", "fgm-lambda-5", "fgm-no-lambda", "survival-no-inner"],
    )
    def test_point_evaluators_refuse_invalid_specs(self, evaluate, spec):
        # each would otherwise give a number for a spec that is no copula,
        # or fail with a KeyError or an AssertionError
        with pytest.raises((ParameterError, DimensionError)):
            evaluate(spec, [0.5] * spec.dim)

    def test_zoo_is_valid(self):
        for spec in family_zoo():
            validate(spec)


_MIXED = make_direction([1, -1])
_SCALAR_EVALUATORS = pytest.mark.parametrize(
    "evaluate",
    [
        cdf,
        survival_cdf,
        lambda spec, u: orthant_prob(spec, _MIXED, u),
        # the join with (0.5, 0.5) drops each bad coordinate but nan
        lambda spec, u: conditional_prob(spec, _MIXED, u, (0.5, 0.5)),
        lambda spec, u: conditional_prob(spec, _MIXED, (0.5, 0.5), u),
        lambda spec, u: check_pair(spec, _MIXED, u, u),
    ],
    ids=["cdf", "survival_cdf", "orthant_prob", "conditional_prob-v", "conditional_prob-vp",
         "check_pair"],
)


class TestPoints:
    @_SCALAR_EVALUATORS
    @pytest.mark.parametrize(
        "point", [(float("nan"), 0.2), (-0.1, 0.5), (0.5, 2.0)], ids=["nan", "below", "above"]
    )
    def test_a_coordinate_outside_the_unit_interval_is_refused(self, monkeypatch, evaluate, point):
        # each would otherwise give a number, nan or a pass; with the
        # evaluator gone, any evaluation would raise TypeError instead
        monkeypatch.setattr(families, "_cdf_axes", None)
        with pytest.raises(ValueError, match=r"coordinate .* is not in \[0, 1\]"):
            evaluate(CopulaSpec("fgm", 2, {"lambda": 0.5}), point)

    @_SCALAR_EVALUATORS
    def test_the_ends_of_the_unit_interval_are_taken(self, evaluate):
        evaluate(CopulaSpec("fgm", 2, {"lambda": 0.5}), (0.0, 1.0))


class TestCdf:
    def test_fgm_value(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 1.0})
        assert cdf(spec, (0.5, 0.5)) == pytest.approx(0.3125, abs=1e-15)

    def test_min_value(self):
        assert cdf(CopulaSpec("m", 3), (0.2, 0.5, 0.7)) == pytest.approx(0.2, abs=1e-15)

    def test_lower_frechet_value(self):
        assert cdf(CopulaSpec("w", 2), (0.3, 0.4)) == 0.0

    def test_amh_value(self):
        spec = CopulaSpec("amh", 2, {"delta": 1.0})
        assert cdf(spec, (0.5, 0.5)) == pytest.approx(0.2, abs=1e-15)

    def test_product_exact(self):
        rng = np.random.default_rng(7)
        spec = CopulaSpec("product", 3)
        for _ in range(50):
            u = rng.random(3)
            assert cdf(spec, u) == u[0] * u[1] * u[2]

    def test_convex_combination_endpoints(self):
        rng = np.random.default_rng(8)
        for n in (2, 3):
            at_min = CopulaSpec("convexpim", n, {"theta": 0.0})
            at_prod = CopulaSpec("convexpim", n, {"theta": 1.0})
            m = CopulaSpec("m", n)
            pi = CopulaSpec("product", n)
            for _ in range(50):
                u = tuple(rng.random(n))
                assert cdf(at_min, u) == cdf(m, u)
                assert cdf(at_prod, u) == cdf(pi, u)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cdf(CopulaSpec("product", 3), (0.5, 0.5))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        for spec in family_zoo():
            pts = rng.random((17, spec.dim))
            batch = cdf(spec, pts)
            singles = np.array([cdf(spec, p) for p in pts])
            np.testing.assert_allclose(batch, singles, rtol=0, atol=0)


class TestSurvival:
    def test_product_is_survival_invariant(self):
        spec = CopulaSpec("product", 2)
        assert survival_cdf(spec, (0.3, 0.7)) == pytest.approx(0.21, abs=1e-15)

    def test_min_copula_value(self):
        assert survival_cdf(CopulaSpec("m", 2), (0.3, 0.7)) == pytest.approx(0.3, abs=1e-12)

    def test_fgm_radial_symmetry(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        assert survival_cdf(spec, (0.4, 0.6)) == pytest.approx(
            cdf(spec, (0.4, 0.6)), abs=1e-15
        )
        rng = np.random.default_rng(10)
        for lam in (-1.0, -0.25, 0.25, 1.0):
            s = CopulaSpec("fgm", 2, {"lambda": lam})
            for _ in range(100):
                u = tuple(rng.random(2))
                assert survival_cdf(s, u) == pytest.approx(cdf(s, u), abs=1e-12)

    def test_bivariate_closed_form_on_random_points(self):
        # subset signed sum vs u + v - 1 + C(1-u, 1-v), >= 1000 points total
        rng = np.random.default_rng(11)
        specs = bivariate_zoo()
        per_spec = max(1, 1100 // len(specs)) + 1
        checked = 0
        for spec in specs:
            fn = point_fn(spec)
            for _ in range(per_spec):
                u, v = rng.random(2)
                expected = survival2_closed_form(fn, u, v)
                assert survival_cdf(spec, (u, v)) == pytest.approx(expected, abs=1e-12)
                checked += 1
        assert checked >= 1000

    def test_multivariate_subset_sum_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for spec in [CopulaSpec("fgm", 3, {"lambda": -0.5}), CopulaSpec("product", 4)]:
            fn = point_fn(spec)
            for _ in range(50):
                u = tuple(rng.random(spec.dim))
                assert survival_cdf(spec, u) == pytest.approx(
                    bf_survival(fn, spec.dim, u), abs=1e-12
                )

    def test_involution_on_bivariate_families(self):
        # survival of the survival returns the original value
        rng = np.random.default_rng(13)
        for spec in bivariate_zoo():
            if spec.family == "survival":
                continue
            wrapped = CopulaSpec("survival", 2, inner=spec)
            for _ in range(60):
                u = tuple(rng.random(2))
                assert survival_cdf(wrapped, u) == pytest.approx(cdf(spec, u), abs=1e-12)

    def test_fgm_two_dim_margins_of_higher_fgm_are_product(self):
        # pinning any coordinate set to 1 kills the interaction term
        spec = CopulaSpec("fgm", 3, {"lambda": 0.8})
        rng = np.random.default_rng(14)
        for _ in range(50):
            u, v = rng.random(2)
            assert cdf(spec, (u, v, 1.0)) == pytest.approx(u * v, abs=1e-15)
            assert cdf(spec, (u, 1.0, v)) == pytest.approx(u * v, abs=1e-15)
            assert cdf(spec, (1.0, u, v)) == pytest.approx(u * v, abs=1e-15)


def _exact(spec):
    """``spec`` with ``Fraction`` parameters, its inner spec's too."""
    inner = spec.inner and _exact(spec.inner)
    return replace(spec, params={k: Fraction(v) for k, v in spec.params.items()}, inner=inner)


class TestExactArithmetic:
    @pytest.mark.parametrize(
        "spec",
        [s for z in family_zoo() for s in (z, CopulaSpec("survival", z.dim, inner=z))],
        ids=lambda s: s.describe(),
    )
    def test_fraction_inputs_give_no_float(self, spec):
        # every lattice point and pinned margin, on object arrays of Fraction
        # coordinates 0, 1/3, 2/3 and 1, broadcast per axis as a table is built
        points = np.array([Fraction(k, 3) for k in range(4)], dtype=object)
        xs = [points.reshape((-1,) + (1,) * (spec.dim - 1 - k)) for k in range(spec.dim)]
        values = np.ravel(_cdf_axes(_exact(spec), xs))
        assert values.size == 4**spec.dim
        assert not [v for v in values if isinstance(v, float)]


class TestCopulaAxioms:
    """Groundedness, uniform margins, n-increasing, pointwise bounds."""

    @pytest.mark.parametrize("spec", family_zoo(), ids=lambda s: s.describe())
    def test_grounded_and_uniform_margins(self, spec):
        rng = np.random.default_rng(15)
        n = spec.dim
        for _ in range(40):
            u = rng.random(n)
            for i in range(n):
                zeroed = u.copy()
                zeroed[i] = 0.0
                assert cdf(spec, zeroed) == pytest.approx(0.0, abs=1e-12)
                margin = np.ones(n)
                margin[i] = u[i]
                assert cdf(spec, margin) == pytest.approx(u[i], abs=1e-12)

    @pytest.mark.parametrize("spec", family_zoo(), ids=lambda s: s.describe())
    def test_n_increasing_on_random_boxes(self, spec):
        rng = np.random.default_rng(16)
        fn = point_fn(spec)
        for _ in range(100):
            a = rng.random(spec.dim)
            b = rng.random(spec.dim)
            box = Box(tuple(np.minimum(a, b)), tuple(np.maximum(a, b)))
            assert box_volume(fn, box) >= -1e-12

    @pytest.mark.parametrize("spec", family_zoo(), ids=lambda s: s.describe())
    def test_frechet_sandwich(self, spec):
        rng = np.random.default_rng(17)
        pts = rng.random((1000, spec.dim))
        values = cdf(spec, pts)
        lower = np.array([frechet_lower(p) for p in pts])
        upper = np.array([frechet_upper(p) for p in pts])
        assert (values >= lower - 1e-12).all()
        assert (values <= upper + 1e-12).all()
