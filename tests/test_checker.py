import gc
import tracemalloc
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmono import (
    CopulaSpec,
    DimensionError,
    GridSpec,
    METHOD_BOTH,
    METHOD_INEQUALITY,
    METHOD_ORACLE,
    Notion,
    ParameterError,
    PASS_AT_RESOLUTION,
    REFUTED,
    UNSUPPORTED,
    UnsupportedDirectionError,
    all_directions,
    check_direction_inequality,
    check_direction_oracle,
    check_pair,
    conditional_prob,
    make_direction,
    orthant_prob,
    recheck_counterexample,
    scan_all_directions,
    scan_direction,
)
from dirmono import checker, families
from dirmono.checker import DEFAULT_TOL, Counterexample
from dirmono.orthant import DEFAULT_EPS_DEN, _orthant_array
from helpers import family_zoo


def pass_set(verdicts):
    return {v.direction.signs for v in verdicts if v.outcome == PASS_AT_RESOLUTION}


def refuted_set(verdicts):
    return {v.direction.signs for v in verdicts if v.outcome == REFUTED}


class TestGridSpec:
    def test_points_are_interior(self):
        g = GridSpec(9)
        pts = g.points()
        assert len(pts) == 9
        assert pts[0] == pytest.approx(0.1)
        assert pts[-1] == pytest.approx(0.9)
        assert (pts > 0).all() and (pts < 1).all()

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(1)

    @pytest.mark.parametrize("resolution", [2.5, 3.0, True, "3"])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(resolution)

    def test_numpy_integer_resolution(self):
        assert GridSpec(np.int64(3)).points().tolist() == GridSpec(3).points().tolist()

    def test_default_resolutions(self):
        assert GridSpec.default_resolution(2) == 21
        assert GridSpec.default_resolution(3) == 9
        assert GridSpec.default_resolution(4) == 6
        assert GridSpec.default_resolution(5) == 4


class TestCopulaTable:
    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_tables_match_direct_evaluation_bit_for_bit(self, g):
        # compared as bytes, so that a changed last bit or sign of zero shows
        grid = GridSpec(g)
        for spec in family_zoo():
            ctable = checker._copula_table(spec, grid)
            lattice = checker._lattice(grid.points(), spec.dim)
            raw = ctable[(slice(g),) * spec.dim]
            assert raw.tobytes() == families._cdf_array(spec, lattice).tobytes()
            for d in all_directions(spec.dim):
                read = checker._orthant_table(ctable, d)
                direct = _orthant_array(spec, d, lattice)
                assert read.tobytes() == direct.tobytes(), (spec.describe(), d.pretty())


class TestPairChecks:
    def test_product_mixed_pair_is_exact_equality(self):
        spec = CopulaSpec("product", 3)
        d = make_direction([1, 1, -1])
        cex = check_pair(spec, d, (0.2, 0.3, 0.4), (0.5, 0.6, 0.9))
        assert cex is None

    def test_fgm_negative_mixed_pair_passes(self):
        spec = CopulaSpec("fgm", 2, {"lambda": -0.5})
        d = make_direction([1, -1])
        assert check_pair(spec, d, (0.25, 0.25), (0.75, 0.75)) is None

    def test_fgm_positive_mixed_pair_fails_somewhere(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        d = make_direction([1, -1])
        cex = check_pair(spec, d, (0.25, 0.25), (0.75, 0.75))
        assert cex is not None
        assert cex.violation > 1e-9
        assert cex.lhs > cex.rhs

    def test_mixed_check_rejects_unordered_pair(self):
        spec = CopulaSpec("product", 2)
        with pytest.raises(ValueError):
            check_pair(spec, make_direction([1, -1]), (0.5, 0.2), (0.4, 0.4))

    def test_min_copula_pure_pair(self):
        spec = CopulaSpec("m", 2)
        assert check_pair(spec, make_direction([-1, -1]), (0.3, 0.4), (0.6, 0.8)) is None

    def test_product_pure_pair_equality(self):
        spec = CopulaSpec("product", 3)
        d = make_direction([1, 1, 1])
        assert check_pair(spec, d, (0.2, 0.3, 0.4), (0.5, 0.6, 0.9)) is None

    def test_fgm3_all_negative_pair_sign_regions(self):
        # lambda in [0, 1] satisfies the all-negative product inequality,
        # lambda in [-1, 0) violates it on the grid
        good = CopulaSpec("fgm", 3, {"lambda": 0.5})
        bad = CopulaSpec("fgm", 3, {"lambda": -0.5})
        g = GridSpec(9)
        d = make_direction([-1, -1, -1])
        assert check_direction_inequality(good, d, g).outcome == PASS_AT_RESOLUTION
        verdict = check_direction_inequality(bad, d, g)
        assert verdict.outcome == REFUTED
        assert verdict.counterexample is not None

    def test_pair_rejects_direction_or_points_of_other_dim(self):
        spec = CopulaSpec("product", 3)
        with pytest.raises(DimensionError):
            check_pair(spec, make_direction([1, -1]), (0.2, 0.2, 0.2), (0.4, 0.4, 0.4))
        with pytest.raises(DimensionError):
            check_pair(spec, make_direction([1, -1, 1]), (0.2, 0.2, 0.2), (0.4, 0.4))

    def test_pure_pair_unsupported_beyond_three(self):
        spec = CopulaSpec("fgm", 4, {"lambda": 0.5})
        with pytest.raises(UnsupportedDirectionError):
            check_pair(spec, make_direction([1] * 4), (0.2,) * 4, (0.4,) * 4)


class TestDirectionInequality:
    def test_amh_mixed_directions_pass(self):
        spec = CopulaSpec("amh", 2, {"delta": 0.5})
        g = GridSpec(21)
        for signs in ([-1, 1], [1, -1]):
            v = check_direction_inequality(spec, make_direction(signs), g)
            assert v.outcome == PASS_AT_RESOLUTION

    def test_amh_negative_delta_pure_directions_pass(self):
        spec = CopulaSpec("amh", 2, {"delta": -0.5})
        g = GridSpec(21)
        for signs in ([1, 1], [-1, -1]):
            v = check_direction_inequality(spec, make_direction(signs), g)
            assert v.outcome == PASS_AT_RESOLUTION

    def test_fgm4_even_positive_mixed_passes(self):
        spec = CopulaSpec("fgm", 4, {"lambda": 0.5})
        v = check_direction_inequality(spec, make_direction([1, 1, -1, -1]), GridSpec(6))
        assert v.outcome == PASS_AT_RESOLUTION

    def test_pure_beyond_three_is_unsupported(self):
        spec = CopulaSpec("fgm", 4, {"lambda": 0.5})
        v = check_direction_inequality(spec, make_direction([1, 1, 1, 1]), GridSpec(4))
        assert v.outcome == UNSUPPORTED
        assert v.pairs_tested == 0
        assert v.max_slack is None


class TestDirectionOracle:
    def test_product_every_direction(self):
        for n, g in ((2, 9), (3, 5)):
            spec = CopulaSpec("product", n)
            for d in all_directions(n):
                v = check_direction_oracle(spec, d, GridSpec(g))
                assert v.outcome == PASS_AT_RESOLUTION

    def test_min_copula_pure_directions_dim_four(self):
        spec = CopulaSpec("m", 4)
        g = GridSpec(6)
        for signs in ([1] * 4, [-1] * 4):
            v = check_direction_oracle(spec, make_direction(signs), g)
            assert v.outcome == PASS_AT_RESOLUTION

    def test_lower_frechet_mixed_directions(self):
        spec = CopulaSpec("w", 2)
        g = GridSpec(21)
        for signs in ([1, -1], [-1, 1]):
            v = check_direction_oracle(spec, make_direction(signs), g)
            assert v.outcome == PASS_AT_RESOLUTION

    def test_lower_frechet_pure_directions_refuted(self):
        spec = CopulaSpec("w", 2)
        g = GridSpec(21)
        for signs in ([1, 1], [-1, -1]):
            v = check_direction_oracle(spec, make_direction(signs), g)
            assert v.outcome == REFUTED
            assert v.counterexample is not None
            assert v.counterexample.kind == "step"


class TestScans:
    def test_fgm2_positive_classification(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        verdicts = scan_all_directions(spec, GridSpec(21), method=METHOD_BOTH)
        assert pass_set(verdicts) == {(1, 1), (-1, -1)}
        assert refuted_set(verdicts) == {(1, -1), (-1, 1)}
        assert all(v.methods_agree for v in verdicts)

    def test_fgm3_negative_classification(self):
        spec = CopulaSpec("fgm", 3, {"lambda": -0.5})
        verdicts = scan_all_directions(spec, GridSpec(9), method=METHOD_BOTH)
        assert pass_set(verdicts) == {
            (1, 1, 1),
            (1, -1, -1),
            (-1, 1, -1),
            (-1, -1, 1),
        }

    def test_convex_combination_pure_directions_pass(self):
        spec = CopulaSpec("convexpim", 3, {"theta": 0.5})
        verdicts = scan_all_directions(spec, GridSpec(9), method=METHOD_ORACLE)
        passed = pass_set(verdicts)
        assert (1, 1, 1) in passed
        assert (-1, -1, -1) in passed

    def test_scan_respects_requested_subset(self):
        spec = CopulaSpec("product", 3)
        dirs = [make_direction([1, -1, 1])]
        verdicts = scan_all_directions(spec, GridSpec(5), directions=dirs)
        assert len(verdicts) == 1
        assert verdicts[0].direction.signs == (1, -1, 1)

    def test_empty_direction_list(self, monkeypatch):
        monkeypatch.setattr(checker, "_copula_table", None)
        spec = CopulaSpec("product", 2)
        assert scan_all_directions(spec, GridSpec(5), directions=[]) == []

    def test_scan_is_deterministic(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        a = scan_all_directions(spec, GridSpec(9), method=METHOD_BOTH)
        b = scan_all_directions(spec, GridSpec(9), method=METHOD_BOTH)
        assert a == b

    def test_both_routes_share_one_table_per_direction(self, monkeypatch):
        # one F_d per direction for both routes, all read off one copula
        # table per scan, evaluated in one call on the lattice; the scalar
        # recheck evaluates single points and pair corners
        read, tables = checker._orthant_table, Counter()
        evaluate, lattices = families._cdf_array, []

        def counted_read(ctable, d):
            tables[d] += 1
            return read(ctable, d)

        def counted_evaluate(spec, arr):
            if arr.ndim == spec.dim + 1:
                lattices.append(arr.shape)
            return evaluate(spec, arr)

        monkeypatch.setattr(checker, "_orthant_table", counted_read)
        monkeypatch.setattr(checker, "_cdf_array", counted_evaluate)
        monkeypatch.setattr(families, "_cdf_array", counted_evaluate)
        spec = CopulaSpec("fgm", 4, {"lambda": 0.5})
        verdicts = scan_all_directions(spec, GridSpec(4), method=METHOD_BOTH)
        assert set(tables) == {v.direction for v in verdicts}
        assert sum(tables.values()) == len(verdicts) == 16
        assert lattices == [(5, 5, 5, 5, 4)]

    def test_no_copula_table_outlives_its_scan(self, monkeypatch):
        # a table of (g+1)^n points must not stay allocated once the
        # scan, or a direct call of one direction, has returned
        build, tables = checker._copula_table, []

        def tracked(spec, grid):
            table = build(spec, grid)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(checker, "_copula_table", tracked)
        spec, grid = CopulaSpec("fgm", 3, {"lambda": 0.5}), GridSpec(4)
        scan_all_directions(spec, grid)
        scan_direction(spec, make_direction([1, -1, 1]), grid)
        with pytest.raises(DimensionError):
            scan_all_directions(spec, grid, directions=[make_direction([1, -1])])
        gc.collect()
        # the direction of the wrong dim is refused before any table
        assert len(tables) == 2
        assert [ref() for ref in tables] == [None] * 2

    @pytest.mark.parametrize("method", [METHOD_INEQUALITY, METHOD_ORACLE, METHOD_BOTH])
    def test_handed_table_gives_the_verdict_of_a_direct_call(self, method):
        spec, grid = CopulaSpec("fgm", 3, {"lambda": -0.5}), GridSpec(5)
        ctable = checker._copula_table(spec, grid)
        for d in all_directions(3):
            handed = scan_direction(spec, d, grid, method, ctable=ctable)
            assert handed == scan_direction(spec, d, grid, method), d.pretty()

    def test_unknown_method_is_refused_before_any_table(self, monkeypatch):
        monkeypatch.setattr(checker, "_copula_table", None)
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        with pytest.raises(ValueError, match="unknown method"):
            scan_direction(spec, make_direction([1, -1]), GridSpec(3), method="neither")

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"method": "neither"}, ValueError, "unknown method"),
            ({"method": "neither", "directions": []}, ValueError, "unknown method"),
            ({"eps_den": 5e-324}, ValueError, "eps_den"),
            ({"directions": [make_direction([1, -1, 1]), make_direction([1, -1])]},
             DimensionError, "direction dim 2"),
        ],
        ids=["method", "method-no-directions", "eps-den", "direction-dim"],
    )
    def test_scan_settings_are_refused_before_any_table(self, monkeypatch, kwargs, error, match):
        # a memory too small for the inequality route's pairs must not
        # hide the bad setting either
        monkeypatch.setattr(checker, "_copula_table", None)
        monkeypatch.setattr(checker, "_MEMORY", 1)
        spec = CopulaSpec("fgm", 3, {"lambda": 0.5})
        with pytest.raises(error, match=match):
            scan_all_directions(spec, GridSpec(3), **kwargs)

    @pytest.mark.parametrize("params", [{"lambda": 5.0}, {}], ids=["lambda-5", "no-lambda"])
    @pytest.mark.parametrize("signs", [[1, -1], [1, 1]], ids=["mixed", "all-positive"])
    def test_direct_calls_validate_the_spec(self, params, signs):
        spec, d, grid = CopulaSpec("fgm", 2, params), make_direction(signs), GridSpec(5)
        for check in (scan_direction, check_direction_inequality, check_direction_oracle):
            with pytest.raises(ParameterError):
                check(spec, d, grid)

    def test_both_on_pure_dim_four_routes_to_oracle(self):
        spec = CopulaSpec("fgm", 4, {"lambda": 0.5})
        v = scan_direction(spec, make_direction([1] * 4), GridSpec(4), method=METHOD_BOTH)
        assert v.method == METHOD_ORACLE
        assert v.inequality_outcome == UNSUPPORTED
        assert v.outcome == PASS_AT_RESOLUTION
        assert v.methods_agree is None


class TestSoundnessAndStability:
    def test_counterexamples_reverify_from_scratch(self):
        cases = [
            (CopulaSpec("fgm", 2, {"lambda": 0.5}), GridSpec(21), METHOD_INEQUALITY),
            (CopulaSpec("fgm", 2, {"lambda": 0.5}), GridSpec(21), METHOD_ORACLE),
            (CopulaSpec("amh", 2, {"delta": -0.5}), GridSpec(21), METHOD_INEQUALITY),
            (CopulaSpec("m", 2), GridSpec(21), METHOD_ORACLE),
            (CopulaSpec("fgm", 3, {"lambda": 0.5}), GridSpec(9), METHOD_BOTH),
        ]
        seen = 0
        for spec, grid, method in cases:
            for v in scan_all_directions(spec, grid, method=method):
                if v.counterexample is not None:
                    assert recheck_counterexample(spec, v.counterexample)
                    seen += 1
        assert seen >= 4

    def test_refuted_direction_stays_refuted_under_lattice_refinement(self):
        # g' = 2*(g+1) - 1 keeps every g-lattice point on the lattice
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        d = make_direction([1, -1])
        coarse = check_direction_inequality(spec, d, GridSpec(9))
        assert coarse.outcome == REFUTED
        fine_g = 2 * (9 + 1) - 1
        fine_points = GridSpec(fine_g).points()
        for coord in coarse.counterexample.u_low + coarse.counterexample.u_high:
            assert np.isclose(fine_points, coord).any()
        fine = check_direction_inequality(spec, d, GridSpec(fine_g))
        assert fine.outcome == REFUTED

    def test_product_pairwise_sides_agree_to_float_noise(self):
        # both sides factorize identically for independence
        rng = np.random.default_rng(31)
        for n, g in ((2, 21), (3, 9)):
            spec = CopulaSpec("product", n)
            pts = GridSpec(g).points()
            for _ in range(200):
                u = np.sort(rng.choice(pts, size=(2, n)), axis=0)
                for signs in [s for s in all_directions(n) if not s.is_pure]:
                    d = signs
                    neg = list(d.neg_idx)
                    lo = u[0].copy()
                    hi = u[1].copy()
                    sw_lo = lo.copy()
                    sw_lo[neg] = hi[neg]
                    sw_hi = hi.copy()
                    sw_hi[neg] = lo[neg]
                    lhs = orthant_prob(spec, d, lo) * orthant_prob(spec, d, hi)
                    rhs = orthant_prob(spec, d, sw_lo) * orthant_prob(spec, d, sw_hi)
                    assert abs(lhs - rhs) <= 1e-12


class TestMethodEquivalence:
    def test_methods_agree_for_every_family_and_grid(self):
        # the two routes characterize the same property, so wherever both
        # run they must return identical outcomes
        cases = [
            (CopulaSpec("product", 2), 6),
            (CopulaSpec("product", 2), 9),
            (CopulaSpec("convexpim", 2, {"theta": 0.5}), 9),
            (CopulaSpec("survival", 2, inner=CopulaSpec("fgm", 2, {"lambda": 0.5})), 9),
            (CopulaSpec("survival", 2, inner=CopulaSpec("amh", 2, {"delta": 0.5})), 6),
            (CopulaSpec("survival", 2, inner=CopulaSpec("w", 2)), 9),
            (CopulaSpec("w", 2), 6),
            (CopulaSpec("m", 2), 6),
            (CopulaSpec("fgm", 3, {"lambda": 1.0}), 5),
            (CopulaSpec("fgm", 3, {"lambda": -1.0}), 6),
            (CopulaSpec("convexpim", 3, {"theta": 0.5}), 5),
            (CopulaSpec("convexpim", 3, {"theta": 0.9}), 5),
        ]
        audited = 0
        for spec, g in cases:
            for v in scan_all_directions(spec, GridSpec(g), method=METHOD_BOTH):
                if v.inequality_outcome in (PASS_AT_RESOLUTION, REFUTED):
                    assert v.methods_agree is True, (spec.describe(), v.direction.pretty())
                    audited += 1
        assert audited > 40


class TestDecreasingNotion:
    def test_fgm_duality_between_signs_on_mixed_directions(self):
        # reversing the inequality swaps the roles of +lambda and -lambda
        g = GridSpec(21)
        dec = scan_all_directions(
            CopulaSpec("fgm", 2, {"lambda": 0.5}),
            g,
            method=METHOD_INEQUALITY,
            notion=Notion.DECREASING,
        )
        inc = scan_all_directions(
            CopulaSpec("fgm", 2, {"lambda": -0.5}),
            g,
            method=METHOD_INEQUALITY,
            notion=Notion.INCREASING,
        )
        dec_mixed = {v.direction.signs: v.outcome for v in dec if not v.direction.is_pure}
        inc_mixed = {v.direction.signs: v.outcome for v in inc if not v.direction.is_pure}
        assert dec_mixed == inc_mixed
        assert set(dec_mixed.values()) == {PASS_AT_RESOLUTION}


def _scalar_pair_scan(spec, d, g, pair_check):
    """Plain loop over ordered lattice pairs in lexicographic (u, u') order.

    ``pair_check(u, up)`` returns the pair's Counterexample whatever its
    sign (tol = -inf); the result has the shape of a DirectionVerdict.
    """
    pts = GridSpec(g).points()
    lattice = list(product(range(g), repeat=spec.dim))
    pairs, max_slack, first = 0, None, None
    for a in lattice:
        for b in lattice:
            if any(i > j for i, j in zip(a, b)):
                continue
            cex = pair_check(pts[list(a)], pts[list(b)])
            pairs += 1
            max_slack = cex.violation if max_slack is None else max(max_slack, cex.violation)
            if first is None and cex.violation > DEFAULT_TOL:
                first = cex
    return (REFUTED if first else PASS_AT_RESOLUTION), pairs, max_slack, first


def _summary(v):
    return v.outcome, v.pairs_tested, v.max_slack, v.counterexample


class TestGatheredMatchesScalar:
    @pytest.mark.parametrize(
        "spec", [s for s in family_zoo() if s.dim <= 3], ids=lambda s: s.describe()
    )
    def test_every_direction_pair_by_pair(self, spec):
        for d in all_directions(spec.dim):
            def pair_check(u, up, d=d):
                return check_pair(spec, d, u, up, tol=-np.inf)
            gathered = check_direction_inequality(spec, d, GridSpec(3))
            assert _summary(gathered) == _scalar_pair_scan(spec, d, 3, pair_check), d.pretty()


class TestVacuousOracle:
    def test_oracle_without_comparisons_is_unsupported(self):
        spec = CopulaSpec("product", 2)
        for v in scan_all_directions(spec, GridSpec(5), method=METHOD_ORACLE, eps_den=1.0):
            assert v.outcome == UNSUPPORTED
            assert v.pairs_tested == 0

    def test_both_defers_to_inequality(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        grid = GridSpec(9)
        for v in scan_all_directions(spec, grid, method=METHOD_BOTH, eps_den=1.0):
            ineq = check_direction_inequality(spec, v.direction, grid)
            assert v.method == METHOD_INEQUALITY
            assert v.oracle_outcome == UNSUPPORTED
            assert v.methods_agree is None
            assert _summary(v) == _summary(ineq)


class TestScanRechecks:
    def test_unconfirmed_counterexample_marks_disagreement(self, monkeypatch):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        refuted, passing = make_direction([1, -1]), make_direction([1, 1])
        assert scan_direction(spec, refuted, GridSpec(9)).methods_agree is True
        monkeypatch.setattr(checker, "recheck_counterexample", lambda *a, **k: False)
        for method in (METHOD_INEQUALITY, METHOD_ORACLE, METHOD_BOTH):
            v = scan_direction(spec, refuted, GridSpec(9), method=method)
            assert v.outcome == REFUTED
            assert v.methods_agree is False
        assert scan_direction(spec, passing, GridSpec(9)).methods_agree is True


def _scalar_oracle_scan(spec, d, g, eps_den=DEFAULT_EPS_DEN, tol=DEFAULT_TOL):
    """Plain loop over (target, condition, axis) in lexicographic order.

    Every conditional goes through ``conditional_prob`` once and is reused
    by both notions; the result maps each notion to the shape of a
    DirectionVerdict.
    """
    pts = GridSpec(g).points()
    lattice = list(product(range(g), repeat=spec.dim))
    conds = {
        (t, q): conditional_prob(spec, d, pts[list(t)], pts[list(q)], eps_den)
        for t in lattice
        for q in lattice
    }
    results = {}
    for notion in Notion:
        comparisons, max_slack, first = 0, None, None
        for t, q in conds:
            for k, sign in enumerate(d.signs):
                nb = q[:k] + (q[k] + sign,) + q[k + 1 :]
                if not 0 <= nb[k] < g or conds[t, q] is None or conds[t, nb] is None:
                    continue
                lhs, rhs = conds[t, q], conds[t, nb]
                if notion is Notion.DECREASING:
                    lhs, rhs = rhs, lhs
                comparisons += 1
                max_slack = lhs - rhs if max_slack is None else max(max_slack, lhs - rhs)
                if first is None and lhs - rhs > tol:
                    low, high = (q, nb) if sign > 0 else (nb, q)
                    first = Counterexample(
                        d, tuple(pts[list(low)]), tuple(pts[list(high)]), lhs, rhs,
                        lhs - rhs, kind="step", target=tuple(pts[list(t)]), axis=k,
                    )
        outcome = REFUTED if first else PASS_AT_RESOLUTION if comparisons else UNSUPPORTED
        results[notion] = outcome, comparisons, max_slack, first
    return results


def _oracle_cases():
    cases = [(s, 3 if s.dim == 2 else 2) for s in family_zoo() if s.dim <= 3]
    return cases + [(CopulaSpec("fgm", 3, {"lambda": -0.5}), 3)]


class TestOracleMatchesScalar:
    @pytest.mark.parametrize(
        "spec, g", _oracle_cases(), ids=lambda c: c.describe() if isinstance(c, CopulaSpec) else f"g{c}"
    )
    def test_every_direction_and_notion(self, spec, g):
        for d in all_directions(spec.dim):
            for notion, scalar in _scalar_oracle_scan(spec, d, g).items():
                gathered = check_direction_oracle(spec, d, GridSpec(g), notion=notion)
                assert _summary(gathered) == scalar, (d.pretty(), notion)

    @pytest.mark.parametrize(
        "block",
        [1, 2, 7, 25, 150],
        ids=["one-row", "chunks-of-two", "inside-last-axis", "inside-axis-1", "uneven"],
    )
    def test_block_size_does_not_change_verdicts(self, monkeypatch, block):
        # there are 15 (condition, join) pairs per axis at g = 5 and 6 at
        # g = 3, and join j has j + 1 conditions.  1 makes every block a
        # single pair; 2 splits the joins of the last axis into uneven
        # chunks of 2 and 1 at n = 2 and n = 3; 7 takes a whole join of the
        # last axis at n = 2, and one condition on axis 1 with every pair of
        # axis 2 at n = 3; 25 takes one condition on axis 0 at n = 2, and
        # being below 6^2, one pair on axis 0 and a whole join on axis 1 at
        # n = 3; 150 takes a whole join on axis 0 at n = 2 and n = 3
        cases = [
            (CopulaSpec("fgm", 2, {"lambda": 0.5}), GridSpec(5)),
            (CopulaSpec("w", 2), GridSpec(5)),
            (CopulaSpec("fgm", 3, {"lambda": -0.5}), GridSpec(3)),
        ]
        runs = [
            (spec, d, grid, notion)
            for spec, grid in cases
            for d in all_directions(spec.dim)
            for notion in Notion
        ]
        default = [check_direction_oracle(s, d, g, notion=nt) for s, d, g, nt in runs]
        monkeypatch.setattr(checker, "_BLOCK", block)
        blocked = [check_direction_oracle(s, d, g, notion=nt) for s, d, g, nt in runs]
        assert blocked == default
        assert any(v.outcome == REFUTED for v in default)

    @pytest.mark.parametrize(
        "spec, g",
        [(CopulaSpec("fgm", 2, {"lambda": 0.5}), 5), (CopulaSpec("fgm", 3, {"lambda": -0.5}), 2)],
        ids=["fgm2", "fgm3"],
    )
    def test_first_violation_above_half_the_max_slack(self, spec, g):
        # a larger tol can move the first violation to a later condition,
        # where a join equal to the condition stands for several targets
        # and the key must take the smallest of them
        for d in all_directions(spec.dim):
            for notion in Notion:
                slack = check_direction_oracle(spec, d, GridSpec(g), notion=notion).max_slack
                tol = slack / 2 if slack > 0 else DEFAULT_TOL
                scalar = _scalar_oracle_scan(spec, d, g, tol=tol)[notion]
                gathered = check_direction_oracle(spec, d, GridSpec(g), tol=tol, notion=notion)
                assert _summary(gathered) == scalar, (d.pretty(), notion)

    @pytest.mark.parametrize(
        "spec, g, block, eps_den",
        [(CopulaSpec("m", 3), 3, 7, 0.05), (CopulaSpec("w", 2), 5, 1, DEFAULT_EPS_DEN)],
        ids=["m3-block7", "w2-block1"],
    )
    def test_partly_defined_blocks_with_head_axes(self, monkeypatch, spec, g, block, eps_den):
        # both blocks leave axis 0 before the lead axis (6 pairs per axis at
        # g = 3, 15 at g = 5), and m's mixed and w's pure directions leave
        # some conditions undefined, so the count, the masked maximum and
        # the first violation all meet undefined steps on a head axis
        monkeypatch.setattr(checker, "_BLOCK", block)
        every = spec.dim * (g - 1) * g ** (2 * spec.dim - 1)
        partial = []
        for d in all_directions(spec.dim):
            for notion, scalar in _scalar_oracle_scan(spec, d, g, eps_den).items():
                gathered = check_direction_oracle(
                    spec, d, GridSpec(g), eps_den=eps_den, notion=notion
                )
                assert _summary(gathered) == scalar, (d.pretty(), notion)
                if 0 < gathered.pairs_tested < every:
                    partial.append(gathered.outcome)
        assert REFUTED in partial

    @pytest.mark.parametrize("block", [1, 7, 25, checker._BLOCK])
    @pytest.mark.parametrize(
        "spec, signs, target",
        [(CopulaSpec("w", 2), (-1, -1), 5), (CopulaSpec("m", 4), (-1, -1, -1, 1), 39)],
        ids=["w2", "m4"],
    )
    def test_locates_a_deep_first_violation(self, monkeypatch, spec, signs, target, block):
        # the first violating target is the 6th of 9 and the 40th of 81 in
        # lattice order, behind rows that violate with larger keys; blocks
        # of 25 and the default hold several rows of a join on lead
        d, g = make_direction(signs), 3
        monkeypatch.setattr(checker, "_BLOCK", block)
        points = list(GridSpec(g).points())
        for notion, scalar in _scalar_oracle_scan(spec, d, g).items():
            gathered = check_direction_oracle(spec, d, GridSpec(g), notion=notion)
            assert _summary(gathered) == scalar, notion
            at = [points.index(x) for x in gathered.counterexample.target]
            assert np.ravel_multi_index(at, (g,) * spec.dim) == target

    @pytest.mark.parametrize("block", [7, 25])
    @pytest.mark.parametrize(
        "spec, signs",
        [
            (CopulaSpec("convexpim", 3, {"theta": 0.5}), (1, 1, -1)),
            (CopulaSpec("product", 4), (1, -1, 1, 1)),
        ],
        ids=["convexpim3", "product4"],
    )
    def test_locates_past_the_run_of_least_bound(self, monkeypatch, spec, signs, block):
        # with these blocks the first violation is not in the first run of
        # rows by least key (convexpim), nor, for the decreasing notion, in
        # a run whose least key is the least of all (product), so a locate
        # step that stopped after its first run, or a walk that kept only
        # the runs of least key, would report a later violation
        d, g = make_direction(signs), 3
        monkeypatch.setattr(checker, "_BLOCK", block)
        for notion, scalar in _scalar_oracle_scan(spec, d, g).items():
            gathered = check_direction_oracle(spec, d, GridSpec(g), notion=notion)
            assert _summary(gathered) == scalar, notion

    def test_eps_den_has_a_floor(self):
        spec, d, grid = CopulaSpec("fgm", 2, {"lambda": 0.5}), make_direction([1, -1]), GridSpec(3)
        with pytest.raises(ValueError, match="eps_den"):
            check_direction_oracle(spec, d, grid, eps_den=5e-324)
        floor = check_direction_oracle(spec, d, grid, eps_den=checker.MIN_EPS_DEN)
        assert floor == check_direction_oracle(spec, d, grid)

    def test_memory_stays_within_blocks(self):
        # the dense g^n x g^n matrices of a direct evaluation would take
        # over 40 MiB here (g^n = 1600)
        spec = CopulaSpec("amh", 2, {"delta": 0.5})
        tracemalloc.start()
        try:
            check_direction_oracle(spec, make_direction([1, 1]), GridSpec(40))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_stays_within_blocks_in_five_dims(self):
        # fgm (5,6) has 21^5 ~ 4.1M (condition, join) pairs; blocks of one
        # pair on axis 0 and all the rest would hold 21^4 per array
        spec = CopulaSpec("fgm", 5, {"lambda": 0.5})
        tracemalloc.start()
        try:
            check_direction_oracle(spec, make_direction([1] * 5), GridSpec(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        spec=st.sampled_from([s for s in family_zoo() if s.dim <= 3]),
        g=st.sampled_from([2, 3]),
        data=st.data(),
        notion=st.sampled_from(list(Notion)),
        eps_den=st.sampled_from([1e-12, 0.05, 0.3]),
        block=st.sampled_from([1, 2, 7, checker._BLOCK]),
    )
    def test_matches_scalar_for_drawn_settings(self, spec, g, data, notion, eps_den, block):
        d = data.draw(st.sampled_from(all_directions(spec.dim)), label="direction")
        scalar = _scalar_oracle_scan(spec, d, g, eps_den)[notion]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checker, "_BLOCK", block)
            gathered = check_direction_oracle(spec, d, GridSpec(g), eps_den=eps_den, notion=notion)
        assert _summary(gathered) == scalar

    def test_memory_follows_the_block_size(self, monkeypatch):
        # fgm (3,6) has 21^3 = 9261 (condition, join) pairs in one default
        # block, about 380 KiB of arrays at peak, and 21 in a block of 25
        spec, grid = CopulaSpec("fgm", 3, {"lambda": 0.5}), GridSpec(6)
        d = make_direction([1, 1, 1])
        default = check_direction_oracle(spec, d, grid)
        monkeypatch.setattr(checker, "_BLOCK", 25)
        tracemalloc.start()
        try:
            small = check_direction_oracle(spec, d, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert small == default and default.outcome == REFUTED
        assert peak < 96 * 2**10

    def test_memory_stays_flat_when_most_rows_violate(self, monkeypatch):
        # fgm (2,12) in blocks of 25 pairs walks 78 x 78 rows (a lead pair
        # for each pair before it), most of which violate the decreasing
        # notion; the walk keeps only the runs of rows that can hold the
        # first violation, about 15 KiB at peak, not an entry per row
        spec, d, grid = CopulaSpec("fgm", 2, {"lambda": 0.5}), make_direction([1, 1]), GridSpec(12)
        table = checker._orthant_table(checker._copula_table(spec, grid), d)
        default = check_direction_oracle(spec, d, grid, notion=Notion.DECREASING, table=table)
        monkeypatch.setattr(checker, "_BLOCK", 25)
        # the first call at a block size allocates caches that later calls reuse
        check_direction_oracle(spec, d, grid, notion=Notion.DECREASING, table=table)
        tracemalloc.start()
        try:
            small = check_direction_oracle(spec, d, grid, notion=Notion.DECREASING, table=table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert small == default and default.outcome == REFUTED
        assert peak < 32 * 2**10


class TestInequalityMemory:
    @pytest.mark.parametrize(
        "signs, outcome",
        [((1, -1, 1), PASS_AT_RESOLUTION), ((1, 1, 1), REFUTED)],
        ids=["passes", "refuted"],
    )
    def test_peak_stays_below_pair_index_arrays(self, signs, outcome):
        # fgm (3,15) has 120^3 ~ 1.7M ordered pairs: per-pair index vectors
        # for u and u' would take 186 MiB (passing) to 220 MiB (refuted)
        spec = CopulaSpec("fgm", 3, {"lambda": 0.5})
        tracemalloc.start()
        try:
            v = check_direction_inequality(spec, make_direction(signs), GridSpec(15))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.outcome == outcome
        assert peak < 96 * 2**20

    @pytest.mark.parametrize(
        "signs, g", [((1, 1, 1, 1, 1, -1), 3), ((1, -1, -1), 15)], ids=["fgm6-g3", "fgm3-g15"]
    )
    def test_refuted_peak_within_the_charge_per_pair(self, signs, g):
        # scan_all_directions refuses a lattice by this charge; the smallest
        # lattice has the most bytes per pair
        spec = CopulaSpec("fgm", len(signs), {"lambda": 0.5})
        tracemalloc.start()
        try:
            v = check_direction_inequality(spec, make_direction(signs), GridSpec(g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.outcome == REFUTED
        assert peak <= checker._PAIR_PEAK_BYTES * (g * (g + 1) // 2) ** len(signs)
