import tracemalloc
from itertools import product

import numpy as np
import pytest

from dirmono import (
    CopulaSpec,
    DimensionError,
    GridSpec,
    METHOD_BOTH,
    METHOD_INEQUALITY,
    METHOD_ORACLE,
    Notion,
    PASS_AT_RESOLUTION,
    REFUTED,
    UNSUPPORTED,
    UnsupportedDirectionError,
    all_directions,
    cdf,
    check_direction_inequality,
    check_direction_oracle,
    check_pair,
    conditional_prob,
    make_direction,
    orthant_prob,
    recheck_counterexample,
    scan_all_directions,
    scan_direction,
    survival_cdf,
)
from dirmono import checker
from dirmono.checker import DEFAULT_TOL, Counterexample, _pairwise_verdict
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

    def test_default_resolutions(self):
        assert GridSpec.default_resolution(2) == 21
        assert GridSpec.default_resolution(3) == 9
        assert GridSpec.default_resolution(4) == 6
        assert GridSpec.default_resolution(5) == 4


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

    def test_empty_direction_list(self):
        spec = CopulaSpec("product", 2)
        assert scan_all_directions(spec, GridSpec(5), directions=[]) == []

    def test_scan_is_deterministic(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        a = scan_all_directions(spec, GridSpec(9), method=METHOD_BOTH)
        b = scan_all_directions(spec, GridSpec(9), method=METHOD_BOTH)
        assert a == b

    def test_both_on_pure_dim_four_routes_to_oracle(self):
        spec = CopulaSpec("fgm", 4, {"lambda": 0.5})
        v = scan_direction(spec, make_direction([1] * 4), GridSpec(4), method=METHOD_BOTH)
        assert v.method == METHOD_ORACLE
        assert v.inequality_outcome == UNSUPPORTED
        assert v.outcome == PASS_AT_RESOLUTION
        assert v.methods_agree is None

    def test_conjectural_flag_records_side_outcome_only(self):
        spec = CopulaSpec("fgm", 4, {"lambda": 0.5})
        d = make_direction([1] * 4)
        v = scan_direction(
            spec, d, GridSpec(4), method=METHOD_BOTH, allow_conjectural_pure=True
        )
        assert v.conjectural_outcome == PASS_AT_RESOLUTION
        assert v.method == METHOD_ORACLE
        plain = scan_direction(spec, d, GridSpec(4), method=METHOD_BOTH)
        assert plain.conjectural_outcome is None


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

    @pytest.mark.parametrize(
        "spec", [s for s in family_zoo() if s.dim == 4], ids=lambda s: s.describe()
    )
    def test_conjectural_single_swap_dim_four(self, spec):
        grid = GridSpec(2)
        for sign in (1, -1):
            d = make_direction([sign] * 4)
            evaluate = cdf if sign < 0 else survival_cdf

            def pair_check(u, up):
                lo = np.concatenate([up[:1], u[1:]])
                hi = np.concatenate([u[:1], up[1:]])
                lhs = evaluate(spec, lo) * evaluate(spec, hi)
                rhs = evaluate(spec, u) * evaluate(spec, up)
                return Counterexample(d, tuple(u), tuple(up), lhs, rhs, lhs - rhs)

            gathered = _pairwise_verdict(spec, d, grid, DEFAULT_TOL, Notion.INCREASING)
            assert _summary(gathered) == _scalar_pair_scan(spec, d, 2, pair_check)


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


def _scalar_oracle_scan(spec, d, g):
    """Plain loop over (target, condition, axis) in lexicographic order.

    Every conditional goes through ``conditional_prob`` once and is reused
    by both notions; the result maps each notion to the shape of a
    DirectionVerdict.
    """
    pts = GridSpec(g).points()
    lattice = list(product(range(g), repeat=spec.dim))
    conds = {
        (t, q): conditional_prob(spec, d, pts[list(t)], pts[list(q)])
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
                if first is None and lhs - rhs > DEFAULT_TOL:
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

    @pytest.mark.parametrize("block", [1, 75], ids=["one-row", "uneven"])
    def test_block_size_does_not_change_verdicts(self, monkeypatch, block):
        # 75 entries make blocks of 3 targets at g^n = 25 and of 2 at g^n = 27,
        # so the last block is short
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
