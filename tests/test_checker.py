import errno
import gc
import os
import pickle
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
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
from dirmono import checker, cli, families, survival_cdf
from dirmono.checker import DEFAULT_TOL, Counterexample
from dirmono.orthant import DEFAULT_EPS_DEN, _orthant_array
from helpers import family_zoo, lattice, oracle_max_slack


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
        # a numpy integer would wrap the charge's (g+1)^n to a negative size
        grid = GridSpec(np.int64(10**6))
        assert type(grid.resolution) is int
        with pytest.raises(MemoryError, match="points of the copula table do not fit"):
            checker._check_lattice(3, grid.resolution, METHOD_ORACLE)

    def test_default_resolutions(self):
        assert GridSpec.default_resolution(2) == 21
        assert GridSpec.default_resolution(3) == 9
        assert GridSpec.default_resolution(4) == 6
        assert GridSpec.default_resolution(5) == 4


class TestValueReprs:
    # the verdict digest hashes these reprs, and forked workers pickle
    # verdicts back to the parent
    def test_reprs_are_pinned_and_survive_pickling(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        d = make_direction([1, -1])
        pair = check_pair(spec, d, (0.25, 0.25), (0.75, 0.75))
        verdict = scan_direction(spec, d, GridSpec(3), METHOD_ORACLE)

        # the lattice coordinates are Python floats, whose repr does not
        # depend on the numpy version
        direction = "Direction(signs=(1, -1), neg_idx=(1,), pos_idx=(0,))"
        step = (
            f"Counterexample(direction={direction}, u_low=(0.25, 0.5),"
            " u_high=(0.5, 0.5), lhs=0.48333333333333334, rhs=0.4642857142857143,"
            " violation=0.019047619047619035, kind='step', target=(0.25, 0.25), axis=0)"
        )
        pinned = [
            (d, direction),
            (pair, f"Counterexample(direction={direction}, u_low=(0.25, 0.25),"
                   " u_high=(0.75, 0.75), lhs=0.028873443603515625,"
                   " rhs=0.024478912353515625, violation=0.00439453125, kind='pair',"
                   " target=None, axis=None)"),
            (verdict.counterexample, step),
            (verdict, f"DirectionVerdict(direction={direction}, method='oracle',"
                      " outcome='refuted', pairs_tested=108, max_slack=0.02452107279693483,"
                      f" counterexample={step}, inequality_outcome=None,"
                      " oracle_outcome='refuted', methods_agree=None)"),
        ]
        for value, text in pinned:
            assert repr(value) == text
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and hash(copy) == hash(value) and repr(copy) == text

    def test_a_counterexample_derives_its_violation(self):
        d = make_direction([1, -1])
        cex = Counterexample(d, (0.2, 0.2), (0.4, 0.4), 0.75, 0.5, kind="pair")
        assert cex.violation == 0.25
        # bench/run.py rebuilds one from a report and passes the report's violation
        assert replace(cex, violation=9.0) == cex
        assert replace(cex, lhs=1.0).violation == 0.5


def _assert_tables_match_points(spec, g):
    # compared as bytes, so that a changed last bit or sign of zero shows:
    # the per-axis tables against the evaluators at the lattice's points
    grid = GridSpec(g)
    ctable = checker._copula_table(spec, grid)
    points = lattice(grid.points(), spec.dim)
    raw = ctable[(slice(g),) * spec.dim]
    assert raw.tobytes() == families._cdf_array(spec, points).tobytes()
    # the empty margin, which every all-positive F_d reads
    assert ctable[(g,) * spec.dim] == 1.0
    for d in all_directions(spec.dim):
        read = checker._orthant_table(ctable, d)
        direct = _orthant_array(spec, d, points)
        assert read.tobytes() == direct.tobytes(), (spec.describe(), d.pretty())
        if d.is_pure and d.signs[0] < 0:
            # F_d is C: the signed sum adds C to 0.0, and C is never -0.0
            assert read.tobytes() == raw.tobytes(), spec.describe()
    if (g + 1) & g == 0:
        # the all-positive direction's pairwise form reads F_d reversed, the
        # survival copula on the lattice; bit for bit where g + 1 is a power of
        # two, so that every 1 - k/(g+1) is exact
        positive = checker._orthant_table(ctable, make_direction([1] * spec.dim))
        reversed_ = positive[(slice(None, None, -1),) * spec.dim]
        assert reversed_.tobytes() == survival_cdf(spec, points).tobytes(), spec.describe()


def _survival_of(spec):
    return CopulaSpec("survival", spec.dim, inner=spec)


class TestCopulaTable:
    @pytest.mark.parametrize("g", [2, 3, 5, 7])
    def test_tables_match_direct_evaluation_bit_for_bit(self, g):
        for spec in family_zoo():
            _assert_tables_match_points(spec, g)

    @pytest.mark.parametrize(
        "spec, g",
        [
            (CopulaSpec("fgm", 6, {"lambda": -0.5}), 3),
            (CopulaSpec("fgm", 8, {"lambda": 1.0}), 2),
            (_survival_of(CopulaSpec("fgm", 4, {"lambda": 0.5})), 3),
            (_survival_of(CopulaSpec("convexpim", 4, {"theta": 0.5})), 2),
            (_survival_of(CopulaSpec("fgm", 6, {"lambda": -1.0})), 2),
        ],
        ids=["fgm6-g3", "fgm8-g2", "survival-fgm4-g3", "survival-convexpim4-g2",
             "survival-fgm6-g2"],
    )
    def test_high_dim_tables_match_direct_evaluation_bit_for_bit(self, spec, g):
        _assert_tables_match_points(spec, g)

    @pytest.mark.parametrize(
        "spec, g",
        [
            (_survival_of(CopulaSpec("fgm", 5, {"lambda": 0.5})), 6),
            (_survival_of(CopulaSpec("amh", 2, {"delta": -1.0})), 200),
            (CopulaSpec("fgm", 6, {"lambda": 0.5}), 5),
        ],
        ids=["survival-fgm5-g6", "survival-amh2-g200", "fgm6-g5"],
    )
    def test_build_peaks_below_eight_floats_per_point(self, spec, g):
        # each margin is evaluated on the axes it keeps, with no array of
        # lattice coordinates: survival-of fgm (5,6) used to peak at about
        # 4n + 3 floats per point, and fgm (6,5) at 2n + 2
        checker._copula_table(spec, GridSpec(g))
        tracemalloc.start()
        try:
            checker._copula_table(spec, GridSpec(g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * (g + 1) ** spec.dim


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

    def test_nan_tol_is_a_value_error_before_any_evaluation(self, monkeypatch):
        # a nan tol would pass every pair: no slack exceeds it
        spec, d = CopulaSpec("fgm", 2, {"lambda": 0.5}), make_direction([1, -1])
        cex = check_pair(spec, d, (0.2, 0.2), (0.8, 0.8))
        assert cex.violation == pytest.approx(0.004608)
        monkeypatch.setattr(checker, "_orthant_array", None)
        with pytest.raises(ValueError, match="tol must not be nan"):
            check_pair(spec, d, (0.2, 0.2), (0.8, 0.8), tol=float("nan"))


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

    @pytest.mark.parametrize("g", [3, 5])
    def test_handed_f_d_gives_the_verdict_of_a_direct_call(self, g):
        # the route takes F_d, as the oracle does, for every direction; the
        # all-positive one reads it reversed on every axis
        grid = GridSpec(g)
        for spec in family_zoo():
            ctable = checker._copula_table(spec, grid)
            for d in all_directions(spec.dim):
                handed = check_direction_inequality(
                    spec, d, grid, table=checker._orthant_table(ctable, d)
                )
                direct = check_direction_inequality(spec, d, grid)
                assert handed == direct, (spec.describe(), d.pretty())


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

    # an iterator or a generator is read once, by the checks and the scan
    @pytest.mark.parametrize("kind", [list, tuple, iter, lambda ds: (d for d in ds)],
                             ids=["list", "tuple", "iterator", "generator"])
    def test_scan_respects_requested_subset(self, kind):
        spec = CopulaSpec("product", 3)
        dirs = [make_direction([1, -1, 1]), make_direction([-1, -1, 1])]
        verdicts = scan_all_directions(spec, GridSpec(5), directions=kind(dirs))
        assert [v.direction for v in verdicts] == dirs

    def test_empty_direction_list(self, monkeypatch):
        monkeypatch.setattr(checker, "_copula_table", None)
        spec = CopulaSpec("product", 2)
        assert scan_all_directions(spec, GridSpec(5), directions=[]) == []

    def test_scan_is_deterministic(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        a = scan_all_directions(spec, GridSpec(9), method=METHOD_BOTH)
        b = scan_all_directions(spec, GridSpec(9), method=METHOD_BOTH)
        assert a == b

    @pytest.mark.parametrize("spec, g", [(CopulaSpec("fgm", 3, {"lambda": 0.5}), 5),
                                         (CopulaSpec("fgm", 4, {"lambda": 0.5}), 4)],
                             ids=["fgm3", "fgm4"])
    def test_both_routes_share_one_table_per_direction(self, monkeypatch, spec, g):
        # one F_d per direction for both routes, all read off one copula
        # table per scan, evaluated in one call on the lattice's axes and
        # never on the (g,)*n lattice, also by the all-positive pair form that
        # runs in dim 3; the scalar recheck evaluates single points and pair
        # corners; on one CPU, so that every call is counted in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        read, tables = checker._orthant_table, Counter()
        evaluate, shapes = families._cdf_axes, Counter()

        def counted_read(ctable, d):
            tables[d] += 1
            return read(ctable, d)

        def counted_evaluate(spec, xs):
            shapes[np.broadcast_shapes(*map(np.shape, xs))] += 1
            return evaluate(spec, xs)

        monkeypatch.setattr(checker, "_orthant_table", counted_read)
        monkeypatch.setattr(checker, "_cdf_axes", counted_evaluate)
        monkeypatch.setattr(families, "_cdf_axes", counted_evaluate)
        verdicts = scan_all_directions(spec, GridSpec(g), method=METHOD_BOTH)
        n = spec.dim
        assert set(tables) == {v.direction for v in verdicts}
        assert sum(tables.values()) == len(verdicts) == 2**n
        assert shapes[(g + 1,) * n] == 1
        assert (g,) * n not in shapes
        assert all(len(shape) <= 1 for shape in shapes if shape != (g + 1,) * n)

    def test_repeated_direction_is_refused_before_any_table(self, monkeypatch):
        monkeypatch.setattr(checker, "_copula_table", None)
        spec, d = CopulaSpec("fgm", 2, {"lambda": 0.5}), make_direction([1, -1])
        with pytest.raises(ValueError, match=r"direction \+,- is requested more than once"):
            scan_all_directions(spec, GridSpec(5), directions=[d, make_direction([1, 1]), d])

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
            ({"tol": 0.0}, ValueError, "tol"),
            ({"tol": -1e-9}, ValueError, "tol"),
            ({"tol": float("nan")}, ValueError, "tol"),
            ({"tol": float("inf")}, ValueError, "tol"),
            ({"eps_den": float("inf")}, ValueError, "eps_den"),
            ({"eps_den": float("nan")}, ValueError, "eps_den"),
            ({"notion": "X"}, ValueError, "Notion"),
        ],
        ids=["method", "method-no-directions", "eps-den", "direction-dim", "tol-0",
             "tol-negative", "tol-nan", "tol-inf", "eps-den-inf", "eps-den-nan", "notion"],
    )
    def test_scan_settings_are_refused_before_any_table(self, monkeypatch, kwargs, error, match):
        # a memory too small for the inequality route's pairs must not
        # hide the bad setting either
        monkeypatch.setattr(checker, "_copula_table", None)
        monkeypatch.setattr(checker, "_MEMORY", 1)
        spec = CopulaSpec("fgm", 3, {"lambda": 0.5})
        with pytest.raises(error, match=match):
            scan_all_directions(spec, GridSpec(3), **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": float("nan")}, {"tol": 0.0}, {"eps_den": float("inf")}, {"notion": "X"}],
        ids=["tol-nan", "tol-0", "eps-den-inf", "notion"],
    )
    @pytest.mark.parametrize("signs", [[1, -1], [1, 1], [-1, -1]], ids=["mixed", "+", "-"])
    def test_direct_calls_refuse_settings_before_any_table(self, monkeypatch, kwargs, signs):
        monkeypatch.setattr(checker, "_copula_table", None)
        monkeypatch.setattr(checker, "_cdf_axes", None)
        spec, d = CopulaSpec("fgm", 2, {"lambda": 0.5}), make_direction(signs)
        checks = [scan_direction, check_direction_oracle]
        if "eps_den" not in kwargs:
            checks.append(check_direction_inequality)
        for check in checks:
            with pytest.raises(ValueError, match="tol|eps_den|Notion"):
                check(spec, d, GridSpec(3), **kwargs)

    @pytest.mark.parametrize("method", [METHOD_INEQUALITY, METHOD_ORACLE, METHOD_BOTH])
    def test_notion_letters_give_the_verdicts_of_the_members(self, method):
        spec, grid = CopulaSpec("fgm", 2, {"lambda": 0.5}), GridSpec(5)
        for notion in Notion:
            letter = scan_all_directions(spec, grid, method=method, notion=notion.value)
            assert letter == scan_all_directions(spec, grid, method=method, notion=notion)
            for v in letter:
                if v.counterexample is not None:
                    assert recheck_counterexample(spec, v.counterexample, notion=notion.value)

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


class TestLatticeCost:
    """Every scan entry charges the lattice before it builds a table.  For
    fgm (3,15) the 16^3 points of the copula table are charged 294,912
    bytes, and the 120^3 pairs of the inequality route 50,112,000 more."""

    SPEC, GRID, D = CopulaSpec("fgm", 3, {"lambda": 0.5}), GridSpec(15), make_direction([1, -1, 1])

    @pytest.mark.parametrize(
        "check", [scan_direction, check_direction_inequality, check_direction_oracle]
    )
    def test_a_table_too_big_for_memory_is_refused(self, monkeypatch, check):
        monkeypatch.setattr(checker, "_cdf_axes", None)
        monkeypatch.setattr(checker, "_MEMORY", 100_000)
        with pytest.raises(MemoryError, match=r"16\^3 points of the copula table"):
            check(self.SPEC, self.D, self.GRID)

    def test_only_the_inequality_route_is_charged_its_pairs(self, monkeypatch):
        with monkeypatch.context() as nothing_built:
            nothing_built.setattr(checker, "_cdf_axes", None)
            # at 50.2 MB the pairs fit alone, but not beside the tables
            for memory in (50_200_000, 1_000_000):
                monkeypatch.setattr(checker, "_MEMORY", memory)
                for check in (scan_direction, check_direction_inequality):
                    with pytest.raises(MemoryError, match=r"120\^3 pairs of the inequality route"):
                        check(self.SPEC, self.D, self.GRID)
                with pytest.raises(MemoryError, match=r"120\^3 pairs of the inequality route"):
                    scan_all_directions(self.SPEC, self.GRID)
            # an unsupported direction needs no table
            fgm4 = CopulaSpec("fgm", 4, {"lambda": 0.5})
            pure = check_direction_inequality(fgm4, make_direction([1] * 4), self.GRID)
            assert pure.outcome == UNSUPPORTED
        oracle = check_direction_oracle(self.SPEC, self.D, self.GRID)
        assert oracle.outcome == PASS_AT_RESOLUTION
        assert scan_direction(self.SPEC, self.D, self.GRID, METHOD_ORACLE).outcome == oracle.outcome


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelScan:
    """``scan_all_directions`` splits its directions into interleaved
    shares, scanning all but the first in forked workers; the CPUs are
    patched so that the tests do not depend on the machine, and under the
    ``cpus`` fixture a share needs only one comparison, so that these small
    scans fork."""

    @pytest.fixture(params=[2, 4], ids=["2cpus", "4cpus"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        monkeypatch.setattr(checker, "_SHARE_COMPARISONS", 1)
        return request.param

    @pytest.fixture
    def forks(self, monkeypatch):
        fork, calls = os.fork, []

        def counted():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def _in_workers_only(monkeypatch, fail):
        # ``fail`` runs in place of every direction's scan in a worker
        parent, scan = os.getpid(), checker.scan_direction

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                fail()
            return scan(*args, **kwargs)

        monkeypatch.setattr(checker, "scan_direction", failing)

    # two specs that give, at this test's grid, every verdict shape (outcome, method,
    # counterexample kind, max_slack is None, methods_agree) family_zoo() gives at its grids
    _SPECS = [CopulaSpec("fgm", 5, {"lambda": 0.5}), CopulaSpec("m", 4)]
    _INEQUALITY = {(PASS_AT_RESOLUTION, METHOD_INEQUALITY, None, False, None),
                   (REFUTED, METHOD_INEQUALITY, "pair", False, None),
                   (UNSUPPORTED, METHOD_INEQUALITY, None, True, None)}
    _ORACLE_D = {(REFUTED, METHOD_ORACLE, "step", False, None),
                 (UNSUPPORTED, METHOD_ORACLE, None, True, None)}
    _BOTH = {(PASS_AT_RESOLUTION, METHOD_INEQUALITY, None, False, None),
             (REFUTED, METHOD_BOTH, "pair", False, True),
             (REFUTED, METHOD_ORACLE, "step", False, None)}
    _SHAPES = {
        (METHOD_INEQUALITY, "I"): _INEQUALITY, (METHOD_INEQUALITY, "D"): _INEQUALITY,
        (METHOD_ORACLE, "I"): _ORACLE_D | {(PASS_AT_RESOLUTION, METHOD_ORACLE, None, False, None)},
        (METHOD_ORACLE, "D"): _ORACLE_D,
        (METHOD_BOTH, "I"): _BOTH | {(PASS_AT_RESOLUTION, METHOD_BOTH, None, False, True),
                                     (PASS_AT_RESOLUTION, METHOD_ORACLE, None, False, None)},
        (METHOD_BOTH, "D"): _BOTH | {(REFUTED, METHOD_BOTH, "step", False, False)},
    }

    @pytest.mark.parametrize("notion", list(Notion), ids=lambda n: n.value)
    @pytest.mark.parametrize("method", [METHOD_INEQUALITY, METHOD_ORACLE, METHOD_BOTH])
    def test_verdicts_do_not_depend_on_the_cpus(self, monkeypatch, cpus, forks, method, notion):
        grid, shapes = GridSpec(2), set()
        for spec in self._SPECS:
            every = all_directions(spec.dim)
            # out of lattice order, so that the verdicts' order is the request's
            for chosen in (None, every[-1:], every[::-1][:2], [every[2], every[0], every[-1]]):
                kwargs = dict(method=method, notion=notion, directions=chosen)
                shared = scan_all_directions(spec, grid, **kwargs)
                with monkeypatch.context() as one_cpu:
                    one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
                    assert shared == scan_all_directions(spec, grid, **kwargs), spec.describe()
                assert [v.direction for v in shared] == list(chosen or every)
                shapes |= {(v.outcome, v.method, v.counterexample and v.counterexample.kind,
                            v.max_slack is None, v.methods_agree) for v in shared}
        _no_child_left()
        assert shapes == self._SHAPES[method, notion.value]
        # each scan of all 2^n >= 4 directions forks a worker per share but the first
        assert len(forks) >= len(self._SPECS) * (cpus - 1)

    @pytest.mark.parametrize(
        "error", [MemoryError("worker out of memory"), ValueError("worker refused")],
        ids=["memory", "value"],
    )
    def test_a_worker_exception_reaches_the_caller(self, monkeypatch, capsys, cpus, error):
        def fail():
            raise error

        self._in_workers_only(monkeypatch, fail)
        spec = CopulaSpec("fgm", 3, {"lambda": 0.5})
        with pytest.raises(type(error)) as raised:
            scan_all_directions(spec, GridSpec(4))
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        _no_child_left()
        argv = ["check", "--family", "fgm", "--dim", "3", "--lambda", "0.5", "--grid", "4"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("dirmono: error:")
        assert str(error) in captured.err and "Traceback" not in captured.err
        _no_child_left()

    def test_an_exception_here_stops_the_workers(self, monkeypatch, cpus):
        parent, scan = os.getpid(), checker.scan_direction

        def slow_workers(*args, **kwargs):
            if os.getpid() == parent:
                raise ValueError("refused here")
            time.sleep(30)
            return scan(*args, **kwargs)

        monkeypatch.setattr(checker, "scan_direction", slow_workers)
        start = time.monotonic()
        with pytest.raises(ValueError, match="refused here"):
            scan_all_directions(CopulaSpec("fgm", 3, {"lambda": 0.5}), GridSpec(4))
        assert time.monotonic() - start < 10
        _no_child_left()

    @staticmethod
    def _ends_without_a_result(capsys):
        spec = CopulaSpec("fgm", 3, {"lambda": 0.5})
        with pytest.raises(ChildProcessError, match="ended without a result"):
            scan_all_directions(spec, GridSpec(4))
        _no_child_left()
        argv = ["check", "--family", "fgm", "--dim", "3", "--lambda", "0.5", "--grid", "4"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dirmono: error: a scan worker ended without a result\n"
        _no_child_left()

    def test_a_worker_without_a_result_is_one_error_line(self, monkeypatch, capsys, cpus):
        self._in_workers_only(monkeypatch, lambda: os._exit(1))
        self._ends_without_a_result(capsys)

    def test_a_truncated_result_is_one_error_line(self, monkeypatch, capsys, cpus):
        # a worker that dies while it writes, say killed while blocked on a
        # full pipe, leaves the first part of its pickle
        parent, dumps = os.getpid(), pickle.dumps

        def cut_short(obj):
            data = dumps(obj)
            return data if os.getpid() == parent else data[: len(data) // 2]

        monkeypatch.setattr(pickle, "dumps", cut_short)
        self._ends_without_a_result(capsys)

    @pytest.mark.parametrize("method", [METHOD_ORACLE, METHOD_BOTH])
    def test_workers_are_capped_by_the_lattice_charge(self, monkeypatch, cpus, forks, method):
        spec, grid = CopulaSpec("fgm", 3, {"lambda": 0.5}), GridSpec(4)
        shared = scan_all_directions(spec, grid, method=method)
        charge = checker._check_lattice(3, 4, method)
        for admitted in (1, 2):
            forks.clear()
            monkeypatch.setattr(checker, "_MEMORY", admitted * charge + charge - 1)
            assert scan_all_directions(spec, grid, method=method) == shared
            assert len(forks) == admitted - 1
        _no_child_left()

    def test_no_fork_for_one_charge_or_one_direction(self, monkeypatch, cpus):
        def refused():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refused)
        spec, grid = CopulaSpec("fgm", 3, {"lambda": 0.5}), GridSpec(4)
        one = [make_direction([1, -1, 1])]
        assert scan_all_directions(spec, grid, directions=one)[0].direction == one[0]
        monkeypatch.setattr(checker, "_MEMORY", checker._check_lattice(3, 4, METHOD_BOTH))
        assert len(scan_all_directions(spec, grid)) == 8

    def test_a_scan_too_small_for_a_fork_stays_here(self, monkeypatch):
        # with the real _SHARE_COMPARISONS, on 4 CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

        def refused():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refused)
        amh = CopulaSpec("amh", 2, {"delta": 0.5})
        for spec, g in [(CopulaSpec("fgm", 3, {"lambda": 0.5}), 4),
                        (CopulaSpec("survival", 2, inner=amh), 21)]:
            assert len(scan_all_directions(spec, GridSpec(g))) == 2**spec.dim

    def test_each_share_holds_the_least_work_of_a_fork(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        spec, grid = CopulaSpec("fgm", 3, {"lambda": 0.5}), GridSpec(4)
        here = scan_all_directions(spec, grid)
        work = 8 * checker._comparisons(3, 4, METHOD_BOTH, Notion.INCREASING)
        # two shares' worth of work on 4 CPUs: one worker
        monkeypatch.setattr(checker, "_SHARE_COMPARISONS", work // 2)
        assert scan_all_directions(spec, grid) == here
        assert len(forks) == 1
        _no_child_left()

    @pytest.mark.parametrize("n,g", [(2, 7), (3, 4), (4, 3)])
    def test_the_estimate_counts_the_inequality_pairs(self, n, g):
        spec, d = CopulaSpec("fgm", n, {"lambda": 0.5}), make_direction([1] + [-1] * (n - 1))
        verdict = check_direction_inequality(spec, d, GridSpec(g))
        for notion in Notion:
            assert checker._comparisons(n, g, METHOD_INEQUALITY, notion) == verdict.pairs_tested

    def test_a_failed_fork_scans_its_share_here(self, monkeypatch, cpus):
        spec, grid = CopulaSpec("fgm", 3, {"lambda": -0.5}), GridSpec(4)
        shared = scan_all_directions(spec, grid)

        def refused():
            raise OSError("no process to spare")

        monkeypatch.setattr(os, "fork", refused)
        assert scan_all_directions(spec, grid) == shared
        monkeypatch.delattr(os, "fork")
        assert scan_all_directions(spec, grid) == shared
        _no_child_left()

    def test_a_failed_pipe_scans_its_share_here(self, monkeypatch, capsys, cpus):
        # out of file descriptors, as a failed fork: each share is scanned here
        spec, grid = CopulaSpec("fgm", 5, {"lambda": 0.5}), GridSpec(2)
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
            here = scan_all_directions(spec, grid)

        def no_pipe():
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        def refused():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "pipe", no_pipe)
        monkeypatch.setattr(os, "fork", refused)
        assert scan_all_directions(spec, grid) == here
        argv = ["check", "--family", "fgm", "--dim", "5", "--lambda", "0.5", "--grid", "2"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == ""


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


class TestFgmLaw:
    """The FGM density is 1 + lambda * prod(1 - 2u_i), so fgm is I-monotone
    along d iff lambda * (-1)^|pos(d)| >= 0 and D-monotone iff it is <= 0
    (Nelsen, An Introduction to Copulas, 2nd ed., 2006): a ground truth
    that needs neither route."""

    CASES = [(n, g, lam) for n, g in [(2, 5), (3, 4), (4, 3), (5, 3), (6, 3)]
             for lam in (-1.0, -0.3, 0.3, 1.0)]

    @staticmethod
    def law(lam, d, notion):
        sign = lam * (-1) ** len(d.pos_idx)
        return sign >= 0 if notion is Notion.INCREASING else sign <= 0

    @pytest.mark.parametrize("n, g, lam", CASES)
    def test_both_routes_follow_the_law_under_increasing(self, n, g, lam):
        spec = CopulaSpec("fgm", n, {"lambda": lam})
        for v in scan_all_directions(spec, GridSpec(g), method=METHOD_BOTH):
            law = self.law(lam, v.direction, Notion.INCREASING)
            assert (v.outcome == PASS_AT_RESOLUTION) is law, v.direction.pretty()
            # pure directions beyond dim 3 are the oracle's alone
            assert v.methods_agree is (None if v.direction.is_pure and n > 3 else True)

    # under D the oracle fails its uninformative steps by construction
    # (ROADMAP item 2, pinned by the strict xfail in test_cli.py), so only
    # the inequality route is held to the law there; a non-exchangeable
    # family waits for item 1
    @pytest.mark.parametrize("n, g, lam", CASES)
    def test_inequality_follows_the_law_under_decreasing(self, n, g, lam):
        spec = CopulaSpec("fgm", n, {"lambda": lam})
        verdicts = scan_all_directions(
            spec, GridSpec(g), method=METHOD_INEQUALITY, notion=Notion.DECREASING
        )
        for v in verdicts:
            if v.direction.is_pure and n > 3:
                assert v.outcome == UNSUPPORTED
            else:
                assert (v.outcome == PASS_AT_RESOLUTION) is self.law(
                    lam, v.direction, Notion.DECREASING
                ), v.direction.pretty()


class TestProductLaw:
    """For the product copula F_d is a product of per-axis factors, so
    every swap of the inequality route is an equality, and an oracle step
    changes one factor of the conditional: an informative step compares 1
    with 1, and an uninformative one raises it.  So both routes pass every
    direction under I, and the inequality route passes every direction it
    supports under D, where the oracle fails its uninformative steps."""

    CASES = [(n, 3) for n in range(2, 7)] + [(2, 15), (3, 7), (4, 4)]

    @pytest.mark.parametrize("n, g", CASES)
    def test_both_routes_pass_under_increasing(self, n, g):
        for v in scan_all_directions(CopulaSpec("product", n), GridSpec(g), method=METHOD_BOTH):
            unsupported = v.direction.is_pure and n > 3
            assert v.oracle_outcome == PASS_AT_RESOLUTION, v.direction.pretty()
            assert v.inequality_outcome == (UNSUPPORTED if unsupported else PASS_AT_RESOLUTION)
            assert v.methods_agree is (None if unsupported else True)

    @pytest.mark.parametrize("n, g", CASES)
    def test_inequality_passes_under_decreasing(self, n, g):
        verdicts = scan_all_directions(
            CopulaSpec("product", n), GridSpec(g), METHOD_INEQUALITY, notion=Notion.DECREASING
        )
        for v in verdicts:
            expected = UNSUPPORTED if v.direction.is_pure and n > 3 else PASS_AT_RESOLUTION
            assert v.outcome == expected, v.direction.pretty()


class TestAmhLaw:
    """This code's AMH is uv/h with h = 1 + delta(1-u)(1-v), so
    d_u d_v log C = -delta/h^2: C is TP2 iff delta <= 0, and its reverse
    iff delta >= 0.  Along (-,-) F_d is C itself, and under I both routes
    ask for TP2 of it; under D the inequality route asks for the reverse."""

    DELTAS = (-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0)
    NEGATIVE = make_direction([-1, -1])

    @pytest.mark.parametrize("delta", DELTAS)
    def test_both_routes_pass_the_negative_direction_iff_delta_is_not_positive(self, delta):
        spec = CopulaSpec("amh", 2, {"delta": delta})
        v = scan_direction(spec, self.NEGATIVE, GridSpec(9), METHOD_BOTH)
        assert v.methods_agree is True
        assert (v.outcome == PASS_AT_RESOLUTION) is (delta <= 0)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_inequality_passes_it_under_decreasing_iff_delta_is_not_negative(self, delta):
        spec = CopulaSpec("amh", 2, {"delta": delta})
        v = scan_direction(spec, self.NEGATIVE, GridSpec(9), METHOD_INEQUALITY,
                           notion=Notion.DECREASING)
        assert (v.outcome == PASS_AT_RESOLUTION) is (delta >= 0)


class TestSurvivalReflection:
    """The survival copula of C is the law of 1 - U, so its F_d at u is
    C's F_{-d} at 1 - u.  Reflecting the lattice maps each comparison
    along d to one of C's along -d, so survival-of C along d has C's
    outcome along -d, for each route and both notions."""

    INNER = [CopulaSpec("fgm", n, {"lambda": 0.5}) for n in (2, 3, 4)] + [
        CopulaSpec("amh", 2, {"delta": -0.5}),
        CopulaSpec("amh", 2, {"delta": 0.7}),
        CopulaSpec("w", 2),
        CopulaSpec("m", 3),
        CopulaSpec("convexpim", 3, {"theta": 0.3}),
        CopulaSpec("product", 3),
    ]
    GRIDS = {2: 15, 3: 7, 4: 4}

    @pytest.mark.parametrize("notion", list(Notion), ids=lambda n: n.value)
    @pytest.mark.parametrize("method", [METHOD_INEQUALITY, METHOD_ORACLE])
    @pytest.mark.parametrize("inner", INNER, ids=lambda s: s.describe())
    def test_survival_along_d_has_the_outcome_along_minus_d(self, inner, method, notion):
        grid = GridSpec(self.GRIDS[inner.dim])
        outcomes = {
            v.direction.signs: v.outcome
            for v in scan_all_directions(inner, grid, method=method, notion=notion)
        }
        for v in scan_all_directions(_survival_of(inner), grid, method=method, notion=notion):
            reflected = tuple(-s for s in v.direction.signs)
            assert v.outcome == outcomes[reflected], v.direction.pretty()


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

    @pytest.mark.parametrize("missing", ["target", "axis"])
    def test_step_without_target_or_axis_is_a_value_error(self, missing):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        v = scan_direction(spec, make_direction([1, -1]), GridSpec(9), METHOD_ORACLE)
        cex = v.counterexample
        assert cex.kind == "step" and recheck_counterexample(spec, cex)
        with pytest.raises(ValueError, match="target and an axis"):
            recheck_counterexample(spec, replace(cex, **{missing: None}))

    def test_a_step_whose_conditional_is_undefined_is_not_confirmed(self):
        # W has no mass below the later condition (0.3, 0.6), only below the earlier
        d = make_direction([-1, -1])
        cex = Counterexample(d, (0.3, 0.6), (0.6, 0.6), 1.0, 0.0, kind="step",
                             target=(0.5, 0.5), axis=0)
        assert conditional_prob(CopulaSpec("w", 2), d, cex.target, cex.u_high) is not None
        assert recheck_counterexample(CopulaSpec("w", 2), cex) is False

    def test_an_unknown_kind_is_a_value_error(self):
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        cex = scan_direction(spec, make_direction([1, -1]), GridSpec(9)).counterexample
        with pytest.raises(ValueError, match="unknown counterexample kind 'box'"):
            recheck_counterexample(spec, replace(cex, kind="box"))

    @pytest.mark.parametrize("method", [METHOD_INEQUALITY, METHOD_ORACLE])
    def test_nan_tol_is_a_value_error_before_any_evaluation(self, monkeypatch, method):
        # a nan tol would re-verify no counterexample, pair or step
        spec = CopulaSpec("fgm", 2, {"lambda": 0.5})
        cex = scan_direction(spec, make_direction([1, -1]), GridSpec(9), method).counterexample
        assert recheck_counterexample(spec, cex)
        monkeypatch.setattr(checker, "check_pair", None)
        monkeypatch.setattr(checker, "conditional_prob", None)
        with pytest.raises(ValueError, match="tol must not be nan"):
            recheck_counterexample(spec, cex, tol=float("nan"))

    @pytest.mark.parametrize("eps_den", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_eps_den_is_a_value_error(self, eps_den):
        # both conditions have no mass, so without the check 0.0 divides by zero
        d = make_direction([-1, -1])
        cex = Counterexample(d, (0.2, 0.3), (0.3, 0.3), 0.0, 0.0, kind="step",
                             target=(0.5, 0.5), axis=0)
        with pytest.raises(ValueError, match="eps_den must be finite"):
            recheck_counterexample(CopulaSpec("w", 2), cex, eps_den=eps_den)


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
                        kind="step", target=tuple(pts[list(t)]), axis=k,
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
        # g = 3, and a chain at join j has j + 1 conditions.  1 makes every
        # block a single pair; 2 splits a chain into uneven chunks of 2 and
        # 1, with one pair on each other axis, at n = 2 and n = 3; 7 takes
        # a whole chain with one pair on the other axis at n = 2, and one
        # condition with one pair on the next axis and every pair of the
        # last at n = 3; 25 takes one condition with every pair of the
        # other axis at n = 2, and being below 6^2, up to 4 conditions with
        # one pair on the next axis at n = 3; 150 takes a whole chain with
        # every pair of the other axes at n = 2 and n = 3
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
        # a larger tol can move the first violation to a later condition
        # and target, where a join equal to the condition stands for
        # several targets, of which the locate step must report the first
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
        # both blocks take one pair at a time of the axis after the chain's
        # (6 pairs per axis at g = 3, 15 at g = 5), a head axis, whose steps
        # only its own chains take, and m's mixed and w's pure directions
        # leave some conditions undefined, so the count, the masked maximum
        # and the first violation all meet undefined steps on a head axis
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

    @pytest.mark.parametrize("block", [1, 7, 25, 16 * 81, checker._BLOCK])
    @pytest.mark.parametrize(
        "spec, signs, target",
        [(CopulaSpec("w", 2), (-1, -1), 5), (CopulaSpec("m", 4), (-1, -1, -1, 1), 39)],
        ids=["w2", "m4"],
    )
    def test_locates_a_deep_first_violation(self, monkeypatch, spec, signs, target, block):
        # the first violating target is the 6th of 9 and the 40th of 81 in
        # lattice order, behind targets whose violations come later in
        # the scan; blocks of 25 and the default hold several rows of a
        # chain.  The locate step takes one target at a time below
        # 81 pairs; blocks of 16 * 81 give it chunks of 1, 2, 4, 8 and 16
        # targets, the last of which, targets 31 to 46, holds target 39
        d, g = make_direction(signs), 3
        monkeypatch.setattr(checker, "_BLOCK", block)
        points = list(GridSpec(g).points())
        for notion, scalar in _scalar_oracle_scan(spec, d, g).items():
            gathered = check_direction_oracle(spec, d, GridSpec(g), notion=notion)
            assert _summary(gathered) == scalar, notion
            at = [points.index(x) for x in gathered.counterexample.target]
            assert np.ravel_multi_index(at, (g,) * spec.dim) == target

    @pytest.mark.parametrize(
        "spec, signs, notion, share, target",
        [
            (CopulaSpec("amh", 2, {"delta": -1.0}), (1, -1), Notion.INCREASING, 0.99, 3),
            (CopulaSpec("convexpim", 3, {"theta": 0.5}), (-1, 1, 1), Notion.DECREASING, 0.99, 20),
        ],
        ids=["amh2", "convexpim3"],
    )
    def test_first_violation_in_a_chunk_past_the_last_target(
        self, spec, signs, notion, share, target
    ):
        # chunks of 1, 2, 4, 8 and 16 targets: the first violating target,
        # the 4th of 4 and the 21st of 27, is in a chunk that the lattice
        # cuts short
        d, g = make_direction(signs), 3 if spec.dim == 3 else 2
        tol = check_direction_oracle(spec, d, GridSpec(g), notion=notion).max_slack * share
        gathered = check_direction_oracle(spec, d, GridSpec(g), tol=tol, notion=notion)
        assert _summary(gathered) == _scalar_oracle_scan(spec, d, g, tol=tol)[notion]
        points = list(GridSpec(g).points())
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
        # these blocks split the lattice so that a locate step that
        # followed the scan's blocks, not the targets in lattice order,
        # could report a later violation (convexpim under both notions,
        # product under the decreasing one)
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
        # fgm (2,12) in blocks of 25 pairs runs 2 x 78 x 12 chains (per
        # axis, a pair of the other axis and the conditions' own joins or
        # one join), most of whose rows violate the decreasing notion;
        # the scan keeps no entry per violating row, and
        # the locate step takes one target of 144 conditions at a time,
        # about 15 KiB at peak
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

    def test_locate_peak_at_the_default_block(self):
        # the first violating target of m (4,6) along (-,-,+,-) under D is
        # the 259th of 1296, so the locate step reaches its largest chunks,
        # 12 targets of 1296 conditions; the call, tables included, peaks
        # at about 520 KiB
        spec, d, grid = CopulaSpec("m", 4), make_direction([-1, -1, 1, -1]), GridSpec(6)
        tracemalloc.start()
        try:
            v = check_direction_oracle(spec, d, grid, notion=Notion.DECREASING)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.outcome == REFUTED
        assert peak < 640 * 2**10


def _maximum_cases():
    # at the default block, every spec at the lattice of the verdict
    # digest's zoo grid, and the dim-2 ones at g = 9 as well, at eps_den
    # 1e-12, 0.05 and 0.3; in blocks of 1 and 7 pairs, to keep the time
    # down, the zoo grid without n = 5, as in the digest, at the two ends
    grids = {2: 6, 3: 4, 4: 3, 5: 3}
    cases = [(s, grids[s.dim], checker._BLOCK, (1e-12, 0.05, 0.3)) for s in family_zoo()]
    cases += [(s, 9, checker._BLOCK, (1e-12, 0.05, 0.3)) for s in family_zoo() if s.dim == 2]
    for block in (1, 7):
        cases += [(s, grids[s.dim], block, (1e-12, 0.3)) for s in family_zoo() if s.dim < 5]
    return [pytest.param(*c, id=f"{c[0].describe()}-g{c[1]}-block{c[2]}") for c in cases]


class TestOracleMaximum:
    @pytest.mark.parametrize("spec, g, block, eps_dens", _maximum_cases())
    def test_max_slack_is_the_dense_maximum(self, monkeypatch, spec, g, block, eps_dens):
        # bit for bit, by repr, so that a changed last bit or sign of zero
        # shows; small blocks step along head axes, and carry rows from one
        # block to the next
        monkeypatch.setattr(checker, "_BLOCK", block)
        grid = GridSpec(g)
        ctable = checker._copula_table(spec, grid)
        for d in all_directions(spec.dim):
            table = checker._orthant_table(ctable, d)
            for (notion, eps_den), dense in oracle_max_slack(table, d.signs, eps_dens).items():
                v = check_direction_oracle(spec, d, grid, DEFAULT_TOL, eps_den, notion, table=table)
                expected = None if dense == -np.inf else dense
                assert repr(v.max_slack) == repr(expected), (d.pretty(), notion, eps_den)

    @pytest.mark.parametrize(
        "spec, g, signs, eps_den, dense, informative",
        [
            (CopulaSpec("m", 2), 9, (1, 1), 1e-12, 6.661338147750939e-16, 5.551115123125783e-16),
            (CopulaSpec("m", 2), 9, (1, 1), 0.05, 6.661338147750939e-16, 5.551115123125783e-16),
            (CopulaSpec("convexpim", 2, {"theta": 0.0}), 9, (1, 1), 1e-12,
             6.661338147750939e-16, 5.551115123125783e-16),
            (CopulaSpec("convexpim", 2, {"theta": 0.0}), 9, (1, 1), 0.05,
             6.661338147750939e-16, 5.551115123125783e-16),
            (_survival_of(CopulaSpec("w", 2)), 6, (1, -1), 0.3,
             5.551115123125783e-16, 2.220446049250313e-16),
            (_survival_of(CopulaSpec("w", 2)), 6, (-1, 1), 0.3,
             5.551115123125783e-16, 2.220446049250313e-16),
        ],
        ids=["m2-1e-12", "m2-0.05", "convexpim0-1e-12", "convexpim0-0.05", "sw+-", "sw-+"],
    )
    def test_an_uninformative_step_sets_the_maximum(
        self, spec, g, signs, eps_den, dense, informative
    ):
        # passes under I whose maximum only a step that leaves the join where
        # it is reaches: a scan that read the informative steps alone here
        # would report the smaller maximum
        d, grid = make_direction(signs), GridSpec(g)
        table = checker._orthant_table(checker._copula_table(spec, grid), d)
        v = check_direction_oracle(spec, d, grid, eps_den=eps_den, table=table)
        assert v.outcome == PASS_AT_RESOLUTION
        key = Notion.INCREASING, eps_den
        assert v.max_slack == oracle_max_slack(table, signs, [eps_den])[key] == dense
        assert oracle_max_slack(table, signs, [eps_den], informative_only=True)[key] == informative
        assert informative < dense


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
