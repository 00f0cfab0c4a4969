"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Scan results are cached so the method-equivalence criterion can audit
exactly the verdicts produced by the classification criteria.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dirmono import (
    CopulaSpec,
    GridSpec,
    PASS_AT_RESOLUTION,
    REFUTED,
    cdf,
    make_direction,
    orthant_prob,
    scan_all_directions,
    survival_cdf,
)
from helpers import (
    Box,
    all_sign_vectors,
    bf_orthant,
    bivariate_zoo,
    box_volume,
    family_zoo,
    frechet_lower,
    frechet_upper,
    point_fn,
    run_main,
    survival2_closed_form,
)

REPO = Path(__file__).resolve().parent.parent

TOL = 1e-9

_scan_cache: dict = {}


def record(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {cid}: {status}  {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def timed_scan(spec, grid, method="both", directions=None):
    key = (spec, grid, method, directions if directions is None else tuple(directions))
    if key not in _scan_cache:
        start = time.perf_counter()
        dirs = None if directions is None else [make_direction(s) for s in directions]
        verdicts = scan_all_directions(
            spec, GridSpec(grid), method=method, tol=TOL, directions=dirs
        )
        _scan_cache[key] = (verdicts, time.perf_counter() - start)
    return _scan_cache[key]


def outcome_sets(verdicts):
    passed = {v.direction.signs for v in verdicts if v.outcome == PASS_AT_RESOLUTION}
    refuted = {v.direction.signs for v in verdicts if v.outcome == REFUTED}
    return passed, refuted


def test_criterion_1_fgm_bivariate_classification():
    mixed = {(1, -1), (-1, 1)}
    pure = {(1, 1), (-1, -1)}
    worst = 0.0
    for lam in (0.25, 0.5, 1.0, -0.25, -0.5, -1.0):
        spec = CopulaSpec("fgm", 2, {"lambda": lam})
        verdicts, elapsed = timed_scan(spec, 21, "both")
        worst = max(worst, elapsed)
        passed, refuted = outcome_sets(verdicts)
        expected_pass = pure if lam > 0 else mixed
        expected_refute = mixed if lam > 0 else pure
        assert passed == expected_pass, f"lambda={lam}: passed {passed}"
        assert refuted == expected_refute, f"lambda={lam}: refuted {refuted}"
        assert all(
            v.counterexample is not None
            for v in verdicts
            if v.outcome == REFUTED
        )
        assert elapsed < 2.0, f"lambda={lam} took {elapsed:.2f} s"
    record(1, True, f"six lambdas at g=21, worst scan {worst:.2f} s")


def test_criterion_2_amh_classification():
    mixed = {(1, -1), (-1, 1)}
    pure = {(1, 1), (-1, -1)}
    worst = 0.0
    for delta in (0.5, -0.5):
        spec = CopulaSpec("amh", 2, {"delta": delta})
        verdicts, elapsed = timed_scan(spec, 21, "both")
        worst = max(worst, elapsed)
        passed, refuted = outcome_sets(verdicts)
        expected_pass = mixed if delta > 0 else pure
        expected_refute = pure if delta > 0 else mixed
        assert passed == expected_pass, f"delta={delta}: passed {passed}"
        assert refuted == expected_refute, f"delta={delta}: refuted {refuted}"
        assert elapsed < 2.0, f"delta={delta} took {elapsed:.2f} s"
    record(2, True, f"delta=+/-0.5 at g=21, worst scan {worst:.2f} s")


def test_criterion_3_frechet_bound_copulas():
    w_verdicts, w_elapsed = timed_scan(CopulaSpec("w", 2), 21, "both")
    m_verdicts, m_elapsed = timed_scan(CopulaSpec("m", 2), 21, "both")
    w_pass, w_refuted = outcome_sets(w_verdicts)
    m_pass, m_refuted = outcome_sets(m_verdicts)
    assert w_pass == {(1, -1), (-1, 1)}, f"W2 passed {w_pass}"
    assert w_refuted == {(1, 1), (-1, -1)}
    assert m_pass == {(1, 1), (-1, -1)}, f"M2 passed {m_pass}"
    assert m_refuted == {(1, -1), (-1, 1)}
    assert max(w_elapsed, m_elapsed) < 2.0
    record(3, True, f"W2 mixed-only, M2 pure-only at g=21 ({max(w_elapsed, m_elapsed):.2f} s)")


def test_criterion_4_fgm_trivariate_classification():
    neg_expected = {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
    pos_expected = {s for s in all_sign_vectors(3)} - neg_expected
    worst = 0.0
    for lam, expected in ((-0.5, neg_expected), (0.5, pos_expected)):
        spec = CopulaSpec("fgm", 3, {"lambda": lam})
        verdicts, elapsed = timed_scan(spec, 9, "both")
        worst = max(worst, elapsed)
        passed, refuted = outcome_sets(verdicts)
        assert passed == expected, f"lambda={lam}: passed {passed}"
        assert refuted == {s for s in all_sign_vectors(3)} - expected
        assert elapsed < 60.0
    record(4, True, f"lambda=+/-0.5 at g=9, worst scan {worst:.2f} s")


def test_criterion_5_fgm_parity_rule_dim_four():
    spec = CopulaSpec("fgm", 4, {"lambda": 0.5})
    verdicts, elapsed = timed_scan(spec, 6, "both")
    even = {s for s in all_sign_vectors(4) if sum(1 for x in s if x > 0) % 2 == 0}
    odd = {s for s in all_sign_vectors(4)} - even
    passed, refuted = outcome_sets(verdicts)
    assert passed == even, f"passed {passed}"
    assert refuted == odd
    for v in verdicts:
        if v.direction.is_pure:
            assert v.method == "oracle"
            assert v.inequality_outcome == "unsupported"
        else:
            assert v.methods_agree is True
    assert elapsed < 600.0, f"took {elapsed:.1f} s"
    record(5, True, f"8 even-|J| pass, 8 odd-|J| refuted at g=6 ({elapsed:.1f} s)")


def test_criterion_6_product_universality():
    worst_slack = 0.0
    for n, g in ((2, 21), (3, 9), (4, 6)):
        verdicts, _ = timed_scan(CopulaSpec("product", n), g, "both")
        assert all(v.outcome == PASS_AT_RESOLUTION for v in verdicts)
        slack = max(v.max_slack for v in verdicts if v.max_slack is not None)
        worst_slack = max(worst_slack, slack)
        assert slack <= 1e-12, f"n={n}: slack {slack:.2e}"
    record(6, True, f"n=2,3,4 all directions pass, worst slack {worst_slack:.2e}")


def test_criterion_7_pure_directions_of_min_and_convex_mix():
    pure = [(1, 1, 1), (-1, -1, -1)], [(1, 1, 1, 1), (-1, -1, -1, -1)]
    for n, dirs in ((3, pure[0]), (4, pure[1])):
        g = GridSpec.default_resolution(n)
        specs = [CopulaSpec("m", n)]
        specs += [CopulaSpec("convexpim", n, {"theta": t}) for t in (0.0, 0.5, 1.0)]
        for spec in specs:
            verdicts, _ = timed_scan(spec, g, "oracle", directions=dirs)
            assert all(
                v.outcome == PASS_AT_RESOLUTION for v in verdicts
            ), f"{spec.describe()} n={n}"
    record(7, True, "m and convexpim (theta in {0, 0.5, 1}) pass both pure directions, n=3,4")


def test_criterion_8_method_equivalence_across_classification_runs():
    # every (family, parameter, grid) combination used by criteria 1-5;
    # the cache makes this free when those already ran
    combos = [(CopulaSpec("fgm", 2, {"lambda": lam}), 21)
              for lam in (0.25, 0.5, 1.0, -0.25, -0.5, -1.0)]
    combos += [(CopulaSpec("amh", 2, {"delta": d}), 21) for d in (0.5, -0.5)]
    combos += [(CopulaSpec("w", 2), 21), (CopulaSpec("m", 2), 21)]
    combos += [(CopulaSpec("fgm", 3, {"lambda": lam}), 9) for lam in (-0.5, 0.5)]
    combos += [(CopulaSpec("fgm", 4, {"lambda": 0.5}), 6)]
    audited = 0
    for spec, g in combos:
        verdicts, _ = timed_scan(spec, g, "both")
        for v in verdicts:
            if v.inequality_outcome in (PASS_AT_RESOLUTION, REFUTED):
                assert v.methods_agree is True, (
                    f"{spec.describe()} {v.direction.pretty()}: "
                    f"inequality={v.inequality_outcome} oracle={v.oracle_outcome}"
                )
                audited += 1
    assert audited >= 40
    record(8, True, f"inequality and oracle agree on {audited} direction verdicts")


def test_criterion_9_orthant_matches_brute_force():
    rng = np.random.default_rng(42)
    checked = 0
    for spec in family_zoo():
        fn = point_fn(spec)
        for signs in all_sign_vectors(spec.dim):
            d = make_direction(signs)
            for _ in range(4):
                v = tuple(rng.random(spec.dim))
                expected = bf_orthant(fn, signs, v)
                got = orthant_prob(spec, d, v)
                assert got == pytest.approx(expected, abs=1e-12)
                checked += 1
    assert checked >= 1000
    record(9, True, f"{checked} random (spec, direction, point) triples within 1e-12")


def test_criterion_10_copula_axiom_suite():
    rng = np.random.default_rng(43)
    families_checked = 0
    for spec in family_zoo():
        n = spec.dim
        fn = point_fn(spec)
        # groundedness and uniform margins
        for _ in range(25):
            u = rng.random(n)
            for i in range(n):
                zeroed = u.copy()
                zeroed[i] = 0.0
                assert cdf(spec, zeroed) == pytest.approx(0.0, abs=1e-12)
                margin = np.ones(n)
                margin[i] = u[i]
                assert cdf(spec, margin) == pytest.approx(u[i], abs=1e-12)
        # n-increasing on 100 random boxes
        for _ in range(100):
            a, b = rng.random(n), rng.random(n)
            box = Box(tuple(np.minimum(a, b)), tuple(np.maximum(a, b)))
            assert box_volume(fn, box) >= -1e-12, spec.describe()
        # pointwise bounds on 1000 random points
        pts = rng.random((1000, n))
        vals = cdf(spec, pts)
        lows = np.array([frechet_lower(p) for p in pts])
        highs = np.array([frechet_upper(p) for p in pts])
        assert (vals >= lows - 1e-12).all(), spec.describe()
        assert (vals <= highs + 1e-12).all(), spec.describe()
        families_checked += 1
    record(10, True, f"{families_checked} specs passed groundedness/margins/volume/bounds")


def test_criterion_11_survival_identities():
    rng = np.random.default_rng(44)
    checked = 0
    specs = bivariate_zoo()
    per_spec = max(1, 1100 // len(specs)) + 1
    for spec in specs:
        fn = point_fn(spec)
        for _ in range(per_spec):
            u, v = rng.random(2)
            expected = survival2_closed_form(fn, u, v)
            assert survival_cdf(spec, (u, v)) == pytest.approx(expected, abs=1e-12)
            checked += 1
    assert checked >= 1000
    # reflection invariance of the bivariate fgm family
    for lam in (-1.0, -0.5, 0.25, 1.0):
        spec = CopulaSpec("fgm", 2, {"lambda": lam})
        for _ in range(100):
            u = tuple(rng.random(2))
            assert survival_cdf(spec, u) == pytest.approx(cdf(spec, u), abs=1e-12)
    record(11, True, f"{checked} closed-form checks plus fgm reflection invariance")


def test_oracle_reports_match_pinned():
    # scans that the fixtures do not cover (the D notion, large and tiny
    # --eps-den, n = 4 and 5, a survival-of family, inequality alone),
    # pinned as the scans reported them before the oracle moved to an
    # oriented table or, for the last three, before the routes read one
    # copula table per scan; compared as json text, timing removed, so a
    # changed last bit or sign of zero shows
    pinned = json.loads((REPO / "tests" / "oracle_reports.json").read_text())
    for name, case in pinned.items():
        code, out, _ = run_main(case["argv"])
        report = json.loads(out)
        del report["timing"]
        assert code == case["exit_code"], name
        assert json.dumps(report) == json.dumps(case["report"]), name
    print(f"[acceptance] pinned oracle reports: PASS  {len(pinned)} scans byte-identical")
