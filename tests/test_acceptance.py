"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single [acceptance] PASS line once its assertions all
hold (pytest -rA surfaces them in the summary).  Runtime ceilings are
asserted inside the tests that carry one.
"""

import json
import time
from dataclasses import replace
from itertools import product

from click.testing import CliRunner

from conftest import DIST1, DIST2, sweep_candidates

from cyclotome import (
    CharSystem,
    TheoremCase,
    brute_distribution,
    build_code,
    build_tower,
    class_counts,
    classify,
    f_charsum,
    f_closed,
    instantiate_table,
    semi_analytic_distribution,
    table_distribution,
)
from cyclotome.charsums import lifted_sums
from cyclotome.cli import main

SET1 = (7, 1, 2, 3)
SET2 = (2, 2, 3, 3)


def _build(p, s, m, h):
    tower = build_tower(p, s, m)
    params = build_code(tower, h, 3)
    case = classify(params)
    assert isinstance(case, TheoremCase)
    return tower, params, case


def _three_way(p, s, m, h, expected, limit):
    start = time.monotonic()
    tower, params, case = _build(p, s, m, h)
    brute = brute_distribution(params)
    semi = semi_analytic_distribution(params)
    table = table_distribution(params)
    elapsed = time.monotonic() - start
    assert brute == semi == table
    assert brute == expected
    assert elapsed < limit
    return case, elapsed


def test_criterion_1_three_way_equality_set1():
    case, elapsed = _three_way(*SET1, DIST1, limit=5.0)
    assert case.label == "2.1"
    print(f"[acceptance] 1 PASS: (7,1,2,3,3) brute = semi = table = {DIST1} ({elapsed:.2f}s < 5s)")


def test_criterion_2_three_way_equality_set2():
    case, elapsed = _three_way(*SET2, DIST2, limit=10.0)
    assert case.label == "2.2"
    # the merge is exercised: two table rows collide at weight 36
    raw = instantiate_table(case, build_code(build_tower(2, 2, 3), 3, 3))
    assert raw[36] == 252
    print(f"[acceptance] 2 PASS: (2,2,3,3,3) brute = semi = table = {DIST2} ({elapsed:.2f}s < 10s)")


def test_criterion_3_f_triple_agreement():
    start = time.monotonic()
    total_pairs = 0
    for pset in (SET1, SET2):
        tower, params, case = _build(*pset)
        system = CharSystem(tower, params.N)
        counts = class_counts(params)
        assert counts == f_charsum(params, lifted_sums(system, 1)[1]) == f_closed(params, case)
        assert set(counts) == set(product(range(params.N), repeat=2))  # no pair is empty here
        total_pairs += len(counts)
    elapsed = time.monotonic() - start
    assert total_pairs == 4 + 9
    assert elapsed < 30.0
    print(f"[acceptance] 3 PASS: H enumerate = charsum = closed on all {total_pairs} difference pairs ({elapsed:.2f}s < 30s)")


def test_criterion_4_jacobi_gauss_identities():
    import math

    for pset in (SET1, SET2):
        tower, params, case = _build(*pset)
        system = CharSystem(tower, params.N)
        n, r = params.N, tower.r
        assert system.jacobi_sum(n, n) == r - 2
        for i in range(1, n):
            assert system.jacobi_sum(i, n - i) == -1
        big = math.lcm(tower.p, n)
        for i in range(1, n):
            for j in range(1, n):
                if i + j == n:
                    continue
                k = (i + j - 1) % n + 1
                lhs = system.gauss_sum(k) * system.jacobi_sum(i, j).embed(big)
                assert lhs == system.gauss_sum(i) * system.gauss_sum(j)
                # major case 2 value: (-1)**(gamma+1) sqrt(r)
                assert case.case_major == 2
                assert system.jacobi_sum(i, j).as_integer() == -case.sign * case.sqrt_r
                assert -case.sign * case.sqrt_r == (-1) ** (case.gamma + 1) * case.sqrt_r
    print("[acceptance] 4 PASS: J(eps,eps) = r-2, J(i,N-i) = -1, tau relation, case-2 value, both sets")


def test_criterion_5_gaussian_periods():
    expected = {SET1: [3, -4], SET2: [5, -3, -3]}
    for pset in (SET1, SET2):
        tower, params, case = _build(*pset)
        system = CharSystem(tower, params.N)
        assert system.periods == case.periods == expected[pset]
        assert sum(system.periods) == -1
    print("[acceptance] 5 PASS: enumerated periods are integers, match closed forms, sum to -1")


def test_criterion_6_partition_and_moment_identities():
    for pset in (SET1, SET2):
        tower, params, case = _build(*pset)
        r, q, n = tower.r, tower.q, params.n
        # every y in GF(r) and infinity, less the three points y = -beta**t
        assert sum(class_counts(params).values()) == r - 2
        dist = brute_distribution(params)
        assert sum(dist.values()) == r * r
        assert sum(w * f for w, f in dist.items()) * q == n * r * r * (q - 1)
    print("[acceptance] 6 PASS: sum H = r-2; sum A_w = r^2; sum w A_w = n r^2 (q-1)/q")


def test_criterion_7_defining_polynomial_invariance():
    runner = CliRunner()
    base = runner.invoke(
        main,
        ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "all"],
        catch_exceptions=False,
    )
    alt = runner.invoke(
        main,
        ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "all",
         "--poly", "3,2,1"],
        catch_exceptions=False,
    )
    assert base.exit_code == 0 and alt.exit_code == 0
    base_report, alt_report = json.loads(base.output), json.loads(alt.output)
    assert base_report["checks"]["methods_agree"] and alt_report["checks"]["methods_agree"]
    assert base_report["distribution"] == alt_report["distribution"]
    print("[acceptance] 7 PASS: --poly 3,2,1 reproduces the identical distribution for set (1)")


def test_criterion_8_n2_table_coincidence():
    # discover N = 2 parameter sets by sweeping, then instantiate both
    # sign-pattern tables and compare as distributions
    found = []
    for p, s, m, h in sweep_candidates(600, 3):
        try:
            params = build_code(build_tower(p, s, m), h, 3)
        except Exception:
            continue
        case = classify(params)
        if isinstance(case, str):
            continue
        if params.N == 2 and case.case_minor == 1:
            t11 = instantiate_table(replace(case, case_major=1), params)
            t21 = instantiate_table(replace(case, case_major=2), params)
            assert t11 == t21, (p, s, m, h)
            assert t11 == table_distribution(params)
            found.append(((p, s, m, h), case.label))
    labels = {label for _, label in found}
    assert len(found) >= 2 and {"1.1", "2.1"} <= labels
    print(f"[acceptance] 8 PASS: tables 1 and 3 coincide on {len(found)} sweep-discovered N=2 sets: {found}")
