import re
from dataclasses import replace

import pytest

from conftest import DIST1, DIST2, sweep_candidates

import cyclotome.fields as fields

from cyclotome.charsums import CharSystem, lifted_sums
from cyclotome.code import _validate, brute_distribution, build_code, semi_analytic_distribution
from cyclotome.fields import FieldTower, build_tower
from cyclotome.theorem import (
    NonIntegerFrequencyError,
    NotApplicableError,
    TheoremCase,
    classify,
    instantiate_table,
    table_distribution,
)


def test_classify_desk_sets(set1, set2, set3):
    assert set1.case == TheoremCase(j=1, gamma=1, case_major=2, case_minor=1, sqrt_r=7, N=2)
    assert set1.case.label == "2.1"
    assert set2.case == TheoremCase(j=1, gamma=3, case_major=2, case_minor=2, sqrt_r=8, N=3)
    assert set2.case.label == "2.2"
    # gamma, p, (p+1)/2 all odd and g an N-th power
    assert set3.case == TheoremCase(j=1, gamma=1, case_major=1, case_minor=1, sqrt_r=13, N=2)


def test_classify_not_applicable_reasons(set1):
    e2 = build_code(set1.tower, 6, 2)
    out = classify(e2)
    assert isinstance(out, str) and "e = 2" in out

    n1 = build_code(set1.tower, 6, 3)  # N = gcd(2, 3) = 1
    out = classify(n1)
    assert isinstance(out, str) and "N = 1" in out

    # p = 1 mod N for every power: no j exists (N = 4 needs p**j = -1)
    tower = build_tower(13, 1, 4)
    params = build_code(tower, 3, 3)
    assert params.N == 4
    out = classify(params)
    assert isinstance(out, str) and "no j" in out


def test_not_applicable_reasons_are_pinned():
    # each reason is the sweep's reason column, byte for byte, and the same for every set it covers
    for p, m, h, e in ((5, 2, 4, 4), (13, 3, 4, 4), (7, 2, 6, 2)):
        assert classify(build_code(FieldTower(p, 1, m), h, e)) == f"e = {e}, semi and the closed forms need e = 3"
    n1 = build_code(FieldTower(2, 2, 2), 3, 3)
    assert classify(n1) == "N = 1 < 2"
    assert classify(build_code(FieldTower(13, 1, 3), 3, 3)) == "no j with p**j = -1 mod N (p = 13, N = 3)"
    with pytest.raises(NotApplicableError, match="^no table applies: N = 1 < 2$"):
        table_distribution(n1)


def test_table_distribution_frozen(set1, set2):
    assert table_distribution(set1.params) == DIST1
    assert table_distribution(set2.params) == DIST2


def test_table_merges_colliding_weights(set2):
    # two distinct rows of the minor-2 table land on weight 36: 189 + 63
    dist = table_distribution(set2.params)
    assert dist[36] == 252


def test_table_total_is_r_squared(set1, set2, set3):
    for desk in (set1, set2, set3):
        dist = table_distribution(desk.params)
        assert sum(dist.values()) == desk.tower.r ** 2
        _validate(dist, desk.params)


def test_three_routes_agree_on_major_case_1(set3):
    table = table_distribution(set3.params)
    semi = semi_analytic_distribution(set3.params)
    brute = brute_distribution(set3.params)
    assert table == semi == brute


@pytest.mark.parametrize(
    "major, gamma, sign", [(1, 1, -1), (1, 2, -1), (2, 1, -1), (2, 2, 1)]
)
def test_case_sign(major, gamma, sign):
    # major 1 is always negative; major 2 follows the parity of gamma
    case = TheoremCase(j=1, gamma=gamma, case_major=major, case_minor=1, sqrt_r=7, N=2)
    assert case.sign == sign


@pytest.mark.parametrize("p, s, m, h, e", [(2, 2, 8, 3, 3), (7, 1, 2, 6, 2)])
def test_table_rejects_the_not_applicable_classify_returns(p, s, m, h, e):
    # N = 1 and e = 2: no table applies, and the error gives the reason classify returns
    params = build_code(FieldTower(p, s, m), h, e)
    case = classify(params)
    assert isinstance(case, str)
    with pytest.raises(NotApplicableError, match=re.escape(case)):
        table_distribution(params)


def test_zero_frequency_rows_are_dropped(set1):
    # raw substitution of the minor-2 table at N = 2 empties its last row
    dist = instantiate_table(replace(set1.case, case_minor=2), set1.params)
    assert all(freq > 0 for freq in dist.values())
    assert len(dist) == 6  # five surviving rows plus the zero weight


@pytest.mark.parametrize(
    "desk, changes, message",
    [
        ("set2", {"gamma": 2}, "row frequency 343/3 is not a nonnegative integer"),  # the sign flipped
        ("set1", {"sqrt_r": -90, "case_minor": 2}, "row frequency -780 is not a nonnegative integer"),
        ("set1", {"sqrt_r": 6}, "row weight 129/7 out of range"),
        ("set1", {"sqrt_r": 14}, "row weight 27 out of range"),  # an integer above n = 24
    ],
)
def test_mismatched_case_raises_on_a_bad_row(request, desk, changes, message):
    # the raw substitution checks no hypothesis, so a hand-built case reaches the row checks
    desk = request.getfixturevalue(desk)
    with pytest.raises(NonIntegerFrequencyError, match=f"^{re.escape(message)}$"):
        instantiate_table(replace(desk.case, **changes), desk.params)


def test_n2_tables_coincide(set1, set3):
    # both N = 2 sign patterns instantiate to the same distribution
    for desk in (set1, set3):
        t11 = instantiate_table(replace(desk.case, case_major=1), desk.params)
        t21 = instantiate_table(replace(desk.case, case_major=2), desk.params)
        assert t11 == t21 == table_distribution(desk.params)


def test_semi_equals_table_across_small_sweep():
    # every applicable parameter set with r <= 2500: symbolic table rows
    # against period-and-count assembly, no codeword enumeration involved
    import math

    checked = 0
    cases = set()
    for p, s, m, h in sweep_candidates(2500, 3):
        if math.gcd(m, 3 * (p**s - 1) // h) < 2:
            continue  # N = 1, never applicable; skip the tower build
        params = build_code(build_tower(p, s, m), h, 3)
        case = classify(params)
        if isinstance(case, str):
            continue
        system = CharSystem(params.tower, params.N)
        table = table_distribution(params)
        semi = semi_analytic_distribution(params, lifted_sums(system, 1))
        assert table == semi, (p, s, m, h)
        _validate(table, params)
        # enumerated periods against the closed form the case sign selects
        assert system.periods == case.periods, (p, s, m, h)
        cases.add((case.label, case.sign))
        checked += 1
    assert checked >= 6
    # 1.1, 2.1 with gamma odd and even, and 2.2
    assert {("1.1", -1), ("2.1", -1), ("2.1", 1), ("2.2", -1)} <= cases


def test_table_equals_semi_at_r4096():
    # N = 3 with gamma even, above the small-sweep bound; still no brute force
    params = build_code(build_tower(2, 2, 6), 3, 3)
    case = classify(params)
    assert (case.label, case.gamma) == ("2.2", 6)
    table = table_distribution(params)
    semi = semi_analytic_distribution(params)
    assert table == semi
    _validate(table, params)


@pytest.mark.parametrize("p, s, m, h", [(2, 2, 30, 3), (2, 4, 15, 15), (11, 2, 12, 3)])
def test_lifted_semi_equals_table_above_the_cap(monkeypatch, p, s, m, h):
    # r = 2**60, 2**60 and 11**24 (N = 12): semi lifts from GF(4), GF(4) and GF(121); a
    # polynomial search for GF(r) fails the test before any table of GF(r) is built
    search = fields.find_primitive_polynomial

    def small_search(p, degree, index=0):
        if p**degree > fields.DEFAULT_FIELD_CAP:
            raise AssertionError(f"searched GF({p}**{degree})")
        return search(p, degree, index)

    monkeypatch.setattr(fields, "find_primitive_polynomial", small_search)
    params = build_code(FieldTower(p, s, m), h, 3)
    case = classify(params)
    assert semi_analytic_distribution(params) == table_distribution(params)
