import dataclasses
import math
import re
from functools import cached_property
from itertools import product

import pytest

from conftest import (
    H_TABLE1,
    H_TABLE2,
    PERIOD_COUNTS1,
    PERIOD_COUNTS2,
    PERIODS1,
    PERIODS2,
    neg,
    root_of_unity,
    sweep_candidates,
    trace_p,
)
from naive_oracle import naive_f_table, naive_gauss_counts, naive_jacobi_counts, naive_period_counts

from cyclotome.charsums import (
    CharSystem,
    NonIntegerResultError,
    _pair_sum,
    _shifted_sum,
    class_counts,
    f_charsum,
    f_closed,
    lifted_sums,
    norm_degree,
    periods_from_gauss,
    subfield_sums,
)
from cyclotome.code import build_code
from cyclotome.cycint import CycInt
from cyclotome.fields import ZERO, BadModulusError, FieldTower, build_tower
from cyclotome.theorem import TheoremCase, classify


def test_chi_has_exact_order_n(set1, set2):
    # chi(alpha**k) = zeta_N**k
    for desk in (set1, set2):
        n = desk.params.N
        chi_alpha = root_of_unity(n, 1)  # chi(alpha), alpha of index 1
        assert chi_alpha == root_of_unity(n)
        powers = [chi_alpha**k for k in range(1, n)]
        assert all(p != 1 for p in powers)
        assert chi_alpha**n == 1


def test_chi_trivial_on_beta_subfield_and_minus_one(set1, set2):
    for desk in (set1, set2):
        t, n = desk.tower, desk.params.N
        assert root_of_unity(n, desk.params.beta_log) == 1
        for k in range(0, t.r - 1, t.subfield_step):
            assert root_of_unity(n, k) == 1
        assert root_of_unity(n, neg(t, 0)) == 1


def test_psi_is_additive_on_sample(set1):
    t = set1.tower

    def psi(x):
        return root_of_unity(t.p, trace_p(t, x))

    for i in range(0, t.r - 1, 5):
        for j in range(0, t.r - 1, 7):
            assert psi(t.add(i, j)) == psi(i) * psi(j)


def test_period_bucket_counts_match_oracle(set1, set2):
    assert set1.system.period_counts == PERIOD_COUNTS1
    assert set2.system.period_counts == PERIOD_COUNTS2
    for desk, counts in ((set1, PERIOD_COUNTS1), (set2, PERIOD_COUNTS2)):
        t = desk.tower
        assert naive_period_counts(t.p, t.s, t.m, desk.params.N, t.defining_polynomial) == counts


def test_periods_are_integers_matching_closed_form(set1, set2):
    for desk, expected in ((set1, PERIODS1), (set2, PERIODS2)):
        assert desk.system.periods == expected
        assert desk.case.periods == expected


# (p, s, m, N): N | (r-1)/(p-1) fails at (7, 1, 2, 3) and (5, 2, 2, 8), where some rows are irrational;
# at p = 2 every row is rational, N | (r-1)/(p-1) or not
@pytest.mark.parametrize(
    "p, s, m, n", [(2, 2, 3, 3), (2, 1, 6, 7), (2, 1, 4, 5), (7, 1, 2, 2), (7, 1, 2, 3), (3, 1, 6, 13), (5, 2, 2, 8)]
)
def test_periods_read_off_the_bucket_rows(p, s, m, n):
    # the integer reading against the cyclotomic integer of each row, None where that is irrational
    system = CharSystem(build_tower(p, s, m), n)
    assert system.periods == [CycInt(p, row).as_integer() for row in system.period_counts]


def test_periods_are_none_where_a_row_is_irregular():
    # v_1 != v_2 leaves the sum irrational; v_0 = v_1 = v_2 sums to 0
    system = CharSystem(build_tower(3, 1, 2), 2)
    system.period_counts = [[2, 1, 2], [1, 1, 1]]
    assert system.periods == [None, 0]


def test_period_bucket_regularity(set1, set2):
    # semiprimitive case: counts at the p-1 nonzero trace values coincide
    for desk in (set1, set2):
        for row in desk.system.period_counts:
            assert len(set(row[1:])) == 1


def test_period_sum_is_minus_one(set1, set2):
    for desk in (set1, set2):
        assert sum(desk.system.periods) == -1


def test_period_closed_form_consistency(set1):
    # N*eta_1 + 1 = +-(N-1)*sqrt(r), a rearrangement of the closed form
    case, n = set1.case, set1.params.N
    eta1 = case.periods[0]
    assert abs(n * eta1 + 1) == (n - 1) * case.sqrt_r
    assert case.periods == [3, -4]


def test_closed_period_indivisible_is_arithmetic_error():
    # a hand-built case whose period numerator -8 is not divisible by N = 3:
    # an internal failure (exit 1), not invalid parameters
    case = TheoremCase(j=1, gamma=1, case_major=2, case_minor=1, sqrt_r=7, N=3)
    with pytest.raises(NonIntegerResultError):
        case.periods
    assert issubclass(NonIntegerResultError, ArithmeticError)


def test_gauss_sum_principal_is_minus_one(set1, set2):
    assert set1.system.gauss_sum(2) == -1
    assert set2.system.gauss_sum(3) == -1


def test_gauss_sum_norm_is_r(set1, set2):
    # G(chi**i) G(chi**-i) = chi**i(-1) r = r, as -1 is an N-th power
    for desk in (set1, set2):
        n, r, gauss = desk.params.N, desk.tower.r, desk.system.gauss_sum
        for i in range(1, n):
            assert (gauss(i) * gauss(n - i)).as_integer() == r


def test_gauss_sum_case_values(set1, set2, set3):
    # major case 2: all nontrivial sums equal (-1)**(gamma+1) sqrt(r)
    assert set1.system.gauss_sum(1).as_integer() == 7
    assert set2.system.gauss_sum(1).as_integer() == 8
    assert set2.system.gauss_sum(2).as_integer() == 8
    # major case 1: sums alternate as (-1)**i sqrt(r)
    assert set3.system.gauss_sum(1).as_integer() == -13


def test_gauss_sum_matches_definition(set1, set2):
    # direct elementwise product of character values, no bucketing
    for desk in (set1, set2):
        t, sys_, n = desk.tower, desk.system, desk.params.N
        big = math.lcm(t.p, n)
        for i in range(1, n + 1):
            total = CycInt.zero(big)
            for k in range(t.r - 1):
                chi = root_of_unity(n, i * k)
                psi = root_of_unity(t.p, t.trace_p_table[k])
                total = total + chi.embed(big) * psi.embed(big)
            assert total == sys_.gauss_sum(i)


def test_gauss_sum_matches_oracle_buckets(set1, set2):
    for desk in (set1, set2):
        t, n = desk.tower, desk.params.N
        big = math.lcm(t.p, n)
        for i in (1, n):
            counts = naive_gauss_counts(t.p, t.s, t.m, n, i, t.defining_polynomial)
            vec = [0] * big
            for trace_val, row in enumerate(counts):
                for u, cnt in enumerate(row):
                    vec[(big // t.p * trace_val + big // n * u) % big] += cnt
            assert CycInt(big, vec) == desk.system.gauss_sum(i)


def test_jacobi_boundary_values(set1, set2):
    for desk in (set1, set2):
        n, r = desk.params.N, desk.tower.r
        assert desk.system.jacobi_sum(n, n) == r - 2
        for i in range(1, n):
            assert desk.system.jacobi_sum(i, n - i) == -1


def test_jacobi_gauss_relation(set1, set2, set3):
    # tau(chi**(i+j)) J(chi**i, chi**j) = tau(chi**i) tau(chi**j), i + j != N
    for desk in (set1, set2, set3):
        sys_, n = desk.system, desk.params.N
        big = math.lcm(desk.tower.p, n)
        for i in range(1, n):
            for j in range(1, n):
                if i + j == n:
                    continue
                k = (i + j - 1) % n + 1
                assert sys_.gauss_sum(k) * sys_.jacobi_sum(i, j).embed(big) == sys_.gauss_sum(
                    i
                ) * sys_.gauss_sum(j)


def test_jacobi_norm_and_case_value(set2):
    sys_, r, case = set2.system, set2.tower.r, set2.case
    for i, j in ((1, 1), (2, 2)):
        assert (sys_.jacobi_sum(i, j) * sys_.jacobi_sum(-i % 3, -j % 3)).as_integer() == r
        assert sys_.jacobi_sum(i, j).as_integer() == -case.sign * case.sqrt_r == 8


def test_jacobi_matches_oracle(set1, set2):
    for desk in (set1, set2):
        t, n = desk.tower, desk.params.N
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                counts = naive_jacobi_counts(t.p, t.s, t.m, n, i, j, t.defining_polynomial)
                assert CycInt(n, counts) == desk.system.jacobi_sum(i, j)


def _xi_mu_by_field(params, c):
    """Reference for the identity's cosets x: cosets of xi1*mu, xi2*mu and xi1/xi2 by field arithmetic.

    xi_i = g**i (1 - beta**i) c_i / c_3 for i = 1, 2 and mu = beta / (1 - beta**2).
    """
    tw, n = params.tower, params.N
    k1, k2, k3 = (ci % n for ci in c)
    g, b = params.g_log, params.beta_log
    omb = tw.add(0, neg(tw, b))  # 1 - beta, nonzero
    omb2 = tw.add(0, neg(tw, 2 * b % (tw.r - 1)))  # 1 - beta**2
    xi1 = g + omb + k1 - k3
    xi2 = 2 * g + omb2 + k2 - k3
    mu = b - omb2
    # n divides r - 1, so the logs reduce mod n directly
    return (xi1 + mu) % n, (xi2 + mu) % n, (xi1 - xi2) % n


def _h_key(params, c):
    """The key d of H whose pairs make up the class c: f(2g - d1, g - d2) = (r-1)/N * H(d1, d2)."""
    n, g = params.N, params.g_log
    return (2 * g - c[0] + c[2]) % n, (g - c[1] + c[2]) % n


def test_xi_mu_consistency_all_vectors(set1, set2):
    # the field evaluation at every class c equals the g-free cosets x = (-d1, -d2, d2 - d1) the identity
    # reads at c's key d of H: N | 3 log g takes g out
    for desk in (set1, set2):
        params, n = desk.params, desk.params.N
        for c in product(range(n), repeat=3):
            d1, d2 = _h_key(params, c)
            x1, x2, ratio = -d1 % n, -d2 % n, (d2 - d1) % n
            assert _xi_mu_by_field(params, c) == (x1, x2, ratio)
            assert (x1 - x2 - ratio) % n == 0


def test_xi_mu_zero_vector_with_square_g(set1):
    # g is an N-th power here, so the zero vector is H's key (0, 0) and lands every coset at 0
    params = set1.params
    assert params.g_log % params.N == 0
    assert _h_key(params, (0, 0, 0)) == (0, 0)
    assert _xi_mu_by_field(params, (0, 0, 0)) == (0, 0, 0)


def test_one_plus_beta_is_nth_power(set1, set2):
    for desk in (set1, set2):
        t = desk.tower
        one_plus_beta = t.add(0, desk.beta)
        assert one_plus_beta % desk.params.N == 0


def test_beta_power_differences_share_coset_with_one_minus_beta(set1, set2):
    for desk in (set1, set2):
        t, n, beta = desk.tower, desk.params.N, desk.beta
        n1 = t.r - 1
        ref = t.add(0, neg(t, beta)) % n
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert t.add(beta * i % n1, neg(t, beta * j % n1)) % n == ref


def test_class_counts_frozen_tables(set1, set2):
    for desk, table in ((set1, H_TABLE1), (set2, H_TABLE2)):
        assert class_counts(desk.params) == table


def _by_difference_pair(counts, params):
    """N**3 class counts {c: f} as H, zeros dropped, by the relation f(c) = (r-1)/N * H(d) at c's key d,
    once each class c + (j, j, j) is checked to have the count of c."""
    n, table = params.N, {}
    for c in product(range(n), repeat=3):
        f = counts.get(c, 0)
        assert {counts.get(tuple((ci + j) % n for ci in c), 0) for j in range(n)} == {f}
        if f:
            count, rem = divmod(f * n, params.tower.r - 1)
            assert not rem
            table[_h_key(params, c)] = count
    return table


def test_f_tables_match_naive_oracle(set1, set2):
    for desk in (set1, set2):
        t, n = desk.tower, desk.params.N
        oracle = naive_f_table(t.p, t.s, t.m, desk.params.h, n, t.defining_polynomial)
        assert class_counts(desk.params) == _by_difference_pair(oracle, desk.params)


def _class_counts_by_pairs(params):
    """Reference for class_counts: the direct pass over all r**2 pairs."""
    tw, n = params.tower, params.N
    n1, zech, g = tw.r - 1, tw.zech, params.g_log
    counts = [0] * n**3

    def flat(v1, v2, v3):
        return (v1 % n * n + v2 % n) * n + v3 % n

    for a_idx in range(n1):  # b = 0: t_i = a
        counts[flat(-(a_idx + g), -(a_idx + 2 * g), -(a_idx + 3 * g))] += 1
    for b_idx in range(n1):
        b1, b2, b3 = ((b_idx + i * params.beta_log) % n1 for i in (1, 2, 3))
        u1, u2, u3 = -(b1 + g), -(b2 + 2 * g), -(b3 + 3 * g)
        counts[flat(u1, u2, u3)] += 1  # a = 0
        for a_idx in range(n1):
            z1, z2, z3 = zech[a_idx - b1], zech[a_idx - b2], zech[a_idx - b3]
            if z1 != ZERO and z2 != ZERO and z3 != ZERO:
                counts[flat(u1 - z1, u2 - z2, u3 - z3)] += 1
    return {(k // (n * n), k // n % n, k % n): f for k, f in enumerate(counts) if f}


@pytest.mark.parametrize(
    "p, s, m, h, e",
    # two non-semiprimitive N = 3 sets, e = 2 and N = 1, and r = 2401 with N = 2
    [(7, 1, 3, 3, 3), (13, 1, 3, 3, 3), (5, 1, 2, 2, 2), (3, 2, 2, 2, 2), (2, 2, 2, 3, 3), (7, 2, 2, 6, 3)],
)
def test_class_counts_by_scaling_equal_pair_pass(p, s, m, h, e):
    params = build_code(build_tower(p, s, m), h, e)
    assert class_counts(params) == _by_difference_pair(_class_counts_by_pairs(params), params)


def test_f_partition_identity(set1, set2):
    # every y in GF(r) and infinity, less the three points y = -beta**t
    for desk in (set1, set2):
        assert sum(class_counts(desk.params).values()) == desk.tower.r - 2


def test_f_unchanged_by_diagonal_shift(set1, set2, set3):
    # the naive oracle sees c3: its N**3 counts are constant on every diagonal c + (j, j, j) (checked in
    # _by_difference_pair), so one count of H per diagonal loses nothing, and that table is each route's
    for desk in (set1, set2, set3):
        t, params, n = desk.tower, desk.params, desk.params.N
        table = _by_difference_pair(naive_f_table(t.p, t.s, t.m, params.h, n, t.defining_polynomial), params)
        jacobi = lifted_sums(desk.system, 1)[1]
        assert table == class_counts(params) == f_charsum(params, jacobi) == f_closed(params, desk.case)


def test_f_charsum_equals_enumeration(set1, set2):
    for desk in (set1, set2):
        assert f_charsum(desk.params, lifted_sums(desk.system, 1)[1]) == class_counts(desk.params)


def test_f_charsum_n2_reduces_to_delta_formula(set1):
    # N = 2 leaves no (i, j) pairs in the correction sum
    params, r = set1.params, set1.tower.r
    table = f_charsum(params, lifted_sums(set1.system, 1)[1])
    for d1, d2 in product(range(2), repeat=2):
        deltas = (d1 == 0) + (d2 == 0) + (d1 == d2)
        assert table.get((d1, d2), 0) == (r + 1 - 2 * deltas) // 4


def test_f_closed_matches_other_routes(set1, set2):
    for desk in (set1, set2):
        assert f_closed(desk.params, desk.case) == class_counts(desk.params)


def test_f_closed_zero_vector_formula(set1):
    # all-coset-zero class when g is an N-th power: H's key (0, 0), and f(0, 0, 0) = (r-1)/N * H(0, 0) = 264
    params, case, r, n = set1.params, set1.case, set1.tower.r, set1.params.N
    sign = -1 if case.gamma % 2 else 1
    expected = (r + 1 - 3 * n - sign * case.sqrt_r * (n * n - 3 * n + 2)) // n**2
    assert f_closed(params, case)[0, 0] == expected == 11
    assert (r - 1) // n * expected == 264


def _f_closed_by_formula(params, case, d):
    """Reference for f_closed at the key d of H: the semiprimitive identity expanded by hand.

    Returns None where the count is not a nonnegative integer.
    """
    n, r = params.N, params.tower.r
    s = -case.sign * case.sqrt_r
    x1, x2, x3 = -d[0] % n, -d[1] % n, (d[1] - d[0]) % n
    d1, d2 = x1 == 0, x2 == 0
    dsum = d1 + d2 + (x3 == 0)
    num = r + 1 - n * dsum + s * (n * n * d1 * d2 - n * dsum + 2)
    return None if num % n**2 or num < 0 else num // n**2


_TOWER_TABLES = {name for name, attr in vars(FieldTower).items() if isinstance(attr, cached_property)}


@pytest.mark.parametrize(
    "p, s, m, h, swap_major",
    # case 1.1; N = 3 at r = 4096 and r = 11**6; N = 4; N = 5; r = 2**60; and two hand-built
    # major swaps, N = 4 and N = 3: each flips the sign to non-integral counts, as N**2 H is
    # divisible by N**2 at one sign only once N >= 3
    [
        (13, 1, 2, 3, False),
        (2, 2, 6, 3, False),
        (11, 2, 3, 3, False),
        (7, 2, 4, 3, False),
        (2, 4, 5, 3, False),
        (2, 2, 30, 3, False),
        (7, 2, 4, 3, True),
        (2, 2, 6, 3, True),
    ],
)
def test_f_closed_equals_expanded_formula(p, s, m, h, swap_major):
    tower = FieldTower(p, s, m)
    params = build_code(tower, h, 3)
    case = classify(params)
    if swap_major:
        swapped = dataclasses.replace(case, case_major=3 - case.case_major)
        assert swapped.sign != case.sign
        case = swapped
    expected = {d: _f_closed_by_formula(params, case, d) for d in product(range(params.N), repeat=2)}
    bad = [d for d, f in expected.items() if f is None]
    if bad:  # the first pair in product order is the one named
        with pytest.raises(NonIntegerResultError, match=re.escape(f"count at d = {bad[0]} is not a nonnegative")):
            f_closed(params, case)
    else:
        assert f_closed(params, case) == {d: f for d, f in expected.items() if f}
    assert not _TOWER_TABLES & vars(tower).keys()


def _jacobi_pairs(n):
    return [(i, j) for i, j in product(range(1, n), repeat=2) if i + j != n]


@pytest.mark.parametrize("n", range(1, 14))
def test_pair_sum_equals_enumeration(n):
    # the closed S(x1, x2) against the sum of zeta_N**(i*x1 + j*x2) over the Jacobi pairs, reduced in Z[zeta_N]
    one = CycInt.from_int(n, 1)
    for x1, x2 in product(range(n), repeat=2):
        enumerated = _shifted_sum(n, ((i * x1 + j * x2, one) for i, j in _jacobi_pairs(n))).as_integer()
        assert _pair_sum(n, x1, x2) == enumerated


def test_f_closed_equals_cyclotomic_form_on_the_sweep():
    # every applicable sweep set with r <= 2**16: f_closed's integer form against the identity fed the
    # constant Jacobi value -sg*sqrt(r) as a cyclotomic integer, each class sum reduced in Z[zeta_N]
    applicable = 0
    for p, s, m, h in sweep_candidates(1 << 16, 3):
        params = build_code(FieldTower(p, s, m), h, 3)
        case = classify(params)
        if not isinstance(case, TheoremCase):
            continue
        n, value = params.N, CycInt.from_int(params.N, -case.sign * case.sqrt_r)
        cyclotomic = f_charsum(params, dict.fromkeys(_jacobi_pairs(n), value))
        assert f_closed(params, case) == cyclotomic
        applicable += 1
    assert applicable == 122


def test_f_charsum_equals_closed_form_at_n5():
    # r = 2**20: the identity's correction sum over tower Jacobi sums beyond N = 3
    tower = build_tower(2, 4, 5)
    params = build_code(tower, 3, 3)
    case, system = classify(params), CharSystem(tower, params.N)
    assert params.N == 5
    table = f_charsum(params, lifted_sums(system, 1)[1])
    assert table == f_closed(params, case)
    assert sum(table.values()) == tower.r - 2


def test_f_charsum_calls_no_field_operation(monkeypatch):
    # once the pair counts exist, f(c) reads only integers and the Jacobi sums
    tower = build_tower(2, 2, 3)
    params = build_code(tower, 3, 3)
    system = CharSystem(tower, params.N)
    system.pair_counts
    counts = class_counts(params)

    def refuse(*args):
        raise AssertionError("field operation during f(c)")

    monkeypatch.setattr(FieldTower, "add", refuse)
    assert f_charsum(params, lifted_sums(system, 1)[1]) == counts


def test_closed_forms_beyond_desk_scale():
    # gamma even flips the sign pattern; N = 3 at r = 4096 stresses magnitudes.
    # enumeration is skipped (r**2 pairs), the two cheap routes must agree.
    from cyclotome.code import build_code
    from cyclotome.fields import build_tower
    from cyclotome.theorem import classify

    for p, s, m, h in ((5, 2, 2, 3), (2, 2, 6, 3)):
        tower = build_tower(p, s, m)
        params = build_code(tower, h, 3)
        case = classify(params)
        assert case.gamma % 2 == 0
        system = CharSystem(tower, params.N)
        table = f_charsum(params, lifted_sums(system, 1)[1])
        assert table == f_closed(params, case)
        assert sum(table.values()) == tower.r - 2
        assert system.periods == case.periods


def test_orthogonality_relations(set1, set2):
    for desk in (set1, set2):
        t, n = desk.tower, desk.params.N
        coset_size = (t.r - 1) // n
        for j in range(1, n + 1):
            total = CycInt.zero(n)
            for u in range(n):
                total = total + root_of_unity(n, j * u) * coset_size
            assert total.as_integer() == (t.r - 1 if j == n else 0)
        for k in (0, 1, 5, t.r // 2):
            total = CycInt.zero(n)
            for j in range(1, n + 1):
                total = total + root_of_unity(n, j * k)
            assert total.as_integer() == (n if k % n == 0 else 0)


def _units(n: int) -> list[int]:
    return [w for w in range(1, n) if math.gcd(w, n) == 1]


def _coset_of_powers(ws: list[int], p: int, n: int) -> set[int]:
    """The coset ws[0] * <p> of (Z/N)*: Frobenius moves a relabelling i -> i*w by powers of p."""
    return {ws[0] * p**j % n for j in range(norm_degree(p, n))}


# (p, s, m, N) -> the w that relabel the tower's sums to the lift: f = ord_N(p) of 2, 1, 5 and 4
# below d; the last has f = d, so k = 1.  None is applicable, and at N = 6 and 11 p does not
# generate (Z/N)*, so there the lift is the tower's only up to i -> i*w, w != 1
SUMS_RELABELLED_BY = {
    (2, 2, 9, 3): [1, 2], (19, 1, 4, 6): [5], (3, 2, 5, 11): [2, 6, 7, 8, 10], (2, 1, 12, 5): [1, 2, 3, 4],
    (7, 1, 2, 16): [1, 7],
}

# (p, s, m, N) -> the w with the lift's period at u the tower's at u*w
PERIODS_RELABELLED_BY = {
    (2, 1, 6, 7): [3, 5, 6], (2, 1, 12, 7): [1, 2, 4], (2, 1, 10, 31): [11, 13, 21, 22, 26], (3, 1, 6, 13): [4, 10, 12],
}


@pytest.mark.parametrize("p, s, m, n", list(SUMS_RELABELLED_BY))
def test_lifted_sums_match_tower(p, s, m, n):
    # Davenport-Hasse from GF(p**f) on its default polynomial, as semi lifts it, against the tower's own sums
    tower = build_tower(p, s, m)
    system = CharSystem(tower, n)
    gauss, jacobi = subfield_sums(tower, n)
    ws = SUMS_RELABELLED_BY[p, s, m, n]
    pairs = [(i, j) for i, j in product(range(1, n), repeat=2) if (i + j) % n]
    relabelled = {
        w: ([system.gauss_sum(i * w) for i in range(n)], {(i, j): system.jacobi_sum(i * w, j * w) for i, j in pairs})
        for w in _units(n)
    }
    assert [w for w, sums in relabelled.items() if sums == (gauss, jacobi)] == ws
    assert set(ws) == _coset_of_powers(ws, p, n)
    assert ((gauss, jacobi) == lifted_sums(system, 1)) == (1 in ws)


@pytest.mark.parametrize("p, s, m, n", list(PERIODS_RELABELLED_BY))
def test_lifted_periods_match_tower(p, s, m, n):
    # N | (r-1)/(p-1) makes every period an integer; no p**j = -1 mod N, so eta_u != eta_-u, and the
    # lift's periods are the tower's only up to u -> u*w, w in a coset of <p> that holds 1 only at r = 2**12
    tower = build_tower(p, s, m)
    periods = CharSystem(tower, n).periods
    assert periods != periods[:1] + periods[:0:-1]
    lifted, ws = periods_from_gauss(subfield_sums(tower, n)[0]), PERIODS_RELABELLED_BY[p, s, m, n]
    assert [w for w in _units(n) if lifted == [periods[u * w % n] for u in range(n)]] == ws
    assert set(ws) == _coset_of_powers(ws, p, n)


def _lift_by_powers(system: CharSystem, k: int):
    """The Davenport-Hasse lift as -(-x)**k of every Gauss and Jacobi sum, -x multiplied in k times in its
    own ring: no square-and-multiply, so the oracle shares no code with ``lifted_sums``."""
    n = system.order
    pairs = [(i, j) for i, j in product(range(1, n), repeat=2) if i + j != n]
    return (
        [-math.prod([-system.gauss_sum(i)] * k) for i in range(n)],
        {(i, j): -math.prod([-system.jacobi_sum(i, j)] * k) for i, j in pairs},
    )


# (p, f, N) over GF(p**f): p = 2, and odd p where chi**a(-1) = (-1)**(a(Q-1)/N) is -1 for odd a,
# as (Q-1)/N is odd at (7, 1, 2), (7, 1, 6), (13, 1, 4), (5, 1, 4) and (19, 1, 6); +1 at the others
LIFT_FIELDS = [
    (2, 2, 3), (2, 4, 3), (7, 1, 2), (7, 1, 3), (7, 1, 6), (13, 1, 2), (13, 1, 4), (13, 1, 6), (5, 1, 4), (19, 1, 6), (3, 2, 4),
]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 12])
@pytest.mark.parametrize("p, f, n", LIFT_FIELDS)
def test_lifted_sums_equal_powers(p, f, n, k):
    # Gauss sums through the field's Jacobi sums against plain powers in Z[zeta_lcm(p, N)]
    system = CharSystem(FieldTower(p, 1, f), n)
    assert lifted_sums(system, k) == _lift_by_powers(system, k)


def test_lifted_sums_at_one_are_the_fields_own():
    system = CharSystem(FieldTower(13, 1, 1), 6)
    gauss, jacobi = lifted_sums(system, 1)
    assert all(g is system.gauss_sum(i) for i, g in enumerate(gauss)) and len(gauss) == 6
    assert jacobi == {(i, j): system.jacobi_sum(i, j) for i, j in product(range(1, 6), repeat=2) if i + j != 6}
    assert len(jacobi) == 20


@pytest.mark.parametrize("p, f, n", [(2, 2, 3), (7, 1, 2), (13, 1, 4), (13, 1, 6), (19, 1, 6)])
def test_lifted_gauss_sums_take_one_large_product_each(monkeypatch, p, f, n):
    system = CharSystem(FieldTower(p, 1, f), n)
    real, orders = CycInt.__mul__, []

    def counted(self, other):
        orders.append(self.order)
        return real(self, other)

    monkeypatch.setattr(CycInt, "__mul__", counted)
    monkeypatch.setattr(CycInt, "__rmul__", counted)
    lifted_sums(system, 1)
    assert orders == []
    m = math.lcm(p, n)
    for k in (2, 3, 4, 6):
        orders.clear()
        lifted_sums(system, k)
        assert orders.count(m) <= n - 1, (k, orders)


@pytest.mark.parametrize("p, n", [(3, 6), (2, 4), (5, 5), (7, 14)])
def test_norm_degree_rejects_n_not_prime_to_p(p, n):
    # no p**f - 1 is a multiple of N: the search for f would never end
    with pytest.raises(BadModulusError, match=f"N = {n} is not prime to p = {p}"):
        norm_degree(p, n)


def test_subfield_sums_rejects_n_not_prime_to_p():
    with pytest.raises(BadModulusError):
        subfield_sums(FieldTower(3, 1, 2), 6)


def test_p_generates_the_units_on_every_applicable_set():
    # the lifted_sums check compares the subfield's sums with the tower's index for index: exact only
    # when the unit v relating their generators lies in <p>, which holds when <p> = (Z/N)*
    applicable = 0
    for p, s, m, h in sweep_candidates(1 << 20, 3):
        params = build_code(FieldTower(p, s, m), h, 3)
        if isinstance(classify(params), TheoremCase):
            n = params.N
            assert norm_degree(p, n) == len(_units(n)), (p, s, m, h)
            applicable += 1
    assert applicable == 528


def test_periods_from_gauss_rejects_a_fractional_period():
    # G(chi**0) = 1 and the rest 0 give N eta_u = 1: rational, but not divisible by N = 3
    sums = [CycInt.from_int(6, 1), CycInt.zero(6), CycInt.zero(6)]
    with pytest.raises(NonIntegerResultError, match=r"period at coset 0 is 1/3$"):
        periods_from_gauss(sums)
