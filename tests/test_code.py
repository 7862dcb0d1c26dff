import math
import random
import types
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DIST1, DIST2, codeword, hamming_weight, mul, neg, sweep_candidates
from naive_oracle import naive_weight_distribution

import cyclotome.charsums as charsums
import cyclotome.code as code
from cyclotome.charsums import CharSystem, InvariantError, lifted_sums
from cyclotome.code import (
    BadParametersError,
    BudgetExceededError,
    brute_distribution,
    build_code,
    codeword_weight_from_lambda,
    semi_analytic_distribution,
)
from cyclotome.fields import ZERO, FieldTower, build_tower, find_primitive_polynomial, prime_factors
from cyclotome.theorem import TheoremCase, classify, instantiate_table, table_distribution


def test_build_code_examples(set1, set2):
    p1 = set1.params
    assert (p1.n, p1.N) == (24, 2)
    assert p1.g_log == 2 and p1.beta_log == 16
    p2 = set2.params
    assert (p2.n, p2.N) == (63, 3)


def test_build_code_rejects_bad_divisibility(set1):
    # set1's tower is (7,1,2); h = 0 fails the multiple check before any division by h
    for tower, h, e, message in (
        (set1.tower, 0, 3, "h = 0 is not a positive multiple of e = 3"),
        (set1.tower, 4, 3, "h = 4 is not a positive multiple of e = 3"),
        (set1.tower, 9, 3, "h = 9 does not divide q-1 = 6"),
        (build_tower(5, 1, 2), 3, 3, "h = 3 does not divide q-1 = 4"),
        (set1.tower, 3, 1, "e = 1 must exceed 1"),
    ):
        with pytest.raises(BadParametersError) as info:
            build_code(tower, h, e)
        assert str(info.value) == message


@pytest.mark.parametrize("e", [2, 3, 4, 6])
def test_build_code_arithmetic_on_the_sweep(e):
    # n, N, g_log and beta_log against their defining formulas at every set of a sweep to r = 5000
    for p, s, m, h in sweep_candidates(5000, e):
        q, r = p**s, p ** (s * m)
        params = build_code(FieldTower(p, s, m), h, e)
        assert (params.h, params.e) == (h, e)
        assert params.n == h * (r - 1) // (q - 1)
        assert params.N == math.gcd(m, e * (q - 1) // h)
        assert params.g_log == (q - 1) // h
        assert params.beta_log == (r - 1) // e


def test_build_code_requires_beta_and_minus_one_nth_powers(monkeypatch):
    # no real e = 3 set breaks either fact, so a forced N stands in: N = 2 at (2,2,3)
    # leaves beta = alpha**21 outside C_0, N = 16 at (7,1,2) leaves -1 = alpha**24 outside
    real = code.CodeParams
    for (p, s, m), forced_n in (((2, 2, 3), 2), ((7, 1, 2), 16)):
        monkeypatch.setattr(code, "CodeParams", lambda *args, forced_n=forced_n: real(*args)._replace(N=forced_n))
        with pytest.raises(InvariantError, match="beta or -1 is not an N-th power"):
            build_code(FieldTower(p, s, m), 3, 3)


def test_generator_orders(set1, set2):
    for desk in (set1, set2):
        t, params = desk.tower, desk.params
        n1 = t.r - 1
        g, gb = desk.g, mul(t, desk.g, desk.beta)
        assert g * params.n % n1 == 0
        assert gb * params.n % n1 == 0
        assert all(g * k % n1 != 0 for k in range(1, params.n))


def test_codeword_zero_pair(set1):
    word = codeword(set1.params, ZERO, ZERO)
    assert len(word) == set1.params.n
    assert hamming_weight(word) == 0


def test_codeword_linearity(set1, set2):
    rng = random.Random(13)
    for desk in (set1, set2):
        t, params = desk.tower, desk.params
        xs = list(t.elements())
        for _ in range(10):
            a, b, a2, b2 = (rng.choice(xs) for _ in range(4))
            lhs = codeword(params, t.add(a, a2), t.add(b, b2))
            rhs = [t.add(u, v) for u, v in zip(codeword(params, a, b), codeword(params, a2, b2))]
            assert lhs == rhs


def test_codewords_are_distinct(set1, set2):
    # the pair -> codeword map is injective at desk scale (dimension 2m)
    for desk in (set1, set2):
        t, params = desk.tower, desk.params
        seen = set()
        for a in t.elements():
            for b in t.elements():
                seen.add(tuple(codeword(params, a, b)))
        assert len(seen) == t.r**2


def test_brute_distribution_frozen(set1, set2):
    assert brute_distribution(set1.params) == DIST1
    assert brute_distribution(set2.params) == DIST2


def test_brute_distribution_matches_naive_oracle(set1, set2):
    for desk in (set1, set2):
        t, params = desk.tower, desk.params
        oracle = naive_weight_distribution(t.p, t.s, t.m, params.h, params.e, t.defining_polynomial)
        assert brute_distribution(params) == oracle


@pytest.mark.parametrize(
    "p, s, m, h, e, step",
    [(5, 1, 2, 2, 2, 2), (3, 2, 2, 2, 2, 2), (2, 2, 2, 3, 3, 1), (2, 7, 1, 127, 127, 1)],
)
def test_brute_matches_naive_oracle_outside_the_theorem(p, s, m, h, e, step):
    # no closed form covers these sets (e = 2, or N = 1): the naive oracle is the only check.
    # q = 128 is the largest q in one-byte slots: its coordinates reach 127, just under the guard bit
    tower = build_tower(p, s, m)
    params = build_code(tower, h, e)
    assert not isinstance(classify(params), TheoremCase)
    n1 = tower.r - 1
    # cosets of <alpha**step> that the b != 0 fall into before Frobenius joins any
    assert math.gcd(n1, params.g_log + params.beta_log, n1 // (tower.q - 1)) == step
    oracle = naive_weight_distribution(p, s, m, h, e, tower.defining_polynomial)
    assert brute_distribution(params) == oracle


@pytest.mark.parametrize("p, s, m, h", [(19, 1, 2, 3), (2, 2, 4, 3), (7, 1, 3, 3), (5, 2, 2, 3)])
def test_brute_matches_naive_oracle_beyond_the_desk(p, s, m, h):
    # (7,1,3,3) is not semiprimitive and (2,2,4,3) has N = 1: semi needs no closed form
    tower = build_tower(p, s, m)
    params = build_code(tower, h, 3)
    oracle = naive_weight_distribution(p, s, m, h, 3, tower.defining_polynomial)
    assert brute_distribution(params) == oracle
    assert semi_analytic_distribution(params) == oracle


@pytest.mark.parametrize("p, s, m", [(2, 8, 2), (32779, 1, 1), (2, 2, 8)])
def test_brute_matches_semi_beyond_the_oracle(p, s, m):
    # q = 256 takes two-byte slots and q = 32779 > 2**15 four; (2, 2, 8) walks r = 2**16 and n = 65535.
    # All three have N = 1, as has every e = 3 set at r = 2**16, so semi is the only other route
    params = build_code(build_tower(p, s, m), 3)
    assert params.N == 1
    assert brute_distribution(params) == semi_analytic_distribution(params)


# distributions recorded by the walk over every a against one b per coset of <alpha**step>
RECORDED_BRUTE = {
    # r = 4096: k -> 2k has a 2-cycle on Z/step, so Frobenius joins two cosets of b
    (2, 4, 3, 5, 5): {
        0: 1, 1008: 13650, 1056: 6825, 1260: 2325960, 1272: 5159700,
        1284: 5896800, 1296: 2538900, 1308: 819000, 1320: 16380,
    },
    # r = 6561: the stabiliser of b = alpha moves log a by c - j log beta, and j log beta != 0 mod T
    (3, 2, 4, 4, 4): {
        0: 1, 2160: 13120, 2196: 6560, 2232: 6560, 2880: 13546400,
        2916: 18341760, 2952: 8888800, 2988: 2072960, 3024: 170560,
    },
    # e = 7 with s = 3, r = 4096 and n = r-1: two nonzero weights
    (2, 3, 4, 7, 7): {0: 1, 3072: 28665, 3584: 16748550},
    # e = 2 with odd p and s = 2, r = 6561: beta = -1
    (3, 2, 4, 4, 2): {
        0: 1, 1440: 9840, 1512: 3280, 2880: 24206400, 2952: 16137600, 3024: 2689600,
    },
    # p = 67, r = 4489, n = 2244: a large prime
    (67, 1, 2, 33, 3): {
        0: 1, 1452: 6732, 1496: 6732, 2178: 2515524, 2200: 7553304, 2222: 7553304,
        2244: 2515524,
    },
}


@pytest.mark.parametrize("p, s, m, h, e", RECORDED_BRUTE)
def test_brute_matches_recorded_coset_walk(p, s, m, h, e):
    params = build_code(build_tower(p, s, m), h, e)
    assert brute_distribution(params) == RECORDED_BRUTE[p, s, m, h, e]


def test_brute_uses_no_character_layer():
    # brute is the oracle for the character routes, so it must not read any of their names
    def names(code_obj):
        yield from code_obj.co_names
        for const in code_obj.co_consts:
            if isinstance(const, types.CodeType):
                yield from names(const)

    character_layer = {
        name for name, value in vars(charsums).items()
        if getattr(value, "__module__", None) == charsums.__name__
    }
    assert "class_counts" in character_layer
    assert not set(names(brute_distribution.__code__)) & character_layer


@pytest.mark.parametrize("p, s, m, h, e", [(2, 2, 4, 3, 3), (7, 2, 2, 6, 3), (2, 8, 2, 3, 3)])
def test_brute_builds_no_log_or_zech_table(p, s, m, h, e):
    # (7, 2, 2, 6): p odd and s = 2, so the relative-trace coordinates take a rotation of the absolute trace;
    # (2, 8, 2, 3): q = 256, so the coordinates take two-byte slots
    tower = build_tower(p, s, m)
    params = build_code(tower, h, e)
    code._validate(brute_distribution(params), params)
    assert "zech" not in vars(tower)


def test_brute_budget_guard(set1):
    with pytest.raises(BudgetExceededError):
        brute_distribution(set1.params, budget=100)


def test_distribution_invariants(set1, set2):
    for desk, frozen in ((set1, DIST1), (set2, DIST2)):
        code._validate(frozen, desk.params)
        assert sum(frozen.values()) == desk.tower.r ** 2


def test_distribution_validate_rejects_bad_data(set1):
    with pytest.raises(InvariantError):
        code._validate({0: 1, 5: 3}, set1.params)
    with pytest.raises(InvariantError):
        code._validate({12: 2401}, set1.params)
    with pytest.raises(InvariantError):
        code._validate({0: 1, 999: 2400}, set1.params)


def test_every_route_returns_a_plain_dict(set1, set2):
    # {weight: frequency} with positive int frequencies only: not a Counter, whose == ignores zero counts.
    # At e = 4 brute is the only route; at the desk sets all four agree under plain ==
    brute_only = build_code(build_tower(5, 1, 2), 4, 4)
    routes = [brute_distribution(brute_only)]
    for desk in (set1, set2):
        params = desk.params
        dists = [
            brute_distribution(params), semi_analytic_distribution(params),
            table_distribution(params), instantiate_table(desk.case, params),
        ]
        assert dists[0] == dists[1] == dists[2] == dists[3]
        routes += dists
    for dist in routes:
        assert type(dist) is dict
        assert all(type(w) is int and type(f) is int and f > 0 for w, f in dist.items())


def test_weight_equals_lambda_complement(set1, set2):
    # Hamming weight of every codeword equals h(r-1)/q minus (hN/eq) times its period sum
    for desk in (set1, set2):
        t, params, sys_ = desk.tower, desk.params, desk.system
        elems = list(t.elements())
        for a in elems:
            for b in elems:
                direct = hamming_weight(codeword(params, a, b))
                assert direct == codeword_weight_from_lambda(params, sys_, a, b)


def test_lambda_zero_pair(set1, set2):
    for desk in (set1, set2):
        assert codeword_weight_from_lambda(desk.params, desk.system, ZERO, ZERO) == 0


def test_lambda_degenerate_pairs(set1, set2):
    # a = -beta**t b: two period terms plus the coset size (r-1)/N for the vanishing one
    for desk in (set1, set2):
        t, params, sys_ = desk.tower, desk.params, desk.system
        n, n1 = params.N, t.r - 1
        for t_exp in (1, 2, 3):
            for b in (0, 1, 2):
                a = neg(t, mul(t, desk.beta * t_exp % n1, b))
                total = n1 // n
                for i in range(1, 4):
                    if i == t_exp:
                        continue
                    diff = t.add(desk.beta * i % n1, neg(t, desk.beta * t_exp % n1))
                    arg = mul(t, mul(t, b, desk.g * i % n1), diff)
                    total += sys_.periods[arg % n]
                expected = Fraction(params.h * n1, t.q) - Fraction(params.h * n * total, 3 * t.q)
                assert codeword_weight_from_lambda(params, sys_, a, b) == expected


def test_lambda_depends_only_on_coset_vector(set1):
    t, params, sys_ = set1.tower, set1.params, set1.system
    n, n1 = params.N, t.r - 1
    classes = {}
    rng = random.Random(21)
    for _ in range(300):
        a, b = rng.randrange(n1), rng.randrange(n1)
        terms = [t.add(a, mul(t, set1.beta * i % n1, b)) for i in (1, 2, 3)]
        if ZERO in terms:
            continue  # degenerate pair, not in any class
        vec = tuple((-x - i * params.g_log) % n for i, x in zip((1, 2, 3), terms))
        weight = codeword_weight_from_lambda(params, sys_, a, b)
        classes.setdefault(vec, weight)
        assert classes[vec] == weight


def test_semi_analytic_matches_brute(set1, set2):
    for desk in (set1, set2):
        semi = semi_analytic_distribution(desk.params, lifted_sums(desk.system, 1))
        assert semi == brute_distribution(desk.params)


def test_assemble_from_tower_counts_equals_brute():
    # the assembly from counts-side data alone, the tower's periods and its one-pass H, no subfield
    # lift: every e = 3 sweep set with N >= 2 and r**2 * n <= 10**9, the closed forms applicable or not
    sets = not_applicable = 0
    for p, s, m, h in sweep_candidates(5000, 3):
        tower = FieldTower(p, s, m)
        params = build_code(tower, h, 3)
        if params.N < 2 or tower.r**2 * params.n > 10**9:
            continue
        dist = code._assemble(params, CharSystem(tower, params.N).periods, charsums.class_counts(params))
        assert dist == brute_distribution(params), (p, s, m, h)
        sets += 1
        not_applicable += isinstance(classify(params), str)
    assert (sets, not_applicable) == (18, 2)  # (7,1,3,3) and (7,1,3,6): N = 3 with p = 1 mod 3


def test_semi_analytic_frozen(set1, set2):
    assert semi_analytic_distribution(set1.params) == DIST1
    assert semi_analytic_distribution(set2.params) == DIST2


def test_semi_analytic_requires_e3(set1):
    params_e2 = build_code(set1.tower, 2, 2)
    with pytest.raises(BadParametersError):
        semi_analytic_distribution(params_e2)


@pytest.mark.parametrize("p, s, m", [(19, 1, 4), (2, 2, 6)])
def test_semi_analytic_builds_no_log_or_zech_table(p, s, m):
    tower = build_tower(p, s, m)
    params = build_code(tower, 3)
    code._validate(semi_analytic_distribution(params), params)
    assert not {"zech", "trace_q_coords"} & vars(tower).keys()


def test_beta_power_differences_lie_in_coset_zero():
    # the semi route's degenerate families read beta**i - beta**t in C_0 without a field addition
    sets = 0
    for p, s, m, h in sweep_candidates(5000, 3):
        params = build_code(FieldTower(p, s, m), h, 3)
        if params.N < 2:
            continue
        sets += 1
        tw, n1, beta_log = params.tower, params.tower.r - 1, params.beta_log
        for i, t in permutations(range(1, 4), 2):
            diff = tw.add(i * beta_log % n1, neg(tw, t * beta_log % n1))
            assert diff % params.N == 0, (p, s, m, h, i, t)
    assert sets == 36


def test_mean_weight_identity(set1, set2):
    # every coordinate functional is onto GF(q), so weights average to n(q-1)/q
    for desk in (set1, set2):
        t, params = desk.tower, desk.params
        dist = brute_distribution(params)
        assert sum(w * f for w, f in dist.items()) * t.q == params.n * t.r**2 * (t.q - 1)


def test_distribution_invariant_under_defining_polynomial(set1):
    t = set1.tower
    alt_poly = find_primitive_polynomial(t.p, t.degree, index=1)
    assert alt_poly != t.defining_polynomial
    alt_tower = build_tower(t.p, t.s, t.m, poly=alt_poly)
    alt_params = build_code(alt_tower, set1.params.h, 3)
    assert brute_distribution(alt_params) == DIST1
    assert semi_analytic_distribution(alt_params) == DIST1


def test_general_e_brute_force():
    # e = 2 code on the same tower: enumeration and the per-pair reference stay valid
    tower = build_tower(7, 1, 2)
    params = build_code(tower, 6, 2)
    assert params.n == 48 and params.N == 2
    code._validate(brute_distribution(params), params)
    # e = 2, 4 and 6, one with N = 3: the reference weight is the codeword's on a grid of pairs, ZERO included
    for p, s, m, h, e, n_ord in [(7, 1, 2, 6, 2, 2), (5, 1, 2, 4, 4, 2), (13, 1, 3, 4, 4, 3), (7, 1, 2, 6, 6, 2)]:
        tower = build_tower(p, s, m)
        params = build_code(tower, h, e)
        assert params.N == n_ord
        system = CharSystem(tower, n_ord)
        elems = list(tower.elements())
        for a, b in product(elems[:: len(elems) // 8], repeat=2):
            direct = hamming_weight(codeword(params, a, b))
            assert direct == codeword_weight_from_lambda(params, system, a, b), (p, s, m, h, e, a, b)


# every valid e = 3 set with r <= 128 whose brute cost r^2*n stays desk-sized
SMALL_SETS = [
    (p, s, m, h)
    for p, s, m, h in sorted(sweep_candidates(128, 3))
    if p ** (2 * s * m) * h * (p ** (s * m) - 1) // (p**s - 1) <= 300_000
]


def _primitive_count(p: int, degree: int) -> int:
    """Number of monic primitive polynomials: phi(p**degree - 1) / degree."""
    phi = order = p**degree - 1
    for ell in prime_factors(order):
        phi = phi // ell * (ell - 1)
    return phi // degree


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(SMALL_SETS), st.integers(min_value=0, max_value=10**6))
@example((7, 1, 2, 3), 1)
@example((2, 2, 3, 3), 5)
def test_routes_agree_under_any_defining_polynomial(pssmh, draw):
    p, s, m, h = pssmh
    poly = find_primitive_polynomial(p, s * m, draw % _primitive_count(p, s * m))
    params = build_code(build_tower(p, s, m, poly=poly), h, 3)
    brute = brute_distribution(params)
    assert brute == brute_distribution(build_code(build_tower(p, s, m), h, 3))
    assert semi_analytic_distribution(params) == brute
    case = classify(params)
    if isinstance(case, TheoremCase):
        assert table_distribution(params) == brute
