import itertools
import math
import random
from array import array
from dataclasses import replace

import pytest

from conftest import mul, neg, packed, trace_p, trace_to_q
from naive_oracle import NaiveField

from cyclotome.charsums import CharSystem, f_closed
from cyclotome.code import build_code
from cyclotome.fields import (
    ZERO,
    BadModulusError,
    BadPolynomialError,
    FieldTooLargeError,
    FieldTower,
    NonPrimeError,
    NoPrimitivePolynomialError,
    _is_primitive,
    build_tower,
    find_primitive_polynomial,
    is_prime,
    power,
    prime_factors,
)
from cyclotome.theorem import classify, instantiate_table, table_distribution


def test_build_tower_examples():
    t = build_tower(7, 1, 2)
    assert (t.q, t.r) == (7, 49)
    # alpha has order r-1: its powers alpha**k, k < r-1, are r-1 distinct nonzero vectors
    assert sorted(t._pow_packed) == list(range(1, t.r))
    t2 = build_tower(2, 2, 3)
    assert (t2.q, t2.r) == (4, 64)
    assert sorted(t2._pow_packed) == list(range(1, 64))


def test_build_tower_rejects_bad_input():
    with pytest.raises(NonPrimeError):
        build_tower(4, 1, 3)
    with pytest.raises(FieldTooLargeError):
        build_tower(2, 1, 30)
    with pytest.raises(ValueError):
        build_tower(7, 0, 2)


def test_find_primitive_polynomial_rejects_composite_p():
    with pytest.raises(NonPrimeError, match="p = 4 is not prime"):
        find_primitive_polynomial(4, 2)


def test_p_below_2_is_not_prime_at_any_degree():
    # the cap's shortcut on s*m holds for p >= 2, so p <= 1 keeps its own error
    for p in (1, 0, -1, -2):
        with pytest.raises(NonPrimeError, match=f"p = {p} is not prime"):
            build_tower(p, 1, 30)


def test_classification_and_table_build_no_field_table():
    # the closed forms read only integers, so they too leave the tower bare
    tower = build_tower(13, 2, 2)
    params = build_code(tower, 3)
    case = classify(params)
    table_distribution(params)
    instantiate_table(replace(case, case_major=1), params)
    f_closed(params, case)
    case.periods
    built = set(vars(tower))
    assert not built & {"defining_polynomial", "zech", "trace_q_coords", "trace_p_table"}
    assert not [name for name in built if isinstance(vars(tower)[name], array)]


def _by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primes_helpers():
    assert [n for n in range(2, 40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(1) and not is_prime(7919 * 7927)
    # the least strong pseudoprimes to bases 2, 3; 2, 3, 5; and 2, 3, 5, 7: Miller-Rabin on those bases
    # would call each prime, and trial division must not
    assert not is_prime(1_373_653) and not is_prime(25_326_001)
    assert 151 * 751 * 28351 == 3_215_031_751 and not is_prime(3_215_031_751)
    assert is_prime(3_215_031_749) and not is_prime(3_215_031_753)
    assert [n for n in range(200_000) if is_prime(n)] == [n for n in range(200_000) if _by_trial_division(n)]
    # near the field cap 2**24
    near_cap = range(16_777_150, 1 << 24)
    assert [n for n in near_cap if is_prime(n)] == [n for n in near_cap if _by_trial_division(n)]
    assert [n for n in near_cap if is_prime(n)] == [16_777_153, 16_777_183, 16_777_199, 16_777_213]
    assert prime_factors(48) == [2, 3]
    assert prime_factors(2**6 - 1) == [3, 7]


def test_power_matches_builtin_pow():
    # the one square-and-multiply, against the built-in, plain and modulo m for every k up to 64
    m = 1_000_003
    for base in (-3, 2, 7, 12_345, 2**61 - 1):
        for k in range(1, 65):
            assert power(base, k, int.__mul__) == pow(base, k)
            assert power(base % m, k, lambda a, b: a * b % m) == pow(base, k, m)


def test_exp_log_roundtrip(set1):
    t, p = set1.tower, set1.tower.p
    # zech reads its log table at each window plus 1 in digit 0: the log of that sum, ZERO at -1
    for k in range(t.r - 1):
        v = packed(t, k)
        assert packed(t, t.zech[k]) == v + (1 if v % p < p - 1 else 1 - p)
    assert sorted(t.zech) == [ZERO, *range(1, t.r - 1)]
    # the nonzero elements pack to exactly the nonzero vectors; zero packs to 0
    assert sorted(t._pow_packed) == list(range(1, t.r))
    assert packed(t, ZERO) == 0


def test_dlog_examples(set1):
    t = set1.tower
    # index 0 is one, the unit window; alpha**((r-1)/(p-1)) is Norm(alpha) = (-1)**d f_0, a residue
    p, d, f = t.p, t.degree, t.defining_polynomial
    assert packed(t, (t.r - 1) // (p - 1) % (t.r - 1)) == (-1) ** d * f[0] % p
    assert packed(t, 0) == 1


def test_dlog_is_homomorphism(set1, set2):
    # against polynomial arithmetic mod the tower's polynomial, x**k the element of index k
    rng = random.Random(7)
    for desk in (set1, set2):
        t = desk.tower
        naive = NaiveField(t.p, t.defining_polynomial)
        for _ in range(200):
            i, j = rng.randrange(t.r - 1), rng.randrange(t.r - 1)
            assert naive.mul(naive.pows[i], naive.pows[j]) == naive.pows[mul(t, i, j)]
            total = t.add(i, j)
            assert naive.add(naive.pows[i], naive.pows[j]) == (naive.zero if total == ZERO else naive.pows[total])


def test_coset_examples(set1, set2):
    for desk in (set1, set2):
        t, n = desk.tower, desk.params.N
        assert 1 * n % (t.r - 1) % n == 0  # alpha**n lies in coset 0
        # beta and the whole middle subfield GF(q)* are N-th powers
        assert desk.params.beta_log % n == 0
        for k in range(0, t.r - 1, t.subfield_step):
            assert k % n == 0
    with pytest.raises(BadModulusError):
        CharSystem(set1.tower, 5)


def test_trace_to_q_matches_power_and_add(set1, set2):
    for desk in (set1, set2):
        t = desk.tower
        for x in t.elements():
            expected = ZERO
            for i in range(t.m):
                expected = t.add(expected, x * t.q**i % (t.r - 1)) if x != ZERO else expected
            assert trace_to_q(t, x) == expected
            assert expected == ZERO or expected % t.subfield_step == 0


def test_trace_additive_and_q_linear(set1):
    # exhaustive at this scale: all pairs for additivity, all (a, x) for scaling
    t = set1.tower
    xs = list(t.elements())
    for x in xs:
        for y in xs:
            assert trace_to_q(t, t.add(x, y)) == t.add(trace_to_q(t, x), trace_to_q(t, y))
    subfield = [ZERO, *range(0, t.r - 1, t.subfield_step)]
    for a in subfield:
        for x in xs:
            assert trace_to_q(t, mul(t, a, x)) == mul(t, a, trace_to_q(t, x))


def test_trace_fibers_have_size_r_over_q(set1, set2):
    for desk in (set1, set2):
        t = desk.tower
        fibers = {}
        for x in t.elements():
            fibers.setdefault(trace_to_q(t, x), 0)
            fibers[trace_to_q(t, x)] += 1
        assert len(fibers) == t.q
        assert set(fibers.values()) == {t.r // t.q}


def test_trace_to_p_kernel_and_range(set1, set2):
    for desk in (set1, set2):
        t = desk.tower
        values = [trace_p(t, x) for x in t.elements()]
        assert all(0 <= v < t.p for v in values)
        assert values.count(0) == t.r // t.p


def test_trace_transitivity(set1, set2):
    # absolute trace equals GF(q)->GF(p) trace applied after the relative one
    for desk in (set1, set2):
        t = desk.tower
        for x in t.elements():
            y = trace_to_q(t, x)
            outer = ZERO
            for i in range(t.s):
                outer = t.add(outer, y * t.p**i % (t.r - 1)) if y != ZERO else outer
            # an element of GF(p) packs to its own residue
            assert packed(t, outer) == trace_p(t, x)


def test_subfield_is_fixed_field_and_closed(set1, set2):
    for desk in (set1, set2):
        t = desk.tower
        fixed = [x for x in t.elements() if x == ZERO or x * t.q % (t.r - 1) == x]
        assert len(fixed) == t.q
        for x in fixed:
            for y in fixed:
                assert t.add(x, y) in fixed
                assert mul(t, x, y) in fixed


def test_beta_cube_relations(set1, set2):
    for desk in (set1, set2):
        t, beta = desk.tower, desk.beta
        assert beta * 3 % (t.r - 1) == 0
        assert t.add(t.add(0, beta), beta * 2 % (t.r - 1)) == ZERO


def test_negation_and_subtraction(set1):
    t = set1.tower
    minus_one = neg(t, 0)
    assert t.add(0, minus_one) == ZERO
    assert minus_one == t.neg_shift
    x, y = 17, 30
    assert t.add(t.add(x, neg(t, y)), y) == x


def test_char2_negation(set2):
    t = set2.tower
    assert neg(t, 1) == 1
    assert t.add(1, 1) == ZERO


def test_primitive_polynomial_search_is_deterministic():
    assert find_primitive_polynomial(7, 2) == (3, 1, 1)
    assert find_primitive_polynomial(7, 2, index=1) == (3, 2, 1)
    assert build_tower(7, 1, 2).defining_polynomial == build_tower(7, 1, 2).defining_polynomial
    assert build_tower(2, 2, 3).defining_polynomial == (1, 0, 0, 0, 0, 1, 1)
    assert find_primitive_polynomial(19, 4) == (2, 0, 0, 1, 1)
    assert find_primitive_polynomial(2, 12) == (1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1)
    assert find_primitive_polynomial(13, 4) == (2, 0, 2, 6, 1)
    assert find_primitive_polynomial(3, 10) == (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1)


@pytest.mark.parametrize(
    "p, degree",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 1), (3, 2), (3, 3), (3, 4),
     (3, 5), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (11, 2), (13, 1), (13, 2)],
)
def test_search_matches_plain_lexicographic_scan(p, degree):
    # every constant term, in lexicographic order, no filter: neither the norm test nor the skip of
    # roots at 1 and -1, which degree 1 is exempt from (x + 1 is primitive over GF(2) and GF(3))
    factors = prime_factors(p**degree - 1)
    scan = [
        (*low, 1)
        for low in itertools.product(range(p), repeat=degree)
        if _is_primitive([*low, 1], p, factors)
    ]
    for index in range(4):
        if index < len(scan):
            assert find_primitive_polynomial(p, degree, index) == scan[index]
        else:
            with pytest.raises(NoPrimitivePolynomialError):
                find_primitive_polynomial(p, degree, index)


def test_degree_one_primitivity_is_the_order_of_minus_c0():
    # x mod (x + c0) is -c0 in GF(p): primitive iff -c0 has order p - 1
    for p in filter(is_prime, range(100)):
        factors = prime_factors(p - 1)
        for c0 in range(p):
            order = next((k for k in range(1, p) if pow(-c0, k, p) == 1), None)
            assert _is_primitive([c0, 1], p, factors) == (order == p - 1), (p, c0)


def test_find_primitive_polynomial_rejects_degree_below_one():
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree must be positive"):
            find_primitive_polynomial(7, degree)


def _walk_accepts(f, p):
    """The exp-table walk as oracle: it returns to 1 after exactly p**d - 1 steps iff f is primitive."""
    try:
        FieldTower(p, 1, len(f) - 1, tuple(f))._pow_packed
    except NoPrimitivePolynomialError:
        return False
    return True


def _random_monic(rng, p, degree, count):
    return [[rng.randrange(1, p), *(rng.randrange(p) for _ in range(degree - 1)), 1] for _ in range(count)]


@pytest.mark.parametrize("p, degrees", [(2, range(2, 9)), (3, range(2, 5)), (5, (2, 3)), (7, (2,)), (13, (2,))])
def test_packed_primitivity_agrees_with_the_walk_on_every_polynomial(p, degrees):
    for degree in degrees:
        factors = prime_factors(p**degree - 1)
        for c0 in range(1, p):
            for high in itertools.product(range(p), repeat=degree - 1):
                f = [c0, *high, 1]
                assert _is_primitive(f, p, factors) == _walk_accepts(f, p), f


@pytest.mark.parametrize("p, degree", [(2, 16), (3, 10), (13, 4)])
def test_packed_primitivity_agrees_with_the_walk_on_random_polynomials(p, degree):
    factors = prime_factors(p**degree - 1)
    polys = _random_monic(random.Random(p * 100 + degree), p, degree, 50)
    polys += [list(find_primitive_polynomial(p, degree, index)) for index in range(3)]
    verdicts = [_is_primitive(f, p, factors) for f in polys]
    assert verdicts == [_walk_accepts(f, p) for f in polys]
    assert any(verdicts[:50]) and not all(verdicts[:50])


def test_packed_primitivity_at_the_widest_slots():
    # p = 4093, d = 2: r = 4093**2 is just under the cap and p the largest prime with a degree-2 tower,
    # so the slots are the widest.  The walk there takes r - 1 steps per polynomial, so the oracle is
    # x**e by schoolbook products mod f, with x**2 = -f[1] x - f[0]
    p = 4093
    order, factors = p**2 - 1, prime_factors(p**2 - 1)

    def x_power(f, e):
        def times(a, b):
            top = a[1] * b[1]
            return (a[0] * b[0] - top * f[0]) % p, (a[0] * b[1] + a[1] * b[0] - top * f[1]) % p

        result, base = (1, 0), (0, 1)
        while e:
            if e & 1:
                result = times(result, base)
            base = times(base, base)
            e >>= 1
        return result

    polys = _random_monic(random.Random(4093), p, 2, 50) + [list(find_primitive_polynomial(p, 2))]
    verdicts = [_is_primitive(f, p, factors) for f in polys]
    oracle = [
        x_power(f, order) == (1, 0) and all(x_power(f, order // ell) != (1, 0) for ell in factors) for f in polys
    ]
    assert verdicts == oracle
    assert any(verdicts[:50]) and not all(verdicts[:50])


def test_override_at_the_cap():
    # r = 2**24 with the widest packing over GF(2): the 24-slot residues of the override check
    poly = find_primitive_polynomial(2, 24)
    assert build_tower(2, 2, 12, poly=poly).defining_polynomial == poly
    with pytest.raises(BadPolynomialError, match="not primitive"):
        build_tower(2, 2, 12, poly=(1, *[0] * 23, 1))  # x**24 + 1 = (x**3 + 1)**8 over GF(2)


def assert_encodes_relative_trace(coords, reference):
    """coords agree where the packed reference traces agree, and are 0 where they are 0."""
    pairs = set(zip(coords, reference))
    assert len(pairs) == len({c for c, _ in pairs}) == len({v for _, v in pairs})
    assert all((c == 0) == (v == 0) for c, v in pairs)


@pytest.mark.parametrize("psm", [(2, 2, 3), (3, 2, 2), (13, 2, 2), (2, 2, 6), (5, 1, 4), (2, 3, 1)])
def test_trace_tables_match_frobenius_sums(psm):
    t = build_tower(*psm)
    for name in ("_pow_packed", "zech", "trace_q_coords", "trace_p_table"):
        assert getattr(t, name).typecode == "i"
    relatives = []
    for k in range(t.r - 1):
        relative, absolute = ZERO, ZERO
        for i in range(t.m):
            relative = t.add(relative, k * t.q**i % (t.r - 1))
        for i in range(t.degree):
            absolute = t.add(absolute, k * t.p**i % (t.r - 1))
        relatives.append(packed(t, relative))
        assert packed(t, absolute) == t.trace_p_table[k]
    assert_encodes_relative_trace(t.trace_q_coords, relatives)


def test_polynomial_override_validation():
    with pytest.raises(BadPolynomialError):
        build_tower(7, 1, 2, poly=(1, 0, 0, 1))  # wrong degree
    with pytest.raises(BadPolynomialError):
        build_tower(7, 1, 2, poly=(3, 1, 2))  # not monic
    with pytest.raises(BadPolynomialError):
        build_tower(7, 1, 2, poly=(1, 0, 1))  # irreducible but not primitive: x has order 4
    alt = build_tower(7, 1, 2, poly=(3, 2, 1))
    assert alt.defining_polynomial == (3, 2, 1)
    assert sorted(alt._pow_packed) == list(range(1, 49))  # alpha has order 48


def test_prime_field_edge_case():
    t = build_tower(5, 1, 1)
    assert t.r == 5 and t.degree == 1
    assert {trace_p(t, x) for x in t.elements()} == set(range(5))
    assert sorted(t._pow_packed) == [1, 2, 3, 4]  # alpha has order 4


def _pow_packed_by_digits(tower) -> list[int]:
    """The coefficient vector of alpha**k packed base p, k < r-1, by a per-digit walk of alpha*v."""
    p, d = tower.p, tower.degree
    f_low = tower.defining_polynomial[:d]
    out, vec, weights = [], [1] + [0] * (d - 1), [p**i for i in range(d)]
    for _ in range(tower.r - 1):
        out.append(sum(c * w for c, w in zip(vec, weights)))
        lead = vec[d - 1]
        vec[1:] = vec[: d - 1]
        vec[0] = 0
        if lead:
            for i in range(d):
                vec[i] = (vec[i] - lead * f_low[i]) % p
    return out


def _reference_tables(tower) -> dict[str, list[int]]:
    """Coefficient vectors, the Zech and trace tables and the relative trace by coefficient arithmetic."""
    p, d, n1 = tower.p, tower.degree, tower.r - 1
    pow_ref = _pow_packed_by_digits(tower)
    log_ref = [0] * tower.r
    for k, v in enumerate(pow_ref):
        log_ref[v] = k
    digit = [[v // p**i % p for v in pow_ref] for i in range(d)]  # digit[i][k]: digit i of alpha**k

    def linear_trace(step: int, terms: int) -> list[int]:
        # both traces are GF(p)-linear in the coefficient vector: Tr(v) = sum of v_j Tr(x**j),
        # and Tr(x**j) is the digit-wise sum of the vectors of x**(j * step**e), e < terms
        packed = [0] * n1
        for i in range(d):
            acc = [0] * n1
            for j in range(d):
                t_ij = sum(digit[i][j * step**e % n1] for e in range(terms))
                acc = [a + c * t_ij for a, c in zip(acc, digit[j])]
            packed = [x + a % p * p**i for x, a in zip(packed, acc)]
        return packed

    one_plus = [v - c + (c + 1) % p for v, c in zip(pow_ref, digit[0])]
    return {
        "coefficients": pow_ref,
        "zech": [log_ref[v] if v else ZERO for v in one_plus],
        # the relative trace packed as an element of GF(r); trace_q_coords only has to encode it
        "relative_trace": linear_trace(tower.q, tower.m),
        # an element of GF(p) packs to its own residue
        "trace_p_table": linear_trace(p, d),
    }


@pytest.mark.parametrize(
    "psm, poly_index",
    [((101, 1, 1), 0), ((251, 1, 2), 0), ((7, 1, 3), 0), ((3, 1, 5), 0), ((2, 2, 6), 0),
     ((19, 1, 4), 0), ((13, 2, 2), 0), ((7, 1, 3), 1), ((2, 2, 6), 1), ((2, 1, 1), 0), ((3, 1, 1), 0),
     ((2, 4, 2), 0)],
)
def test_tables_match_per_digit_reference(psm, poly_index):
    p, s, m = psm
    d = s * m
    tower = build_tower(*psm, poly=find_primitive_polynomial(p, d, poly_index))
    reference = _reference_tables(tower)
    assert_encodes_relative_trace(tower.trace_q_coords, reference.pop("relative_trace"))
    windows = tower._pow_packed.tolist()

    def digits(v: int) -> list[int]:
        return [v // p**j % p for j in range(d)]

    # the windows are the GF(p)-linear image of the coefficient vectors, x**i going to alpha**i's window
    basis = [digits(w) for w in windows[:d]]
    for k, coeffs in enumerate(reference.pop("coefficients")):
        image = [sum(c * b[j] for c, b in zip(digits(coeffs), basis)) % p for j in range(d)]
        assert windows[k] == sum(x * p**j for j, x in enumerate(image)), k
    assert windows[0] == 1
    for name, table in reference.items():
        assert getattr(tower, name).tolist() == table, name


@pytest.mark.parametrize("psm, poly_index", [((7, 1, 3), 1), ((2, 2, 6), 1), ((13, 1, 2), 0), ((2, 1, 4), 0)])
def test_char_system_buckets_match_naive_loop(psm, poly_index):
    p, s, m = psm
    tower = build_tower(*psm, poly=find_primitive_polynomial(p, s * m, poly_index))
    for order in [n for n in range(1, 8) if (tower.r - 1) % n == 0]:
        periods = [[0] * p for _ in range(order)]
        pairs = [[0] * order for _ in range(order)]
        for k in range(tower.r - 1):
            periods[k % order][trace_p(tower, k)] += 1
            one_minus = tower.add(0, neg(tower, k))
            if one_minus != ZERO:
                pairs[k % order][one_minus % order] += 1
        system = CharSystem(tower, order)
        assert system.period_counts == periods
        assert system.pair_counts == pairs


def test_non_primitive_polynomial_is_caught():
    # x**4 + x**3 + x**2 + x + 1 is irreducible over GF(2), but x has order 5, not 15
    tower = FieldTower(2, 1, 4, poly=(1, 1, 1, 1, 1))
    with pytest.raises(NoPrimitivePolynomialError):
        tower.zech
    # the walk itself refuses it, so brute and semi, which build no log table, refuse it too
    with pytest.raises(NoPrimitivePolynomialError):
        tower.trace_p_table


def test_missing_newton_window_is_an_internal_failure():
    # a walk without the window (Tr(alpha**j))_{j<4} = 8 of 1/c exits 1 like any internal failure, never 2
    tower = FieldTower(2, 1, 4, poly=(1, 1, 0, 0, 1))
    tower._pow_packed = array("i", [1])
    with pytest.raises(NoPrimitivePolynomialError):
        tower.trace_p_table
