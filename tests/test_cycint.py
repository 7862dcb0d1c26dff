import random

import pytest

from conftest import root_of_unity

import cyclotome.cycint as cycint
from cyclotome.cycint import (
    CycInt,
    NotDivisibleError,
    OrderMismatchError,
    cyclotomic_polynomial,
)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 201):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_polynomial_prime_and_twice_odd_need_no_division(monkeypatch):
    def no_division(num, den):
        raise AssertionError("exact division used")

    monkeypatch.setattr(cycint, "_poly_divmod_exact", no_division)
    cyclotomic_polynomial.cache_clear()
    try:
        assert cyclotomic_polynomial(1021) == (1,) * 1021
        assert cyclotomic_polynomial(2042) == tuple((-1) ** k for k in range(1021))
    finally:
        cyclotomic_polynomial.cache_clear()


def test_root_of_unity_vanishes_on_its_polynomial():
    for n in range(1, 31):
        z = root_of_unity(n)
        value = CycInt.zero(n)
        for k, c in enumerate(cyclotomic_polynomial(n)):
            value = value + (z**k) * c
        assert not value


def test_root_of_unity_examples():
    for n in (1, 2, 3, 7, 12):
        assert root_of_unity(n, 0) == 1
    assert root_of_unity(2, 1) == -1
    for n in range(2, 13):
        total = CycInt.zero(n)
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert not total  # geometric sum of all n-th roots
    assert root_of_unity(5, 7) == root_of_unity(5, 2)


def test_addition_and_multiplication_examples():
    z3 = root_of_unity(3)
    assert z3 * z3**2 == 1
    assert z3 + z3**2 == -1
    # (1 + z5)(1 + z5**4) = 1 - z5**2 - z5**3, expanded by hand
    z5 = root_of_unity(5)
    prod = (1 + z5) * (1 + z5**4)
    assert prod.coeffs == (1, 0, -1, -1)


def test_embed_examples():
    minus_one = root_of_unity(2, 1)
    assert minus_one.embed(4) == root_of_unity(4, 2)
    z3 = root_of_unity(3)
    assert z3.embed(6) == root_of_unity(6, 2)
    assert z3.embed(3) == z3
    with pytest.raises(NotDivisibleError):
        z3.embed(7)


def test_embed_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.choice([2, 3, 4, 6])
        target = n * rng.choice([2, 3, 5])
        a = CycInt(n, [rng.randint(-4, 4) for _ in range(n)])
        b = CycInt(n, [rng.randint(-4, 4) for _ in range(n)])
        assert (a * b).embed(target) == a.embed(target) * b.embed(target)
        assert (a + b).embed(target) == a.embed(target) + b.embed(target)


def test_as_integer():
    z3 = root_of_unity(3)
    assert (1 + z3 + z3**2).as_integer() == 0
    assert z3.as_integer() is None
    assert CycInt.from_int(12, -7).as_integer() == -7


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        root_of_unity(3) + root_of_unity(4)
    with pytest.raises(OrderMismatchError):
        root_of_unity(3) * root_of_unity(6)


def test_reduction_is_idempotent_and_canonical():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice([2, 3, 4, 5, 6, 7, 12])
        raw = [rng.randint(-9, 9) for _ in range(2 * n)]
        a = CycInt(n, raw)
        assert CycInt(n, list(a.coeffs)) == a
        assert len(a.coeffs) == len(cyclotomic_polynomial(n)) - 1
    # the full sum of 5th roots reduces to zero however it is entered
    assert CycInt(5, [1, 1, 1, 1, 1]) == CycInt.zero(5)


def test_ring_axioms_on_random_elements():
    rng = random.Random(9)
    for _ in range(120):
        n = rng.choice([2, 3, 4, 6, 7, 10])
        a, b, c = (CycInt(n, [rng.randint(-5, 5) for _ in range(n)]) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + CycInt.zero(n) == a
        assert a * CycInt.from_int(n, 1) == a
        assert a - a == CycInt.zero(n)


def test_integer_coefficients_stay_exact():
    # products at the magnitude the tables reach: r**1.5 and beyond
    big = CycInt.from_int(4, 2**70) + root_of_unity(4) * 3
    sq = big * big
    assert sq.coeffs[0] == 2**140 - 9
    assert sq.coeffs[1] == 3 * 2**71
