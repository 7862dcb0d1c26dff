"""Exact arithmetic in the rings Z[zeta_n] of cyclotomic integers.

Values are stored in canonical form: an integer coefficient vector of
length phi(n) = deg Phi_n, the residue modulo the n-th cyclotomic
polynomial Phi_n.  Canonical form is unique, so equality and the
is-it-a-rational-integer test are coefficient comparisons.  Coefficients
are Python ints, hence arbitrary precision; there is no floating point
anywhere.

Multiplication runs in Z[x]/(x**n - 1) (cyclic convolution of the
canonical vectors padded to length n) followed by one reduction modulo
Phi_n; since Phi_n divides x**n - 1 the two quotients commute.
"""

from __future__ import annotations

import math
from functools import lru_cache


class OrderMismatchError(ValueError):
    """Mixed root-of-unity orders without an explicit embed."""


class NotDivisibleError(ValueError):
    """Target order is not a multiple of the current order."""


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    # den monic; division must be exact (used only for x**n - 1 over the Phi_d)
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c:
            quot[i - deg_d] = c
            for j, dj in enumerate(den):
                num[i - deg_d + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact cyclotomic polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant first: 1 + x + ... + x**(n-1) for prime n,
    Phi_m(-x) for n = 2m with m > 1 odd, else x**n - 1 divided exactly by the
    Phi_d over all proper divisors d of n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % 4 == 2 and n > 2:
        return tuple(-c if k % 2 else c for k, c in enumerate(cyclotomic_polynomial(n // 2)))
    if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)):
        return (1,) * n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce(coeffs: list[int], n: int) -> tuple[int, ...]:
    """Reduce a coefficient list (any length) to canonical form mod Phi_n."""
    deg = _phi_degree(n)
    # fold exponents with x**n = 1 first; cheap and keeps degrees < n
    if len(coeffs) > n:
        folded = [0] * n
        for k, c in enumerate(coeffs):
            folded[k % n] += c
        coeffs = folded
    else:
        coeffs = list(coeffs)
    if n % 2 == 0:  # Phi_n divides x**(n/2) + 1: fold with x**(n/2) = -1, O(p) for n = 2p
        half = n // 2
        for i in range(half, len(coeffs)):
            coeffs[i - half] -= coeffs[i]
        del coeffs[half:]
    phi = cyclotomic_polynomial(n)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            for j in range(deg):
                coeffs[i - deg + j] -= c * phi[j]
    coeffs = coeffs[:deg]
    coeffs += [0] * (deg - len(coeffs))
    return tuple(coeffs)


class CycInt:
    """Immutable cyclotomic integer in Z[zeta_n], canonical mod Phi_n."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs, reduced: bool = False):
        self.order = order
        self.coeffs = tuple(coeffs) if reduced else _reduce(list(coeffs), order)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CycInt":
        return cls(order, (0,) * _phi_degree(order), reduced=True)

    @classmethod
    def from_int(cls, order: int, value: int) -> "CycInt":
        return cls(order, [value])

    # -- ring structure --------------------------------------------------------

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, int):
            return CycInt.from_int(self.order, other)
        if isinstance(other, CycInt):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"orders {self.order} and {other.order} differ; embed first"
                )
            return other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = CycInt.from_int(self.order, other)
        return (
            isinstance(other, CycInt)
            and other.order == self.order
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __add__(self, other) -> "CycInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), reduced=True
        )

    __radd__ = __add__

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, tuple(-a for a in self.coeffs), reduced=True)

    def __sub__(self, other) -> "CycInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "CycInt":
        if isinstance(other, int):
            return CycInt(self.order, tuple(other * a for a in self.coeffs), reduced=True)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.order
        prod = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[(i + j) % n] += a * b
        return CycInt(n, prod)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycInt":
        if e < 0:
            raise ValueError("negative powers not defined in Z[zeta]")
        result = self if e else CycInt.from_int(self.order, 1)
        for bit in bin(e)[3:]:  # left to right below the top bit: no product with 1
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- structure maps --------------------------------------------------------

    def embed(self, new_order: int) -> "CycInt":
        """Image under zeta_n -> zeta_new**(new/n); injective ring map."""
        if new_order % self.order:
            raise NotDivisibleError(f"{self.order} does not divide {new_order}")
        step = new_order // self.order
        out = [0] * new_order
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return CycInt(new_order, out)

    def as_integer(self) -> "int | None":
        """The value as a rational integer, or None if it is irrational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self) -> str:
        return f"CycInt(order={self.order}, coeffs={list(self.coeffs)})"
