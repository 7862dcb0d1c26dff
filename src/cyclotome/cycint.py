"""Exact arithmetic in the rings Z[zeta_n] of cyclotomic integers.

Values are stored in canonical form: an integer coefficient vector of
length phi(n) = deg Phi_n, the residue modulo the n-th cyclotomic
polynomial Phi_n.  Canonical form is unique, so equality and the
is-it-a-rational-integer test are coefficient comparisons.  Coefficients
are Python ints, hence arbitrary precision; there is no floating point
anywhere.

Multiplication runs in Z[x]/(x**n - 1) (cyclic convolution of the
canonical vectors padded to length n) followed by one reduction modulo
Phi_n; since Phi_n divides x**n - 1 the two quotients commute.  Phi_n is one
Moebius product over the divisors of n, their primes from ``fields.prime_factors``;
powers use ``fields.power``, the one square-and-multiply, as ``lifted_sums`` does.
"""

from __future__ import annotations

from functools import lru_cache

from .fields import power, prime_factors


class OrderMismatchError(ValueError):
    """Mixed root-of-unity orders without an explicit embed."""


class NotDivisibleError(ValueError):
    """Target order is not a multiple of the current order."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant first: for n > 1 the product of (1 - x**d)**mu(n/d) over the
    d | n (Lidl & Niederreiter, *Finite Fields*, Thm 3.27; the signs cancel as the mu(n/d) sum to 0),
    each factor applied in place to one list cut at degree phi(n): times 1 - x**d is c[i] -= c[i-d]
    with i going down, over it c[i] += c[i-d] with i going up."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    divisors = [(1, 1)]  # (e, mu(e)) over the squarefree e | n
    for ell in prime_factors(n):
        divisors += [(e * ell, -mu) for e, mu in divisors]
    deg = sum(mu * (n // e) for e, mu in divisors)  # phi(n)
    c = [1] + [0] * deg
    for e, mu in divisors:
        d = n // e
        for i in range(deg, d - 1, -1) if mu > 0 else range(d, deg + 1):
            c[i] -= mu * c[i - d]
    return tuple(c)


def _reduce(coeffs: list[int], n: int) -> tuple[int, ...]:
    """Reduce a coefficient list (any length) to canonical form mod Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
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
        return cls(order, (0,) * (len(cyclotomic_polynomial(order)) - 1), reduced=True)

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
        return power(self, e, CycInt.__mul__) if e else CycInt.from_int(self.order, 1)

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
