"""Gaussian periods, Gauss sums, Jacobi sums, and the class histogram H.

Everything is evaluated exactly: sums over GF(r) are bucketed into integer
count tables in one pass over the field.  The Gaussian periods are read
off those counts as ints, one list indexed by coset; the Gauss and Jacobi
sums, which are irrational, are assembled into cyclotomic integers
(:class:`~cyclotome.cycint.CycInt`).  The multiplicative
character chi of order N sends alpha**k to zeta_N**k; the additive
character psi sends x to zeta_p**Tr(x), Tr the absolute trace to GF(p).
Every character, including the principal one, takes the value 0 at 0
inside Gauss and Jacobi sums; the boundary evaluations r - 2 and -1
below pin that convention.

The class counts are one histogram H over y in GF(r) and the point at
infinity, keyed by d = (L1 - L3, L2 - L3) with L_i = log(y + beta**i) mod N
(every L_i = 0 at infinity); the three points y = -beta**t are left out,
so H sums to r - 2.  A pair (a, b) with b != 0 is b*(y, 1) and a pair
(a, 0) is a*(infinity): the scale adds one residue to every L_i, so H
sizes every class of pairs.  Every route returns H with zero counts
dropped: direct enumeration (one pass over GF(r)) and one Jacobi-sum
identity, N**2 H(d) = r + 1 - N*#{x_k = 0} + S(x1, x2) at
x = (-d1, -d2, d2 - d1) mod N, with S the sum of zeta_N**(i*x1 + j*x2) J(i, j).
As N | 3 log g, it reads neither g nor (r-1)/N.  It is fed the tower's
Jacobi sums, a subfield's lifted to GF(r) (``subfield_sums``, semi's), or
the semiprimitive value -sg*sqrt(r), which makes it the closed form.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import count, product
from typing import TYPE_CHECKING

from .cycint import CycInt
from .fields import ZERO, BadModulusError, FieldTower

if TYPE_CHECKING:
    from .code import CodeParams
    from .theorem import TheoremCase


class NonIntegerResultError(ArithmeticError):
    """A sum that must be a rational integer came out irrational or indivisible."""


class InvariantError(ArithmeticError):
    """An internal invariant failed: a bug in the tables or the routes, not bad input."""


class CharSystem:
    """Character data for one tower and one character order N.

    Holds the two bucket tables that all character sums here reduce to:
    ``period_counts[u][t]`` counts field elements in coset u with absolute
    trace t, and ``pair_counts[u][v]`` counts solutions of a + b = 1 with
    a in coset u and b in coset v; Gauss and Jacobi sums are one bucket sum
    over them.  The Gauss sums are built with the system, the periods and
    pair counts on first use; Jacobi sums are memoized.
    """

    def __init__(self, tower: FieldTower, order: int):
        if (tower.r - 1) % order:
            raise BadModulusError(f"N = {order} does not divide r-1 = {tower.r - 1}")
        self.tower = tower
        self.order = order
        self.p = tower.p
        trace_p = memoryview(tower.trace_p_table)  # strided views, no copies
        buckets = (Counter(trace_p[u::order]) for u in range(order))
        self.period_counts = [[b[t] for t in range(self.p)] for b in buckets]
        m = math.lcm(self.p, order)
        self._gauss = [
            _bucket_sum(self.period_counts, m, m // order * i, m // self.p) for i in range(order)
        ]
        self._jacobi: dict[tuple[int, int], CycInt] = {}

    @cached_property
    def periods(self) -> list[int | None]:
        """Gaussian period of each coset u, the sum of psi over alpha**u * C, or None if irrational.

        Row u of ``period_counts`` gives sum of v_t zeta_p**t; it is rational exactly
        when v_1 = ... = v_(p-1), and is then v_0 - v_1 (also at p = 2).
        """
        return [row[0] - row[1] if row[1:].count(row[1]) == self.p - 1 else None for row in self.period_counts]

    def gauss_sum(self, i: int) -> CycInt:
        """Sum of chi**i(x) psi(x) over nonzero x, in Z[zeta_lcm(p, N)]."""
        return self._gauss[i % self.order]

    @cached_property
    def pair_counts(self) -> list[list[int]]:
        n, zech, shift = self.order, memoryview(self.tower.zech), self.tower.neg_shift
        # 1 - alpha**k = alpha**zech[(k + neg_shift) mod (r-1)] and N | r-1, so coset u reads
        # zech[j] for j = u + neg_shift mod N; k = 0 gives 0, in no coset, read in coset 0 as ZERO
        buckets = [Counter(map(n.__rmod__, zech[(u + shift) % n :: n])) for u in range(n)]
        buckets[0][ZERO % n] -= 1
        return [[b[v] for v in range(n)] for b in buckets]

    def jacobi_sum(self, i: int, j: int) -> CycInt:
        """Sum of chi**i(a) chi**j(b) over a + b = 1, in Z[zeta_N]."""
        n = self.order
        key = (i % n, j % n)
        if key not in self._jacobi:
            self._jacobi[key] = _bucket_sum(self.pair_counts, n, *key)
        return self._jacobi[key]


def _bucket_sum(table: list[list[int]], m: int, a: int, b: int) -> CycInt:
    """Sum of table[u][t] * zeta_m**(a*u + b*t) over all cells, in Z[zeta_m]."""
    vec = [0] * m
    for u, row in enumerate(table):
        for t, cnt in enumerate(row):
            if cnt:
                vec[(a * u + b * t) % m] += cnt
    return CycInt(m, vec)


def _shifted_sum(m: int, terms) -> CycInt:
    """Sum of zeta_m**shift * x over (shift, x) in ``terms``, as shifted vectors reduced once."""
    vec = [0] * m
    for shift, x in terms:
        for k, a in enumerate(x.coeffs):
            vec[(shift + k) % m] += a
    return CycInt(m, vec)


def norm_degree(p: int, n: int) -> int:
    """ord_N(p), the least f with N | p**f - 1: the smallest GF(p**f) with characters of order N."""
    return next(f for f in count(1) if (p**f - 1) % n == 0)


def subfield_sums(tower: FieldTower, n: int) -> tuple[list[CycInt], dict[tuple[int, int], CycInt]]:
    """``lifted_sums`` to GF(r) of the order-N sums of GF(p**f), f = ord_N(p), on its default polynomial.

    With Norm(alpha) = gamma**v, gamma that field's generator, the lift at i is the tower's sum
    at i*v mod N.  As G(chi**(i*p)) = G(chi**i), and J alike, it is the tower's index for index
    wherever p generates (Z/N)*, as on every applicable set within the cap; elsewhere a
    comparison with the tower's sums may fail, but never passes a wrong lift.
    """
    f = norm_degree(tower.p, n)
    return lifted_sums(CharSystem(FieldTower(tower.p, 1, f), n), tower.degree // f)


def lifted_sums(system: CharSystem, k: int) -> tuple[list[CycInt], dict[tuple[int, int], CycInt]]:
    """Gauss sums G(chi**i o Norm), i < N, and Jacobi sums {(i, j): J(i, j)}, 0 < i, j < N,
    i + j != N, over the degree-k extension of the system's field; k = 1 gives its own sums.

    Davenport-Hasse (Lidl & Niederreiter, *Finite Fields*, Thm 5.14):
    -G(chi o Norm) = (-G(chi))**k, psi lifted through the trace; for the
    principal character both sides are 1.  J(i, j) = G(chi**i) G(chi**j) /
    G(chi**(i+j)) lifts the same way where chi**i, chi**j, chi**(i+j) are nontrivial.
    """
    n = system.order
    pairs = [(i, j) for i, j in product(range(1, n), repeat=2) if i + j != n]
    sums = [system.gauss_sum(i) for i in range(n)] + [system.jacobi_sum(i, j) for i, j in pairs]
    lifted = [-((-x) ** k) for x in sums]
    return lifted[:n], dict(zip(pairs, lifted[n:]))


def periods_from_gauss(gauss: list[CycInt]) -> list[int]:
    """Periods eta_u, u < N, from the Gauss sums G(chi**i), i < N = len(gauss), by Fourier inversion.

    N eta_u = sum of zeta_N**(-i*u) G(chi**i); NonIntegerResultError unless it
    is a rational integer divisible by N.
    """
    n, m, periods = len(gauss), gauss[0].order, []
    for u in range(n):
        val = _shifted_sum(m, ((-i * u * m // n, g) for i, g in enumerate(gauss))).as_integer()
        if val is None or val % n:
            value = "irrational" if val is None else f"{val}/{n}"
            raise NonIntegerResultError(f"period at coset {u} is {value}")
        periods.append(val // n)
    return periods


def class_counts(params: "CodeParams") -> dict[tuple[int, int], int]:
    """H by one pass over GF(r): {d: the number of y with (L1 - L3, L2 - L3) = d}, zero counts dropped.

    For y = alpha**x, log(y + beta**i) = b_i + zech[x - b_i] with b_i = log beta**i, so
    L_i reads the Zech residues mod N (N <= m < 256), one ``bytes`` read at three
    rotations as slices of it doubled.  y = 0 counts at L_i = b_i, y = infinity at L = 0,
    and the points y = -beta**t, where some zech[x - b_i] is ZERO, are taken out.
    """
    tw, n = params.tower, params.N
    n1 = tw.r - 1
    b = [i * params.beta_log % n1 for i in (1, 2, 3)]  # logs of beta**i
    doubled = memoryview(bytes(map(n.__rmod__, tw.zech)) * 2)  # ZERO lands on N - 1, its readers taken out below
    reads = [doubled[n1 - b_i : 2 * n1 - b_i] for b_i in b]  # zech[x - b_i] at y = alpha**x
    hist = Counter(zip(*reads))  # zech residues (z1, z2, z3) -> number of y; L_i = b_i + z_i
    for x in {(b_i + tw.neg_shift) % n1 for b_i in b}:  # y = -beta**t: zech[x - b_t] is ZERO
        hist[reads[0][x], reads[1][x], reads[2][x]] -= 1
    hist[0, 0, 0] += 1  # y = 0
    hist[-b[0] % n, -b[1] % n, -b[2] % n] += 1  # y = infinity
    table = Counter()
    for (z1, z2, z3), k in hist.items():
        table[(b[0] + z1 - b[2] - z3) % n, (b[1] + z2 - b[2] - z3) % n] += k
    return {d: k for d, k in table.items() if k}


def _f_table(params: "CodeParams", charsum) -> dict[tuple[int, int], int]:
    """H by the Jacobi-sum identity, zero counts dropped.

    N**2 H(d) = r + 1 - N*#{x_k = 0} + charsum(x1, x2) with x = (-d1, -d2, d2 - d1) mod N:
    the sum of zeta_N**(i*x1 + j*x2) J(i, j) over 0 < i, j < N, i + j != N, an int,
    or None where it is irrational.
    """
    n, r = params.N, params.tower.r
    table = {}
    for d in product(range(n), repeat=2):
        d1, d2 = d
        val = charsum(-d1 % n, -d2 % n)
        if val is None:
            raise NonIntegerResultError(f"character sum at d = {d} is irrational")
        num = val + r + 1 - n * ((d1 == 0) + (d2 == 0) + (d1 == d2))
        if num % n**2 or num < 0:
            raise NonIntegerResultError(f"count at d = {d} is not a nonnegative integer: {num}/{n**2}")
        if num:
            table[d] = num // n**2
    return table


def _pair_sum(n: int, x1: int, x2: int) -> int:
    """Sum of zeta_N**(i*x1 + j*x2) over 0 < i, j < N, i + j != N: each sum over 0 < i < N is
    N*[x = 0] - 1, so it is the product of two, less the terms j = N - i, N*[x1 = x2] - 1."""
    return (n * (x1 % n == 0) - 1) * (n * (x2 % n == 0) - 1) - (n * ((x1 - x2) % n == 0) - 1)


def f_charsum(params: "CodeParams", jacobi: dict[tuple[int, int], CycInt]) -> dict[tuple[int, int], int]:
    """H by the Jacobi-sum identity at J(i, j) = ``jacobi[i, j]``, as ``lifted_sums`` returns
    them: each class character sum is reduced once in Z[zeta_N]."""
    n, terms = params.N, jacobi.items()
    return _f_table(params, lambda x1, x2: _shifted_sum(n, ((i * x1 + j * x2, v) for (i, j), v in terms)).as_integer())


def f_closed(params: "CodeParams", case: "TheoremCase") -> dict[tuple[int, int], int]:
    """H in closed form: the identity at the semiprimitive Jacobi value -sg*sqrt(r),
    whose charsum is -sg*sqrt(r) times ``_pair_sum``; no field and no cyclotomic integer."""
    n, value = params.N, -case.sign * case.sqrt_r
    return _f_table(params, lambda x1, x2: value * _pair_sum(n, x1, x2))
