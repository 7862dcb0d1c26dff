"""Gaussian periods, Gauss sums, Jacobi sums, and the coset-pair counts f.

Everything is evaluated exactly: sums over GF(r) are bucketed into integer
count tables in one pass over the field, then assembled into cyclotomic
integers (:class:`~cyclotome.cycint.CycInt`).  The multiplicative
character chi of order N sends alpha**k to zeta_N**k; the additive
character psi sends x to zeta_p**Tr(x), Tr the absolute trace to GF(p).
Every character, including the principal one, takes the value 0 at 0
inside Gauss and Jacobi sums; the boundary evaluations r - 2 and -1
below pin that convention.

The pair count f(c) for a coset vector c = (c1, c2, c3) is the number of
(a, b) in GF(r)**2 with (a + beta**i b) * g**i * alpha**(c_i) an N-th
power for i = 1, 2, 3.  It is computed three independent ways: direct
enumeration (one pass over GF(r) for all classes at once, spread over
GF(r)**2 by scaling), the Jacobi-sum identity, and the semiprimitive
closed form.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import product
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
    a in coset u and b in coset v.  The N periods are built with the
    system; the pair counts are built on first use and Jacobi sums are
    memoized.
    """

    def __init__(self, tower: FieldTower, order: int):
        if (tower.r - 1) % order:
            raise BadModulusError(f"N = {order} does not divide r-1 = {tower.r - 1}")
        self.tower = tower
        self.order = order
        self.p = tower.p
        self.r = tower.r
        trace_p = memoryview(tower.trace_p_table)  # strided views, no copies
        buckets = (Counter(trace_p[u::order]) for u in range(order))
        self.period_counts = [[b[t] for t in range(self.p)] for b in buckets]
        self._periods = [CycInt(self.p, row) for row in self.period_counts]
        self._jacobi: dict[tuple[int, int], CycInt] = {}

    @property
    def eta_zero(self) -> int:
        """Period at argument 0: the coset size (r-1)/N."""
        return (self.r - 1) // self.order

    def gaussian_period(self, u_coset: int) -> CycInt:
        """Sum of psi over the coset alpha**u_coset * C, in Z[zeta_p]."""
        return self._periods[u_coset % self.order]

    def gauss_sum(self, i: int) -> CycInt:
        """Sum of chi**i(x) psi(x) over nonzero x, in Z[zeta_lcm(p, N)]."""
        n = self.order
        m = math.lcm(self.p, n)
        vec = [0] * m
        wp, wn = m // self.p, m // n
        for u in range(n):
            row = self.period_counts[u]
            base = wn * (i * u % n)
            for t in range(self.p):
                if row[t]:
                    vec[(base + wp * t) % m] += row[t]
        return CycInt(m, vec)

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
            vec = [0] * n
            for u, row in enumerate(self.pair_counts):
                for v, cnt in enumerate(row):
                    if cnt:
                        vec[(key[0] * u + key[1] * v) % n] += cnt
            self._jacobi[key] = CycInt(n, vec)
        return self._jacobi[key]


def _class_cosets(g_log: int, n: int, c: tuple[int, int, int]) -> tuple[int, int, int]:
    """Cosets of xi1*mu, xi2*mu and xi1/xi2 for class c, beta-free.

    Because beta, -1 and 1 + beta are all N-th powers, they are the cosets
    of g*c1/c3, g**2*c2/c3 and (g*c2/c1)**-1.
    """
    c1, c2, c3 = c
    return (g_log + c1 - c3) % n, (2 * g_log + c2 - c3) % n, -(g_log + c2 - c1) % n


def xi_mu(params: "CodeParams", c: tuple[int, int, int]) -> tuple[int, int, int]:
    """Cosets of xi1*mu, xi2*mu and xi1/xi2 for a coset vector, from the field.

    xi_i = g**i (1 - beta**i) c_i / c_3 for i = 1, 2 and
    mu = beta / (1 - beta**2).  The raw field computation must agree with
    the beta-free reduction that ``f_closed`` reads.
    """
    if params.e != 3:
        raise ValueError("xi/mu data is defined for e = 3 only")
    tw, n = params.tower, params.N
    n1 = tw.r - 1
    k1, k2, k3 = (ci % n for ci in c)
    g, b = params.g_log, params.beta_log
    omb = tw.sub(0, b)  # 1 - beta, nonzero
    omb2 = tw.sub(0, 2 * b % n1)  # 1 - beta**2
    xi1 = g + omb + k1 - k3
    xi2 = 2 * g + omb2 + k2 - k3
    mu = b - omb2
    # n divides n1, so the logs reduce mod n directly
    got = ((xi1 + mu) % n, (xi2 + mu) % n, (xi1 - xi2) % n)
    reduced = _class_cosets(g, n, c)
    if got != reduced:
        raise InvariantError(f"coset data {got} disagrees with the reduction {reduced}")
    return got


def class_counts(params: "CodeParams") -> dict[tuple[int, int, int], int]:
    """f(c) for every class c = (c1, c2, c3) with c_i < N, by one pass over GF(r).

    A pair (a, b) whose t_i = a + beta**i b are all nonzero lies in exactly
    one class, c_i = -(log t_i + i log g) mod N; a pair with some t_i = 0
    lies in none.  Every pair other than (0, 0) is alpha**k (1, 0) or
    alpha**k (y, 1) for exactly one k < r-1 and y in GF(r), and the factor
    alpha**k adds k to every log t_i.  So one pass over the r + 1
    representatives gives the histogram H at k = 0, and
    f(c) = (r-1)/N * sum of H(c + (j, j, j)) over j < N.  Classes that no
    pair reaches are absent.
    """
    tw, n = params.tower, params.N
    n1, zech, g = tw.r - 1, tw.zech, params.g_log
    hist = [0] * n**3  # class c at flat index (c1 * N + c2) * N + c3

    def flat(v1: int, v2: int, v3: int) -> int:
        return (v1 % n * n + v2 % n) * n + v3 % n

    b1, b2, b3 = (i * params.beta_log % n1 for i in (1, 2, 3))  # logs of beta**i
    u1, u2, u3 = -(b1 + g), -(b2 + 2 * g), -(b3 + 3 * g)
    hist[flat(-g, -2 * g, -3 * g)] += 1  # (1, 0)
    hist[flat(u1, u2, u3)] += 1  # (0, 1)
    for x in range(n1):  # (alpha**x, 1): log t_i = b_i + zech[x - b_i]; negative indices wrap
        z1, z2, z3 = zech[x - b1], zech[x - b2], zech[x - b3]
        if z1 != ZERO and z2 != ZERO and z3 != ZERO:
            hist[flat(u1 - z1, u2 - z2, u3 - z3)] += 1
    counts = {}
    for c1, c2, c3 in product(range(n), repeat=3):
        f = sum(hist[flat(c1 + j, c2 + j, c3 + j)] for j in range(n))
        if f:
            counts[c1, c2, c3] = f * (n1 // n)
    return counts


def f_charsum(params: "CodeParams", system: CharSystem, c: tuple[int, int, int]) -> int:
    """Evaluate f(c) through the Jacobi-sum identity, exactly in Z[zeta_N]."""
    n, r = params.N, params.tower.r
    x1, x2, x3 = xi_mu(params, c)
    deltas = (x1 == 0) + (x2 == 0) + (x3 == 0)
    total = CycInt.from_int(n, r + 1 - n * deltas)
    for i in range(1, n):
        for j in range(1, n):
            if i + j == n:
                continue
            phase = CycInt.root_of_unity(n, i * x1 + j * x2)
            total = total + phase * system.jacobi_sum(i, j)
    val = total.as_integer()
    if val is None:
        raise NonIntegerResultError(f"character sum for {c} is irrational: {total!r}")
    num = (r - 1) * val
    if num % n**3 or num < 0:
        raise NonIntegerResultError(f"count for {c} is not a nonnegative integer: {num}/{n**3}")
    return num // n**3


def f_closed(params: "CodeParams", case: "TheoremCase", c: tuple[int, int, int]) -> int:
    """Closed form for f(c): every off-diagonal Jacobi sum is -sg*sqrt(r).

    Reads the class cosets from integers only, so it builds no field table.
    """
    n, r = params.N, params.tower.r
    s = -case.sign * case.sqrt_r
    x1, x2, x3 = _class_cosets(params.g_log, n, c)
    d1, d2 = x1 == 0, x2 == 0
    dsum = d1 + d2 + (x3 == 0)
    braced = r + 1 - n * dsum + s * (n * n * d1 * d2 - n * dsum + 2)
    num = (r - 1) * braced
    if num % n**3 or num < 0:
        raise NonIntegerResultError(f"closed form for {c} not a nonnegative integer")
    return num // n**3


def gaussian_period_closed(case: "TheoremCase", i: int) -> int:
    """Semiprimitive closed form of the period at coset i.

    One distinguished coset (0, or N/2 when the all-odd case makes N even)
    carries the large value; the other N-1 cosets share the small one.  The
    values follow from the case sign alone; the sign does not fix which
    coset is distinguished.
    """
    n, sr, sign = case.N, case.sqrt_r, case.sign
    special_coset = n // 2 if case.case_major == 1 else 0
    if i % n == special_coset:
        num = -sign * (n - 1) * sr - 1
    else:
        num = sign * sr - 1
    if num % n:
        raise NonIntegerResultError(f"period value {num}/{n} is not integral")
    return num // n
