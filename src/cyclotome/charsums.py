"""Gaussian periods, Gauss sums, Jacobi sums, and the coset-pair counts f.

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

The pair count f(c) for a coset vector c = (c1, c2, c3) is the number of
(a, b) in GF(r)**2 with (a + beta**i b) * g**i * alpha**(c_i) an N-th
power for i = 1, 2, 3.  It reads c only through the difference pair
d = (c1 - c3, c2 - c3) mod N, so every route returns one table
{(d1, d2): f} with zero counts dropped.  The table is computed by direct
enumeration (one pass over GF(r), spread over GF(r)**2 by scaling) and by
one Jacobi-sum identity, fed the tower's Jacobi sums, a subfield's lifted
to GF(r) (``subfield_sums``, semi's), or the semiprimitive value
-sg*sqrt(r), which makes it the closed form.
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


def _class_cosets(g_log: int, n: int, d: tuple[int, int]) -> tuple[int, int, int]:
    """Cosets of xi1*mu, xi2*mu and xi1/xi2 for the classes c with (c1 - c3, c2 - c3) = d, beta-free.

    xi_i = g**i (1 - beta**i) c_i / c_3 and mu = beta / (1 - beta**2).  As beta,
    -1 (both checked in ``build_code``) and 1 + beta = -beta**2 are N-th powers,
    these are the cosets of g*c1/c3, g**2*c2/c3 and (g*c2/c1)**-1.
    """
    d1, d2 = d
    return (g_log + d1) % n, (2 * g_log + d2) % n, -(g_log + d2 - d1) % n


def class_counts(params: "CodeParams") -> dict[tuple[int, int], int]:
    """{(d1, d2): f} by one pass over GF(r): f(c) for the classes c with (c1 - c3, c2 - c3) = d.

    A pair (a, b) whose t_i = a + beta**i b are all nonzero lies in exactly
    one class c = (c1, c2, c3), c_i = -(log t_i + i log g) mod N; a pair with
    some t_i = 0 lies in none.  Every pair other than (0, 0) is
    alpha**k (1, 0) or alpha**k (y, 1) for exactly one k < r-1 and y in
    GF(r), and the factor alpha**k adds k to every log t_i.  So one pass over
    the r + 1 representatives gives the histogram H at k = 0, and
    f(c) = (r-1)/N * sum of H(c + (j, j, j)) over j < N, a sum that reads c
    only through d = (c1 - c3, c2 - c3) mod N.  Pairs d that no pair reaches
    are absent.  The Zech residues mod N (N <= m < 256) are one ``bytes``,
    read at three rotations as slices of it doubled.
    """
    tw, n = params.tower, params.N
    n1, g = tw.r - 1, params.g_log
    b = [i * params.beta_log % n1 for i in (1, 2, 3)]  # logs of beta**i
    u = [-(b_i + i * g) for i, b_i in zip((1, 2, 3), b)]
    doubled = memoryview(bytes(map(n.__rmod__, tw.zech)) * 2)  # ZERO lands on N - 1, its readers taken out below
    # (alpha**x, 1): log t_i = b_i + zech[x - b_i], so t_i reads the residues rotated by b_i, a slice of doubled
    reads = [doubled[n1 - b_i : 2 * n1 - b_i] for b_i in b]
    hist = Counter(zip(*reads))  # zech residues (z1, z2, z3) -> pairs; their class is c_i = u_i - z_i
    for x in {(b_i + tw.neg_shift) % n1 for b_i in b}:  # zech[x - b_i] is ZERO: some t_i = 0
        hist[reads[0][x], reads[1][x], reads[2][x]] -= 1
    hist[0, 0, 0] += 1  # (0, 1)
    hist[-b[0] % n, -b[1] % n, -b[2] % n] += 1  # (1, 0): log t_i = 0
    diag = Counter()  # (c1 - c3, c2 - c3) mod N -> the sum of H over its N classes
    for (z1, z2, z3), k in hist.items():
        diag[(u[0] - z1 - u[2] + z3) % n, (u[1] - z2 - u[2] + z3) % n] += k
    return {d: k * (n1 // n) for d, k in diag.items() if k}


def _f_table(params: "CodeParams", charsum) -> dict[tuple[int, int], int]:
    """{(d1, d2): f} by the Jacobi-sum identity at c = (d1, d2, 0), zero counts dropped.

    N**3 f(c) / (r-1) = r + 1 - N*#{x_k = 0} + charsum(x1, x2), x the class
    cosets: the sum of zeta_N**(i*x1 + j*x2) J(i, j) over 0 < i, j < N,
    i + j != N, an int, or None where it is irrational.
    """
    n, r = params.N, params.tower.r
    table = {}
    for d in product(range(n), repeat=2):
        x1, x2, x3 = _class_cosets(params.g_log, n, d)
        val = charsum(x1, x2)
        if val is None:
            raise NonIntegerResultError(f"character sum for {(*d, 0)} is irrational")
        num = (r - 1) * (val + r + 1 - n * ((x1 == 0) + (x2 == 0) + (x3 == 0)))
        if num % n**3 or num < 0:
            raise NonIntegerResultError(f"count for {(*d, 0)} is not a nonnegative integer: {num}/{n**3}")
        if num:
            table[d] = num // n**3
    return table


def _pair_sum(n: int, x1: int, x2: int) -> int:
    """Sum of zeta_N**(i*x1 + j*x2) over 0 < i, j < N, i + j != N: each sum over 0 < i < N is
    N*[x = 0] - 1, so it is the product of two, less the terms j = N - i, N*[x1 = x2] - 1."""
    return (n * (x1 % n == 0) - 1) * (n * (x2 % n == 0) - 1) - (n * ((x1 - x2) % n == 0) - 1)


def f_charsum(params: "CodeParams", jacobi: dict[tuple[int, int], CycInt]) -> dict[tuple[int, int], int]:
    """{(d1, d2): f} by the Jacobi-sum identity at J(i, j) = ``jacobi[i, j]``, as ``lifted_sums`` returns
    them: each class character sum is reduced once in Z[zeta_N]."""
    n, terms = params.N, jacobi.items()
    return _f_table(params, lambda x1, x2: _shifted_sum(n, ((i * x1 + j * x2, v) for (i, j), v in terms)).as_integer())


def f_closed(params: "CodeParams", case: "TheoremCase") -> dict[tuple[int, int], int]:
    """{(d1, d2): f} in closed form: the identity at the semiprimitive Jacobi value -sg*sqrt(r),
    whose charsum is -sg*sqrt(r) times ``_pair_sum``; no field and no cyclotomic integer."""
    n, value = params.N, -case.sign * case.sqrt_r
    return _f_table(params, lambda x1, x2: value * _pair_sum(n, x1, x2))
