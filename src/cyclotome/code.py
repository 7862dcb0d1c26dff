"""The two-generator trace codes and their weight distributions.

A parameter set (p, s, m, h, e) with h dividing q - 1 and e dividing h
determines g = alpha**((q-1)/h), beta = alpha**((r-1)/e) and the length
n = h(r-1)/(q-1).  The codeword attached to a pair (a, b) in GF(r)**2 is
the vector of relative traces of a g**i + b (beta g)**i for i < n.

Two independent routes to the weight distribution live here:

* ``brute_distribution`` counts nonzero codeword coordinates off the trace
  table for one pair per orbit of the group generated by GF(q)* scaling,
  the cyclic shift and Frobenius, weighted by the orbit size; the orbit
  argument is trace linearity, periodicity and Tr(x**p) = Tr(x)**p, no
  character theory;
* ``semi_analytic_distribution`` assembles the histogram from one integer
  table of Gaussian periods and the closed-form class counts f(c), with the
  coset size for the vanishing term of a degenerate pair; no codeword.

The bridge between them is the modified weight lambda(a, b); the Hamming
weight is always h(r-1)/q - lambda(a, b).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .charsums import CharSystem, InvariantError, NonIntegerResultError, f_closed
from .cycint import CycInt
from .fields import ZERO, FieldElement, FieldTower

if TYPE_CHECKING:
    from .theorem import TheoremCase


class BadParametersError(ValueError):
    """Divisibility constraints among h, e, q violated."""


class BudgetExceededError(RuntimeError):
    """Brute-force enumeration would exceed the configured work budget."""


@dataclass(frozen=True, eq=False)
class CodeParams:
    """Validated code parameters over a fixed tower."""

    tower: FieldTower
    h: int
    e: int
    n: int
    N: int
    g_log: int
    beta_log: int

    def describe(self) -> dict:
        tw = self.tower
        return {
            "p": tw.p, "s": tw.s, "m": tw.m, "h": self.h, "e": self.e,
            "q": tw.q, "r": tw.r, "n": self.n, "N": self.N,
        }


def validate_e(e: int) -> None:
    """Reject e below 2: beta = alpha**((r-1)/e) must be a nontrivial e-th root of unity."""
    if e <= 1:
        raise BadParametersError(f"e = {e} must exceed 1")


def build_code(tower: FieldTower, h: int, e: int = 3) -> CodeParams:
    """Validate (h, e) against the tower and derive (g, beta, n, N)."""
    q, r, m = tower.q, tower.r, tower.m
    validate_e(e)
    if h < e or h % e:
        raise BadParametersError(f"h = {h} is not a positive multiple of e = {e}")
    if (q - 1) % h:
        raise BadParametersError(f"h = {h} does not divide q-1 = {q - 1}")
    n = h * (r - 1) // (q - 1)
    params = CodeParams(
        tower=tower,
        h=h,
        e=e,
        n=n,
        N=math.gcd(m, e * (q - 1) // h),
        g_log=(q - 1) // h,
        beta_log=(r - 1) // e,
    )
    # g must have order n and g*beta order n as well; both follow from the
    # divisibilities, so a failure here means the table build went wrong
    if (r - 1) // math.gcd(r - 1, params.g_log) != n:
        raise InvariantError(f"g = alpha**{params.g_log} does not have order n = {n}")
    if (params.g_log + params.beta_log) * n % (r - 1):
        raise InvariantError(f"(g*beta)**n != 1 for n = {n}")
    # GF(q)* must lie in C_0: the class cosets drop beta and -1, the semi families beta**i - beta**t
    if e == 3 and tower.subfield_step % params.N:
        raise InvariantError(f"beta or -1 is not an N-th power for N = {params.N}")
    return params


class WeightDistribution:
    """Exact map weight -> frequency; zero-frequency entries are dropped."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict):
        self.counts = {int(w): int(f) for w, f in counts.items() if f}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightDistribution) and other.counts == self.counts

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())

    def total(self) -> int:
        return sum(self.counts.values())

    def weighted_sum(self) -> int:
        """Sum of weight * frequency, for the mean-weight identity."""
        return sum(w * f for w, f in self.counts.items())

    def validate(self, params: CodeParams) -> None:
        """Raise InvariantError on any violated structural invariant."""
        r2 = params.tower.r ** 2
        if self.total() != r2:
            raise InvariantError(f"frequencies sum to {self.total()}, expected {r2}")
        if self.counts.get(0) != 1:
            raise InvariantError("weight 0 must occur exactly once")
        bad = [w for w in self.counts if w < 0 or w > params.n]
        if bad:
            raise InvariantError(f"weights out of range [0, {params.n}]: {bad}")
        if any(f < 0 for f in self.counts.values()):
            raise InvariantError("negative frequency")

    def __repr__(self) -> str:
        return f"WeightDistribution({dict(self.items())})"


def codeword(params: CodeParams, a: FieldElement, b: FieldElement) -> list[FieldElement]:
    """The length-n vector of traces of a g**i + b (beta g)**i."""
    tw = params.tower
    n1 = tw.r - 1
    dg, dbg = params.g_log, (params.beta_log + params.g_log) % n1
    out = []
    ai, bi = a.index, b.index
    for _ in range(params.n):
        out.append(tw.trace_to_q(FieldElement(tw, tw.add(ai, bi))))
        if ai != ZERO:
            ai = (ai + dg) % n1
        if bi != ZERO:
            bi = (bi + dbg) % n1
    return out


def hamming_weight(word: list[FieldElement]) -> int:
    return sum(1 for x in word if x.index != ZERO)


def _cycles(modulus: int, mult: int, add: int = 0):
    """(first element, length) of every cycle of the bijection x -> mult*x + add on Z/modulus."""
    seen = bytearray(modulus)
    for x in range(modulus):
        length, y = 0, x
        while not seen[y]:
            seen[y], length, y = 1, length + 1, (mult * y + add) % modulus
        if length:
            yield x, length


def brute_distribution(params: CodeParams, budget: "int | None" = None) -> WeightDistribution:
    """Exact weight histogram over all r**2 pairs by direct coordinate counts.

    The group G generated by (a, b) -> (lambda a, lambda b), lambda in
    GF(q)*, the shift (a, b) -> (g a, beta g b) and Frobenius
    (a, b) -> (a**p, b**p) keeps the weight: Tr is GF(q)-linear,
    g**n = (beta g)**n = 1 makes the shift cyclic, and Tr(x**p) = Tr(x)**p
    sends coordinate i to coordinate i*p mod n.  On logs mod r-1, with
    P = (r-1)/(q-1) and d = log(beta g), G acts on b by translations by
    multiples of step = gcd(P, d) and by k -> p*k, so one b = alpha**k per
    cycle of k -> p*k on Z/step (length o) stands for o*(r-1)/step values.
    Its stabiliser acts on log a by translations by multiples of
    T = gcd(r-1, (P/step) log beta) and by x -> p**o x + c - j log beta,
    with c = (1 - p**o) k and j d = c mod P; so one a per cycle of that
    map on Z/T stands for (cycle length)(r-1)/T values, and a = 0 for
    itself.  The row b = 0 takes one a per cycle of x -> p*x on
    Z/gcd(r-1, P, log g) the same way.  No character theory is used.
    ``budget`` is charged the nominal work r**2 * n before any table is read;
    this is the one place ``--budget`` is charged.
    """
    tw = params.tower
    p, n, n1, big_p = tw.p, params.n, tw.r - 1, tw.subfield_step
    cost = tw.r ** 2 * n
    if budget is not None and cost > budget:
        raise BudgetExceededError(f"r^2*n = {cost} exceeds budget {budget}")
    # log(x + y) = log y + zech[log x - log y], and x + y = 0 where zech is ZERO;
    # 2(r-1) stands in for ZERO, and the trace flags past 2(r-1) are 0
    zech = [2 * n1 if z == ZERO else z for z in tw.zech]
    nonzero = bytes(t != ZERO for t in tw.trace_q_table) * 2 + bytes(n1)
    dg, dbeta = params.g_log, params.beta_log
    dbg = (dbeta + dg) % n1
    step = math.gcd(big_p, dbg)

    def powers(start: int, d: int) -> list[int]:  # logs of alpha**start * (alpha**d)**i, i < n
        return [(start + i * d) % n1 for i in range(n)]

    hist = Counter({0: 1})  # (a, b) = (0, 0)
    t0 = math.gcd(n1, big_p, dg)
    for x, length in _cycles(t0, p):  # b = 0
        hist[sum(nonzero[y] for y in powers(x, dg))] += length * (n1 // t0)
    t = math.gcd(n1, big_p // step * dbeta)
    d_inv = pow(dbg // step, -1, big_p // step)
    for k, o in _cycles(step, p):  # b = alpha**k stands for its G-orbit
        offsets = powers(k, dbg)
        mult = pow(p, o, n1)
        c = (1 - mult) * k % n1
        shift = c - c // step * d_inv % (big_p // step) * dbeta  # c - j log beta, j d = c mod P
        row = Counter({sum(nonzero[y] for y in offsets): 1})  # a = 0
        for x, length in _cycles(t, mult, shift):
            # negative zech indices wrap to the same residue
            weight = sum(nonzero[di + zech[ai - di]] for ai, di in zip(powers(x, dg), offsets))
            row[weight] += length * (n1 // t)
        hist.update({w: f * o * (n1 // step) for w, f in row.items()})
    return WeightDistribution(hist)


def lambda_weight(
    params: CodeParams, system: CharSystem, a: FieldElement, b: FieldElement
) -> Fraction:
    """Modified weight: (hN/eq) times the sum of periods at (a + beta**i b) g**i.

    The period at argument 0 is the coset size (r-1)/N.  The sum of the e
    periods is always a rational integer even when single periods are not.
    """
    tw = params.tower
    n1 = tw.r - 1
    acc = CycInt.zero(tw.p)
    const = 0
    for i in range(1, params.e + 1):
        bb = ZERO if b.index == ZERO else (b.index + i * params.beta_log) % n1
        t = tw.add(a.index, bb)
        if t == ZERO:
            const += system.eta_zero
        else:
            arg = (t + i * params.g_log) % n1
            acc = acc + system.gaussian_period(arg % params.N)
    val = acc.as_integer()
    if val is None:
        raise NonIntegerResultError("period sum came out irrational")
    return Fraction(params.h * params.N * (val + const), params.e * tw.q)


def codeword_weight_from_lambda(
    params: CodeParams, system: CharSystem, a: FieldElement, b: FieldElement
) -> int:
    """Hamming weight via h(r-1)/q minus the modified weight."""
    w = Fraction(params.h * (params.tower.r - 1), params.tower.q) - lambda_weight(
        params, system, a, b
    )
    if w.denominator != 1:
        raise NonIntegerResultError(f"weight {w} is not an integer")
    return int(w)


def semi_analytic_distribution(
    params: CodeParams, case: "TheoremCase", system: "CharSystem | None" = None
) -> WeightDistribution:
    """Assemble the histogram from class data instead of codewords.

    Every weight is h(r-1)/q - (hN/3q) times the sum of the periods at
    (a + beta**i b) g**i.  The N**3 coset-vector classes take their sizes
    from the closed form f(c); pairs with a = -beta**t b, b != 0, form 3N
    coset families of (r-1)/N, whose vanishing term reads the coset size.
    Their other terms read beta**i - beta**t in coset 0: it lies in GF(q)*,
    inside C_0 as N | (r-1)/(q-1).  The zero pair adds weight 0.
    """
    if params.e != 3:
        raise BadParametersError("semi-analytic assembly is defined for e = 3")
    tw = params.tower
    n1, n_ord = tw.r - 1, params.N
    if system is None:
        system = CharSystem(tw, n_ord)
    eta = [system.gaussian_period(u).as_integer() for u in range(n_ord)]
    if None in eta:
        raise NonIntegerResultError(f"period at coset {eta.index(None)} is irrational")
    hq = Fraction(params.h * n1, tw.q)
    coef = Fraction(params.h * n_ord, 3 * tw.q)

    def weight(periods) -> int:
        w = hq - coef * sum(periods)
        if w.denominator != 1:
            raise NonIntegerResultError(f"weight {w} is not an integer")
        return int(w)

    hist = Counter({0: 1})
    for c in product(range(n_ord), repeat=3):
        freq = f_closed(params, case, c)
        if freq:
            hist[weight(eta[(-ci) % n_ord] for ci in c)] += freq
    # b = alpha**k, a = -beta**t b: a + beta**i b = (beta**i - beta**t) b vanishes at i = t
    for t, k in product(range(1, 4), range(n_ord)):
        periods = (
            system.eta_zero if i == t else eta[(k + i * params.g_log) % n_ord]
            for i in range(1, 4)
        )
        hist[weight(periods)] += n1 // n_ord
    dist = WeightDistribution(hist)
    dist.validate(params)
    return dist
