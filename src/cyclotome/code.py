"""The two-generator trace codes and their weight distributions.

A parameter set (p, s, m, h, e) with h dividing q - 1 and e dividing h
determines g = alpha**((q-1)/h), beta = alpha**((r-1)/e) and the length
n = h(r-1)/(q-1).  The codeword attached to a pair (a, b) in GF(r)**2 is
the vector of relative traces of a g**i + b (beta g)**i for i < n.

Two independent routes to the weight distribution live here:

* ``brute_distribution`` counts nonzero codeword coordinates off the trace
  table for b = 0 and one b per orbit of scaling and cyclic shift, each
  against every a; the orbit argument is trace linearity and periodicity,
  no character theory;
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

    @property
    def g(self) -> FieldElement:
        return self.tower.element(self.g_log)

    @property
    def beta(self) -> FieldElement:
        return self.tower.element(self.beta_log)

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


def brute_cost(params: CodeParams) -> int:
    """Nominal brute-force work r**2 * n, the unit ``--budget`` is charged in."""
    return params.tower.r ** 2 * params.n


def brute_distribution(params: CodeParams, budget: "int | None" = None) -> WeightDistribution:
    """Exact weight histogram over all r**2 pairs by direct coordinate counts.

    For lambda in GF(q)*, (a, b) -> (lambda g**j a, lambda (beta g)**j b)
    turns the codeword into lambda times its cyclic shift by j (Tr is
    GF(q)-linear and g**n = (beta g)**n = 1): the weight is kept and, for
    fixed b, the a are permuted.  So all b in one coset of <alpha**step>,
    step = gcd(r-1, log(beta g), (r-1)/(q-1)), share one histogram over a:
    b = 0 and b = alpha**k for k < step are walked against every a, and
    each alpha**k row counts (r-1)/step times.  No character theory is
    used.  ``budget`` is charged the nominal ``brute_cost``.
    """
    tw = params.tower
    n, n1 = params.n, tw.r - 1
    cost = brute_cost(params)
    if budget is not None and cost > budget:
        raise BudgetExceededError(f"r^2*n = {cost} exceeds budget {budget}")
    # log(x + y) = log y + zech[log x - log y], and x + y = 0 where zech is ZERO;
    # 2(r-1) stands in for ZERO, and the trace flags past 2(r-1) are 0
    zech = [2 * n1 if z == ZERO else z for z in tw.zech]
    nonzero = bytes(tw.trace_q_table[k % n1] != ZERO for k in range(2 * n1)) + bytes(n1)
    dg = params.g_log
    dbg = (params.beta_log + params.g_log) % n1
    step = math.gcd(n1, dbg, n1 // (tw.q - 1))

    def powers(start: int, d: int) -> list[int]:  # logs of alpha**start * (alpha**d)**i, i < n
        return [(start + i * d) % n1 for i in range(n)]

    hist = Counter({0: 1})  # (a, b) = (0, 0)
    hist.update(sum(nonzero[x] for x in powers(a_idx, dg)) for a_idx in range(n1))  # b = 0
    for k in range(step):  # b = alpha**k stands for its coset
        offsets = powers(k, dbg)
        row = Counter({sum(nonzero[o] for o in offsets): 1})  # a = 0
        row.update(  # negative zech indices wrap to the same residue
            sum(nonzero[di + zech[ai - di]] for ai, di in zip(powers(a_idx, dg), offsets))
            for a_idx in range(n1)
        )
        hist.update({w: f * (n1 // step) for w, f in row.items()})
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
    The zero pair adds weight 0.
    """
    if params.e != 3:
        raise BadParametersError("semi-analytic assembly is defined for e = 3")
    tw = params.tower
    n1, n_ord, beta_log = tw.r - 1, params.N, params.beta_log
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
            system.eta_zero if i == t
            else eta[(k + tw.sub(i * beta_log % n1, t * beta_log % n1) + i * params.g_log) % n_ord]
            for i in range(1, 4)
        )
        hist[weight(periods)] += n1 // n_ord
    dist = WeightDistribution(hist)
    dist.validate(params)
    return dist
