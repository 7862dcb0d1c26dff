"""The two-generator trace codes and their weight distributions.

A parameter set (p, s, m, h, e) with h dividing q - 1 and e dividing h
determines g = alpha**((q-1)/h), beta = alpha**((r-1)/e) and the length
n = h(r-1)/(q-1).  The codeword attached to a pair (a, b) in GF(r)**2 is
the vector of relative traces of a g**i + b (beta g)**i for i < n.

Two independent routes to the weight distribution, a plain dict {weight: frequency}, live here:

* ``brute_distribution`` counts nonzero codeword coordinates off the
  relative-trace coordinates for one pair per orbit of the group generated
  by GF(q)* scaling, the cyclic shift and Frobenius, weighted by the orbit
  size; the orbit argument is trace linearity, periodicity and
  Tr(x**p) = Tr(x)**p, no character theory.  Each b, 0 included, takes one
  row walk over a, each a one XOR of packed integers against b;
* ``semi_analytic_distribution`` assembles the histogram from the Gaussian
  periods and class counts f(c) of the Gauss and Jacobi sums of GF(p**f),
  lifted by Davenport-Hasse, with the coset size for the vanishing term of a
  degenerate pair; no codeword, no table of GF(r) and no closed form, so it
  runs on every e = 3 set, semiprimitive or not.

Semi and the per-pair reference ``codeword_weight_from_lambda`` share one
weight formula, ``_weight``: a pair whose e periods at (a + beta**i b) g**i
sum to S has weight h(r-1)/q - (hN/eq)*S, one exact division.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .charsums import CharSystem, InvariantError, NonIntegerResultError, _f_table, _jacobi_charsum, lifted_sums
from .charsums import norm_degree, periods_from_gauss
from .fields import ZERO, FieldTower


class BadParametersError(ValueError):
    """Divisibility constraints among h, e, q violated."""


class BudgetExceededError(RuntimeError):
    """Brute-force enumeration would exceed the configured work budget."""


class CodeParams(NamedTuple):
    """Validated code parameters over a fixed tower: immutable, compared by value."""

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
    """Validate (h, e) against the tower and derive (g, beta, n, N): one divmod of q-1 by h gives g_log and
    the h | q-1 check (h >= e has ruled out h = 0), and n = h(r-1)/(q-1) is h times the tower's subfield step."""
    validate_e(e)
    if h < e or h % e:
        raise BadParametersError(f"h = {h} is not a positive multiple of e = {e}")
    g_log, rem = divmod(tower.q - 1, h)
    if rem:
        raise BadParametersError(f"h = {h} does not divide q-1 = {tower.q - 1}")
    params = CodeParams(tower, h, e, h * tower.subfield_step, math.gcd(tower.m, e * g_log), g_log, (tower.r - 1) // e)
    # GF(q)* must lie in C_0: the class cosets drop beta and -1, the semi families beta**i - beta**t
    if e == 3 and tower.subfield_step % params.N:
        raise InvariantError(f"beta or -1 is not an N-th power for N = {params.N}")
    return params


def _validate(dist: dict, params: CodeParams) -> None:
    """Raise InvariantError unless ``dist`` is a histogram of all r**2 pairs, weight 0 once."""
    r2, total = params.tower.r ** 2, sum(dist.values())
    if total != r2:
        raise InvariantError(f"frequencies sum to {total}, expected {r2}")
    if dist.get(0) != 1:
        raise InvariantError("weight 0 must occur exactly once")
    bad = [w for w in dist if w < 0 or w > params.n]
    if bad:
        raise InvariantError(f"weights out of range [0, {params.n}]: {bad}")
    if any(f < 0 for f in dist.values()):
        raise InvariantError("negative frequency")


def _cycles(modulus: int, mult: int, add: int = 0):
    """(first element, length) of every cycle of the bijection x -> mult*x + add on Z/modulus."""
    seen = bytearray(modulus)
    for x in range(modulus):
        length, y = 0, x
        while not seen[y]:
            seen[y], length, y = 1, length + 1, (mult * y + add) % modulus
        if length:
            yield x, length


def brute_distribution(params: CodeParams, budget: "int | None" = None) -> dict[int, int]:
    """Exact weight histogram {weight: frequency} over all r**2 pairs by direct coordinate counts.

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
    itself.  The row b = 0 is walked the same way, with one a per cycle of
    x -> p*x on Z/gcd(r-1, P, log g); its a = 0 is the pair (0, 0).
    (a, b) -> (a, -b) is a bijection commuting with G, as (-b)**p = -b**p,
    so a walked pair (a, b) may count the weight of (a, -b): coordinate i
    is then zero exactly when Tr(a g**i) = Tr(b (beta g)**i).  As
    n log g = r-1, a = alpha**(x0 + j log g), x0 < log g, reads slots j .. j+n-1
    of its class x0, whose coordinates one array holds twice over in 1, 2 or
    4 bytes as q <= 2**7, 2**15 or more, so each slot has a spare top bit.
    Against b, packed once per row, ((a ^ b | high) - low) & high sets that
    guard bit in exactly the nonzero slots, and no borrow leaves its slot.
    Tr_{r/p}(lambda x) = Tr_{q/p}(lambda Tr_{r/q}(x)) for lambda in GF(q),
    and the trace form of GF(q)/GF(p) is nondegenerate, so ``trace_q_coords``
    compares two relative traces by s absolute traces; no character theory,
    and no log or Zech table, is used.
    ``budget`` is charged the nominal work r**2 * n before any table is read;
    this is the one place ``--budget`` is charged.
    """
    tw = params.tower
    p, n, n1, big_p = tw.p, params.n, tw.r - 1, tw.subfield_step
    cost = tw.r ** 2 * n
    if budget is not None and cost > budget:
        raise BudgetExceededError(f"r^2*n = {cost} exceeds budget {budget}")
    coords = tw.trace_q_coords
    dg, dbeta = params.g_log, params.beta_log
    packed = array("B" if tw.q <= 1 << 7 else "H" if tw.q <= 1 << 15 else "i")
    for x0 in range(dg):  # class x0: slots 2n*x0 + j .. 2n*x0 + j+n-1 hold a = alpha**(x0 + j log g)
        packed.extend(array(packed.typecode, coords[x0::dg]) * 2)
    width, slots = packed.itemsize, memoryview(packed).cast("B")
    low = int.from_bytes(array(packed.typecode, [1] * n), sys.byteorder)  # 1 in every slot
    high = low << 8 * width - 1  # every slot's top bit
    dbg = (dbeta + dg) % n1
    step = math.gcd(big_p, dbg)

    def row(b_coords: list, t: int, mult: int, shift: int) -> Counter:
        """Weights against b: a = 0, then one a = alpha**x per cycle of x -> mult*x + shift on Z/t."""
        weights = Counter({n - b_coords.count(0): 1})
        b = int.from_bytes(array(packed.typecode, b_coords), sys.byteorder)
        for x, length in _cycles(t, mult, shift):
            start = (x % dg * 2 * n + x // dg) * width
            diff = int.from_bytes(slots[start : start + n * width], sys.byteorder) ^ b
            weights[((diff | high) - low & high).bit_count()] += length * (n1 // t)
        return weights

    hist = row([0] * n, math.gcd(n1, big_p, dg), p, 0)  # b = 0
    t = math.gcd(n1, big_p // step * dbeta)
    d_inv = pow(dbg // step, -1, big_p // step)
    for k, o in _cycles(step, p):  # b = alpha**k stands for its G-orbit
        mult = pow(p, o, n1)
        c = (1 - mult) * k % n1
        shift = c - c // step * d_inv % (big_p // step) * dbeta  # c - j log beta, j d = c mod P
        b_coords = [coords[(k + i * dbg) % n1] for i in range(n)]  # b (beta g)**i
        hist.update({w: f * o * (n1 // step) for w, f in row(b_coords, t, mult, shift).items()})
    return dict(hist)


def _weight(params: CodeParams, total: int) -> int:
    """Weight of a pair whose e period terms sum to ``total``: h(r-1)/q - (hN/eq)*total, one exact division."""
    num = params.h * (params.e * (params.tower.r - 1) - params.N * total)
    weight, rem = divmod(num, params.e * params.tower.q)
    if rem:
        raise NonIntegerResultError(f"weight {Fraction(num, params.e * params.tower.q)} is not an integer")
    return weight


def codeword_weight_from_lambda(params: CodeParams, system: CharSystem, a: int, b: int) -> int:
    """Hamming weight of the pair of indices (a, b) from the periods at (a + beta**i b) g**i.

    A vanishing term reads the coset size (r-1)/N.  Every single period is
    a rational integer: N | m and N | q-1 give N | (r-1)/(p-1), so GF(p)*
    lies in C_0, and zeta_p -> zeta_p**k, k in GF(p)*, maps the period of
    a coset C_u to that of k C_u = C_u.  Each period is still checked to be
    one: NonIntegerResultError if ``system.periods`` holds None.
    """
    tw, n1, n_ord, periods = params.tower, params.tower.r - 1, params.N, system.periods
    if None in periods:
        raise NonIntegerResultError("a Gaussian period came out irrational")
    total = 0
    for i in range(1, params.e + 1):
        t = tw.add(a, ZERO if b == ZERO else (b + i * params.beta_log) % n1)
        total += n1 // n_ord if t == ZERO else periods[(t + i * params.g_log) % n_ord]
    return _weight(params, total)


def semi_analytic_distribution(
    params: CodeParams, lifted: "tuple[list, dict] | None" = None
) -> dict[int, int]:
    """Assemble the histogram {weight: frequency} of any e = 3 set from class data instead of codewords.

    Every weight is ``_weight`` of the sum of the periods at
    (a + beta**i b) g**i, the exact division ``codeword_weight_from_lambda``
    also ends in.
    ``lifted`` holds the GF(r) Gauss and Jacobi sums of an order-N
    character, as ``lifted_sums`` returns them; by default those of
    GF(p**f), f = ord_N(p), lifted by Davenport-Hasse, which builds no
    table of GF(r).  As N | q-1, f divides s: that field is at most GF(q).
    Its generator is Norm(alpha') for some primitive alpha' = alpha**w of
    GF(r) (Norm maps generators onto generators, and w may be moved by
    multiples of p**f - 1 to be prime to r-1), so the lifted sums are
    labelled by alpha'.  alpha -> alpha**w permutes the coordinates
    (i -> w*i mod n), which keeps the histogram, and g_log does not depend
    on the generator.  The periods come from the Gauss sums by Fourier
    inversion.  The N**3 coset-vector classes are sized by the table
    {(d1, d2): f} of the Jacobi-sum identity at the lifted Jacobi sums: f(c)
    reads c only through d = (c1 - c3, c2 - c3), so each entry sizes the N
    classes (d1 + c3, d2 + c3, c3).  Pairs with
    a = -beta**t b, b != 0, form 3N coset families of (r-1)/N, whose
    vanishing term reads the coset size.  Their other terms read
    beta**i - beta**t in coset 0: it lies in GF(q)*, inside C_0 as
    N | (r-1)/(q-1).  The zero pair adds weight 0.  Each distinct period sum
    is turned into a weight once, and the histogram is checked by ``_validate``.
    """
    if params.e != 3:
        raise BadParametersError("semi-analytic assembly is defined for e = 3")
    tw = params.tower
    n1, n_ord = tw.r - 1, params.N
    if lifted is None:
        f = norm_degree(tw.p, n_ord)
        lifted = lifted_sums(CharSystem(FieldTower(tw.p, 1, f), n_ord), tw.degree // f)
    gauss, jacobi = lifted
    eta = periods_from_gauss(gauss, n_ord)
    sums: Counter = Counter()  # period sum -> number of pairs whose weight it gives
    for (d1, d2), freq in _f_table(params, _jacobi_charsum(n_ord, jacobi)).items():  # the classes (d1 + c3, d2 + c3, c3)
        for c3 in range(n_ord):
            sums[eta[-(d1 + c3) % n_ord] + eta[-(d2 + c3) % n_ord] + eta[-c3 % n_ord]] += freq
    # b = alpha**k, a = -beta**t b: a + beta**i b = (beta**i - beta**t) b vanishes at i = t
    for t, k in product(range(1, 4), range(n_ord)):
        periods = (n1 // n_ord if i == t else eta[(k + i * params.g_log) % n_ord] for i in range(1, 4))
        sums[sum(periods)] += n1 // n_ord
    hist = Counter({0: 1})
    for total, freq in sums.items():
        hist[_weight(params, total)] += freq
    _validate(hist, params)
    return dict(hist)
