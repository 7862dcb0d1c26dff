from dataclasses import dataclass
from functools import reduce

import pytest

from cyclotome import (
    CharSystem,
    CodeParams,
    FieldTower,
    TheoremCase,
    build_code,
    build_tower,
    classify,
)
from cyclotome.cli import _sweep_towers
from cyclotome.cycint import CycInt
from cyclotome.fields import ZERO


def root_of_unity(order: int, k: int = 1) -> CycInt:
    """zeta_order**k in canonical form."""
    return CycInt(order, [0] * (k % order) + [1])


def neg(tower: FieldTower, x: int) -> int:
    """Index of -x: -1 is alpha**neg_shift."""
    return ZERO if x == ZERO else (x + tower.neg_shift) % (tower.r - 1)


def mul(tower: FieldTower, x: int, y: int) -> int:
    """Index of x*y: indices add mod r-1."""
    return ZERO if ZERO in (x, y) else (x + y) % (tower.r - 1)


def trace_to_q(tower: FieldTower, x: int) -> int:
    """Index of the relative trace of the element of index x: the sum of x**(q**i) for i < m; lands in GF(q)."""
    if x == ZERO:
        return ZERO
    return reduce(tower.add, (x * tower.q**i % (tower.r - 1) for i in range(tower.m)))


def codeword(params: CodeParams, a: int, b: int) -> list[int]:
    """Indices of the length-n vector of traces of a g**i + b (beta g)**i, for indices a and b."""
    tw = params.tower
    n1 = tw.r - 1
    dg, dbg = params.g_log, (params.beta_log + params.g_log) % n1
    out = []
    for _ in range(params.n):
        out.append(trace_to_q(tw, tw.add(a, b)))
        if a != ZERO:
            a = (a + dg) % n1
        if b != ZERO:
            b = (b + dbg) % n1
    return out


def hamming_weight(word: list[int]) -> int:
    return sum(1 for x in word if x != ZERO)


def sweep_candidates(max_r: int, e: int):
    """All (p, s, m, h) with 3 <= q = p**s, r = q**m <= max_r, e | h | q-1, in tuple order: the sweep's items."""
    for p, s, m, _, _, hs in _sweep_towers(max_r, e):
        for h in hs:
            yield (p, s, m, h)


def trace_p(tower: FieldTower, x: int) -> int:
    """Absolute trace of the element of index x into GF(p), read off the tower's table (0 at zero)."""
    return 0 if x == ZERO else tower.trace_p_table[x]


def packed(tower: FieldTower, x: int) -> int:
    """The trace window of the element of index x packed as a base-p integer (0 at zero).

    GF(p)-linear and injective; 1 packs to 1 and GF(p) to its residues.
    """
    return 0 if x == ZERO else tower._pow_packed[x]


@dataclass(frozen=True)
class DeskSet:
    """One fully-built desk-scale parameter set shared across tests."""

    tower: FieldTower
    params: CodeParams
    case: TheoremCase
    system: CharSystem

    @property
    def g(self) -> int:
        return self.params.g_log

    @property
    def beta(self) -> int:
        return self.params.beta_log


def _desk(p: int, s: int, m: int, h: int) -> DeskSet:
    tower = build_tower(p, s, m)
    params = build_code(tower, h, 3)
    case = classify(params)
    assert isinstance(case, TheoremCase)
    return DeskSet(tower, params, case, CharSystem(tower, params.N))


@pytest.fixture(scope="session")
def set1() -> DeskSet:
    """(7,1,2,h=3): r = 49, N = 2, case 2.1."""
    return _desk(7, 1, 2, 3)


@pytest.fixture(scope="session")
def set2() -> DeskSet:
    """(2,2,3,h=3): r = 64, N = 3, case 2.2."""
    return _desk(2, 2, 3, 3)


@pytest.fixture(scope="session")
def set3() -> DeskSet:
    """(13,1,2,h=3): r = 169, N = 2, case 1.1."""
    return _desk(13, 1, 2, 3)


# expected values pinned from the naive reference implementations in
# naive_oracle.py (poly arithmetic only, no shared code with the package)

DIST1 = {0: 1, 12: 72, 16: 72, 18: 264, 20: 864, 22: 864, 24: 264}
DIST2 = {0: 1, 30: 126, 36: 252, 42: 756, 48: 1827, 54: 1134}

PERIOD_COUNTS1 = [[6, 3, 3, 3, 3, 3, 3], [0, 4, 4, 4, 4, 4, 4]]
PERIODS1 = [3, -4]
PERIOD_COUNTS2 = [[13, 8], [9, 12], [9, 12]]
PERIODS2 = [5, -3, -3]

# class histograms H {(L1 - L3, L2 - L3): count}; the naive N**3 class counts at c3 = 0 are
# f(2g - d1, g - d2) = (r-1)/N * H(d1, d2), so set1's f at the class (0, 0, 0) is 24 * 11 = 264
H_TABLE1 = {(0, 0): 11, (0, 1): 12, (1, 0): 12, (1, 1): 12}
H_TABLE2 = {(a, b): 6 for a in range(3) for b in range(3)}
H_TABLE2.update({(0, 0): 8, (1, 2): 9, (2, 1): 9})
