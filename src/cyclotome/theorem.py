"""Applicability test and closed-form weight-distribution tables.

The closed forms cover e = 3 parameter sets in the semiprimitive regime:
some power p**j is congruent to -1 mod N (j minimal) and s*m = 2*j*gamma.
Two independent bits select the sub-case:

* major case 1 when gamma, p and (p**j + 1)/N are all odd, else 2;
* minor case 1 when N divides (q-1)/h (g is an N-th power), else 2.

The major bit decides only one sign sg: the off-diagonal Jacobi sums are
all -sg*sqrt(r), with sg = -1 in major case 1 and (-1)**gamma in major
case 2.  With r = sqrt(r)**2, the printed major-1 tables are the major-2
tables at sg = -1, row for row, so one table per minor case is kept and
``TheoremCase.sign`` is the single place the sign is decided.  Every
closed form (the tables and ``TheoremCase.periods`` here, the Jacobi
value in ``charsums``) takes the ``TheoremCase`` that ``classify``
returns as its only case input.  Off the regime, ``classify`` returns
the first failed hypothesis as a plain string, the reason every report
prints.

Each table is encoded symbolically in (r, sqrt(r), N, h, q, sg), one (weight,
frequency) pair of exact integer numerators and denominators per row.  Instantiation
divides each once, checks every row's frequency and every nonempty row's weight,
and merges the nonempty rows into a plain dict {weight: frequency}, as brute and semi do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .charsums import NonIntegerResultError
from .code import CodeParams, _validate


class NotApplicableError(ValueError):
    """Table machinery invoked for parameters outside its hypotheses."""


class NonIntegerFrequencyError(ArithmeticError):
    """A table row failed to instantiate to an integer (misapplied case)."""


@dataclass(frozen=True)
class TheoremCase:
    """Classification data for an applicable parameter set."""

    j: int
    gamma: int
    case_major: int
    case_minor: int
    sqrt_r: int
    N: int

    @property
    def label(self) -> str:
        return f"{self.case_major}.{self.case_minor}"

    @property
    def sign(self) -> int:
        """Sign sg of the sqrt(r) terms: -1 in major case 1, (-1)**gamma in major case 2.

        The off-diagonal Jacobi sums are -sg*sqrt(r).
        """
        return -1 if self.case_major == 1 else (-1) ** self.gamma

    @property
    def periods(self) -> list[int]:
        """The N closed Gaussian periods, indexed by coset.

        One distinguished coset (N/2 in major case 1, else 0) carries
        (-sg*(N-1)*sqrt(r) - 1)/N, the other N-1 share (sg*sqrt(r) - 1)/N;
        the sign does not fix which coset is distinguished.  The two
        numerators differ by sg*N*sqrt(r), so one check covers both.
        """
        n, sr, sign = self.N, self.sqrt_r, self.sign
        num = sign * sr - 1
        if num % n:
            raise NonIntegerResultError(f"period value {num}/{n} is not integral")
        periods = [num // n] * n
        periods[n // 2 if self.case_major == 1 else 0] -= sign * sr
        return periods


def _e_N_reason(e: int, n_ord: int) -> "str | None":
    """The first failed hypothesis that reads only e and N, as ``classify`` words it; None if e = 3 and N >= 2."""
    if e != 3:
        return f"e = {e}, semi and the closed forms need e = 3"
    return "N = 1 < 2" if n_ord < 2 else None


def classify(params: CodeParams) -> TheoremCase | str:
    """Check the closed-form hypotheses: the (major, minor) sub-case, or the first failed one as a sentence."""
    tw = params.tower
    p, n_ord = tw.p, params.N
    if reason := _e_N_reason(params.e, n_ord):
        return reason
    j = next((c for c in range(1, n_ord + 1) if pow(p, c, n_ord) == n_ord - 1), None)
    if j is None:
        return f"no j with p**j = -1 mod N (p = {p}, N = {n_ord})"
    sm = tw.degree
    gamma = sm // (2 * j)  # an integer: N | q-1 puts 2j = ord_N(p) | s for N > 2, and N = 2 divides m
    major = 1 if gamma % 2 and p % 2 and ((p**j + 1) // n_ord) % 2 else 2
    minor = 1 if ((tw.q - 1) // params.h) % n_ord == 0 else 2
    return TheoremCase(
        j=j,
        gamma=gamma,
        case_major=major,
        case_minor=minor,
        sqrt_r=p ** (sm // 2),
        N=n_ord,
    )


# ---------------------------------------------------------------------------
# symbolic tables, one per minor case; each row maps (r, sr, N, h, q, sg) ->
# ((weight numerator, denominator), (frequency numerator, denominator)) where
# sr = sqrt(r) and sg is ``TheoremCase.sign``; every denominator is positive

Row = Callable[[int, int, int, int, int, int], tuple[tuple[int, int], tuple[int, int]]]

_TABLES: dict[int, list[Row]] = {
    1: [
        lambda r, sr, N, h, q, sg: (
            (h * (r + sg * sr * (N - 1)), q),
            ((r - 1) * (r - sg * sr * (N * N - 3 * N + 2) - 3 * N + 1), N**3),
        ),
        lambda r, sr, N, h, q, sg: (
            (h * (r - sg * sr), q),
            (
                (r - 1) * (N - 1) * (r * (N - 1) ** 2 + sg * sr * (N - 2) - (N - 1) * (2 * N + 1)),
                N**3,
            ),
        ),
        lambda r, sr, N, h, q, sg: (
            (h * (3 * r + sg * sr * (N - 3)), 3 * q),
            (3 * (r - 1) * (N - 1) * (r * (N - 1) - sg * sr * (N - 2) - 1), N**3),
        ),
        lambda r, sr, N, h, q, sg: (
            (h * (3 * r + sg * sr * (2 * N - 3)), 3 * q),
            (3 * (r - 1) * (N - 1) * (r + sg * sr * (N - 2) - N + 1), N**3),
        ),
        lambda r, sr, N, h, q, sg: (
            (2 * h * (r + sg * sr * (N - 1)), 3 * q),
            (3 * (r - 1), N),
        ),
        lambda r, sr, N, h, q, sg: (
            (2 * h * (r - sg * sr), 3 * q),
            (3 * (r - 1) * (N - 1), N),
        ),
    ],
    2: [
        lambda r, sr, N, h, q, sg: (
            (h * (r + sg * sr * (N - 1)), q),
            ((r - 1) * (r - 2 * sg * sr + 1), N**3),
        ),
        lambda r, sr, N, h, q, sg: (
            (h * (r - sg * sr), q),
            (
                (r - 1) * (r * (N - 1) ** 3 + 2 * sg * sr - (N - 1) * (2 * N * N - 4 * N - 1)),
                N**3,
            ),
        ),
        lambda r, sr, N, h, q, sg: (
            (h * (3 * r + sg * sr * (N - 3)), 3 * q),
            (3 * (r - 1) * (r * (N - 1) ** 2 - 2 * sg * sr - 2 * N * N + 2 * N + 1), N**3),
        ),
        lambda r, sr, N, h, q, sg: (
            (h * (3 * r + sg * sr * (2 * N - 3)), 3 * q),
            (3 * (r - 1) * (r * (N - 1) + 2 * sg * sr - N - 1), N**3),
        ),
        lambda r, sr, N, h, q, sg: (
            (h * (2 * r + sg * sr * (N - 2)), 3 * q),
            (6 * (r - 1), N),
        ),
        lambda r, sr, N, h, q, sg: (
            (2 * h * (r - sg * sr), 3 * q),
            (3 * (r - 1) * (N - 2), N),
        ),
    ],
}


def instantiate_table(case: TheoremCase, params: CodeParams) -> dict[int, int]:
    """Evaluate the table of ``case.case_minor`` at ``case.sign`` and ``case.sqrt_r``.

    Integrality and range are the only checks here, one division per value:
    every row's frequency, then every nonempty row's weight.  This is the
    raw substitution used by ``table_distribution``, which classifies
    first.  Only the tests check that the two N = 2 tables coincide,
    passing the case with its major bit swapped.
    """
    tw = params.tower
    hist: dict[int, int] = {0: 1}
    for row in _TABLES[case.case_minor]:
        (w_num, w_den), (f_num, f_den) = row(tw.r, case.sqrt_r, params.N, params.h, tw.q, case.sign)
        freq, rem = divmod(f_num, f_den)
        if rem or freq < 0:
            raise NonIntegerFrequencyError(f"row frequency {Fraction(f_num, f_den)} is not a nonnegative integer")
        if freq == 0:
            continue
        weight, rem = divmod(w_num, w_den)
        if rem or not 0 <= weight <= params.n:
            raise NonIntegerFrequencyError(f"row weight {Fraction(w_num, w_den)} out of range")
        hist[weight] = hist.get(weight, 0) + freq
    return hist


def table_distribution(params: CodeParams) -> dict[int, int]:
    """Instantiate the table that ``classify`` selects for these parameters, validated."""
    case = classify(params)
    if isinstance(case, str):
        raise NotApplicableError(f"no table applies: {case}")
    dist = instantiate_table(case, params)
    _validate(dist, params)
    return dist
