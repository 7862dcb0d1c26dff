"""Host-speed sampling, so that timings can be reported at a fixed reference speed.

On a shared host the same pure-Python work can take 1.6 times longer from
one minute to the next, because other tenants load the same cores.  The
program's own time then says more about the neighbours than about the
program.  ``SpeedProbe`` measures that drift while the benchmark runs:
every ``INTERVAL`` seconds a SIGALRM handler runs ``reference_loop`` (a
fixed piece of pure-Python work, independent of cyclotome) and records how
long it took.  The time the handler itself takes is subtracted
from the measured region, and the region's time is scaled by
``NOMINAL_S / mean(reference loop time)``: seconds on a host where the
reference loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from collections import Counter
from time import perf_counter

INTERVAL = 0.25
NOMINAL_S = 0.010

_SMALL = array("q", range(1021))
_MID = array("q", range(1 << 16))  # 512 KiB: past L1, like the program's tables
_N1 = 4095
_LOG = array("q", [(k * 2654435761) % _N1 if k % 17 else -1 for k in range(_N1)])
_FLAGS = bytes((k * 7) % 3 != 0 for k in range(_N1))


def _mix(x: int, y: int) -> int:
    return (x * y + 1) % 65521


class _Adder:
    """A method call with a table lookup and a wrap, as in index arithmetic."""

    def __init__(self) -> None:
        self.table = _LOG
        self.n1 = _N1

    def add(self, i: int, j: int) -> int:
        if i == -1:
            return j
        if j == -1:
            return i
        z = self.table[(j - i) % self.n1]
        return -1 if z == -1 else (i + z) % self.n1


_ADDER = _Adder()


def reference_loop() -> int:
    """Fixed work resembling the program's hot loops: modular index steps
    and lookups in a small and a mid-size table, nested list arithmetic,
    dict counting with tuple keys, calls, small allocations, a
    histogram walk with data-dependent branches, and method calls."""
    table = _SMALL
    n = len(table)
    acc = 0
    i = 1
    for _ in range(24000):
        i = (i * 7 + 3) % n
        if table[i] & 1:
            acc += table[i - 1]
    coeffs = [3, 0, 1, 2]
    for k in range(160):
        a = [(k + j) % 19 for j in range(4)]
        prod = [0] * 7
        for x, ax in enumerate(a):
            if ax:
                for y, by in enumerate(a):
                    prod[x + y] = (prod[x + y] + ax * by) % 19
        for x in range(6, 3, -1):
            c = prod[x]
            if c:
                prod[x] = 0
                for y in range(4):
                    prod[x - 4 + y] = (prod[x - 4 + y] - c * coeffs[y]) % 19
        acc += prod[0]
    table = _MID
    n = len(table)
    counts: dict = {}
    for k in range(5000):
        i = (i * 40503 + 12345) % n
        z = table[i]
        key = (z & 255, k & 7)
        counts[key] = counts.get(key, 0) + 1
        acc = _mix(acc, z)
    acc += sum(len(x) for x in [list(range(k % 13)) for k in range(600)])
    logs, flags, n1 = _LOG, _FLAGS, _N1
    hist = Counter()
    offsets = [(k * 37) % n1 for k in range(60)]
    for start in range(40):
        ai, weight = start, 0
        for di in offsets:
            z = logs[ai - di]
            if z != -1:
                x = di + z
                if x >= n1:
                    x -= n1
                weight += flags[x]
            ai += 5
            if ai >= n1:
                ai -= n1
        hist[weight] += 1
    adder = _ADDER
    for a in range(60):
        for b in range(40):
            for step in range(3):
                t = adder.add(a * 11, (b * 13 + step * 1365) % n1)
                if t == -1 or (t + step) % 3:
                    break
            else:
                acc += 1
    return acc + len(hist)


def reference_time(repeats: int = 3) -> float:
    """Median time of a few reference loops run back to back."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Samples the reference loop on a timer while the ``with`` block runs.

    ``normalize(seconds)`` turns a time measured inside the block into
    seconds at reference speed; ``overhead`` is the handler time inside it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead = 0.0
        self._old = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.overhead += elapsed

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(reference_time(1))
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(reference_time(1))

    def normalize(self, seconds: float) -> float:
        return (seconds - self.overhead) * NOMINAL_S / statistics.fmean(self.samples)
