"""Slow, independent reference implementations used to pin expected values.

Everything here works directly on polynomial coefficient tuples over GF(p),
reduced modulo a supplied defining polynomial: no Zech logarithms, no
shared tables, no imports from the package under test.  Intended for desk
scale only (r up to a few thousand).
"""

from collections import Counter
from itertools import product
from operator import eq


class NaiveField:
    """GF(p**d) as coefficient tuples modulo a monic polynomial (constant first)."""

    def __init__(self, p, poly):
        self.p = p
        self.poly = tuple(c % p for c in poly)
        self.d = len(poly) - 1
        self.r = p**self.d
        self.zero = (0,) * self.d
        self.one = self._const(1)
        self.x = tuple(1 if i == 1 else 0 for i in range(self.d)) if self.d > 1 else self._const(-poly[0])
        pows = []
        cur = self.one
        for _ in range(self.r - 1):
            pows.append(cur)
            cur = self.mul(cur, self.x)
        assert cur == self.one, "defining polynomial is not primitive"
        self.pows = pows
        self.log = {v: k for k, v in enumerate(pows)}
        assert len(self.log) == self.r - 1

    def _const(self, c):
        return ((c % self.p),) + (0,) * (self.d - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        p, d = self.p, self.d
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(d):
                    prod[i - d + j] = (prod[i - d + j] - c * self.poly[j]) % p
        return tuple(prod[:d])

    def pow(self, a, e):
        result = self.one
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def inv(self, a):
        return self.pows[(-self.log[a]) % (self.r - 1)]


class NaiveTower:
    """Trace maps and coset bookkeeping on top of a NaiveField."""

    def __init__(self, p, s, m, poly):
        self.p, self.s, self.m = p, s, m
        self.q = p**s
        self.field = NaiveField(p, poly)
        self.r = self.field.r

    def trace_q(self, a):
        f = self.field
        acc = f.zero
        cur = a
        for _ in range(self.m):
            acc = f.add(acc, cur)
            cur = f.pow(cur, self.q)
        return acc

    def trace_p(self, a):
        f = self.field
        acc = f.zero
        cur = a
        for _ in range(self.s * self.m):
            acc = f.add(acc, cur)
            cur = f.pow(cur, self.p)
        assert all(c == 0 for c in acc[1:])
        return acc[0]

    def coset(self, a, n):
        return self.field.log[a] % n


def naive_weight_distribution(p, s, m, h, e, poly):
    """Hamming-weight histogram over all r**2 codeword pairs, the long way.

    Coordinate i of the pair (a, b) is Tr(a g**i) + Tr(b (beta g)**i), and
    it vanishes exactly where the first trace equals minus the second; both
    trace vectors are tabulated once per field element (powers read off
    this field's own log table), then every pair compares them
    coordinate by coordinate.
    """
    tw = NaiveTower(p, s, m, poly)
    f = tw.field
    q, r = tw.q, tw.r
    n = h * (r - 1) // (q - 1)
    g_log = (q - 1) // h
    bg_log = g_log + (r - 1) // e
    elems = [f.zero] + f.pows
    label = {}  # GF(q) element -> small int, so coordinates compare as ints
    trace = {x: label.setdefault(tw.trace_q(x), len(label)) for x in elems}
    neg_trace = {x: trace[f.neg(x)] for x in elems}

    def trace_vector(x, d, table):  # table at x * alpha**(d*i) for i < n
        if x == f.zero:
            return (table[x],) * n
        k = f.log[x]
        return tuple(table[f.pows[(k + d * i) % (r - 1)]] for i in range(n))

    left = [trace_vector(a, g_log, trace) for a in elems]
    right = [trace_vector(b, bg_log, neg_trace) for b in elems]
    hist = Counter()
    for u in left:
        hist.update(n - sum(map(eq, u, v)) for v in right)
    return dict(hist)


def naive_period_counts(p, s, m, big_n, poly):
    """For each coset u mod big_n: counts[t] = #{x in coset u : trace_p(x) = t}."""
    tw = NaiveTower(p, s, m, poly)
    counts = [[0] * p for _ in range(big_n)]
    for x in tw.field.pows:
        counts[tw.coset(x, big_n)][tw.trace_p(x)] += 1
    return counts


def naive_period_int(counts_u):
    """Integer value of sum counts[t]*zeta_p**t, or None if irrational.

    Rational exactly when the nonzero-exponent counts agree (the zeta_p**t,
    t >= 1, sum to -1 and are a Q-basis together with 1).
    """
    tail = counts_u[1:]
    if any(c != tail[0] for c in tail):
        return None
    return counts_u[0] - tail[0]


def naive_f_table(p, s, m, h, big_n, poly):
    """Counts of (a, b) pairs per coset vector of ((a + beta**i b) g**i), e = 3."""
    tw = NaiveTower(p, s, m, poly)
    f = tw.field
    q, r = tw.q, tw.r
    g = f.pows[(q - 1) // h]
    beta = f.pows[(r - 1) // 3]
    elems = [f.zero] + f.pows
    table = {c: 0 for c in product(range(big_n), repeat=3)}
    for a in elems:
        for b in elems:
            vec = []
            gi = g
            bi = beta
            for _ in range(3):
                t = f.add(a, f.mul(bi, b))
                if t == f.zero:
                    vec = None
                    break
                # c_i is the label with (a + beta^i b) g^i alpha^{c_i} an N-th power
                vec.append((-tw.coset(f.mul(t, gi), big_n)) % big_n)
                gi = f.mul(gi, g)
                bi = f.mul(bi, beta)
            if vec is not None:
                table[tuple(vec)] += 1
    return table


def naive_jacobi_counts(p, s, m, big_n, i, j, poly):
    """Exponent histogram of J(chi**i, chi**j): entry k counts pairs a + b = 1
    (a, b nonzero) with i*coset(a) + j*coset(b) = k mod big_n."""
    tw = NaiveTower(p, s, m, poly)
    f = tw.field
    out = [0] * big_n
    for a in f.pows:
        b = f.add(f.one, f.neg(a))
        if b == f.zero:
            continue
        k = (i * tw.coset(a, big_n) + j * tw.coset(b, big_n)) % big_n
        out[k] += 1
    return out


def naive_gauss_counts(p, s, m, big_n, i, poly):
    """Histogram over (t, u): #{x != 0: trace_p(x) = t, i*coset(x) = u mod big_n}."""
    tw = NaiveTower(p, s, m, poly)
    out = [[0] * big_n for _ in range(p)]
    for x in tw.field.pows:
        out[tw.trace_p(x)][(i * tw.coset(x, big_n)) % big_n] += 1
    return out
