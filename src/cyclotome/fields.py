"""Arithmetic in the tower GF(p) < GF(q) < GF(r) with q = p**s, r = q**m.

The extension GF(r) is built in one step as GF(p)[x]/(f) for a primitive
polynomial f of degree d = s*m, so the residue of x is a generator ``alpha``
of the multiplicative group.  Nonzero elements are represented by their
discrete logarithm base alpha (an int in ``[0, r-2]``); zero is the
sentinel ``ZERO = -1``.  With this representation multiplication is index
addition mod r-1 and addition uses a precomputed Zech logarithm table
``zech[k] = dlog(1 + alpha**k)``.

Every table comes from one linear recurring sequence u_k = Tr(c alpha**k),
c the element with (u_0, ..., u_{d-1}) the unit vector: alpha**d =
-sum f_j alpha**j gives u_{k+d} = -sum f_j u_{k+j}.  Its length-d windows
are the exp table; as f is primitive they run through every nonzero
vector exactly once (an m-sequence: Lidl & Niederreiter, *Finite Fields*,
ch. 8).  The log table inverts it, the Zech table adds 1 to digit 0, and
the absolute trace is digit 0 read on from the window of 1/c, the power
sums (Tr(alpha**j))_{j<d} that Newton's identities give from f.

The intermediate field GF(q) is the subfield fixed by the map
``x -> x**q``; its nonzero elements are exactly the indices divisible by
(r-1)/(q-1).  By trace duality, s rotations of the absolute trace give
the relative trace's coordinates over GF(p).  Every table, and the
default defining polynomial, is built on first use, so multiplication,
powers, cosets and everything that reads only (p, s, m, q, r) never build
one.  The search skips constant terms that cannot be primitive and, above
degree 1, candidates with a root at 1 or -1; it tests the order of x on
residues packed one coefficient per slot of a Python int, slots wide
enough that no product carries between them.
"""

from __future__ import annotations

import itertools
from array import array
from functools import cached_property

# An index is not a truth value: index 0 is the element 1, and ZERO = -1 is the zero element.
ZERO = -1

DEFAULT_FIELD_CAP = 1 << 24


class NonPrimeError(ValueError):
    """The claimed characteristic is not a prime number."""


class FieldTooLargeError(ValueError):
    """Requested field order exceeds the table-size cap."""


class NoPrimitivePolynomialError(ArithmeticError):
    """No primitive polynomial found, or tables built on one that is not primitive (internal bug)."""


class BadPolynomialError(ValueError):
    """A user-supplied defining polynomial is malformed or not primitive."""


class BadModulusError(ValueError):
    """Coset modulus N does not divide the group order r-1."""


def is_prime(n: int) -> bool:
    """Primality by trial division, for n up to about the field cap 2**24 (at most 2048 odd divisors).

    ``build_tower`` checks the cap before it calls this, so no larger p
    reaches it from there; a caller that lifts the cap must keep p <= 2**24 ahead of it.
    """
    return n > 1 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n stays below the cap squared)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_primitive(f: list[int], p: int, factors: list[int]) -> bool:
    """True iff x has order p**deg(f) - 1 (distinct prime factors ``factors``) modulo f.

    Succeeding forces f irreducible: the powers of x then exhaust every
    nonzero residue, so the quotient ring is a field.  Above degree 1 a
    residue sum c_i x**i, each c_i in [0, p), is Kronecker-packed as the int
    sum c_i << w*i (D. Harvey, *J. Symbolic Comput.* 44, 2009), so a product
    is one int multiply; its high slots fold in as multiples of the packed
    x**(d+j) mod f.  No slot then exceeds d**2 (p-1)**3 < 2**bound, so none
    carries, and with mu = ceil(2**k / p) every slot v has v // p = v*mu >> k
    (Granlund & Montgomery, PLDI 1994): one more multiply reduces them all mod p.
    """
    d = len(f) - 1
    order = p**d - 1
    if d == 1:  # x is the residue -f[0], so its powers are integer powers mod p
        return pow(-f[0], order, p) == 1 and all(pow(-f[0], order // ell, p) != 1 for ell in factors)
    bound = (d * d * (p - 1) ** 3).bit_length()
    k = bound + p.bit_length()
    w = bound + k + 1
    mu, slot, dw = -(-(1 << k) // p), (1 << w) - 1, d * w
    low = (1 << dw) - 1
    quot = ((1 << bound) - 1) * (low // slot)  # the low bound bits of each of the d slots

    def mulmod(a: int, b: int) -> int:
        prod = a * b
        acc, high = prod & low, prod >> dw
        for row in rows:  # slot d + j of the product is a multiple of x**(d+j) mod f
            acc += (high & slot) * row
            high >>= w
        return acc - p * (acc * mu >> k & quot)

    def power(base: int, e: int) -> int:
        result = base
        for bit in bin(e)[3:]:  # left to right below the top bit, as CycInt.__pow__
            result = mulmod(result, result)
            if bit == "1":
                result = mulmod(result, base)
        return result

    rows = [sum(-c % p << w * i for i, c in enumerate(f[:d]))]  # x**d mod f, then x**(d+1), ...
    while len(rows) < d - 1:
        rows.append(mulmod(rows[-1], 1 << w))
    # x**order as (x**(order/ell))**ell, ell = factors[0]: one power serves both of ell's tests
    y = power(1 << w, order // factors[0])
    return y != 1 and power(y, factors[0]) == 1 and all(power(1 << w, order // ell) != 1 for ell in factors[1:])


def find_primitive_polynomial(p: int, degree: int, index: int = 0) -> tuple[int, ...]:
    """The index-th monic primitive polynomial of the given degree over GF(p).

    Primitive polynomials are counted in lexicographic order of the
    coefficient vector (c_0, ..., c_{degree-1}); index 0 is the deterministic
    default of ``build_tower``.  Returned constant-first, including the leading 1.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if not is_prime(p):
        raise NonPrimeError(f"p = {p} is not prime")
    factors, unit_factors = prime_factors(p**degree - 1), prime_factors(p - 1)
    sign = (-1) ** degree
    seen = 0
    for c0 in range(1, p):
        # c0 = (-1)**degree * N(alpha), and the norm of a generator generates GF(p)*
        if any(pow(sign * c0, (p - 1) // ell, p) == 1 for ell in unit_factors):
            continue
        for high in itertools.product(range(p), repeat=degree - 1):
            # a root at 1 or -1 is a linear factor, but in degree 1 x - 1 or x + 1 may be primitive
            if degree > 1:
                odd, even = sum(high[::2]), sum(high[1::2])  # coefficients of x, x**3, ... and x**2, x**4, ...
                if (c0 + odd + even + 1) % p == 0 or (c0 - odd + even + sign) % p == 0:
                    continue
            f = [c0, *high, 1]
            if _is_primitive(f, p, factors):
                if seen == index:
                    return tuple(f)
                seen += 1
    raise NoPrimitivePolynomialError(f"no primitive polynomial of degree {degree} over GF({p})")


class FieldTower:
    """GF(p) < GF(q) < GF(r) with exp, Zech and trace tables over a fixed generator.

    Construction stores integers only (and a caller-supplied defining
    polynomial).  The default polynomial search, the exp array of trace
    windows, the Zech table, the absolute trace and the relative-trace
    coordinates are cached properties, built on first use.
    Logically immutable: every operation is a pure read.
    """

    def __init__(self, p: int, s: int, m: int, poly: "tuple[int, ...] | None" = None):
        self.p = p
        self.s = s
        self.m = m
        self.q = p**s
        self.r = self.q**m
        self.degree = s * m
        self._n1 = self.r - 1  # multiplicative group order
        self.neg_shift = 0 if p == 2 else self._n1 // 2
        # canonical label: GF(q)* sits at index multiples of this
        self.subfield_step = self._n1 // (self.q - 1)
        if poly is not None:
            self.defining_polynomial = poly

    # -- tables, each built on first use -------------------------------------

    @cached_property
    def defining_polynomial(self) -> tuple[int, ...]:
        """The lexicographically first monic primitive polynomial of degree s*m."""
        return find_primitive_polynomial(self.p, self.degree)

    @cached_property
    def _pow_packed(self) -> array:
        """k -> the trace window (Tr(c alpha**(k+j)))_{j<d}, packed as a base-p integer.

        GF(p)-linear and injective, the trace form being nondegenerate; 1 packs
        to 1 and GF(p) to its residues.  Each step drops digit 0 and appends
        the feedback -sum f_j digit_j: a GF(p)-linear map, so the sum of two
        half tables, of the low d//2 digits and of the rest, whose one carry,
        out of the new top digit, ``% r`` drops.
        """
        p, d, f, r = self.p, self.degree, self.defining_polynomial, self.r
        split, top = p ** (d // 2), p ** (d - 1)

        def half(first: int, last: int) -> array:
            # the step on digits first..last-1 alone: shifted down a digit, their feedback on top
            feedback = [0]
            for j in range(first, last):
                feedback = [(t - c * f[j]) % p for c in range(p) for t in feedback]
            return array("i", (i * p**first // p + t * top for i, t in enumerate(feedback)))

        low, high = half(0, d // 2), half(d // 2, d)
        pow_packed = array("i", bytes(4 * self._n1))
        v = 1
        for k in range(self._n1):
            pow_packed[k] = v
            v = (low[v % split] + high[v // split]) % r
        # back at 1 after r-1 steps and not before: every nonzero window once, so f is primitive
        if v != 1 or pow_packed.count(1) != 1:
            raise NoPrimitivePolynomialError(f"{f} is not primitive")
        return pow_packed

    @cached_property
    def zech(self) -> array:
        """k -> dlog(1 + alpha**k), ZERO where alpha**k = -1, read off a log table that inverts
        ``_pow_packed``, built here and not kept: nothing else reads it."""
        p, log_packed = self.p, array("i", bytes(4 * self.r))
        for k, packed in enumerate(self._pow_packed):
            log_packed[packed] = k
        bump = [1] * (p - 1) + [1 - p]  # 1 is the unit window: add 1 to digit 0 mod p
        zech = array("i", (log_packed[v + bump[v % p]] for v in self._pow_packed))
        zech[self.neg_shift] = ZERO
        return zech

    # -- raw index arithmetic (ZERO = -1 marks the zero element) ------------

    def add(self, i: int, j: int) -> int:
        if i == ZERO:
            return j
        if j == ZERO:
            return i
        z = self.zech[(j - i) % self._n1]
        return ZERO if z == ZERO else (i + z) % self._n1

    def elements(self):
        """Iterate over the indices of all r elements: ZERO first, then 0 .. r-2."""
        yield ZERO
        yield from range(self._n1)

    # -- traces --------------------------------------------------------------

    @cached_property
    def trace_p_table(self) -> array:
        """index -> absolute trace into GF(p), as an integer residue: digit 0 of a window.

        The window of 1/c is (Tr(alpha**j))_{j<d}, the power sums of the roots
        of f by Newton's identities; from its index on, digit 0 runs through Tr(alpha**k).
        """
        p, d, f = self.p, self.degree, self.defining_polynomial
        sums = [d % p]
        for k in range(1, d):
            sums.append(-(k * f[d - k] + sum(f[d - i] * sums[k - i] for i in range(1, k))) % p)
        try:
            start = self._pow_packed.index(sum(s_k * p**k for k, s_k in enumerate(sums)))
        except ValueError:
            raise NoPrimitivePolynomialError(f"{f} is not primitive") from None
        windows = memoryview(self._pow_packed)  # read on from start: a rotation, not a copy
        return array("i", (v % p for v in itertools.chain(windows[start:], windows[:start])))

    @cached_property
    def trace_q_coords(self) -> array:
        """index -> sum of Tr(gamma**j alpha**index) p**j over j < s, gamma = alpha**P.

        P = ``subfield_step``, so the powers of gamma below s are a GF(p)-basis
        of GF(q).  As Tr_{r/p}(lambda x) = Tr_{q/p}(lambda Tr_{r/q}(x)) for
        lambda in GF(q) and the trace form of GF(q)/GF(p) is nondegenerate,
        this encodes the relative trace GF(p)-linearly and injectively: equal
        entries are equal relative traces, and 0 is trace zero.
        """
        coords, trace = self.trace_p_table, memoryview(self.trace_p_table)
        for j in range(1, self.s):  # Tr(gamma**j alpha**k) = trace[k + j*P]: a rotation, not a copy
            cut, w = j * self.subfield_step, self.p**j
            rotated = itertools.chain(trace[cut:], trace[:cut])
            coords = array("i", (c + t * w for c, t in zip(coords, rotated)))
        return coords

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, s={self.s}, m={self.m}, r={self.r})"


def build_tower(
    p: int,
    s: int,
    m: int,
    poly: "tuple[int, ...] | list[int] | None" = None,
) -> FieldTower:
    """Construct the tower GF(p) < GF(p**s) < GF(p**(s*m)).

    The defining polynomial defaults to the lexicographically first monic
    primitive polynomial of degree s*m over GF(p), so towers (and hence
    all derived tables) are reproducible; it is searched for on first use.
    A caller-supplied ``poly`` (constant-first coefficients, monic, length
    s*m + 1) is checked here and must be primitive.  Fields above
    DEFAULT_FIELD_CAP raise FieldTooLargeError before p is tested for primality.
    """
    if s < 1 or m < 1:
        raise ValueError("s and m must be positive")
    # the cap before primality, so is_prime sees p <= 2**24 only; for p >= 2 a large
    # s*m alone exceeds it, so p**(s*m) is never formed then
    if p > 1 and (s * m >= DEFAULT_FIELD_CAP.bit_length() or p ** (s * m) > DEFAULT_FIELD_CAP):
        raise FieldTooLargeError(f"r = p**(s*m) = {p}**{s * m} exceeds cap {DEFAULT_FIELD_CAP}")
    if not is_prime(p):
        raise NonPrimeError(f"p = {p} is not prime")
    if poly is None:
        return FieldTower(p, s, m)
    poly_t = tuple(c % p for c in poly)
    if len(poly_t) != s * m + 1:
        raise BadPolynomialError(f"polynomial must have degree {s * m} (got {len(poly_t) - 1})")
    if poly_t[-1] != 1:
        raise BadPolynomialError("polynomial must be monic")
    if not _is_primitive(list(poly_t), p, prime_factors(p ** (s * m) - 1)):
        raise BadPolynomialError(f"{poly_t} is not primitive over GF({p})")
    return FieldTower(p, s, m, poly_t)
