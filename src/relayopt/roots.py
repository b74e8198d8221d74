"""Exact real root isolation on (0,1) for rational polynomials.

Roots are carried symbolically as an isolating rational interval plus a
square-free defining polynomial, never as floats.  Multiplicities come from
Yun's square-free decomposition.  This kernel backs breakpoint location,
crossing profiles and the breakpoint-free-interval check.

The work runs on integer numerators.  Roots at 0 and 1 are divided out
first.  A polynomial is proved square-free (and two polynomials coprime)
by a gcd modulo the prime 2^61 - 1; only when that fails does Yun's
decomposition run over the rationals.  Roots are isolated by the
Vincent-Collins-Akritas bisection (Collins & Akritas 1976; Rouillier &
Zimmermann 2004): on a dyadic cell, Descartes' rule of signs after a
Taylor shift bounds the roots inside, and a cell is halved until the
bound is 0 or 1.  Refinement halves a cell by one integer sign
evaluation at its midpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .polys import Poly, poly_gcd

# A Mersenne prime: the modular gcds below run over GF(_PRIME).
_PRIME = (1 << 61) - 1


def yun_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Square-free decomposition: f = c * prod g_i^i with the g_i square-free
    and pairwise coprime.  Returns the nonconstant (g_i, i) pairs."""
    if f.degree < 1:
        return []
    f = f.monic()
    df = f.derivative()
    a = poly_gcd(f, df)
    if a.degree < 1:
        return [(f, 1)]
    w = f.exact_div(a)
    y = df.exact_div(a)
    out: list[tuple[Poly, int]] = []
    i = 1
    while w.degree >= 1:
        z = y - w.derivative()
        g = poly_gcd(w, z)
        if g.degree >= 1:
            out.append((g.monic(), i))
            w = w.exact_div(g)
            y = z.exact_div(g)
        else:
            y = z
        i += 1
    return out


# ---------------------------------------------------------------------------
# Integer polynomials: coefficient tuples by ascending degree
# ---------------------------------------------------------------------------

def _sign_at(num, x: Fraction) -> int:
    """The sign of the integer polynomial ``num`` at the rational ``x``, by
    homogeneous Horner's rule in integers."""
    p, q = x.numerator, x.denominator
    acc = num[-1]
    qk = 1
    for c in num[-2::-1]:
        qk *= q
        acc = acc * p + c * qk
    return (acc > 0) - (acc < 0)


def _taylor_shift(a, by: int = 1) -> list[int]:
    """The coefficients of a(x + by), by Horner's rule n times over."""
    a = list(a)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += by * a[j + 1]
    return a


def _halve(a) -> list[int]:
    """2^n a(x/2): the polynomial of a cell's left half."""
    n = len(a) - 1
    return [c << n - i for i, c in enumerate(a)]


def _descartes(a) -> int:
    """Sign variations of (x + 1)^n a(1 / (x + 1)): an upper bound on the
    roots of ``a`` in the open interval (0,1), exact when it is 0 or 1."""
    count = 0
    prev = 0
    for c in _taylor_shift(a[::-1]):
        if c:
            if prev and (c > 0) != (prev > 0):
                count += 1
            prev = c
    return count


def _without_ends(a) -> tuple[int, ...]:
    """``a`` with every factor x and x - 1 divided out, made primitive."""
    a = tuple(a)
    while a and not a[0]:
        a = a[1:]
    while len(a) > 1 and not sum(a):
        out = []
        acc = 0
        for c in a[:0:-1]:
            acc += c
            out.append(acc)
        a = tuple(out[::-1])
    g = math.gcd(*a)
    return tuple(c // g for c in a) if g > 1 else a


def _on_interval(num, lo: Fraction, hi: Fraction) -> list[int]:
    """An integer polynomial whose roots in (0,1) are those of ``num`` in
    (lo, hi), mapped by x -> lo + (hi - lo) x, with the same signs:
    d^n num((start + w x) / d) for lo = start / d and hi = (start + w) / d."""
    d = math.lcm(lo.denominator, hi.denominator)
    start = lo.numerator * (d // lo.denominator)
    w = hi.numerator * (d // hi.denominator) - start
    n = len(num) - 1
    shifted = _taylor_shift([c * d ** (n - i) for i, c in enumerate(num)], start)
    return [c * w ** i for i, c in enumerate(shifted)]


def _cells(a) -> list:
    """The roots in the open interval (0,1) of the square-free integer
    polynomial ``a``, increasing: each an exact dyadic (c, k, 0) for
    c / 2^k, found as a bisection point, or a cell (c, k, s) with exactly
    one root in the open interval (c / 2^k, (c + 1) / 2^k), whose ends are
    not roots and at whose left end ``a`` has sign s."""
    out = []
    pending: list = [(a, 0, 0)]  # cells, and exact roots (None, c, k) between them
    while pending:
        b, c, k = pending.pop()
        if b is None:
            out.append((c, k, 0))
            continue
        bound = _descartes(b)
        if bound == 0:
            continue
        if bound == 1 and b[0] and sum(b):
            out.append((c, k, 1 if b[0] > 0 else -1))
            continue
        left = _halve(b)
        right = _taylor_shift(left)
        pending.append((right, 2 * c + 1, k + 1))
        if not right[0]:
            pending.append((None, 2 * c + 1, k + 1))
        pending.append((left, 2 * c, k + 1))
    return out


def _count_roots(a) -> int:
    """Distinct roots of the square-free integer polynomial ``a`` in the
    open interval (0,1): Descartes' bound when it is 0 or 1, otherwise by
    bisection."""
    bound = _descartes(a)
    return bound if bound <= 1 else len(_cells(a))


def _coprime_mod(a, b) -> bool:
    """A proof that the integer polynomials ``a`` and ``b`` are coprime
    over the rationals, or False when there is none.  A common factor, taken
    primitive, has a leading coefficient dividing both of theirs; if the
    prime divides neither, the factor keeps its degree modulo the prime and
    divides both reductions, so their gcd is constant only if there is no
    such factor.  The gcd is Euclid's over GF(_PRIME)."""
    a = [c % _PRIME for c in a]
    b = [c % _PRIME for c in b]
    if not a[-1] or not b[-1]:
        return False
    while b:
        inv = pow(b[-1], -1, _PRIME)
        db = len(b) - 1
        head = b[:-1]
        r = a
        for k in range(len(r) - 1, db - 1, -1):
            c = r[k] * inv % _PRIME
            if c:
                for j, bc in enumerate(head, k - db):
                    r[j] = (r[j] - c * bc) % _PRIME
        del r[db:]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    return len(a) == 1


def _squarefree(a) -> bool:
    """A proof that the integer polynomial ``a`` is square-free: it is
    coprime to its derivative."""
    return _coprime_mod(a, [i * c for i, c in enumerate(a) if i])


@dataclass
class AlgebraicNumber:
    """A real algebraic number: either an exact rational, or the unique root
    of ``poly`` (square-free) in the open interval (lo, hi) with
    poly(lo) != 0 != poly(hi).  A number found by this module's isolation
    signs its interval by a factor of ``poly`` without roots at 0 and 1, so
    there ``poly`` itself may vanish at an end that is 0 or 1."""

    poly: Poly
    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None
    # The integer polynomial whose signs refinement reads, its sign at lo
    # (0: not yet known), and (c, k) when the interval is the dyadic cell
    # (c / 2^k, (c + 1) / 2^k), whose midpoint and width come from c and k.
    _num: tuple = field(default=(), repr=False, compare=False)
    _lo_sign: int = field(default=0, repr=False, compare=False)
    _cell: tuple[int, int] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.exact is not None:
            self.lo = self.hi = self.exact
        if not self._num:
            self._num = self.poly.num

    @classmethod
    def rational(cls, value: Fraction) -> AlgebraicNumber:
        return cls(Poly((-value, 1)), value, value, exact=value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine_once(self) -> None:
        """Halve the interval: one sign evaluation at its midpoint, read
        against the sign at ``lo``, which stays the same."""
        if self.exact is not None:
            return
        if not self._lo_sign:
            self._lo_sign = _sign_at(self._num, self.lo)
        cell = self._cell
        if cell is None:
            mid = (self.lo + self.hi) / 2
        else:
            c, k = cell
            mid = Fraction(2 * c + 1, 2 << k)
        side = _sign_at(self._num, mid)
        if side == 0:
            self.exact = mid
            self.lo = self.hi = mid
            self._cell = None
        elif side == self._lo_sign:
            self.lo = mid
            if cell is not None:
                self._cell = (2 * c + 1, k + 1)
        else:
            self.hi = mid
            if cell is not None:
                self._cell = (2 * c, k + 1)

    def refine_below(self, width: Fraction) -> None:
        while self.exact is None and (
            self.width > width if self._cell is None else width.numerator << self._cell[1] < width.denominator
        ):
            self.refine_once()

    def dyadic_cell(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """An isolating interval that depends only on the number itself:
        (x, x) for a number found to be an exact rational x; otherwise the
        cell [k*width, (k+1)*width] containing it, halved towards the
        number until ``poly`` has exactly one root in the open cell.  A
        cell within the number's own interval has one by definition;
        another is counted by Descartes' rule on the cell's polynomial."""
        self.refine_below(width)
        lo = math.floor(self.lo / width) * width
        hi = lo + width
        # the number lies in (self.lo, self.hi), so in (lo, lo + 2 * width)
        while self.exact is None:
            side = self.compare_rational(hi)
            if side == 0:
                return hi, hi
            if side < 0:
                break
            lo, hi = hi, hi + width
        cell = None  # the integer polynomial of (lo, hi), built when needed
        while self.exact is None and not self.lo <= lo < hi <= self.hi:
            if cell is None:
                cell = _on_interval(self._num, lo, hi)
            if _count_roots(cell) == 1:
                break
            mid = (lo + hi) / 2
            side = self.compare_rational(mid)
            if side == 0:
                return mid, mid
            cell = _halve(cell)
            if side < 0:
                hi = mid
            else:
                lo, cell = mid, _taylor_shift(cell)
        if self.exact is not None:
            return self.exact, self.exact
        return lo, hi

    def equals_rational(self, value: Fraction) -> bool:
        if self.exact is not None:
            return self.exact == value
        return self.lo < value < self.hi and _sign_at(self._num, value) == 0

    def compare_rational(self, value: Fraction) -> int:
        """-1, 0 or 1 as this number is <, == or > the rational ``value``."""
        if self.exact is not None:
            return (self.exact > value) - (self.exact < value)
        if self.equals_rational(value):
            return 0
        while self.lo < value < self.hi:
            self.refine_once()
            if self.exact is not None:
                return (self.exact > value) - (self.exact < value)
        if self.hi <= value:
            return -1
        return 1

    def compare(self, other: AlgebraicNumber) -> int:
        """Total-order comparison via interval refinement; detects equality
        through a root of the two defining polynomials' gcd in the overlap
        of the intervals.  The gcd is built only when a modular gcd cannot
        prove the polynomials coprime."""
        if self.exact is not None:
            return -other.compare_rational(self.exact)
        if other.exact is not None:
            return self.compare_rational(other.exact)
        common = None  # integer numerators of the gcd, found once
        while True:
            if self.hi <= other.lo:
                return -1
            if other.hi <= self.lo:
                return 1
            if common is None:
                common = ()
                if not _coprime_mod(self._num, other._num):
                    g = poly_gcd(Poly(self._num), Poly(other._num))
                    common = g.num if g.degree >= 1 else ()
            if common:
                olo = max(self.lo, other.lo)
                ohi = min(self.hi, other.hi)
                if olo < ohi and _count_roots(_on_interval(common, olo, ohi)) >= 1:
                    return 0
            self.refine_once()
            other.refine_once()
            if self.exact is not None or other.exact is not None:
                return self.compare(other)

    def __lt__(self, other: AlgebraicNumber) -> bool:
        return self.compare(other) < 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return self.compare(other) == 0

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"AlgebraicNumber({self.exact})"
        return f"AlgebraicNumber({self.poly!r} on ({self.lo}, {self.hi}))"


def _isolate(poly: Poly, num) -> list[AlgebraicNumber]:
    """The roots in (0,1) of ``poly``, whose roots there are those of the
    square-free integer polynomial ``num``, nonzero at 0 and 1; increasing."""
    roots = []
    for c, k, sign in _cells(num):
        if sign:
            root = AlgebraicNumber(poly, Fraction(c, 1 << k), Fraction(c + 1, 1 << k), None, num, sign, (c, k))
        else:
            root = AlgebraicNumber.rational(Fraction(c, 1 << k))
        roots.append(root)
    return roots


def roots_with_multiplicity(f: Poly) -> list[tuple[AlgebraicNumber, int]]:
    """The distinct roots of ``f`` in open (0,1), increasing, each with its
    multiplicity: for the Yun decomposition f = c * prod g_i^i, a root of
    g_i is isolated within g_i itself (``g_i`` is its ``poly``) and has
    multiplicity i.

    The factors p^a and (p - 1)^b are divided out first, and what is left
    decomposed: its factor of multiplicity i, times p when a = i and times
    p - 1 when b = i, is g_i."""
    if f.degree < 1:
        return []
    num = f.num
    at_zero = next(i for i, c in enumerate(num) if c)
    rest = _without_ends(num)
    at_one = len(num) - 1 - at_zero - (len(rest) - 1)
    if len(rest) < 2:
        return []
    if _squarefree(rest):
        factors = [(Poly(rest).monic(), 1)]
    else:
        factors = yun_decomposition(Poly(rest))
    found = []
    for factor, mult in factors:
        poly = factor
        if at_zero == mult:
            poly = poly * Poly.x()
        if at_one == mult:
            poly = poly * Poly((-1, 1))
        found += [(root, mult) for root in _isolate(poly, factor.num)]
    found.sort(key=functools.cmp_to_key(lambda a, b: a[0].compare(b[0])))
    return found


def isolate_roots_01(f: Poly) -> list[AlgebraicNumber]:
    """The distinct roots of ``f`` in open (0,1), increasing."""
    return [root for root, _ in roots_with_multiplicity(f)]


def rational_between(left, right) -> Fraction:
    """A rational strictly between two points ``left`` < ``right``, each a
    Fraction or an AlgebraicNumber.  Refines intervals as needed."""
    if isinstance(left, Fraction):
        left = AlgebraicNumber.rational(left)
    if isinstance(right, Fraction):
        right = AlgebraicNumber.rational(right)
    if left.compare(right) >= 0:
        raise ValueError("empty interval")
    while not left.hi < right.lo:
        left.refine_once()
        right.refine_once()
    return (left.hi + right.lo) / 2
