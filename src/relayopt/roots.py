"""Exact real root isolation on (0,1) for rational polynomials.

Roots are carried symbolically as an isolating rational interval plus a
square-free defining polynomial, never as floats.  Multiplicities come from
Yun's square-free decomposition.  This kernel backs breakpoint location,
crossing profiles and the breakpoint-free-interval check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .polys import Poly, poly_gcd


def sturm_chain(f: Poly) -> list[Poly]:
    """Sturm sequence of a square-free polynomial."""
    chain = [f, f.derivative()]
    while not chain[-1].is_zero:
        _, r = chain[-2].divmod(chain[-1])
        chain.append(-r)
    chain.pop()
    return chain


def sign_variations(values: list[Fraction]) -> int:
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def count_roots(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of the chain's square-free polynomial in (lo, hi]:
    the sign variations drop by one across each root, and a root at an
    endpoint counts as passed."""
    va = sign_variations([g(lo) for g in chain])
    vb = sign_variations([g(hi) for g in chain])
    return va - vb


def squarefree_part(f: Poly) -> Poly:
    if f.degree < 1:
        return f.monic() if not f.is_zero else f
    f = f.monic()
    g = poly_gcd(f, f.derivative())
    if g.degree < 1:
        return f
    return f.exact_div(g).monic()


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


@dataclass
class AlgebraicNumber:
    """A real algebraic number: either an exact rational, or the unique root
    of ``poly`` (square-free) in the open interval (lo, hi) with
    poly(lo) != 0 != poly(hi)."""

    poly: Poly
    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    def __post_init__(self):
        if self.exact is not None:
            self.lo = self.hi = self.exact

    @classmethod
    def rational(cls, value: Fraction) -> AlgebraicNumber:
        return cls(Poly((-value, 1)), value, value, exact=value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine_once(self) -> None:
        if self.exact is not None:
            return
        mid = (self.lo + self.hi) / 2
        v = self.poly(mid)
        if v == 0:
            self.exact = mid
            self.lo = self.hi = mid
        elif (self.poly(self.lo) > 0) != (v > 0):
            self.hi = mid
        else:
            self.lo = mid

    def refine_below(self, width: Fraction) -> None:
        while self.exact is None and self.width > width:
            self.refine_once()

    def dyadic_cell(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """An isolating interval that depends only on the number itself:
        (x, x) for a number found to be an exact rational x; otherwise the
        cell [k*width, (k+1)*width] containing it, halved towards the
        number until ``poly`` has exactly one root in the open cell."""
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
        while self.exact is None and _roots_between(self.poly, lo, hi) != 1:
            mid = (lo + hi) / 2
            side = self.compare_rational(mid)
            if side == 0:
                return mid, mid
            lo, hi = (lo, mid) if side < 0 else (mid, hi)
        if self.exact is not None:
            return self.exact, self.exact
        return lo, hi

    def equals_rational(self, value: Fraction) -> bool:
        if self.exact is not None:
            return self.exact == value
        return self.lo < value < self.hi and self.poly(value) == 0

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
        through a common root of the two defining polynomials."""
        if self.exact is not None and other.exact is not None:
            return (self.exact > other.exact) - (self.exact < other.exact)
        if self.exact is not None:
            return -other.compare_rational(self.exact)
        if other.exact is not None:
            return self.compare_rational(other.exact)
        chain = None  # of the defining polynomials' gcd, built once
        while True:
            if self.hi <= other.lo:
                return -1
            if other.hi <= self.lo:
                return 1
            if chain is None:
                g = poly_gcd(self.poly, other.poly)
                chain = sturm_chain(g) if g.degree >= 1 else []
            if chain:
                olo = max(self.lo, other.lo)
                ohi = min(self.hi, other.hi)
                if olo < ohi and g(olo) != 0 and g(ohi) != 0 and count_roots(chain, olo, ohi) >= 1:
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

    def approx(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        probe = self
        return float((probe.lo + probe.hi) / 2)

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"AlgebraicNumber({self.exact})"
        return f"AlgebraicNumber({self.poly!r} on ({self.lo}, {self.hi}))"


def _roots_between(f: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of square-free ``f`` in the open interval (lo, hi);
    the endpoints may be roots."""
    return count_roots(sturm_chain(f), lo, hi) - (f(hi) == 0)


def _isolate_squarefree(f: Poly, lo: Fraction, hi: Fraction) -> list[AlgebraicNumber]:
    """The roots of square-free ``f`` in the open interval (lo, hi), in
    increasing order, by bisection on one Sturm chain.  Each is an exact
    rational (a bisection point that is a root) or the one root of ``f`` in
    an open interval whose endpoints are not roots of ``f``; ``lo`` and
    ``hi`` may be roots themselves (see ``count_roots``)."""
    chain = sturm_chain(f)

    def probe(x: Fraction) -> tuple[Fraction, int, bool]:
        values = [g(x) for g in chain]
        return x, sign_variations(values), values[0] == 0

    roots: list[AlgebraicNumber] = []
    pending: list = [(probe(lo), probe(hi))]  # intervals, and exact roots between them
    while pending:
        item = pending.pop()
        if isinstance(item, AlgebraicNumber):
            roots.append(item)
            continue
        (a, va, za), (b, vb, zb) = item
        inside = va - vb - zb
        if inside == 0:
            continue
        if inside == 1 and not za and not zb:
            roots.append(AlgebraicNumber(f, a, b))
            continue
        mid = probe((a + b) / 2)
        pending.append((mid, (b, vb, zb)))
        if mid[2]:
            pending.append(AlgebraicNumber.rational(mid[0]))
        pending.append(((a, va, za), mid))
    return roots


def isolate_roots_01(f: Poly) -> list[AlgebraicNumber]:
    """Isolating intervals for the distinct roots of ``f`` in open (0,1),
    sorted increasingly.  ``f`` need not be square-free."""
    if f.is_zero or f.degree < 1:
        return []
    sf = squarefree_part(f)
    zero, one = Fraction(0), Fraction(1)
    # without its roots at 0 and 1, a root beside them needs no bisection
    # to keep the interval's ends off them
    while sf.degree >= 1 and sf(zero) == 0:
        sf = sf.exact_div(Poly((0, 1)))
    while sf.degree >= 1 and sf(one) == 0:
        sf = sf.exact_div(Poly((-1, 1)))
    if sf.degree < 1:
        return []
    return _isolate_squarefree(sf, zero, one)


def roots_with_multiplicity(f: Poly) -> list[tuple[AlgebraicNumber, int]]:
    """The distinct roots of ``f`` in open (0,1), increasing, each with its
    multiplicity: for the Yun decomposition f = c * prod g_i^i, a root of
    g_i is isolated within g_i itself (``g_i`` is its ``poly``) and has
    multiplicity i."""
    found = [
        (root, mult)
        for factor, mult in yun_decomposition(f)
        for root in _isolate_squarefree(factor, Fraction(0), Fraction(1))
    ]
    found.sort(key=functools.cmp_to_key(lambda a, b: a[0].compare(b[0])))
    return found


def rational_between(left, right) -> Fraction:
    """A rational strictly between two points, each a Fraction or an
    AlgebraicNumber.  Refines intervals as needed."""
    if isinstance(left, AlgebraicNumber) and left.exact is not None:
        left = left.exact
    if isinstance(right, AlgebraicNumber) and right.exact is not None:
        right = right.exact
    if isinstance(left, Fraction) and isinstance(right, Fraction):
        if not left < right:
            raise ValueError("empty interval")
        return (left + right) / 2
    if isinstance(left, Fraction):
        assert isinstance(right, AlgebraicNumber)
        while not right.lo > left:
            right.refine_once()
            if right.exact is not None:
                return rational_between(left, right.exact)
        return (left + right.lo) / 2
    if isinstance(right, Fraction):
        assert isinstance(left, AlgebraicNumber)
        while not left.hi < right:
            left.refine_once()
            if left.exact is not None:
                return rational_between(left.exact, right)
        return (left.hi + right) / 2
    assert isinstance(left, AlgebraicNumber) and isinstance(right, AlgebraicNumber)
    while not left.hi < right.lo:
        left.refine_once()
        right.refine_once()
        if left.exact is not None or right.exact is not None:
            return rational_between(
                left.exact if left.exact is not None else left,
                right.exact if right.exact is not None else right,
            )
    return (left.hi + right.lo) / 2
