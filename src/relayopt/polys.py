"""Dense univariate polynomials with exact rational coefficients.

All reliability computations in this package run over these polynomials;
no floating point is used anywhere on the exact path.

A polynomial is stored as integer numerators over one common denominator:
``num`` holds the numerators by ascending degree with trailing zeros
trimmed (the zero polynomial has ``num == ()``), and ``den`` is a positive
integer.  The form is canonical: ``gcd(den, *num) == 1``, and the zero
polynomial has ``den == 1``.  Two polynomials are therefore equal exactly
when their ``(num, den)`` pairs are, and the arithmetic needs no Fraction
per coefficient: sums and products cross-multiply and convolve integers,
and division is integer pseudo-division (Knuth, TAOCP vol. 2, 4.6.1)
rescaled at the end.  ``coeffs`` gives the coefficients as Fractions for
printing and inspection, and the hash equals the hash of that tuple.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import FormatError, GuardExceededError

RationalLike = Fraction | int | str

_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE][-+]?0*([\d_]*)\s*")


def _digit_limit() -> int:
    """The most decimal digits the interpreter converts between int and
    str (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(n: int, limit: int) -> bool:
    """Whether ``n`` has more than ``limit`` decimal digits: 10^limit has
    more than 3 * limit bits, so only longer ints need the comparison."""
    return n.bit_length() > 3 * limit and abs(n) >= 10 ** limit


def parse_rational(text: str | int) -> Fraction:
    """Parse "a/b", "a" or a decimal such as "1.5e-3" into an exact
    rational.  One whose numerator or denominator would have more digits
    than the interpreter prints is refused with a guard error, an exponent
    past that limit before the power of ten is built."""
    limit = _digit_limit()
    if limit and isinstance(text, str):
        exp = _EXPONENT.fullmatch(text)
        digits = exp[1].replace("_", "") if exp else ""
        if len(digits) > len(str(limit)) or digits and int(digits) > limit:
            raise GuardExceededError(f"exponent of {text[:40]!r} exceeds the {limit}-digit limit")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational: {text!r}") from exc
    if limit and (_too_long(value.numerator, limit) or _too_long(value.denominator, limit)):
        raise GuardExceededError(f"a rational with more than {limit} digits")
    return value


def format_rational(value: Fraction) -> str:
    """``str(value)``, or a guard error for a numerator or denominator with
    more digits than the interpreter prints."""
    try:
        return str(value)
    except ValueError as exc:
        raise GuardExceededError(f"an exact value exceeds the {_digit_limit()}-digit output limit") from exc


def _canonical(num: list[int], den: int) -> Poly:
    """The polynomial num/den for integer ``num`` (may be untrimmed) and a
    nonzero integer ``den``, reduced to canonical form."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ZERO
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _raw(tuple(num), den)


def _raw(num: tuple[int, ...], den: int) -> Poly:
    """Wrap a pair already in canonical form."""
    p = object.__new__(Poly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def _pseudo_divide(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of nonzero ``b`` into ``a``: returns
    (q, r, scale) with scale * a == q * b + r, deg r < deg b and scale > 0.
    Each step scales by lc(b) / gcd(lc(b), leading term) only, which keeps
    ``scale`` a divisor of lc(b)^k and the numbers as small as it can."""
    lead = b[-1]
    db = len(b) - 1
    rem = list(a)
    quot = [0] * max(0, len(a) - db)
    scale = 1
    for k in range(len(a) - db - 1, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        g = gcd(c, lead)
        step = lead // g
        if step < 0:
            step = -step
            g = -g
        if step != 1:
            scale *= step
            for i in range(k + db):
                rem[i] *= step
            for i in range(k + 1, len(quot)):
                quot[i] *= step
        c //= g
        quot[k] = c
        for j, bc in enumerate(b[:-1], k):
            rem[j] -= c * bc
        rem[k + db] = 0
    del rem[db:]
    return quot, rem, scale


class Poly:
    """Immutable polynomial over the rationals, in canonical
    integer-numerator form (see the module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        fs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fs))
        p = _canonical([c.numerator * (den // c.denominator) for c in fs], den)
        _set_num(self, p.num)
        _set_den(self, p.den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.coeffs,)

    @classmethod
    def zero(cls) -> Poly:
        return _ZERO

    @classmethod
    def one(cls) -> Poly:
        return _ONE

    @classmethod
    def x(cls) -> Poly:
        """The identity polynomial p."""
        return _X

    @classmethod
    def constant(cls, c: RationalLike) -> Poly:
        return cls((c,))

    @classmethod
    def from_strings(cls, items: Iterable[str | int]) -> Poly:
        return cls(tuple(parse_rational(s) for s in items))

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients by ascending degree, as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> Poly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            da *= sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _canonical(out, da)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> Poly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> Poly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return _ZERO
        return _canonical(_convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Fraction) -> Fraction:
        """Exact evaluation: homogeneous Horner's rule on the numerator and
        denominator of ``x``, with one Fraction built at the end."""
        num = self.num
        if not num:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc = num[-1]
        if q == 1:
            for c in reversed(num[:-1]):
                acc = acc * p + c
            return Fraction(acc, self.den)
        qk = 1
        for c in reversed(num[:-1]):
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, qk * self.den)

    def derivative(self) -> Poly:
        return _canonical([i * c for i, c in enumerate(self.num) if i], self.den)

    def compose(self, inner: Poly) -> Poly:
        """Substitute ``inner`` for the variable."""
        acc = _ZERO
        for c in reversed(self.num):
            acc = acc * inner + c
        return _canonical(list(acc.num), acc.den * self.den)

    def monic(self) -> Poly:
        if not self.num:
            return self
        return _canonical(list(self.num), self.num[-1])

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact polynomial long division; ``other`` must be nonzero."""
        if not other.num:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, scale = _pseudo_divide(self.num, other.num)
        # scale * A = Q * B + R with self = A / da and other = B / db, so
        # self = (Q * db / (scale * da)) * other + R / (scale * da)
        den = scale * self.den
        db = other.den
        return _canonical([c * db for c in quot], den), _canonical(rem, den)

    def exact_div(self, other: Poly) -> Poly:
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


_set_num = Poly.num.__set__
_set_den = Poly.den.__set__
_ZERO = _raw((), 1)
_ONE = _raw((1,), 1)
_X = _raw((0, 1), 1)


def _coerce(value) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return _raw((value,), 1) if value else _ZERO
    if isinstance(value, Fraction):
        return _raw((value.numerator,), value.denominator) if value else _ZERO
    return None


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals."""
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero else r
    if a.is_zero:
        return a
    return a.monic()
