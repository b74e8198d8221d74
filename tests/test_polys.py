import math
import random
from fractions import Fraction

import pytest

from relayopt.polys import Poly, parse_rational, poly_gcd

X = Poly.x()


def test_trimming_and_zero():
    assert Poly((0, 0, 0)).is_zero
    assert Poly(()).degree == -1
    assert Poly((1, 2, 0)).coeffs == (1, 2)


def test_arithmetic_identities():
    rng = random.Random(11)
    for _ in range(40):
        a = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])
        b = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])
        c = Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        x0 = Fraction(rng.randint(-7, 7), rng.randint(1, 9))
        assert (a * b)(x0) == a(x0) * b(x0)
        assert (a + b)(x0) == a(x0) + b(x0)


def test_power_and_compose():
    f = (1 - X) ** 3
    assert f == Poly((1, -3, 3, -1))
    g = X ** 2 + X
    assert f.compose(g)(Fraction(1, 2)) == f(g(Fraction(1, 2)))
    assert g.compose(Poly.constant(2)) == Poly.constant(6)


def test_derivative():
    f = 3 * X ** 4 - 2 * X + 7
    assert f.derivative() == 12 * X ** 3 - 2
    assert Poly.constant(5).derivative().is_zero


def test_divmod_exact():
    f = (X - 1) * (X - 2) * (2 * X + 3)
    q, r = f.divmod(X - 2)
    assert r.is_zero
    assert q == (X - 1) * (2 * X + 3)
    with pytest.raises(ValueError):
        (X ** 2 + 1).exact_div(X - 1)


def test_gcd():
    f = (X - 1) ** 2 * (X + 2)
    g = (X - 1) * (X + 3)
    assert poly_gcd(f, g) == X - 1
    assert poly_gcd(f, Poly.zero()) == f.monic()


def test_string_round_trip():
    f = Poly((Fraction(1, 3), 0, Fraction(-7, 2)))
    assert Poly.from_strings(f.to_strings()) == f
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2


def test_hash_and_eq():
    assert hash(X * X) == hash(Poly((0, 0, 1)))
    assert X != Poly((0, 2))


# A reference implementation over tuples of Fractions (ascending degree,
# trailing zeros trimmed): the representation the kernel replaced.

def _trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _ref_divmod(a, b):
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, bc in enumerate(b):
            rem[k + j] -= c * bc
    return _trim(quot), _trim(rem)


def _ref_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_monic(_ref_divmod(a, b)[1])
    return _ref_monic(a)


def _ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _random_rational(rng):
    kind = rng.random()
    if kind < 0.25:
        return Fraction(0)
    if kind < 0.5:
        return Fraction(rng.randint(-9, 9))
    if kind < 0.8:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    big = 10 ** rng.randint(10, 40)
    return Fraction(rng.randint(-big, big), rng.randint(1, big))


def _random_coeffs(rng):
    n = rng.choice((0, 0, 1, 1, 2, 3, 5, 8))
    return _trim([_random_rational(rng) for _ in range(n)])


def _assert_matches(p, ref):
    """``p`` has the reference coefficients, is in canonical form, and
    hashes like the tuple of its Fraction coefficients."""
    assert p.coeffs == ref
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1
    assert hash(p) == hash(tuple(p.coeffs)) == hash(ref)


def test_matches_fraction_reference():
    rng = random.Random(2024)
    for _ in range(300):
        ra, rb = _random_coeffs(rng), _random_coeffs(rng)
        if rng.random() < 0.2:  # a shared factor, so gcd and exact_div do real work
            common = _random_coeffs(rng) or (Fraction(1),)
            ra, rb = _ref_mul(ra, common), _ref_mul(rb, common)
        a, b = Poly(ra), Poly(rb)
        _assert_matches(a, ra)
        _assert_matches(b, rb)
        _assert_matches(a + b, _ref_add(ra, rb))
        _assert_matches(a - b, _ref_add(ra, tuple(-c for c in rb)))
        _assert_matches(a * b, _ref_mul(ra, rb))
        _assert_matches(a.monic(), _ref_monic(ra))
        for p, ref in ((a, ra), (b, rb)):
            assert Poly.from_strings(p.to_strings()) == p
            assert p.to_strings() == [str(c) for c in ref]
            x0 = _random_rational(rng)
            assert p(x0) == _ref_eval(ref, x0)
            assert p(x0.numerator) == _ref_eval(ref, x0.numerator)
            # canonical form: the same polynomial reached another way is ==
            assert (p * 6) * Fraction(1, 6) == p
            assert (p * 3 - p - p - p).is_zero
        if rb:
            q, r = a.divmod(b)
            rq, rr = _ref_divmod(ra, rb)
            _assert_matches(q, rq)
            _assert_matches(r, rr)
            assert q * b + r == a and r.degree < b.degree
            assert (a * b).exact_div(b) == a
            _assert_matches(poly_gcd(a, b), _ref_gcd(ra, rb))
        _assert_matches(poly_gcd(a, Poly.zero()), _ref_monic(ra))
        assert (a == b) == (ra == rb)
