from fractions import Fraction

import pytest

from relayopt.polys import Poly
from relayopt.roots import (
    AlgebraicNumber,
    count_roots,
    isolate_roots_01,
    rational_between,
    roots_with_multiplicity,
    sturm_chain,
    yun_decomposition,
)

X = Poly.x()
GOLDEN = Poly((-1, 1, 1))  # p^2 + p - 1, root (sqrt(5)-1)/2 in (0,1)


def test_sturm_count():
    chain = sturm_chain(GOLDEN)
    assert count_roots(chain, Fraction(0), Fraction(1)) == 1
    assert count_roots(chain, Fraction(0), Fraction(1, 2)) == 0
    f = (X - Fraction(1, 4)) * (X - Fraction(3, 4))
    assert count_roots(sturm_chain(f), Fraction(0), Fraction(1)) == 2


def test_isolation_and_refinement():
    roots = isolate_roots_01(GOLDEN)
    assert len(roots) == 1
    root = roots[0]
    root.refine_below(Fraction(1, 1 << 30))
    # (sqrt(5)-1)/2 = 0.61803398...
    assert root.lo < Fraction(618034, 1000000) < root.hi or root.lo > Fraction(618033, 1000000)
    assert float(root.lo) == pytest.approx(0.6180339887, abs=1e-6)


def test_isolation_ignores_endpoints_and_handles_rational_roots():
    f = X * (X - 1) * (X - Fraction(1, 2)) * (X - Fraction(1, 3))
    roots = isolate_roots_01(f)
    assert len(roots) == 2
    assert roots[0].equals_rational(Fraction(1, 3))
    assert roots[1].equals_rational(Fraction(1, 2))


def test_isolation_of_close_roots():
    f = (X - Fraction(127, 256)) * (X - Fraction(128, 256)) * (X - Fraction(129, 256))
    roots = isolate_roots_01(f)
    assert len(roots) == 3
    vals = [Fraction(127, 256), Fraction(1, 2), Fraction(129, 256)]
    for root, v in zip(roots, vals):
        assert root.equals_rational(v)


def test_yun_and_multiplicity():
    f = (X - Fraction(1, 2)) ** 3 * (X - Fraction(1, 4)) ** 2 * (X + 1)
    decomp = dict((m, g) for g, m in yun_decomposition(f))
    assert set(decomp) == {1, 2, 3}
    found = roots_with_multiplicity(f)
    assert [mult for _, mult in found] == [2, 3]
    (quarter, _), (half, _) = found
    assert quarter.equals_rational(Fraction(1, 4)) and half.equals_rational(Fraction(1, 2))
    assert not any(root.equals_rational(Fraction(3, 4)) for root, _ in found)
    golden = isolate_roots_01(GOLDEN)[0]
    found = roots_with_multiplicity(GOLDEN * GOLDEN * (X - Fraction(1, 5)))
    assert [mult for _, mult in found] == [1, 2]
    assert found[1][0].compare(golden) == 0 and found[1][0].poly == GOLDEN


def test_comparisons_across_polynomials():
    # sqrt(1/2) as root of 2x^2-1 and of 4x^4-1: equal algebraic numbers.
    a = isolate_roots_01(Poly((-1, 0, 2)))[0]
    b = isolate_roots_01(Poly((-1, 0, 0, 0, 4)))[0]
    assert a.compare(b) == 0
    golden = isolate_roots_01(GOLDEN)[0]
    assert golden.compare(a) < 0  # 0.618 < 0.707
    assert a.compare(golden) > 0
    assert golden.compare_rational(Fraction(1, 2)) > 0
    assert golden.compare_rational(Fraction(2, 3)) < 0


def test_rational_between():
    golden = isolate_roots_01(GOLDEN)[0]
    root2 = isolate_roots_01(Poly((-1, 0, 2)))[0]
    q = rational_between(golden, root2)
    assert golden.compare_rational(q) < 0
    assert root2.compare_rational(q) > 0
    q2 = rational_between(Fraction(0), golden)
    assert 0 < q2 and golden.compare_rational(q2) > 0
    q3 = rational_between(golden, Fraction(1))
    assert q3 < 1 and golden.compare_rational(q3) < 0


def test_dyadic_cell_depends_only_on_the_root():
    width = Fraction(1, 1 << 20)
    starts = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3, 4)), (Fraction(3, 5), Fraction(5, 8))]
    cells = {AlgebraicNumber(GOLDEN, lo, hi).dyadic_cell(width) for lo, hi in starts}
    assert len(cells) == 1
    (lo, hi), = cells
    assert hi - lo == width and (lo / width).denominator == 1
    assert GOLDEN(lo) * GOLDEN(hi) < 0
    # two roots in one cell: halved until the cell isolates the root
    third = Fraction(1, 3)
    f = (X - third) * (X - third - Fraction(1, 1 << 22))
    for lo0, hi0 in ((Fraction(0), third + Fraction(1, 1 << 23)), (Fraction(1, 4), third + Fraction(1, 1 << 24))):
        lo, hi = AlgebraicNumber(f, lo0, hi0).dyadic_cell(width)
        assert hi - lo == width / 2 and lo < third < hi
    # a root of the defining polynomial on the cell boundary does not count
    near = Fraction(1, 2) + width / 3
    g = (X - Fraction(1, 2)) * (X - near)
    assert AlgebraicNumber(g, Fraction(1, 2) + width / 4, Fraction(3, 4)).dyadic_cell(width) == (
        Fraction(1, 2), Fraction(1, 2) + width)
    # a dyadic root comes out exact
    h = (X - Fraction(5, 8)) * (X * X + 1)
    assert AlgebraicNumber(h, Fraction(1, 2), Fraction(3, 4) + Fraction(1, 3)).dyadic_cell(width) == (
        Fraction(5, 8), Fraction(5, 8))
