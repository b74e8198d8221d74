import math
import random
import re
from fractions import Fraction

import pytest

from relayopt.errors import ProbabilityError
from relayopt.graphs import _check_range
from relayopt.polys import Poly, poly_gcd
from relayopt.roots import (
    AlgebraicNumber,
    isolate_roots_01,
    rational_between,
    roots_with_multiplicity,
    yun_decomposition,
)

X = Poly.x()
GOLDEN = Poly((-1, 1, 1))  # p^2 + p - 1, root (sqrt(5)-1)/2 in (0,1)


# -- the Sturm reference ----------------------------------------------------------

def sturm_chain(f: Poly) -> list[Poly]:
    """Sturm sequence of a square-free polynomial, each member after the
    first scaled by a positive constant to integer coefficients with no
    common factor, which leaves every sign variation as it is."""
    def primitive(g: Poly) -> Poly:
        return Poly(tuple(c // math.gcd(*g.num) for c in g.num))

    chain = [f, primitive(f.derivative())]
    while chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero:
            break
        chain.append(primitive(-r))
    return chain


def squarefree_part(f: Poly) -> Poly:
    """f divided by its gcd with its derivative, made monic."""
    g = poly_gcd(f, f.derivative())
    return (f.exact_div(g) if g.degree >= 1 else f).monic()


def sign_variations(values: list[Fraction]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of the chain's square-free polynomial in (lo, hi]:
    the sign variations drop by one across each root, and a root at an
    endpoint counts as passed."""
    return sign_variations([g(lo) for g in chain]) - sign_variations([g(hi) for g in chain])


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


def test_interval_beside_an_exact_root():
    # 1/2 is a bisection point and a root; (1/2, 1) holds one more root,
    # so the cell of 2/3 must start past 1/2 to be signed at its low end
    for scale in (1, -1):
        half, two_thirds = isolate_roots_01((X - Fraction(1, 2)) * (X - Fraction(2, 3)) * scale)
        assert half.equals_rational(Fraction(1, 2))
        assert Fraction(1, 2) < two_thirds.lo
        two_thirds.refine_below(Fraction(1, 1 << 30))
        assert two_thirds.lo < Fraction(2, 3) < two_thirds.hi


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


def _golden() -> AlgebraicNumber:
    return isolate_roots_01(GOLDEN)[0]


def _third() -> AlgebraicNumber:
    """1/3 as the root of 3p - 1 on (0, 1): never a bisection point, so it
    stays inexact however far it is refined."""
    return AlgebraicNumber(Poly((-1, 3)), Fraction(0), Fraction(1))


# reversed or equal pairs, built afresh for each use since refinement mutates
EMPTY_PAIRS = {
    "fraction, fraction reversed": lambda: (Fraction(1, 2), Fraction(1, 3)),
    "fraction, fraction equal": lambda: (Fraction(1, 2), Fraction(1, 2)),
    "algebraic, fraction reversed": lambda: (_golden(), Fraction(1, 2)),
    "algebraic, fraction equal": lambda: (_third(), Fraction(1, 3)),
    "fraction, algebraic reversed": lambda: (Fraction(7, 10), _golden()),
    "fraction, algebraic equal": lambda: (Fraction(1, 3), _third()),
    "algebraic, algebraic reversed": lambda: (_golden(), _third()),
    "algebraic, exact algebraic equal": lambda: (_third(), AlgebraicNumber.rational(Fraction(1, 3))),
    "algebraic, algebraic equal": lambda: (_golden(), isolate_roots_01(GOLDEN * (X - Fraction(1, 5)))[1]),
    "same algebraic number": lambda: (_golden(),) * 2,
}


@pytest.mark.parametrize("case", EMPTY_PAIRS)
def test_rational_between_refuses_an_empty_interval(case):
    left, right = EMPTY_PAIRS[case]()
    with pytest.raises(ValueError):
        rational_between(left, right)


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


# -- differential test against the Sturm reference ---------------------------------

WIDTH = Fraction(1, 1 << 20)


def open_count(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of the chain's polynomial in the open interval (lo, hi)."""
    return count_roots(chain, lo, hi) - (chain[0](hi) == 0)


def reference_roots(chain: list[Poly]) -> list[tuple[Fraction, Fraction]]:
    """Intervals (a, b), each with exactly one root of the chain's
    square-free polynomial g in its open interior, or (x, x) for a root hit
    by a bisection point, for every root of g in (0,1)."""
    g = chain[0]
    out, stack = [], [(Fraction(0), Fraction(1))]
    while stack:
        lo, hi = stack.pop()
        n = open_count(chain, lo, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            stack.append((mid, hi))
            if g(mid) == 0:
                out.append((mid, mid))
            stack.append((lo, mid))
    return out


def reference_cell(chain: list[Poly], a: Fraction, b: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """The canonical cell of the root x of the chain's polynomial g
    isolated in (a, b): (x, x) when x is a multiple of ``width`` or the
    midpoint of a halved cell; otherwise the cell [k * width, (k + 1) *
    width] holding x, halved towards x while g has another root in it."""
    if a == b:
        return a, a
    g = chain[0]

    def holds_x(lo, hi):
        lo, hi = max(lo, a), min(hi, b)
        return lo < hi and open_count(chain, lo, hi) == 1

    k0, k1 = math.floor(a / width), math.ceil(b / width)
    while k1 - k0 > 1:
        k = (k0 + k1) // 2
        if a < k * width < b and g(k * width) == 0:
            return k * width, k * width
        k0, k1 = (k0, k) if holds_x(k0 * width, k * width) else (k, k1)
    lo, hi = k0 * width, k1 * width
    while open_count(chain, lo, hi) != 1:
        mid = (lo + hi) / 2
        if a < mid < b and g(mid) == 0:
            return mid, mid
        lo, hi = (lo, mid) if holds_x(lo, mid) else (mid, hi)
    return lo, hi


def reference_cells(g: Poly) -> list[tuple[Fraction, Fraction]]:
    chain = sturm_chain(g)
    return [reference_cell(chain, a, b, WIDTH) for a, b in reference_roots(chain)]


def _monic_product(factors) -> Poly:
    out = Poly.one()
    for f in factors:
        out = out * f
    return out.monic()


def _eisenstein(rng: random.Random, degree: int) -> Poly:
    """y^d + 2 (c_{d-1} y^{d-1} + ... + c_0) with c_0 odd, irreducible by
    Eisenstein's criterion at 2, with y = 4p - 2, which keeps it
    irreducible and moves some of its roots into (0,1)."""
    low = [2 * rng.randint(-3, 3) for _ in range(degree)]
    low[0] = 2 * (2 * rng.randint(-3, 2) + 1)
    return Poly(low + [1]).compose(Poly((-2, 4)))


def random_factored(rng: random.Random) -> tuple[dict[int, list[Poly]], set[str]]:
    """Pairwise coprime square-free factors grouped by multiplicity, of
    total degree at most 40 (counted with multiplicity), and the kinds of
    input among them: linear factors at dyadic, non-dyadic and outer
    rationals, irreducible quadratics (one with two roots inside one 2^-20
    cell), Eisenstein factors up to degree 12, and p and 1 - p with the
    multiplicity of an interior root."""
    pool = []
    for _ in range(rng.randint(0, 3)):  # dyadic, exact at width 2^-20
        pool.append(("dyadic", X - Fraction(rng.randrange(1, 1 << 12, 2), 1 << 12)))
    for _ in range(rng.randint(0, 3)):
        den = rng.choice([3, 5, 7, 9, 11, 3 << 20, 5 << 22])
        r = Fraction(rng.randint(1, den - 1), den)
        if r.denominator & (r.denominator - 1):
            pool.append(("non-dyadic rational", X - r))
    if rng.random() < 0.5:
        r = Fraction(rng.randint(1, 98), 99)
        pool += [("close rational pair", X - r), ("close rational pair", X - r - Fraction(1, 3 << 22))]
    if rng.random() < 0.3:
        pool += [("outer rational", X + 1), ("outer rational", X - Fraction(3, 2))]
    if rng.random() < 0.5:  # roots 2^-22.8 apart; not a square, so irreducible
        c = Fraction(rng.randint(1, 8), 9)
        pool.append(("close irreducible pair", (X - c) * (X - c) - Fraction(1, 3 << 46)))
    for _ in range(rng.randint(0, 2)):
        c, d = Fraction(rng.randint(1, 9), 10), Fraction(rng.choice([2, 3, 5, 6, 7]), rng.choice([9, 25, 49, 100]))
        pool.append(("quadratic", (X - c) * (X - c) - d))
    for degree in sorted(set(rng.randint(3, 12) for _ in range(rng.randint(0, 2)))):
        pool.append(("Eisenstein", _eisenstein(rng, degree)))
    unique = {}
    for kind, f in pool:
        unique.setdefault(f, kind)
    pool = list(unique.items())
    rng.shuffle(pool)
    groups: dict[int, list[Poly]] = {}
    kinds = set()
    total = 0
    for f, kind in pool:
        mult = rng.choice([1, 1, 1, 2, 3])
        if total + mult * f.degree > 40:
            continue
        groups.setdefault(mult, []).append(f)
        kinds.add(kind)
        total += mult * f.degree
    if not groups:
        groups[1] = [X - Fraction(1, 3)]
    if any(m > 1 for m in groups):
        kinds.add("repeated factor")
    interior = list(groups)
    if rng.random() < 0.6:
        mult = rng.choice(interior)
        if total + mult <= 40:
            groups[mult].append(X)
            kinds.add("p beside an interior root")
            total += mult
    if rng.random() < 0.6:
        mult = rng.choice(interior + [rng.randint(1, 3)])
        if total + mult <= 40:
            kinds.add("1 - p beside an interior root" if mult in interior else "1 - p alone")
            groups.setdefault(mult, []).append(X - 1)
    return groups, kinds


def printed(root: AlgebraicNumber) -> tuple[tuple[Fraction, Fraction], Poly]:
    """The cell and polynomial the command line prints for a root."""
    lo, hi = root.dyadic_cell(WIDTH)
    return (lo, hi), Poly((-lo, 1)) if lo == hi else root.poly


DIFFERENTIAL_SEEDS = range(24)


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_differential_against_sturm_reference(seed):
    rng = random.Random(seed)
    groups, _ = random_factored(rng)
    yun = {mult: _monic_product(fs) for mult, fs in groups.items()}
    scale = Poly.constant(Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 7])))
    f = scale * _monic_product(g ** mult for mult, g in yun.items())
    assert f.degree <= 40
    # roots, multiplicities and the Yun factor of the original difference;
    # roots of two factors may share or nest cells: increasing roots only
    # need each cell to end past the start of the one before
    expected = sorted(
        ((cell, mult, Poly((-cell[0], 1)) if cell[0] == cell[1] else g)
         for mult, g in yun.items() for cell in reference_cells(g)), key=lambda t: t[:2])
    found = [(*printed(root), mult) for root, mult in roots_with_multiplicity(f)]
    assert all(right[1] > left[0] for (left, _, _), (right, _, _) in zip(found, found[1:]))
    assert sorted(((cell, mult, poly) for cell, poly, mult in found), key=lambda t: t[:2]) == expected
    # the distinct roots are those found with multiplicities: same cells,
    # same polynomials
    with_multiplicity = [(cell, poly) for cell, poly, _ in found]
    assert [printed(root) for root in isolate_roots_01(f)] == with_multiplicity
    # the cell does not depend on how far the root was refined before
    for root in isolate_roots_01(f):
        root.refine_below(Fraction(1, 1 << 26))
        assert printed(root) in with_multiplicity


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_rational_between_differential_roots(seed):
    """A rational strictly between random ordered pairs of the
    differential's roots, 0 and 1 among them."""
    rng = random.Random(seed)
    groups, _ = random_factored(rng)
    f = _monic_product(g ** mult for mult, fs in groups.items() for g in fs)
    count = len(roots_with_multiplicity(f)) + 2
    for _ in range(6):
        i, j = sorted(rng.sample(range(count), 2))
        points = [Fraction(0), *(root for root, _ in roots_with_multiplicity(f)), Fraction(1)]
        left, right = points[i], points[j]
        q = rational_between(left, right)
        assert 0 < q < 1
        assert i == 0 or left.compare_rational(q) < 0
        assert j == count - 1 or right.compare_rational(q) > 0


def test_differential_covers_each_kind_of_input():
    kinds = set().union(*(random_factored(random.Random(seed))[1] for seed in DIFFERENTIAL_SEEDS))
    assert kinds >= {"dyadic", "non-dyadic rational", "close rational pair", "outer rational",
                     "close irreducible pair", "quadratic", "Eisenstein", "repeated factor",
                     "p beside an interior root", "1 - p beside an interior root"}


@pytest.mark.parametrize("seed", range(8))
def test_range_check_error_brackets_a_root(seed):
    """An override reaching 0 or 1 inside (0,1) is refused, and the
    interval in the message holds a root of poly - bound for the bound it
    names."""
    rng = random.Random(seed)
    r = Fraction(rng.randint(1, 98), 99)
    other = _eisenstein(rng, rng.randint(2, 5))
    poly = Poly.constant(rng.choice([0, 1])) + (X - r) * other * Fraction(1, 64)
    with pytest.raises(ProbabilityError) as info:
        _check_range(("a", "b"), poly)
    match = re.search(r"reaches ([01]) at some p in \(([^,]+), ([^)]+)\)$", str(info.value))
    lo, hi = Fraction(match[2]), Fraction(match[3])
    f = poly - int(match[1])
    assert 0 <= lo <= hi <= 1
    if lo == hi:
        assert f(lo) == 0
    else:
        assert open_count(sturm_chain(squarefree_part(f)), lo, hi) >= 1
