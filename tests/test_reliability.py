import random
from fractions import Fraction
from math import comb

import pytest

from relayopt import (
    EdgeProbabilityMap,
    Protocol,
    TwoTerminalGraph,
    a_paths,
    cfp,
    path_spectrum,
    rho,
    rho_A,
    rho_by_connectivity,
    rho_prime_A,
    rho_prime_inclusion_exclusion,
    spfp_reduce,
    subset_admits_walk,
    walk_spectrum,
)
from relayopt import reliability
from relayopt.asymptotics import cut_census
from relayopt.constructions import path_graph, realize
from relayopt.engine import StateGraph
from relayopt.errors import GuardExceededError
from relayopt.optimizer import candidate_polynomials
from relayopt.polys import Poly
from relayopt.reliability import admits_table, connectivity_table, path_table, polynomial_from_table

from conftest import random_connected_graph, random_graph

X = Poly.x()
HALF = Fraction(1, 2)
GRID = [Fraction(k, 10) for k in range(1, 10)]


def two_routes(k: int) -> TwoTerminalGraph:
    """Two vertex-disjoint s,r-routes of k edges each."""
    verts = ["s", "r"]
    edges = []
    for side in ("a", "b"):
        prev = "s"
        for i in range(k - 1):
            v = f"{side}{i}"
            verts.append(v)
            edges.append((prev, v))
            prev = v
        edges.append((prev, "r"))
    return TwoTerminalGraph(verts, edges, "s", "r")


# -- subset admission ----------------------------------------------------------

def test_subset_admits_examples(b0_graph, b0_cfp):
    assert subset_admits_walk(b0_cfp, [("s", "1"), ("1", "4"), ("4", "r")])
    assert not subset_admits_walk(b0_cfp, [("s", "1"), ("s", "2")])
    p_edges = [("s", "1"), ("1", "4"), ("4", "3"), ("3", "2"), ("2", "5"), ("5", "r")]
    assert subset_admits_walk(b0_cfp, p_edges)
    assert not subset_admits_walk(b0_cfp.minus([("4", "3", "2")]), p_edges)


def test_subset_admits_trivial_edge():
    g = TwoTerminalGraph(["s", "r"], [("s", "r")], "s", "r")
    assert subset_admits_walk(Protocol(g), [("s", "r")])
    assert not subset_admits_walk(Protocol(g), [])


# -- spectra ---------------------------------------------------------------------

def test_path_graph_spectrum():
    g = realize(path_graph(4))
    spec = walk_spectrum(cfp(g))
    assert spec == (0, 0, 0, 1)


def test_b0_walk_spectrum_low_terms(b0_cfp):
    spec = walk_spectrum(b0_cfp)
    assert spec[0] == spec[1] == spec[2] == 0
    assert spec[3] == 2
    assert spec[4] == 18  # 4 four-edge paths + 14 three-edge paths with a spare edge
    m = b0_cfp.graph.m
    assert all(spec[i] <= comb(m, i) for i in range(m + 1))


def test_empty_protocol_spectrum():
    g = two_routes(2)
    spec = walk_spectrum(Protocol(g))
    assert all(v == 0 for v in spec)


def test_spectrum_monotone_in_protocol(b0_cfp):
    small = b0_cfp.minus([("4", "3", "2"), ("s", "1", "3")])
    big = b0_cfp
    s1, s2 = walk_spectrum(small), walk_spectrum(big)
    assert all(a <= b for a, b in zip(s1, s2))


# -- reliability polynomials -------------------------------------------------------

def test_path_graph_rho():
    for k in (2, 3, 5):
        assert rho(realize(path_graph(k))) == X ** (k - 1)


def test_two_disjoint_routes_rho():
    for k in (2, 3):
        assert rho(two_routes(k)) == 2 * X ** k - X ** (2 * k)


def rho_by_walk_oracle(graph: TwoTerminalGraph) -> Poly:
    """Two-terminal reliability from the spectrum of ``subset_admits_walk``
    under the CFP, one subset at a time: no table, sweep or connectivity
    scan."""
    protocol = cfp(graph)
    edges = graph.edge_list()
    m = graph.m
    spec = [0] * (m + 1)
    for S in range(1 << m):
        if subset_admits_walk(protocol, [e for i, e in enumerate(edges) if S >> i & 1]):
            spec[S.bit_count()] += 1
    return sum((a * X ** i * (1 - X) ** (m - i) for i, a in enumerate(spec)), Poly.zero())


def test_rho_methods_agree_on_b0(b0_graph, b0_cfp):
    direct = rho(b0_graph)
    assert direct == rho_by_walk_oracle(b0_graph)
    assert direct == rho_prime_inclusion_exclusion(b0_cfp)
    assert direct == polynomial_from_table(b0_graph, None, path_table(b0_cfp))
    # frozen value derived from the exhaustive scan oracles above
    assert direct(HALF) == Fraction(367, 1024)


def test_rho_methods_agree_random():
    rng = random.Random(77)
    for _ in range(8):
        g = random_connected_graph(rng, 3, 8)
        direct = rho(g)
        assert direct == polynomial_from_table(g, None, path_table(cfp(g)))
        assert direct == rho_by_walk_oracle(g)


def test_basis_consistency(b0_cfp):
    """The subset-scan polynomial equals the spectrum pushed through the
    p^i (1-p)^(m-i) basis."""
    spec = walk_spectrum(b0_cfp)
    m = b0_cfp.graph.m
    onemx = Poly((1, -1))
    assembled = Poly.zero()
    for i, a in enumerate(spec):
        if a:
            assembled = assembled + Poly.constant(a) * X ** i * onemx ** (m - i)
    assert assembled == rho_A(b0_cfp)


def assembled_by_pattern(weights: list[Poly], spos: list[int], counts: list[list[int]]) -> Poly:
    """The subset-count basis summed directly: each pattern's factor is the
    product over the overridden edges of w or 1 - w, times the plain part
    sum_i c_i p^i (1-p)^(n-i)."""
    onemx = Poly((1, -1))
    total = Poly.zero()
    for pattern, row in enumerate(counts):
        factor = Poly.one()
        for k, pos in enumerate(spos):
            factor = factor * (weights[pos] if pattern >> k & 1 else 1 - weights[pos])
        n = len(row) - 1
        for i, c in enumerate(row):
            total = total + factor * Poly.constant(c) * X ** i * onemx ** (n - i)
    return total


def test_polynomial_from_counts_folds_every_pattern():
    """Random count arrays with 0..8 overridden edges, assembled by the fold
    and by the direct product per pattern, over rational constants and
    polynomials, two overridden edges often sharing one."""
    rng = random.Random(1985)
    constants = [Poly.constant(Fraction(2, 7)), Poly.constant(Fraction(2, 3))]
    values = constants + [X ** 2, 2 * X - X ** 2, Poly((Fraction(1, 3), Fraction(1, 3))), X ** 3]
    shared = with_constant = 0
    for k in range(9):
        for _ in range(6):
            m = rng.randint(k, 11)
            graph = random_graph(rng, m)
            edges = graph.edge_list()
            spos = sorted(rng.sample(range(m), k))
            chosen = [rng.choice(values) for _ in spos]
            shared += len(set(chosen)) < k
            with_constant += any(w in constants for w in chosen)
            probmap = EdgeProbabilityMap.with_overrides(graph, {edges[i]: w for i, w in zip(spos, chosen)})
            n = m - k
            counts = [[rng.randint(0, comb(n, i)) for i in range(n + 1)] for _ in range(1 << k)]
            weights = [probmap.poly_for_edge(e) for e in edges]
            assert reliability.polynomial_from_counts(graph, probmap, counts) == assembled_by_pattern(weights, spos, counts)
    assert shared >= 20 and with_constant >= 20


def test_rho_prime_leq_rho_and_spfp_equality(b0_cfp):
    cases = [
        b0_cfp.minus([("4", "3", "2")]),
        b0_cfp.minus([("5", "3", "1"), ("1", "3", "2")]),
    ]
    for proto in cases:
        prime = rho_prime_A(proto)
        full = rho_A(proto)
        for q in GRID:
            assert prime(q) <= full(q)
        reduced = spfp_reduce(proto)
        assert rho_prime_A(reduced) == rho_A(reduced)


def test_rho_prime_two_disjoint_short_paths(b0_graph):
    proto = Protocol(b0_graph, [("s", "1", "4"), ("1", "4", "r"), ("s", "2", "5"), ("2", "5", "r")])
    assert rho_prime_A(proto) == 2 * X ** 3 - X ** 6
    assert rho_A(proto) == 2 * X ** 3 - X ** 6


def test_normalization(b0_graph, b0_cfp):
    poly = rho(b0_graph)
    for q in GRID:
        assert 0 < poly(q) < 1
    assert poly(Fraction(0)) == 0
    assert poly(Fraction(1)) == 1
    dead = rho_A(Protocol(b0_graph))
    assert dead.is_zero


def test_probmap_substitution(b0_graph, b0_cfp):
    """Polynomial edge probabilities agree with evaluating edge-by-edge."""
    pm = EdgeProbabilityMap.with_overrides(
        b0_graph, {("s", "1"): X * X, ("s", "2"): 2 * X - X * X}
    )
    poly = rho_A(b0_cfp, pm)
    # compare with a uniform map at each grid point
    for q in GRID[:4]:
        values = EdgeProbabilityMap(
            b0_graph,
            {e: Poly.constant(pm.poly_for_edge(e)(q)) for e in b0_graph.edges},
        )
        assert poly(q) == rho_A(b0_cfp, values)(q)


def test_scan_guard(monkeypatch):
    """The kernels over 2^m subsets refuse a 25-edge chain; ``rho`` and the
    cut census count it by the frontier DP, which has its own guard."""
    chain = realize(path_graph(reliability.MAX_SCAN_EDGES + 2))
    assert chain.m == reliability.MAX_SCAN_EDGES + 1
    for scan in (lambda g: rho_A(cfp(g)), lambda g: admits_table(StateGraph(cfp(g))), connectivity_table,
                 candidate_polynomials):
        with pytest.raises(GuardExceededError):
            scan(chain)
    assert rho(chain) == X ** chain.m
    assert cut_census(chain).min_cut == 1
    # the guard is read when a scan starts
    g = random_connected_graph(random.Random(3), 3, 7)
    monkeypatch.setattr(reliability, "MAX_SCAN_EDGES", g.m - 1)
    with pytest.raises(GuardExceededError):
        rho_by_connectivity(g)
    monkeypatch.setattr(reliability, "MAX_SCAN_EDGES", g.m)
    assert rho(g) == rho_by_connectivity(g)


def test_path_spectrum_against_paths(b0_cfp):
    proto = b0_cfp.minus([("4", "3", "2")])
    spec = path_spectrum(proto)
    m = proto.graph.m
    # brute check on the lowest nonzero level: 3-subsets equal to path edge sets
    assert spec[3] == len([p for p in a_paths(proto) if len(p) - 1 == 3])
    assert all(spec[i] <= comb(m, i) for i in range(m + 1))
