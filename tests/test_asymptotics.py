import random
import tracemalloc
from math import comb

import pytest

from relayopt import (
    InfiniteProtocolError,
    Protocol,
    TwoTerminalGraph,
    bounded_protocol,
    cfp,
    cut_census,
    is_finite,
    near_one_expansion,
    near_zero_expansion,
    path_census,
    rho,
    robustness,
    subset_admits_walk,
    walk_spectrum,
)
from relayopt.constructions import build_breakpoint_graph, parallel, path_graph, realize
from relayopt.engine import StateGraph
from relayopt.optimizer import circuit_instructions
from relayopt.polys import Poly
from relayopt.reliability import admits_table, connectivity_table, failure_levels, spectrum_from_table

from conftest import grid, random_connected_graph, random_graph

X = Poly.x()


def test_b0_path_census(b0_graph):
    census = path_census(b0_graph)
    assert census.distance == 3
    assert census.counts == {3: 2, 4: 4, 5: 4, 6: 2}
    assert census.total == 12


def test_b0_cut_census(b0_graph):
    census = cut_census(b0_graph)
    assert census.min_cut == 2
    assert census.count(2) == 2  # {s1,s2} and {4r,5r}


def test_path_graph_censuses():
    k = 5
    g = realize(path_graph(k))
    pc = path_census(g)
    assert pc.distance == k - 1 and pc.count(k - 1) == 1
    cc = cut_census(g)
    assert cc.min_cut == 1 and cc.count(1) == k - 1


def test_two_routes_cut_census():
    g = realize(parallel(path_graph(3), path_graph(3)))
    cc = cut_census(g)
    assert cc.min_cut == 2
    assert cc.count(2) == 4  # one edge from each route


def test_near_zero_b0(b0_graph):
    k, dk, dk1, proto = near_zero_expansion(b0_graph)
    assert (k, dk, dk1) == (3, 2, 4)
    assert proto == bounded_protocol(b0_graph, 4)


def test_near_zero_tiny():
    g = TwoTerminalGraph(["s", "a", "r"], [("s", "a"), ("a", "r")], "s", "r")
    assert near_zero_expansion(g)[:3] == (2, 1, 0)
    direct = TwoTerminalGraph(["s", "r"], [("s", "r")], "s", "r")
    assert near_zero_expansion(direct)[:3] == (1, 1, 0)


def test_near_one_b0(b0_graph):
    assert near_one_expansion(b0_graph) == (2, 2)


def test_near_one_path():
    k = 4
    assert near_one_expansion(realize(path_graph(k))) == (1, k - 1)


def test_walk_spectrum_vs_cut_census_bound(b0_graph, b0_cfp):
    """a_i <= C(m,i) - c_{m-i} for every protocol on the graph."""
    m = b0_graph.m
    cc = cut_census(b0_graph)
    for proto in (b0_cfp, b0_cfp.minus([("4", "3", "2")]), bounded_protocol(b0_graph, 4)):
        spec = walk_spectrum(proto)
        for i in range(m + 1):
            assert spec[i] <= comb(m, i) - cc.count(m - i)


def test_robustness_series_parallel():
    g = realize(parallel(path_graph(3), path_graph(4)))
    proto = cfp(g)
    assert robustness(proto) == g.m  # the CFP admits every surviving path


def test_robustness_b0_reduced(b0_graph, b0_cfp):
    reduced = b0_cfp.minus([("4", "3", "2")])
    value = robustness(reduced)
    assert value < b0_graph.m
    # the witness failure: keep exactly the 6 edges of the path through the
    # broken instruction; s,r stay connected but no walk survives
    surviving = [("s", "1"), ("1", "4"), ("4", "3"), ("3", "2"), ("2", "5"), ("5", "r")]
    assert not subset_admits_walk(reduced, surviving)
    assert value == 3


def test_robustness_spectrum_relation(b0_graph, b0_cfp):
    """a_{m-i} = C(m,i) - c_i for all i up to the robustness."""
    m = b0_graph.m
    cc = cut_census(b0_graph)
    for proto in (b0_cfp.minus([("4", "3", "2")]), bounded_protocol(b0_graph, 4)):
        k = robustness(proto)
        spec = walk_spectrum(proto)
        for i in range(k + 1):
            assert spec[m - i] == comb(m, i) - cc.count(i)


def test_head_coefficients_from_census(b0_graph, b0_cfp):
    """For a protocol containing every short path, the low end of the walk
    spectrum is determined by the path census: a_k = d_k and
    a_{k+1} = d_{k+1} + (m-k) d_k."""
    census = path_census(b0_graph)
    k, m = census.distance, b0_graph.m
    for proto in (b0_cfp.minus([("4", "3", "2")]), b0_cfp.minus([("5", "3", "1")]), b0_cfp):
        spec = walk_spectrum(proto)
        assert all(spec[i] == 0 for i in range(k))
        assert spec[k] == census.count(k)
        assert spec[k + 1] == census.count(k + 1) + (m - k) * census.count(k)


def test_near_one_head_in_q(b0_graph):
    """Rightmost optimum piece rewritten in q = 1-p starts 1 - c_e q^e."""
    from relayopt import rho_hat_piecewise

    e, ce = near_one_expansion(b0_graph)
    right = rho_hat_piecewise(b0_graph).rightmost.poly
    in_q = right.compose(Poly((1, -1)))
    assert in_q.coefficient(0) == 1
    assert all(in_q.coefficient(j) == 0 for j in range(1, e))
    assert in_q.coefficient(e) == -ce


def test_robustness_rejects_infinite(b0_cfp):
    with pytest.raises(InfiniteProtocolError):
        robustness(b0_cfp)


def test_robustness_at_least_one_random():
    rng = random.Random(15)
    for _ in range(5):
        g = random_connected_graph(rng, 3, 7)
        proto = cfp(g)
        from relayopt import is_finite

        if not is_finite(proto):
            continue
        m = g.m
        # CFP of any graph admits a walk whenever s,r stay connected
        assert robustness(proto) == m


def test_robustness_minus_one_without_failures(b0_graph):
    """-1: the graph with no failure connects s and r, but no walk of the
    protocol exists."""
    assert robustness(Protocol(b0_graph, [])) == -1
    assert robustness(Protocol(b0_graph, [("s", "1", "4"), ("1", "4", "3")])) == -1


def robustness_from_tables(protocol: Protocol) -> int:
    """m - max{|S| : S connects s,r and admits no walk} - 1, from the full
    connectivity and walk tables."""
    m = protocol.graph.m
    missed = connectivity_table(protocol.graph) & ~admits_table(StateGraph(protocol))
    if not missed:
        return m
    return m - max(i for i, count in enumerate(spectrum_from_table(m, missed)) if count) - 1


def random_finite_protocols(rng: random.Random, graph: TwoTerminalGraph) -> list[Protocol]:
    """Random parts of the CFP, and the CFP's instructions on no essential
    circuit with random circuit-borne ones added or random others dropped,
    keeping the finite ones."""
    full = sorted(cfp(graph).instructions)
    borne = set(circuit_instructions(graph))
    base = [i for i in full if i not in borne]
    out = [Protocol(graph, [i for i in full if rng.random() < f]) for f in (0.2, 0.5, 0.8)]
    out.append(Protocol(graph, base + [i for i in sorted(borne) if rng.random() < 0.3]))
    out.append(Protocol(graph, [i for i in base if rng.random() < 0.9]))
    return [p for p in out if is_finite(p)]


@pytest.mark.parametrize("m", range(13, 19))
def test_robustness_matches_the_table_formula(m):
    """Past the per-subset oracle's reach (m <= 12), against the full
    tables, on protocols with robustness from -1 up to m."""
    rng = random.Random(1600 + m)
    for _ in range(3):
        for proto in random_finite_protocols(rng, random_graph(rng, m)):
            assert robustness(proto) == robustness_from_tables(proto)


def parallel_two_paths(k: int) -> TwoTerminalGraph:
    middle = [f"v{i}" for i in range(k)]
    return TwoTerminalGraph(["s", "r"] + middle, [e for v in middle for e in (("s", v), (v, "r"))], "s", "r")


@pytest.mark.parametrize("k", range(2, 13))
def test_robustness_of_parallel_two_paths(k):
    """k parallel 2-paths and their CFP without s v0 r: the fewest failures
    that leave only the route through v0 cut one edge of each other route,
    so the robustness is k - 2.  At k = 12 (m = 24, the scan guard) the
    search builds the levels up to 11 failures within 64 MiB."""
    protocol = cfp(parallel_two_paths(k)).minus([("s", "v0", "r")])
    tracemalloc.start()
    try:
        value = robustness(protocol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == k - 2
    assert peak < 64 << 20, peak


def test_censuses_past_the_scan_guard_match_the_ends_of_rho():
    """On the (1,1) breakpoint graph (34 edges) the censuses need no 2^m
    table, and they agree with the frontier DP's rho at both ends: rho
    starts d_k p^k, and 1 - rho(1 - q) starts c_e q^e."""
    graph = build_breakpoint_graph((1, 1))
    poly = rho(graph)
    paths, cuts = path_census(graph), cut_census(graph)
    k, e = paths.distance, cuts.min_cut
    assert (k, paths.count(k), e, cuts.count(e)) == (5, 1, 2, 1)
    assert all(poly.coefficient(j) == 0 for j in range(k)) and poly.coefficient(k) == paths.count(k)
    in_q = 1 - poly.compose(Poly((1, -1)))
    assert all(in_q.coefficient(j) == 0 for j in range(e)) and in_q.coefficient(e) == cuts.count(e)
    assert near_zero_expansion(graph)[:3] == (k, paths.count(k), paths.count(k + 1))


def test_near_one_matches_the_cut_census():
    rng = random.Random(1601)
    graphs = [grid(2, 3), grid(3, 3), grid(2, 6), grid(3, 4), grid(3, 5)]
    graphs += [random_graph(rng, m) for m in range(1, 19) for _ in range(2)]
    for graph in graphs:
        census = cut_census(graph)
        assert near_one_expansion(graph) == (census.min_cut, census.count(census.min_cut))


@pytest.mark.parametrize("m", range(7))
def test_failure_levels_are_the_subsets_of_each_size(m):
    """Level k holds each (m - k)-subset of surviving edges once."""
    for k, columns in enumerate(failure_levels(m)):
        assert len(columns) == m
        worlds = [sum((col >> t & 1) << e for e, col in enumerate(columns)) for t in range(comb(m, k))]
        assert sorted(worlds) == sorted(S for S in range(1 << m) if S.bit_count() == m - k)
        assert all(col >> comb(m, k) == 0 for col in columns)
