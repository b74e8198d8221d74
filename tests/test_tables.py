"""Randomized differential tests of the bit-sliced subset tables against
per-subset oracles kept here: a breadth-first search per subset for
connectivity, ``subset_admits_walk`` per subset for walks, a containment
test per subset for paths, the counting loops the tables replaced, and a
per-subset polynomial sum for walk reliability."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from relayopt import (
    EdgeProbabilityMap,
    Protocol,
    TwoTerminalGraph,
    a_paths,
    bounded_protocol,
    cfp,
    is_finite,
    subset_admits_walk,
)
from relayopt import reliability
from relayopt.asymptotics import robustness
from relayopt.engine import StateGraph
from relayopt.graphs import all_instructions, edge_key
from relayopt.polys import Poly
from relayopt.reliability import (
    MAX_SPECIAL_EDGES,
    admits_table,
    connectivity_table,
    path_counts,
    path_table,
    rho_A,
    spectrum_from_table,
    subset_counts,
    walk_counts,
)

from conftest import grid, random_graph


def random_protocols(rng: random.Random, graph: TwoTerminalGraph) -> list[Protocol]:
    """The CFP, a random part of it, and a random set of legal instructions
    (often infinite, and often with walks the CFP does not have)."""
    full = sorted(cfp(graph).instructions)
    legal = all_instructions(graph)
    return [
        cfp(graph),
        Protocol(graph, [i for i in full if rng.random() < 0.6]),
        Protocol(graph, [i for i in legal if rng.random() < 0.7]),
    ]


def subset_edges(graph: TwoTerminalGraph, S: int) -> list[tuple[str, str]]:
    return [e for i, e in enumerate(graph.edge_list()) if S >> i & 1]


def connected_oracle(graph: TwoTerminalGraph, S: int) -> bool:
    adj: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for u, v in subset_edges(graph, S):
        adj[u].append(v)
        adj[v].append(u)
    seen, frontier = {graph.s}, [graph.s]
    while frontier:
        frontier = [w for u in frontier for w in adj[u] if w not in seen and not seen.add(w)]
    return graph.r in seen


def path_oracle_masks(protocol: Protocol) -> list[int]:
    index = {e: i for i, e in enumerate(protocol.graph.edge_list())}
    return [sum({1 << index[edge_key(p[i], p[i + 1])] for i in range(len(p) - 1)}) for p in a_paths(protocol)]


def table_of(m: int, admitted) -> int:
    return sum(1 << S for S in range(1 << m) if admitted(S))


def relevant_edges_oracle(protocol: Protocol) -> list[int]:
    """Canonical indices of the edges under the pairs (u, v) that some
    instruction chain from a pair (s, x) reaches and that some chain leads
    from to a pair (y, r): a search over the instructions themselves."""
    graph = protocol.graph
    forward: dict[tuple[str, str], list[tuple[str, str]]] = {}
    backward: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for u, v, w in protocol.instructions:
        forward.setdefault((u, v), []).append((v, w))
        backward.setdefault((v, w), []).append((u, v))

    def closure(start, step):
        seen, todo = set(start), list(start)
        while todo:
            for nxt in step.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reached = closure([(graph.s, x) for x in graph.neighbors(graph.s)], forward)
    reaching = closure([(y, graph.r) for y in graph.neighbors(graph.r)], backward)
    index = {e: i for i, e in enumerate(graph.edge_list())}
    return sorted({index[edge_key(u, v)] for u, v in reached & reaching})


def projected(relevant: list[int], S: int) -> int:
    """The subset S of all edges as a subset of the relevant ones: bit t
    for the t-th of ``relevant``."""
    return sum(1 << t for t, e in enumerate(relevant) if S >> e & 1)


def counts_oracle(m: int, spos: list[int], table: int) -> list[list[int]]:
    """The loop ``subset_counts`` ran before the tables were ints."""
    plain_mask = sum(1 << i for i in range(m) if i not in spos)
    counts = [[0] * (m - len(spos) + 1) for _ in range(1 << len(spos))]
    for S in range(1 << m):
        if table >> S & 1:
            pat = sum((S >> pos & 1) << k for k, pos in enumerate(spos))
            counts[pat][(S & plain_mask).bit_count()] += 1
    return counts


def spectrum_oracle(m: int, table: int) -> tuple[int, ...]:
    counts = [0] * (m + 1)
    for S in range(1 << m):
        if table >> S & 1:
            counts[S.bit_count()] += 1
    return tuple(counts)


def robustness_oracle(protocol: Protocol) -> int:
    graph = protocol.graph
    m = graph.m
    worst = m + 1
    for S in range(1 << m):
        if connected_oracle(graph, S) and not subset_admits_walk(protocol, subset_edges(graph, S)):
            worst = min(worst, m - S.bit_count())
    return m if worst > m else worst - 1


def with_overrides(rng: random.Random, graph: TwoTerminalGraph, k: int) -> tuple[EdgeProbabilityMap, list[int]]:
    edges = graph.edge_list()
    spos = sorted(rng.sample(range(len(edges)), k))
    values = [Poly.constant(Fraction(rng.randint(1, 6), 7)), Poly((0, 0, 1)), Poly((Fraction(1, 2), Fraction(1, 3)))]
    probmap = EdgeProbabilityMap.with_overrides(graph, {edges[i]: rng.choice(values) for i in spos})
    return probmap, spos


@pytest.mark.parametrize("m", list(range(13)))
def test_tables_match_per_subset_oracles(m):
    rng = random.Random(9000 + m)
    for _ in range(3 if m <= 10 else 1):
        graph = random_graph(rng, m)
        conn = connectivity_table(graph)
        assert conn == table_of(m, lambda S: connected_oracle(graph, S))
        for protocol in random_protocols(rng, graph):
            masks = path_oracle_masks(protocol)
            assert path_table(protocol) == table_of(m, lambda S: any(mask & ~S == 0 for mask in masks))
            walks = admits_table(StateGraph(protocol))
            assert walks == table_of(m, lambda S: subset_admits_walk(protocol, subset_edges(graph, S)))
            assert walks & ~conn == 0  # every admitting subset connects s and r
            assert spectrum_from_table(m, walks) == spectrum_oracle(m, walks)
            for k in range(min(m, 4) + 1):
                probmap, spos = with_overrides(rng, graph, k)
                assert subset_counts(graph, probmap, walks) == counts_oracle(m, spos, walks)
            if is_finite(protocol):
                assert robustness(protocol) == robustness_oracle(protocol)


def test_state_graph_sweep_over_all_subsets_is_the_walk_table():
    """The state graph's two kernels agree.  Its bit-sliced sweep over the
    all-subset columns, its per-subset admission test run on every subset
    (cut to the relevant edges, which the test numbers), and
    ``admits_table`` give one table, on infinite protocols and the empty
    one too."""
    rng = random.Random(4242)
    infinite = 0
    for m in range(1, 11):
        columns = [reliability._column(m, e) for e in range(m)]
        for _ in range(4):
            graph = random_graph(rng, m)
            for protocol in random_protocols(rng, graph) + [Protocol(graph, [])]:
                sg = StateGraph(protocol)
                infinite += sg.order is None
                table = admits_table(sg)
                assert sg.delivered(columns) == table
                relevant = sg.relevant_edges()
                assert relevant == relevant_edges_oracle(protocol)
                test = sg.admission_test(relevant)
                assert table_of(m, lambda S: test(projected(relevant, S))) == table
    assert infinite >= 10


def test_counts_of_arbitrary_tables_with_many_overrides():
    """Counting depends only on the table's bits, so random tables with up
    to ``MAX_SPECIAL_EDGES`` overridden edges check every block width,
    narrower than a byte included, and tables of more than one 2^12-bit
    counting leaf (m = 14)."""
    rng = random.Random(77)
    for m in (1, 2, 3, 4, 7, 9, 14, 17):
        graph = random_graph(rng, m)
        for k in sorted({0, 1, m // 2, min(m, MAX_SPECIAL_EDGES)}):
            probmap, spos = with_overrides(rng, graph, k)
            table = rng.getrandbits(1 << m)
            counts = subset_counts(graph, probmap, table)
            if m <= 14:
                assert counts == counts_oracle(m, spos, table)
            assert sum(map(sum, counts)) == table.bit_count()
            if not spos:
                assert tuple(counts[0]) == spectrum_from_table(m, table)


def split_graph(rng: random.Random, m: int) -> TwoTerminalGraph:
    """A graph with exactly m edges in which no edge crosses between the
    side of s and the side of r, so s and r are disconnected."""
    n = 1
    while 2 * (n * (n - 1) // 2) < m:
        n += 1
    sides = [["s"] + [f"a{i}" for i in range(n - 1)], ["r"] + [f"b{i}" for i in range(n - 1)]]
    pairs = [(a, b) for side in sides for i, a in enumerate(side) for b in side[i + 1:]]
    return TwoTerminalGraph(sides[0] + sides[1], rng.sample(pairs, m), "s", "r")


def adjacent_graph(rng: random.Random, m: int) -> TwoTerminalGraph:
    """A random graph with exactly m >= 1 edges, one of them s-r."""
    while True:
        graph = random_graph(rng, m)
        if graph.has_edge("s", "r"):
            return graph


def cfp_supersets(rng: random.Random, graph: TwoTerminalGraph) -> list[Protocol]:
    """The CFP, the CFP plus a random part of the other legal instructions,
    and every legal instruction."""
    base = cfp(graph)
    extra = [i for i in all_instructions(graph) if i not in base.instructions]
    return [base, base.union(i for i in extra if rng.random() < 0.5), Protocol(graph, all_instructions(graph))]


def reliability_oracle(protocol: Protocol, probmap: EdgeProbabilityMap) -> Poly:
    """Sum over the subsets admitting a walk, one subset at a time, of the
    probability that exactly that subset survives."""
    graph = protocol.graph
    weights = [probmap.poly_for_edge(e) for e in graph.edge_list()]
    total = Poly.zero()
    for S in range(1 << graph.m):
        if subset_admits_walk(protocol, subset_edges(graph, S)):
            term = Poly.one()
            for e, w in enumerate(weights):
                term = term * (w if S >> e & 1 else 1 - w)
            total = total + term
    return total


def test_walk_tables_of_protocols_containing_the_cfp_match_oracles():
    """36 graphs with m = 0..12: random, with an s-r edge, and (up to
    m = 10) with s and r disconnected.  On every protocol containing the
    CFP, the walk table from the per-subset search is checked against
    ``subset_admits_walk``, and the reliability, which ``walk_counts``
    reads off the connectivity counts, against the per-subset polynomial
    sum.  ``tests/test_frontier.py``'s differential checks those counts
    against the connectivity table."""
    rng = random.Random(4242)
    graphs = []
    for m in range(13):
        graphs.append(random_graph(rng, m))
        if m:
            graphs.append(adjacent_graph(rng, m))
        if m <= 10:
            graphs.append(split_graph(rng, m))
    assert any(not connected_oracle(g, (1 << g.m) - 1) for g in graphs)
    for graph in graphs:
        m = graph.m
        for protocol in cfp_supersets(rng, graph):
            assert admits_table(StateGraph(protocol)) == table_of(m, lambda S: subset_admits_walk(protocol, subset_edges(graph, S)))
            if m <= 9:  # the polynomial oracle multiplies m polynomials per subset
                probmap, _ = with_overrides(rng, graph, rng.randint(0, min(m, 3)))
                assert rho_A(protocol, probmap) == reliability_oracle(protocol, probmap)


def test_only_protocols_containing_the_cfp_skip_the_walk_search(monkeypatch):
    """``walk_counts`` takes the connectivity counts exactly when the
    protocol contains every CFP instruction, and then builds no table:
    removing any one of them, even where the walk table comes out the same,
    sends the protocol back to the walk search (``walk_table_counts``),
    over the subsets of the edges under its useful states."""
    def no_table(graph):
        raise AssertionError("connectivity table built")

    searched, tabled = [], []
    real_search, real_counts = reliability.monotone_table, reliability.walk_table_counts
    monkeypatch.setattr(reliability, "monotone_table", lambda m, test: searched.append(m) or real_search(m, test))
    monkeypatch.setattr(reliability, "walk_table_counts", lambda sg, pm: tabled.append(sg) or real_counts(sg, pm))
    monkeypatch.setattr(reliability, "connectivity_table", no_table)
    rng = random.Random(31)
    for graph in (random_graph(rng, 9), adjacent_graph(rng, 8), grid(2, 3)):
        for protocol in cfp_supersets(rng, graph):
            searched.clear()
            tabled.clear()
            walk_counts(protocol, None)
            assert not searched and not tabled
        for ins in sorted(cfp(graph).instructions):
            protocol = cfp(graph).minus([ins])
            searched.clear()
            tabled.clear()
            counts = walk_counts(protocol, None)
            assert searched == [len(relevant_edges_oracle(protocol))] and len(tabled) == 1
            table = admits_table(tabled[0])
            assert table == table_of(graph.m, lambda S: subset_admits_walk(protocol, subset_edges(graph, S)))
            assert counts == subset_counts(graph, None, table)


def near_zero_protocol(graph: TwoTerminalGraph) -> Protocol:
    """The instructions of the s,r-paths at most one edge longer than the
    shortest, as the near-zero expansion takes them."""
    return bounded_protocol(graph, graph.distances_from(graph.s)[graph.r] + 1)


def two_apart_graph(rng: random.Random, m: int) -> TwoTerminalGraph:
    """A random graph with exactly m >= 2 edges and r two edges from s."""
    while True:
        graph = random_graph(rng, m)
        if graph.distances_from("s").get("r") == 2:
            return graph


@pytest.mark.parametrize("m", [3, 6, 9, 12])
def test_walk_tables_with_irrelevant_edges_match_both_oracles(m):
    """``admits_table`` searches only the subsets of the edges under useful
    states and lifts the minimal ones, yet it gives the table of the
    per-subset oracle and of the state graph's sweep over all 2^m subsets.
    The inputs are the near-zero protocols of graphs with an s-r edge or
    with r two edges from s, which leave most edges irrelevant, and random
    CFP subsets, infinite protocols and the empty protocol on them."""
    rng = random.Random(2600 + m)
    columns = [reliability._column(m, e) for e in range(m)]
    cut = 0
    for _ in range(3):
        for graph in (adjacent_graph(rng, m), two_apart_graph(rng, m)):
            for protocol in [near_zero_protocol(graph), *random_protocols(rng, graph), Protocol(graph, [])]:
                sg = StateGraph(protocol)
                table = admits_table(sg)
                assert table == table_of(m, lambda S: subset_admits_walk(protocol, subset_edges(graph, S)))
                assert table == sg.delivered(columns)
                cut += len(relevant_edges_oracle(protocol)) < m
    assert cut >= 12  # the empty protocols alone give 6


def test_walk_search_visits_only_the_subsets_of_the_relevant_edges(monkeypatch):
    """The per-subset search of a walk table runs over the 2^k subsets of
    the k edges under useful states, in increasing order, and no others;
    those edges are found once per table.
    On K3,8 (m = 24) the near-zero protocol from a0 to b7 is the one edge
    a0-b7, so the subsets of one edge are searched, and from a0 to a2 it is the eight
    paths a0-b-a2 (k = 16), whose reliability is 1 - (1 - p^2)^8."""
    searched = []
    real_search = reliability.monotone_table

    def spy(k, test):
        visited = []
        minimal = real_search(k, lambda S: visited.append(S) or test(S))
        searched.append((k, visited))
        return minimal

    monkeypatch.setattr(reliability, "monotone_table", spy)
    found = []
    real_relevant = StateGraph.relevant_edges
    monkeypatch.setattr(StateGraph, "relevant_edges", lambda sg: found.append(sg) or real_relevant(sg))
    a, b = [f"a{i}" for i in range(3)], [f"b{i}" for i in range(8)]
    x = Poly.x()
    rng = random.Random(26)
    cases = [
        (TwoTerminalGraph(a + b, [(u, v) for u in a for v in b], "a0", "b7"), x),
        (TwoTerminalGraph(a + b, [(u, v) for u in a for v in b], "a0", "a2"), 1 - (1 - x * x) ** 8),
        (adjacent_graph(rng, 14), None),
        (two_apart_graph(rng, 14), None),
        (grid(3, 4), None),
    ]
    ks = []
    for graph, expected in cases:
        protocol = near_zero_protocol(graph)
        searched.clear()
        found.clear()
        poly = rho_A(protocol)
        assert len(found) == 1
        k = len(relevant_edges_oracle(protocol))
        [(arg, visited)] = searched
        assert arg == k and len(visited) <= 1 << k
        assert visited == sorted(visited) and all(S < 1 << k for S in visited)
        assert expected is None or poly == expected
        ks.append(k)
    assert ks[:2] == [1, 16] and all(k < 14 for k in ks[2:4])
    # every edge of the 3x4 grid is on a shortest or next-shortest path
    assert ks[4] == grid(3, 4).m


def path_support(protocol: Protocol) -> list[int]:
    """Canonical indices of the edges on some protocol path."""
    return sorted({e for mask in path_oracle_masks(protocol) for e in range(protocol.graph.m) if mask >> e & 1})


@pytest.mark.parametrize("m", [4, 8, 12])
def test_counts_over_the_support_match_the_full_tables(m):
    """``walk_counts`` and ``path_counts`` count over the k edges their
    table depends on and widen to the full basis; they equal the counts of
    the 2^m walk table and path table, on the near-zero protocols of graphs
    with an s-r edge or r two edges from s (most edges irrelevant), random
    protocols and the empty one, with overridden edges inside and outside
    the support."""
    rng = random.Random(2900 + m)
    inside = outside = 0
    for _ in range(3):
        for graph in (adjacent_graph(rng, m), two_apart_graph(rng, m)):
            for protocol in [near_zero_protocol(graph), *random_protocols(rng, graph), Protocol(graph, [])]:
                walks, paths = admits_table(StateGraph(protocol)), path_table(protocol)
                supports = (set(relevant_edges_oracle(protocol)), set(path_support(protocol)))
                for k in sorted({0, 1, m // 2, m}):
                    probmap, spos = with_overrides(rng, graph, k)
                    assert walk_counts(protocol, probmap) == subset_counts(graph, probmap, walks)
                    assert path_counts(protocol, probmap) == subset_counts(graph, probmap, paths)
                    for support in supports:
                        if len(support) < m:
                            inside += any(e in support for e in spos)
                            outside += any(e not in support for e in spos)
    assert inside >= 20 and outside >= 20


def test_counts_over_a_support_build_no_table_over_all_edges(monkeypatch):
    """When the walk or path table depends on k < m edges, no table, column
    or count over 2^m subsets is built: on K3,8 (m = 24) the near-zero
    protocol from a0 to b7 needs the one edge a0-b7 and from a0 to a2 the
    16 edges a0-b and a2-b, also with the other edges overridden."""
    widths = []
    real_full, real_column, real_block = reliability._full, reliability._column, reliability._block_counts
    monkeypatch.setattr(reliability, "_full", lambda m: widths.append(m) or real_full(m))
    monkeypatch.setattr(reliability, "_column", lambda m, e: widths.append(m) or real_column(m, e))
    monkeypatch.setattr(reliability, "_block_counts",
                        lambda table, n, k: widths.append(n + k) or real_block(table, n, k))
    monkeypatch.setattr(reliability, "admits_table", boom)
    monkeypatch.setattr(reliability, "path_table", boom)
    a, b = [f"a{i}" for i in range(3)], [f"b{i}" for i in range(8)]
    x = Poly.x()
    for r, k, expected in (("b7", 1, x), ("a2", 16, 1 - (1 - x * x) ** 8)):
        graph = TwoTerminalGraph(a + b, [(u, v) for u in a for v in b], "a0", r)
        protocol = near_zero_protocol(graph)
        outside = [e for e in graph.edge_list() if not set(e) & {"a0", r}]
        heavy = EdgeProbabilityMap.with_overrides(graph, {e: x * x for e in outside[:MAX_SPECIAL_EDGES]})
        for probmap in (None, heavy):
            for reliability_of in (rho_A, reliability.rho_prime_A):
                widths.clear()
                assert reliability_of(protocol, probmap) == expected
                assert widths and max(widths) == k


def boom(*args):
    raise AssertionError("a table over all 2^m subsets was built")


def test_superset_tables_build_only_the_columns_of_their_masks(monkeypatch):
    """Two path masks over 5 of 14 edges build those 5 columns, and the
    table is the per-subset oracle's."""
    m, masks = 14, [0b1011, 0b11 << 10]
    built = []
    column = reliability._column
    monkeypatch.setattr(reliability, "_column", lambda m, e: built.append(e) or column(m, e))
    table = reliability._superset_table(m, masks)
    assert sorted(built) == [0, 1, 3, 10, 11]
    assert table == table_of(m, lambda S: any(mask & ~S == 0 for mask in masks))


def test_table_builds_stay_within_a_few_columns_of_memory():
    """An int over 2^m subsets takes 2^m/8 bytes, plus 1/15 for CPython's
    30-bit digits.  At m = 20 the connectivity build keeps at most 2m+n+3
    of them live (the m edge columns, the all-subsets column, a reach set
    per vertex and per edge, and two temporaries) and the path build m+4
    (the columns, the all-subsets column, and the running AND and table,
    each with its temporary)."""
    graph = grid(3, 5)  # 15 vertices, 22 edges
    graph = TwoTerminalGraph(graph.vertices, graph.edge_list()[:20], graph.s, graph.r)
    m, n = graph.m, len(graph.vertices)
    protocol = cfp(graph)
    for build, live in ((lambda: connectivity_table(graph), 2 * m + n + 3), (lambda: path_table(protocol), m + 4)):
        tracemalloc.start()
        try:
            table = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < table < 1 << (1 << m)
        assert peak <= 1.15 * live * (1 << m) // 8, (peak, live)
