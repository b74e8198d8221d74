"""The frontier DP behind ``connectivity_counts``, against the bit-sliced
connectivity table it replaced, under both decision orders; its bound and
guard; and the paths that now build neither a table nor a CFP."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import relayopt
from relayopt import (
    EdgeProbabilityMap,
    TwoTerminalGraph,
    candidate_polynomials,
    cfp,
    connectivity_counts,
    discrepancy,
    engine,
    optimizer,
    path_spectrum,
    reliability,
    rho,
    rho_A,
    rho_by_connectivity,
    rho_prime_A,
    walk_spectrum,
)
from relayopt.asymptotics import cut_census
from relayopt.cli import main
from relayopt.constructions import build_breakpoint_graph, build_crossing_pair, path_graph, realize
from relayopt.errors import GuardExceededError
from relayopt.graphs import all_instructions, b0, graph_json
from relayopt.polys import Poly
from relayopt.reliability import (
    MAX_SCAN_EDGES,
    MAX_SPECIAL_EDGES,
    connectivity_table,
    path_table,
    polynomial_from_table,
    spectrum_from_table,
    subset_counts,
)

from conftest import complete_graph, grid, random_graph, relabeled

X = Poly.x()
VALUES = [Poly.constant(Fraction(3, 7)), X ** 2, Poly((Fraction(1, 2), Fraction(1, 3)))]


def random_tree(rng: random.Random, n: int) -> TwoTerminalGraph:
    """A random tree on s, r and n - 2 more vertices, each vertex joined to
    an earlier one."""
    verts = ["s", "r"] + [f"t{i}" for i in range(n - 2)]
    rng.shuffle(verts)
    return TwoTerminalGraph(verts, [(v, rng.choice(verts[:i])) for i, v in enumerate(verts) if i], "s", "r")


def with_sr_edge(rng: random.Random, m: int) -> TwoTerminalGraph:
    """A random graph with m edges, one of them s-r."""
    g = random_graph(rng, m)
    edges = [e for e in g.edge_list() if e != ("r", "s")]
    if len(edges) == m:
        edges.pop(rng.randrange(m))
    return TwoTerminalGraph(g.vertices, edges + [("s", "r")], "s", "r")


def with_stray_component(rng: random.Random, m: int) -> TwoTerminalGraph:
    """A random graph plus a triangle s cannot reach; r sits in it half the
    time."""
    g = random_graph(rng, m)
    stray = ["x0", "x1", "x2"]
    r = rng.choice(["r", "x1"])
    verts = list(g.vertices) + stray
    return TwoTerminalGraph(verts, list(g.edges) + [("x0", "x1"), ("x1", "x2"), ("x0", "x2")], "s", r)


def with_isolated_sender(rng: random.Random, m: int) -> TwoTerminalGraph:
    """A random graph with m edges, its sender moved to a new vertex with
    no edges: every edge is one s cannot reach."""
    g = random_graph(rng, m)
    return TwoTerminalGraph(list(g.vertices) + ["x"], g.edges, "x", "r")


def with_large_stray_component(rng: random.Random, m: int) -> tuple[TwoTerminalGraph, EdgeProbabilityMap]:
    """A random graph with m edges plus a cycle of 4 to 6 vertices with two
    chords, which s cannot reach; 1 to 4 of that component's edges, and no
    other, are overridden."""
    g = random_graph(rng, m)
    stray = [f"x{i}" for i in range(rng.randint(4, 6))]
    cycle = list(zip(stray, stray[1:] + stray[:1]))
    chords = [(a, b) for i, a in enumerate(stray) for b in stray[i + 2:] if (b, a) not in cycle]
    chords = rng.sample(chords, 2)
    graph = TwoTerminalGraph(list(g.vertices) + stray, list(g.edges) + cycle + chords, "s", "r")
    heavy = rng.sample(cycle + chords, rng.randint(1, 4))
    return graph, EdgeProbabilityMap.with_overrides(graph, {e: rng.choice(VALUES) for e in heavy})


def complete_bipartite(a: int, b: int, s: str, r: str) -> TwoTerminalGraph:
    left, right = [f"a{i}" for i in range(a)], [f"b{i}" for i in range(b)]
    return TwoTerminalGraph(left + right, [(x, y) for x in left for y in right], s, r)


def wheel(k: int) -> TwoTerminalGraph:
    """A hub s joined to each vertex of a k-cycle; r on the rim."""
    rim = [f"w{i}" for i in range(k)]
    edges = [("s", w) for w in rim] + [(rim[i], rim[(i + 1) % k]) for i in range(k)]
    return TwoTerminalGraph(["s"] + rim, edges, "s", rim[k // 2])


def moebius_kantor() -> TwoTerminalGraph:
    """The generalized Petersen graph GP(8, 3): cubic, 16 vertices."""
    outer, inner = [f"o{i}" for i in range(8)], [f"i{i}" for i in range(8)]
    edges = [(outer[i], outer[(i + 1) % 8]) for i in range(8)]
    edges += [(outer[i], inner[i]) for i in range(8)]
    edges += [(inner[i], inner[(i + 3) % 8]) for i in range(8)]
    return TwoTerminalGraph(outer + inner, edges, "o0", "i4")


def random_overrides(rng: random.Random, graph: TwoTerminalGraph) -> EdgeProbabilityMap | None:
    k = rng.randint(0, min(4, graph.m))
    if not k:
        return None
    edges = rng.sample(graph.edge_list(), k)
    return EdgeProbabilityMap.with_overrides(graph, {e: rng.choice(VALUES) for e in edges})


def differential_graphs(rng: random.Random) -> list[tuple[TwoTerminalGraph, EdgeProbabilityMap | None]]:
    """The graphs of the differential, each with its overrides."""
    graphs = [random_graph(rng, m) for m in range(15) for _ in range(10)]
    graphs += [random_tree(rng, rng.randint(2, 15)) for _ in range(20)]
    graphs += [with_sr_edge(rng, rng.randint(1, 14)) for _ in range(20)]
    graphs += [with_stray_component(rng, rng.randint(0, 11)) for _ in range(20)]
    graphs += [grid(rows, cols) for rows, cols in ((1, 2), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3))]
    graphs += [with_isolated_sender(rng, rng.randint(1, 12)) for _ in range(10)]
    cases = [(g, random_overrides(rng, g)) for g in graphs]
    return cases + [with_large_stray_component(rng, rng.randint(1, 7)) for _ in range(20)]


def test_connectivity_counts_match_the_table():
    """The DP's counts equal the table's under the BFS order and under the
    greedy one, whichever ``connectivity_counts`` picks."""
    rng = random.Random(2007)
    graphs = differential_graphs(rng)
    assert len(graphs) >= 200
    disconnected = differ = 0
    for g, probmap in graphs:
        counts = connectivity_counts(g, probmap)
        assert counts == subset_counts(g, probmap, connectivity_table(g))
        spos = reliability._overridden(g, probmap)
        (_, bfs), (_, greedy) = reliability._decision_orders(g, spos)
        assert sorted(bfs) == sorted(greedy) == list(range(g.m))
        for order in (bfs, greedy):
            assert reliability._frontier_counts(g, spos, order) == counts
        differ += bfs != greedy
        disconnected += not any(map(any, counts))
        assert rho(g, probmap) == polynomial_from_table(g, probmap, path_table(cfp(g)))
    assert disconnected >= 10 and differ >= 50


def held(states: dict) -> int:
    """The (pattern, configuration) entries of the DP's groups."""
    return sum(map(len, states.values()))


def test_entries_stay_within_the_step_bounds():
    """After each step, under either order, the DP holds at most
    Bell(w_j) * 2^o_j entries: the step bound that B sums."""
    rng = random.Random(1017)
    cases = differential_graphs(rng)[::2]
    cases += [(g, None) for g in (complete_graph(7), wheel(12), grid(4, 4), complete_bipartite(3, 8, "a0", "a2"))]
    k38 = complete_bipartite(3, 8, "a0", "b7")
    cases.append((k38, EdgeProbabilityMap.with_overrides(k38, {e: X ** 2 for e in k38.edge_list() if "b0" in e})))
    tight = 0
    for g, probmap in cases:
        spos = reliability._overridden(g, probmap)
        for _, order in reliability._decision_orders(g, spos):
            steps = list(zip(reliability._frontier_steps(g, spos, order), reliability._step_bounds(g, spos, order)))
            assert len(steps) == g.m
            assert all(held(states) <= bound for states, bound in steps)
            tight += any(2 * held(states) >= bound for states, bound in steps)
    assert tight >= 20


# The graphs of the benchmark's scan corpus, strata 0 to 2; strata 3 and 4
# are the 2x6 and 3x4 grids.
SCAN_SHAPES = [
    TwoTerminalGraph(
        ["s", "r"] + [f"v{i}" for i in range(1, n + 1)], [tuple(e.split("-")) for e in edges.split()], "s", "r"
    )
    for n, edges in (
        (6, "r-s r-v1 r-v3 r-v6 s-v2 s-v3 v1-v2 v1-v3 v1-v4 v1-v5 v2-v3 v2-v4 v4-v5 v4-v6"),
        (7, "r-v1 r-v2 r-v3 r-v4 r-v6 s-v3 s-v4 s-v5 s-v7 v1-v4 v1-v7 v2-v5 v2-v7 v3-v5 v3-v6 v4-v6"),
        (7, "r-s r-v1 r-v2 r-v4 r-v7 s-v4 v1-v2 v1-v7 v2-v3 v2-v4 v2-v7 v3-v4 v3-v7 v4-v5 v4-v6 v4-v7 v5-v6 v5-v7"),
    )
] + [grid(2, 6), grid(3, 4)]


def test_the_chosen_order_has_the_smaller_bound(monkeypatch):
    """``connectivity_counts`` runs the order of smaller B, BFS on a tie, so
    its B is at most the BFS order's: on the scan corpus shapes and their
    relabellings, on grids and on K3,8.  Greedy wins on K3,8 from a0 and
    on the scan corpus's stratum 1; the grids keep BFS."""
    rng = random.Random(331)
    k38 = [complete_bipartite(3, 8, s, r) for s, r in (("a0", "b7"), ("a0", "a2"), ("b0", "b7"))]
    grids = [grid(rows, cols) for rows, cols in ((3, 3), (4, 4), (5, 5), (6, 6), (8, 8))]
    shapes = SCAN_SHAPES + k38 + grids
    ran = []
    monkeypatch.setattr(reliability, "_frontier_counts", lambda g, spos, order: ran.append(order))
    chosen = {}
    for g in shapes + [relabeled(g, rng) for g in SCAN_SHAPES + k38 + grids[:3] for _ in range(4)]:
        (bfs_bound, bfs), (greedy_bound, greedy) = reliability._decision_orders(g, [])
        ran.clear()
        connectivity_counts(g, None)
        [order] = ran
        assert order == (greedy if greedy_bound < bfs_bound else bfs)
        bound = sum(reliability._step_bounds(g, [], order))
        assert bound == min(bfs_bound, greedy_bound) <= sum(reliability._step_bounds(g, [], bfs))
        chosen.setdefault(g, greedy_bound < bfs_bound)
    assert all(chosen[g] for g in [SCAN_SHAPES[1], *k38[:2]])
    assert not any(chosen[g] for g in [k38[2], *grids])


def test_the_dp_guard_admits_the_large_shapes_and_refuses_k12(monkeypatch):
    """B, not m, guards the DP: the 8x8 grid (m = 112) and K3,8 with its
    16 a0 and a1 edges overridden come within ``MAX_DP_CONFIGURATIONS``,
    each by one order only, and K12 (m = 66) does not.  The guard is read
    when the counts start, and only past ``MAX_SCAN_EDGES`` edges: K7
    (m = 21) with 16 overridden edges has B past it and is still counted."""
    limit = reliability.MAX_DP_CONFIGURATIONS
    k38 = complete_bipartite(3, 8, "a0", "a2")
    heavy = EdgeProbabilityMap.with_overrides(k38, {e: X ** 2 for e in k38.edge_list() if "a0" in e or "a1" in e})
    (bfs, _), (greedy, _) = reliability._decision_orders(k38, reliability._overridden(k38, heavy))
    assert greedy <= limit < bfs  # admitted by the greedy order alone
    (bfs, _), (greedy, _) = reliability._decision_orders(grid(8, 8), [])
    assert bfs <= limit < greedy  # admitted by the BFS order alone
    k12 = complete_graph(12)
    assert min(bound for bound, _ in reliability._decision_orders(k12, [])) > limit
    k7 = complete_graph(7)
    heavy = EdgeProbabilityMap.with_overrides(k7, {e: X ** 2 for e in k7.edge_list()[:MAX_SPECIAL_EDGES]})
    assert min(bound for bound, _ in reliability._decision_orders(k7, reliability._overridden(k7, heavy))) > limit
    assert connectivity_counts(k7, heavy) == subset_counts(k7, heavy, connectivity_table(k7))
    chain = realize(path_graph(MAX_SCAN_EDGES + 2))
    bound = min(bound for bound, _ in reliability._decision_orders(chain, []))
    monkeypatch.setattr(reliability, "MAX_DP_CONFIGURATIONS", bound - 1)
    with pytest.raises(GuardExceededError, match="configuration bound"):
        rho(chain)
    monkeypatch.setattr(reliability, "MAX_DP_CONFIGURATIONS", bound)
    assert rho(chain) == X ** chain.m


@pytest.mark.parametrize("graph", [
    complete_graph(7),
    complete_bipartite(3, 8, "a0", "a2"),
    wheel(12),
    moebius_kantor(),
], ids=["K7", "K3,8", "wheel12", "GP(8,3)"])
def test_connectivity_counts_at_the_guard(graph):
    assert 21 <= graph.m <= MAX_SCAN_EDGES
    assert connectivity_counts(graph, None) == subset_counts(graph, None, connectivity_table(graph))


# Counts the graph JSON on stdin in a child process whose address space is
# capped at 128 MiB, half the budget behind the scan guard, and prints a
# digest of the counts.
COUNT_UNDER_A_CAP = """
import hashlib, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))
from relayopt import connectivity_counts
from relayopt.graphs import parse_graph
counts = connectivity_counts(*parse_graph(json.load(sys.stdin)))
print(hashlib.sha256(repr(counts).encode()).hexdigest())
"""


def test_heavy_overrides_stay_sparse():
    """K3,8 with its 16 a0 and a1 edges overridden: those edges are decided
    first, so the partitions of b0..b7 meet patterns of all 16 bits.  A
    dense block of 2^16 patterns per configuration took gigabytes, and the
    table peaks at 161 MiB of RSS; the counts must come within the cap and
    equal the table's."""
    g = complete_bipartite(3, 8, "a0", "a2")
    rng = random.Random(16)
    heavy = [e for e in g.edge_list() if "a0" in e or "a1" in e]
    probmap = EdgeProbabilityMap.with_overrides(g, {e: rng.choice(VALUES) for e in heavy})
    assert g.m == MAX_SCAN_EDGES and len(heavy) == MAX_SPECIAL_EDGES
    src = str(Path(relayopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-c", COUNT_UNDER_A_CAP], input=json.dumps(graph_json(g, probmap)),
                           capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    expected = subset_counts(g, probmap, connectivity_table(g))
    assert child.stdout.strip() == hashlib.sha256(repr(expected).encode()).hexdigest()


def test_rho_with_sixteen_overrides_is_unchanged():
    """``rho`` of K3,8 (s = a0, r = a2) with its 16 a0 and a1 edges at p^2,
    the most overrides the guard allows: its polynomial, pinned by the
    sha256 recorded when each of the 2^16 pattern factors was multiplied
    out in full, before the patterns were folded one edge at a time."""
    g = complete_bipartite(3, 8, "a0", "a2")
    heavy = [e for e in g.edge_list() if "a0" in e or "a1" in e]
    poly = rho(g, EdgeProbabilityMap.with_overrides(g, {e: X ** 2 for e in heavy}))
    digest = hashlib.sha256(json.dumps(poly.to_strings()).encode()).hexdigest()
    assert digest == "7b84c76b4115577f5e5889eed57462212467c95f31eeeba4de4fbdf70b90e0fc"


def boom(*args, **kwargs):
    raise AssertionError("not expected to run")


def run_cli(argv, graph, probmap=None):
    out, err = io.StringIO(), io.StringIO()
    status = main(argv, stdin=io.StringIO(json.dumps(graph_json(graph, probmap))), stdout=out, stderr=err)
    assert status == 0 and not err.getvalue()
    return json.loads(out.getvalue())


def test_rho_and_the_cut_census_build_no_table_and_no_cfp(monkeypatch):
    g = grid(3, 4)
    probmap = EdgeProbabilityMap.with_overrides(g, {("0.0", "0.1"): X ** 2})
    expected = rho_by_connectivity(g, probmap)
    connected = spectrum_from_table(g.m, connectivity_table(g))
    cuts = {j: comb(g.m, j) - connected[g.m - j] for j in range(g.m + 1) if comb(g.m, j) > connected[g.m - j]}
    monkeypatch.setattr(reliability, "connectivity_table", boom)
    monkeypatch.setattr(engine, "enumerate_sr_paths", boom)
    assert rho(g, probmap) == expected
    assert run_cli(["reliability"], g, probmap) == {"poly": expected.to_strings()}
    value = run_cli(["reliability", "--at", "1/3"], g, probmap)["value"]
    assert Fraction(value) == expected(Fraction(1, 3))
    census = cut_census(g)
    assert census.counts == cuts and census.min_cut == 2


def test_protocols_containing_the_cfp_build_no_table(monkeypatch):
    g = grid(3, 3)
    protocol = cfp(g)
    expected = rho_by_connectivity(g)
    spectrum = spectrum_from_table(g.m, connectivity_table(g))
    routes = TwoTerminalGraph(["s", "a", "b", "r"], [("s", "a"), ("a", "r"), ("s", "b"), ("b", "r")], "s", "r")
    monkeypatch.setattr(reliability, "connectivity_table", boom)
    # candidates and discrepancies build their walk tables at this binding
    for module in (reliability, optimizer):
        monkeypatch.setattr(module, "admits_table", boom)
    assert rho_A(protocol) == expected
    assert walk_spectrum(protocol) == spectrum
    assert discrepancy(g, []).polynomial == Poly.zero()
    assert discrepancy(g, [], check_event=True).polynomial == Poly.zero()
    # a finite CFP is the one candidate, its removal set empty
    assert candidate_polynomials(routes) == [(frozenset(), 2 * X ** 2 - X ** 4)]


def test_path_reliability_of_protocols_containing_the_cfp_builds_no_table(monkeypatch):
    """Every s,r-path of such a protocol is a protocol path, so its path
    reliability is ``rho``: ``rho_prime_A`` reads the connectivity counts,
    and ``reliability --prime`` without a protocol builds no CFP either.
    Each answer equals the path-table polynomial, and each ``path_spectrum``
    the path table's spectrum, computed beforehand."""
    rng = random.Random(1996)
    cases = []
    for graph in (grid(3, 3), random_graph(rng, 10), with_sr_edge(rng, 9), with_stray_component(rng, 7)):
        base = cfp(graph)
        extra = [i for i in all_instructions(graph) if i not in base.instructions]
        for protocol in (base, base.union(i for i in extra if rng.random() < 0.5)):
            probmap = random_overrides(rng, graph)
            expected = polynomial_from_table(graph, probmap, path_table(protocol))
            cases.append((protocol, probmap, expected, spectrum_from_table(graph.m, path_table(protocol))))
    g = grid(3, 4)
    probmap = EdgeProbabilityMap.with_overrides(g, {("0.0", "0.1"): X ** 2, ("1.2", "1.3"): VALUES[2]})
    expected = polynomial_from_table(g, probmap, path_table(cfp(g)))
    for table in ("path_table", "connectivity_table", "admits_table"):
        monkeypatch.setattr(reliability, table, boom)
    for protocol, pm, poly, spectrum in cases:
        assert rho_prime_A(protocol, pm) == poly
        assert path_spectrum(protocol) == spectrum
    monkeypatch.setattr(engine, "enumerate_sr_paths", boom)
    assert run_cli(["reliability", "--prime"], g, probmap) == {"poly": expected.to_strings()}
    value = run_cli(["reliability", "--prime", "--at", "2/5"], g, probmap)["value"]
    assert Fraction(value) == expected(Fraction(2, 5))


def test_path_reliability_enumerates_the_paths_once(monkeypatch):
    """The same one enumeration of the s,r-paths tells whether the
    protocol contains the CFP and, when it does not, gives its paths: the
    CFP minus one instruction takes one enumeration and no walk search,
    and its answer is the path-table polynomial."""
    rng = random.Random(2007)
    cases = []
    for graph in (grid(3, 3), random_graph(rng, 10), with_sr_edge(rng, 9)):
        base = sorted(cfp(graph).instructions)
        for dropped in rng.sample(base, 3):
            protocol = relayopt.Protocol(graph, [i for i in base if i != dropped])
            probmap = random_overrides(rng, graph)
            cases.append((protocol, probmap, polynomial_from_table(graph, probmap, path_table(protocol))))
    calls = []
    enumerate_sr_paths = engine.enumerate_sr_paths
    monkeypatch.setattr(engine, "enumerate_sr_paths", boom)
    monkeypatch.setattr(reliability, "enumerate_sr_paths", lambda g: calls.append(g) or enumerate_sr_paths(g))
    for table in ("connectivity_table", "admits_table"):
        monkeypatch.setattr(reliability, table, boom)
    for protocol, probmap, expected in cases:
        calls.clear()
        assert rho_prime_A(protocol, probmap) == expected
        assert calls == [protocol.graph]


def test_guards_come_before_any_work(monkeypatch):
    """The override guard comes before the decision orders are planned, and
    the DP's own guard before its first step; the table kernels keep the
    subset-scan guard on a 25-edge chain, before any column is built."""
    k12 = complete_graph(12)
    chain = realize(path_graph(MAX_SCAN_EDGES + 2))
    assert chain.m == MAX_SCAN_EDGES + 1
    many = realize(path_graph(MAX_SPECIAL_EDGES + 2))
    overrides = EdgeProbabilityMap.with_overrides(many, {e: X ** 2 for e in many.edge_list()})
    for work in ("_frontier_steps", "_column"):
        monkeypatch.setattr(reliability, work, boom)
    for count in (rho, cut_census, lambda g: connectivity_counts(g, None)):
        with pytest.raises(GuardExceededError, match="configuration bound"):
            count(k12)
    with pytest.raises(GuardExceededError, match="subset-scan guard"):
        connectivity_table(chain)
    monkeypatch.undo()
    monkeypatch.setattr(TwoTerminalGraph, "neighbors", boom)
    for count in (lambda g: rho(g, overrides), lambda g: connectivity_counts(g, overrides)):
        with pytest.raises(GuardExceededError, match="overridden edges"):
            count(many)


def test_the_dp_counts_a_chain_past_the_scan_guard():
    """A 25-edge chain, one edge past ``MAX_SCAN_EDGES``: s and r are joined
    only when every edge survives, and every nonempty set of edges cuts
    them."""
    chain = realize(path_graph(MAX_SCAN_EDGES + 2))
    m = chain.m
    assert m == MAX_SCAN_EDGES + 1
    assert connectivity_counts(chain, None) == [[0] * m + [1]]
    assert rho(chain) == X ** m
    census = cut_census(chain)
    assert census.min_cut == 1 and census.counts == {j: comb(m, j) for j in range(1, m + 1)}


# ``reliability`` of build_breakpoint_graph((1, 1)), m = 34, as the b0 side
# of the transport identity below gave it before the DP ran past 24 edges.
BREAKPOINT_11 = [
    "0", "0", "0", "0", "0", "1", "6", "13", "7", "-20", "-39", "-37", "10", "60", "-130", "507", "-174", "-121",
    "-487", "-32", "426", "197", "476", "-626", "-439", "66", "409", "232", "-293", "-93", "35", "65", "1", "-26", "7",
]


@pytest.mark.parametrize("orders", [(1,), (1, 1), (3,)], ids=str)
def test_breakpoint_graphs_by_transport(orders):
    """A breakpoint graph is b0 with its sender edges s-1 and s-2 replaced
    by the crossing pair's sides, so its reliability is that of b0 with
    rho(h1) and rho(h2) on those two edges.  The two sides share no
    decision order: m = 13, 34 and 58 against b0's 10."""
    g = build_breakpoint_graph(orders)
    h1, h2 = build_crossing_pair(orders)
    base = b0()
    sides = EdgeProbabilityMap.with_overrides(base, {("s", "1"): rho(realize(h1)), ("s", "2"): rho(realize(h2))})
    expected = rho(base, sides)
    assert g.m == {(1,): 13, (1, 1): 34, (3,): 58}[orders]
    assert rho(g) == expected
    assert run_cli(["reliability"], g) == {"poly": expected.to_strings()}
    if orders == (1, 1):
        assert expected.to_strings() == BREAKPOINT_11
