import random

import pytest

from relayopt import (
    GuardExceededError,
    InfiniteProtocolError,
    Instruction,
    Protocol,
    TwoTerminalGraph,
    a_paths,
    a_walks,
    bounded_protocol,
    cfp,
    enumerate_sr_paths,
    essential_circuits,
    essential_instructions,
    finiteness_witness,
    instructions_in,
    is_finite,
    loop_erase,
    spfp_reduce,
    strongly_essential_instructions,
)
from relayopt import engine
from relayopt.constructions import parallel, path_graph, realize
from relayopt.engine import StateGraph, topological_order
from relayopt.graphs import b0
from relayopt.optimizer import circuit_instructions

from conftest import brute_force_walks, complete_graph, random_connected_graph

B0_CFP = {
    ("s", "1", "3"), ("s", "1", "4"), ("s", "2", "3"), ("s", "2", "5"),
    ("1", "3", "2"), ("1", "3", "4"), ("1", "3", "5"), ("1", "4", "3"),
    ("1", "4", "r"), ("2", "3", "1"), ("2", "3", "4"), ("2", "3", "5"),
    ("2", "5", "3"), ("2", "5", "r"), ("3", "1", "4"), ("3", "2", "5"),
    ("3", "4", "r"), ("3", "5", "r"), ("4", "3", "2"), ("4", "3", "5"),
    ("5", "3", "1"), ("5", "3", "4"),
}

B0_CIRCUIT = (("1", "4"), ("4", "3"), ("3", "2"), ("2", "5"), ("5", "3"), ("3", "1"))


def path_g(k):
    return realize(path_graph(k))


def two_routes():
    """Two vertex-disjoint 2-edge routes from s to r."""
    return TwoTerminalGraph(["s", "a", "b", "r"], [("s", "a"), ("a", "r"), ("s", "b"), ("b", "r")], "s", "r")


# -- path enumeration -------------------------------------------------------

def test_b0_paths(b0_graph):
    paths = enumerate_sr_paths(b0_graph)
    assert len(paths) == 12
    short = [p for p in paths if len(p) - 1 == 3]
    assert short == [("s", "1", "4", "r"), ("s", "2", "5", "r")]
    assert paths == sorted(paths)


def test_single_edge_path():
    g = TwoTerminalGraph(["s", "r"], [("s", "r")], "s", "r")
    assert enumerate_sr_paths(g) == [("s", "r")]


def test_two_disjoint_routes_paths():
    assert len(enumerate_sr_paths(two_routes())) == 2


def test_path_guard(monkeypatch):
    graph = b0()  # a fresh graph object: each one keeps its CFP once built
    monkeypatch.setattr(engine, "MAX_PATHS", 12)
    assert len(enumerate_sr_paths(graph)) == 12
    monkeypatch.setattr(engine, "MAX_PATHS", 11)
    with pytest.raises(GuardExceededError):
        enumerate_sr_paths(graph)
    with pytest.raises(GuardExceededError):
        cfp(graph)


# -- CFP ---------------------------------------------------------------------

def test_b0_cfp_golden(b0_graph, b0_cfp):
    assert {tuple(i) for i in b0_cfp.instructions} == B0_CFP
    assert ("4", "1", "3") not in b0_cfp


def test_path_graph_cfp():
    g = path_g(4)
    assert len(cfp(g)) == 2  # the two interior instructions of the unique path


# -- A-paths ------------------------------------------------------------------

def test_a_paths_full_cfp(b0_graph, b0_cfp):
    assert len(a_paths(b0_cfp)) == 12


def test_a_paths_single(b0_graph):
    proto = Protocol(b0_graph, [("s", "1", "4"), ("1", "4", "r")])
    assert a_paths(proto) == [("s", "1", "4", "r")]


def test_a_paths_empty_protocol():
    g = TwoTerminalGraph(["s", "r", "a"], [("s", "r"), ("s", "a"), ("a", "r")], "s", "r")
    assert a_paths(Protocol(g)) == [("s", "r")]
    g2 = two_routes()
    assert a_paths(Protocol(g2)) == []


# -- essential instructions ---------------------------------------------------

def test_cfp_all_essential(b0_cfp):
    assert essential_instructions(b0_cfp) == b0_cfp.instructions


def test_dead_end_protocol_nothing_essential(b0_graph):
    proto = Protocol(b0_graph, [("s", "1", "3"), ("1", "3", "2")])
    assert essential_instructions(proto) == frozenset()


def test_extra_instruction_essential_only_with_access(b0_graph, b0_cfp):
    # 413 alone stays inessential: no walk can enter the state (4,1).
    alone = b0_cfp.union([("4", "1", "3")])
    assert ("4", "1", "3") not in essential_instructions(alone)
    # With 341 added as well, the walk s,2,3,4,1,3,5,r makes both essential.
    both = alone.union([("3", "4", "1")])
    ess = essential_instructions(both)
    assert ("4", "1", "3") in ess and ("3", "4", "1") in ess


def test_strongly_essential(b0_cfp):
    assert strongly_essential_instructions(b0_cfp) == b0_cfp.instructions
    plus = b0_cfp.union([("4", "1", "3"), ("3", "4", "1")])
    strong = strongly_essential_instructions(plus)
    assert strong == b0_cfp.instructions  # the additions sit on no simple path
    empty = Protocol(b0_cfp.graph)
    assert strongly_essential_instructions(empty) == frozenset()


# -- finiteness ----------------------------------------------------------------

def test_b0_infinite_with_witness(b0_cfp):
    assert not is_finite(b0_cfp)
    assert finiteness_witness(b0_cfp) == B0_CIRCUIT


def test_b0_minus_432_finite(b0_cfp):
    assert is_finite(b0_cfp.minus([("4", "3", "2")]))


def test_series_parallel_cfp_finite():
    rng = random.Random(5)
    from conftest import random_sptree

    for _ in range(8):
        tree = random_sptree(rng, 12)
        assert is_finite(cfp(realize(tree)))


def test_essential_circuits_unique(b0_cfp):
    assert essential_circuits(b0_cfp) == [B0_CIRCUIT]


def test_essential_circuits_path_graph():
    assert essential_circuits(cfp(path_g(4))) == []


def test_essential_circuits_with_back_instructions(b0_cfp):
    plus = b0_cfp.union([("4", "1", "3"), ("3", "4", "1")])
    circuits = essential_circuits(plus)
    assert len(circuits) >= 2
    assert (("1", "3"), ("3", "4"), ("4", "1")) in circuits


def test_witness_is_the_least_circuit():
    """The circuits come out sorted without repeats, and the witness, where
    the search stops, is the first of them."""
    rng = random.Random(19)
    protocols = [cfp(complete_graph(6)), cfp(complete_graph(7))]
    for _ in range(60):
        astar = cfp(random_connected_graph(rng, 6, 16))
        ins = sorted(astar.instructions)
        protocols += [astar, astar.minus(rng.sample(ins, len(ins) // 4))]
    infinite = 0
    for proto in protocols:
        circuits = essential_circuits(proto)
        assert circuits == sorted(set(circuits))
        assert finiteness_witness(proto) == (circuits[0] if circuits else None)
        infinite += bool(circuits)
    assert len(essential_circuits(protocols[1])) == 46_308
    assert 15 <= infinite < len(protocols)


# -- walks ----------------------------------------------------------------------

def test_a_walks_requires_finite(b0_cfp):
    with pytest.raises(InfiniteProtocolError):
        a_walks(b0_cfp)


def test_a_walks_small_cases():
    g = TwoTerminalGraph(["s", "r"], [("s", "r")], "s", "r")
    assert a_walks(Protocol(g)) == [("s", "r")]
    g4 = path_g(4)
    assert a_walks(cfp(g4)) == enumerate_sr_paths(g4)


def test_b0_walks_after_removals(b0_cfp):
    reduced = b0_cfp.minus([("4", "3", "2"), ("5", "3", "1")])
    walks = a_walks(reduced)
    assert len(walks) == 12  # 10 simple paths plus two vertex-repeating walks
    assert len(a_paths(reduced)) == 10
    assert ("s", "1", "3", "2", "5", "3", "4", "r") in walks


def test_walk_bijection_against_brute_force(b0_cfp):
    rng = random.Random(23)
    cases = [b0_cfp.minus([("4", "3", "2")]), b0_cfp.minus([("1", "4", "3"), ("5", "3", "1")])]
    for _ in range(6):
        g = random_connected_graph(rng, max_extra=3, max_edges=7)
        proto = cfp(g)
        ins = sorted(proto.instructions)
        keep = [i for i in ins if rng.random() < 0.7]
        sub = Protocol(g, keep)
        if is_finite(sub):
            cases.append(sub)
    for proto in cases:
        walks = a_walks(proto)
        brute = brute_force_walks(proto, cap_edges=2 * proto.graph.m)
        assert sorted(walks) == sorted(brute)


def test_walks_are_lexicographic(b0_cfp):
    walks = a_walks(b0_cfp.minus([("4", "3", "2"), ("5", "3", "1")]))
    assert walks == sorted(walks)


def test_monotonicity_of_walks_and_circuits(b0_cfp):
    smaller = b0_cfp.minus([("4", "3", "2"), ("1", "3", "5")])
    larger = b0_cfp.minus([("4", "3", "2")])
    small_walks = set(a_walks(smaller))
    large_walks = set(a_walks(larger))
    assert small_walks <= large_walks
    for circuit in essential_circuits(smaller):
        assert circuit in essential_circuits(b0_cfp)


def test_circuit_witness_pumps(b0_cfp):
    """The witness cycle really generates longer and longer walks: splicing
    the circuit into a walk through one of its states stays a valid walk."""
    witness = finiteness_witness(b0_cfp)
    ins = set(b0_cfp.instructions)
    walk = ("s", "1", "4", "3", "2", "5", "3", "1", "4", "3", "2", "5", "r")
    assert all(i in ins for i in instructions_in(walk))


# -- loop erasure and the reduction ------------------------------------------

def test_loop_erase():
    assert loop_erase(("s", "1", "3", "2", "5", "3", "4", "r")) == ("s", "1", "3", "4", "r")
    assert loop_erase(("s", "a", "r")) == ("s", "a", "r")
    assert loop_erase(("s", "a", "b", "a", "r")) == ("s", "a", "r")


def test_spfp_reduce_contract(b0_cfp):
    """The four reduction guarantees on a representative fixture family."""
    fixtures = [
        b0_cfp.minus([("4", "3", "2")]),
        b0_cfp.minus([("5", "3", "1")]),
        b0_cfp.minus([("4", "3", "2"), ("5", "3", "1")]),
        bounded_protocol(b0_cfp.graph, 4),
        cfp(path_g(4)),
        cfp(realize(parallel(path_graph(3), path_graph(3)))),
    ]
    for proto in fixtures:
        reduced = spfp_reduce(proto)
        # (d) finiteness is preserved
        assert is_finite(reduced)
        # (c) strongly essential: every instruction on some reduced path
        assert strongly_essential_instructions(reduced) == reduced.instructions
        red_paths = [set(zip(p, p[1:])) for p in a_paths(reduced)]
        red_edge_sets = [frozenset(frozenset(e) for e in pairs) for pairs in red_paths]
        # (a)/(b): the edges of every walk (original and reduced) contain a reduced path
        for source in (proto, reduced):
            for walk in a_walks(source):
                walk_edges = {frozenset(e) for e in zip(walk, walk[1:])}
                assert any(pe <= walk_edges for pe in red_edge_sets)


def test_spfp_reduce_fixpoint(b0_cfp):
    reduced = spfp_reduce(b0_cfp.minus([("4", "3", "2")]))
    assert spfp_reduce(reduced) == reduced


def test_spfp_reduce_path_graph():
    proto = cfp(path_g(5))
    assert spfp_reduce(proto) == proto


def test_spfp_reduce_rejects_infinite(b0_cfp):
    with pytest.raises(InfiniteProtocolError):
        spfp_reduce(b0_cfp)


# -- bounded protocols -----------------------------------------------------------

def test_bounded_protocol_b0(b0_graph):
    got = {tuple(i) for i in bounded_protocol(b0_graph, 4).instructions}
    expected = {
        ("s", "1", "4"), ("1", "4", "r"), ("s", "2", "5"), ("2", "5", "r"),
        ("s", "1", "3"), ("1", "3", "4"), ("3", "4", "r"), ("1", "3", "5"),
        ("3", "5", "r"), ("s", "2", "3"), ("2", "3", "4"), ("2", "3", "5"),
    }
    assert got == expected


def test_bounded_protocol_full(b0_graph, b0_cfp):
    assert bounded_protocol(b0_graph, 6) == b0_cfp


def test_bounded_protocol_distance_monotone(b0_graph):
    rng = random.Random(9)
    graphs = [b0_graph] + [random_connected_graph(rng, 3, 8) for _ in range(5)]
    for g in graphs:
        dist = g.distances_from(g.s)
        k = dist[g.r]
        proto = bounded_protocol(g, k + 1)
        assert is_finite(proto)
        for u, v, w in proto.instructions:
            assert dist[u] < dist[w]


def test_bounded_protocol_rejects_zero(b0_graph):
    with pytest.raises(ValueError):
        bounded_protocol(b0_graph, 0)


# -- directional protocols on series-parallel graphs -----------------------------

def test_sp_directional_protocols_are_acyclic():
    """Any mix of forward- and backward-CFP instructions on a series-parallel
    graph admits no closed state walk at all."""
    rng = random.Random(31)
    from conftest import random_sptree

    for _ in range(6):
        tree = random_sptree(rng, 10)
        g = realize(tree)
        forward = cfp(g)
        swapped = TwoTerminalGraph(g.vertices, g.edges, g.r, g.s)
        backward = cfp(swapped)
        mixed = sorted(set(forward.instructions) | set(backward.instructions))
        chosen = [i for i in mixed if rng.random() < 0.7]
        proto = Protocol(g, chosen)
        assert topological_order(StateGraph(proto).succ) is not None


# -- circuit closure against circuit enumeration ----------------------------------

def _cycle_instructions(cycle):
    return {Instruction(a[0], a[1], b[1]) for a, b in zip(cycle, cycle[1:] + cycle[:1])}


def test_circuit_transitions_match_enumerated_circuits():
    """Circuit-borne transitions come from one reachability closure per
    state, circuits from an explicit-stack enumeration: the instructions on
    the enumerated circuits must be exactly the circuit-borne ones, and a
    protocol is finite exactly when it has no circuit."""
    rng = random.Random(2024)
    infinite = 0
    for _ in range(40):
        g = random_connected_graph(rng, 6, 18)
        astar = cfp(g)
        ins = sorted(astar.instructions)
        protocols = [astar] + [astar.minus(rng.sample(ins, rng.randint(0, len(ins) // 3))) for _ in range(3)]
        for proto in protocols:
            circuits = essential_circuits(proto)
            on_circuits = set().union(*map(_cycle_instructions, circuits))
            sg = StateGraph(proto)
            assert {sg.instruction_of(i, j) for i, j in sg.circuit_transitions()} == on_circuits
            if proto is astar:
                assert circuit_instructions(g) == sorted(on_circuits)
            assert is_finite(proto) == (not circuits)
            infinite += bool(circuits)
    # the draw must exercise both answers
    assert 40 <= infinite <= 120
