"""Shared fixtures, randomized generators and independent test oracles."""

from __future__ import annotations

import random
import string

import pytest

from relayopt import (
    GraphError,
    Protocol,
    TwoTerminalGraph,
    b0,
    cfp,
    edge,
    instructions_in,
    parallel,
    series,
)
from relayopt.constructions import SPTree


@pytest.fixture(scope="session")
def b0_graph() -> TwoTerminalGraph:
    return b0()


@pytest.fixture(scope="session")
def b0_cfp(b0_graph) -> Protocol:
    return cfp(b0_graph)


def random_connected_graph(rng: random.Random, max_extra: int = 4, max_edges: int = 8) -> TwoTerminalGraph:
    """Random simple graph on s, r and a few extra vertices with s,r in one
    component."""
    while True:
        n = rng.randint(1, max_extra)
        verts = ["s", "r"] + [f"v{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
        rng.shuffle(pairs)
        budget = rng.randint(len(verts) - 1, max_edges)
        graph = TwoTerminalGraph(verts, pairs[:budget], "s", "r")
        if "r" in graph.distances_from("s"):
            return graph


def random_graph(rng: random.Random, m: int) -> TwoTerminalGraph:
    """A simple graph on s, r and a few more vertices with exactly m edges,
    s and r not necessarily connected."""
    n = 2
    while n * (n - 1) // 2 < m:
        n += 1
    n += rng.randint(0, 2)
    verts = ["s", "r"] + [f"v{i}" for i in range(n - 2)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
    return TwoTerminalGraph(verts, rng.sample(pairs, m), "s", "r")


def complete_graph(n: int) -> TwoTerminalGraph:
    """K_n on the vertices 0..n-1, from s = 0 to r = n - 1."""
    verts = [str(i) for i in range(n)]
    return TwoTerminalGraph(verts, [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]], "0", str(n - 1))


def relabeled(graph: TwoTerminalGraph, rng: random.Random) -> TwoTerminalGraph:
    """The graph with every vertex, s and r included, renamed to a random
    letter: the renaming reorders states, instructions and removal sets."""
    names = dict(zip(sorted(graph.vertices), rng.sample(string.ascii_lowercase, len(graph.vertices))))
    return TwoTerminalGraph(names.values(), [(names[u], names[v]) for u, v in graph.edge_list()],
                            names[graph.s], names[graph.r])


def grid(rows: int, cols: int) -> TwoTerminalGraph:
    """The rows x cols grid, from its top left to its bottom right corner."""
    name = [[f"{i}.{j}" for j in range(cols)] for i in range(rows)]
    edges = [(name[i][j], name[i][j + 1]) for i in range(rows) for j in range(cols - 1)]
    edges += [(name[i][j], name[i + 1][j]) for i in range(rows - 1) for j in range(cols)]
    return TwoTerminalGraph([v for row in name for v in row], edges, name[0][0], name[-1][-1])


def random_sptree(rng: random.Random, budget: int, depth: int = 0) -> SPTree:
    """Random construction tree with at most ``budget`` edges."""
    if budget <= 1 or (depth >= 2 and rng.random() < 0.45):
        return edge()
    left_budget = rng.randint(1, budget - 1)
    left = random_sptree(rng, left_budget, depth + 1)
    right = random_sptree(rng, budget - left_budget, depth + 1)
    if rng.random() < 0.5:
        try:
            return parallel(left, right)
        except GraphError:
            return series(left, right)
    return series(left, right)


def brute_force_walks(protocol: Protocol, cap_edges: int) -> list[tuple[str, ...]]:
    """Independent walk enumeration straight from the definitions: extend
    vertex sequences, requiring every interior triple to be a protocol
    instruction, up to the length cap."""
    graph = protocol.graph
    ins = protocol.instructions
    found: list[tuple[str, ...]] = []

    def extend(seq: list[str]) -> None:
        if len(seq) - 1 > cap_edges:
            return
        v = seq[-1]
        if v == graph.r:
            found.append(tuple(seq))
        for w in graph.neighbors(v):
            if len(seq) >= 2 and (seq[-2], v, w) not in ins:
                continue
            seq.append(w)
            extend(seq)
            seq.pop()

    extend([graph.s])
    return found


def diamond_chain(k: int) -> tuple[TwoTerminalGraph, Protocol]:
    """A chain of ``k`` diamonds v_i -> {a_i, b_i} -> v_{i+1} (4k edges,
    2^k forward s,r-paths) and its forward protocol, whose walks are exactly
    those paths."""
    hubs = [f"v{i}" for i in range(k + 1)]
    sides = [(f"a{i}", f"b{i}") for i in range(k)]
    edges = [(hubs[i], x) for i in range(k) for x in sides[i]]
    edges += [(x, hubs[i + 1]) for i in range(k) for x in sides[i]]
    forward = [(hubs[i], x, hubs[i + 1]) for i in range(k) for x in sides[i]]
    forward += [(x, hubs[i + 1], y) for i in range(k - 1) for x in sides[i] for y in sides[i + 1]]
    graph = TwoTerminalGraph(hubs + [x for pair in sides for x in pair], edges, hubs[0], hubs[-1])
    return graph, Protocol(graph, forward)


def contains_instruction_set(path: tuple[str, ...], protocol: Protocol) -> bool:
    return all(i in protocol.instructions for i in instructions_in(path))


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {status}", flush=True)
