import hashlib
import importlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from relayopt import (
    GuardExceededError,
    InfiniteProtocolError,
    ProbabilityError,
    Protocol,
    TwoTerminalGraph,
    a_walks,
    bounded_protocol,
    cfp,
    expected_copies,
    is_finite,
    rho_A,
    simulate,
)
from relayopt.constructions import build_breakpoint_graph, parallel, path_graph, realize
from relayopt.graphs import b0, edge_key
from relayopt.polys import Poly
from relayopt.reliability import subset_admits_walk
from relayopt.simulate import SEED_MAX, SEED_MIN

from conftest import diamond_chain, random_connected_graph

X = Poly.x()
HALF = Fraction(1, 2)


def single_edge():
    return TwoTerminalGraph(["s", "r"], [("s", "r")], "s", "r")


def test_reproducibility():
    proto = cfp(single_edge())
    a = simulate(proto, HALF, 5000, seed=42, count_copies=True)
    b = simulate(proto, HALF, 5000, seed=42, count_copies=True)
    assert a == b
    assert a.to_json() == b.to_json()
    c = simulate(proto, HALF, 5000, seed=43)
    assert c.deliveries != a.deliveries or c.estimate == a.estimate


def test_single_edge_estimate():
    proto = cfp(single_edge())
    report = simulate(proto, HALF, 100_000, seed=1)
    assert abs(float(report.estimate) - 0.5) <= 4 * report.stderr
    assert report.trials == 100_000
    assert report.deliveries <= report.trials


def test_extreme_probability():
    proto = cfp(single_edge())
    high = Fraction((1 << 20) - 1, 1 << 20)
    report = simulate(proto, high, 20_000, seed=5)
    assert report.deliveries >= 19_990


def test_estimates_match_exact(b0_graph, b0_cfp):
    proto = b0_cfp.minus([("4", "3", "2"), ("5", "3", "1")])
    exact = rho_A(proto)(HALF)
    report = simulate(proto, HALF, 120_000, seed=11)
    assert abs(float(report.estimate) - float(exact)) <= 4 * report.stderr


def test_copies_single_edge():
    proto = cfp(single_edge())
    assert expected_copies(proto) == X
    report = simulate(proto, HALF, 2000, seed=3, count_copies=True)
    assert set(report.copies) <= {0, 1}
    assert report.copies[1] == report.deliveries


def test_copies_two_disjoint_routes():
    g = realize(parallel(path_graph(4), path_graph(4)))
    proto = cfp(g)
    assert expected_copies(proto) == 2 * X ** 3


def test_copies_match_simulation(b0_graph, b0_cfp):
    proto = b0_cfp.minus([("4", "3", "2")])
    exact = expected_copies(proto)(HALF)
    report = simulate(proto, HALF, 120_000, seed=29, count_copies=True)
    mean = sum(k * n for k, n in report.copies.items()) / report.trials
    second = sum(k * k * n for k, n in report.copies.items()) / report.trials
    stderr = ((second - mean * mean) / report.trials) ** 0.5
    assert abs(mean - float(exact)) <= 4 * stderr


def test_copies_rejects_infinite(b0_cfp):
    with pytest.raises(InfiniteProtocolError):
        simulate(b0_cfp, HALF, 10, seed=0, count_copies=True)


def test_infinite_protocol_delivery_estimate_ok(b0_cfp):
    # delivery sampling works for infinite protocols; only copies need finiteness
    report = simulate(b0_cfp, HALF, 20_000, seed=17)
    exact = rho_A(b0_cfp)(HALF)
    assert abs(float(report.estimate) - float(exact)) <= 4 * report.stderr


def test_bad_probability():
    proto = cfp(single_edge())
    with pytest.raises(ProbabilityError):
        simulate(proto, Fraction(1), 10, seed=0)


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_rejected(trials):
    with pytest.raises(ValueError):
        simulate(cfp(single_edge()), HALF, trials, seed=0)


@pytest.mark.parametrize("seed", [1 << 63, -(1 << 63) - 1, 1 << 70])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ValueError):
        simulate(cfp(single_edge()), HALF, 10, seed=seed)


@pytest.mark.parametrize("seed", [(1 << 63) - 1, -(1 << 63)])
def test_seed_at_64_bit_bounds_accepted(seed):
    assert simulate(cfp(single_edge()), HALF, 10, seed=seed).trials == 10


# The m=17 graph of the benchmark's simulate corpus: two digests per trial.
M17_GRAPH = TwoTerminalGraph(
    ["s", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "r"],
    [("r", "v3"), ("r", "v4"), ("r", "v5"), ("r", "v6"), ("s", "v2"), ("s", "v3"),
     ("s", "v6"), ("s", "v8"), ("v1", "v2"), ("v1", "v6"), ("v2", "v6"), ("v3", "v6"),
     ("v3", "v7"), ("v3", "v8"), ("v4", "v6"), ("v4", "v7"), ("v7", "v8")],
    "s", "r",
)


def test_golden_reports():
    # Reports of the per-trial sampler these reproduce, one digest per
    # (trial, 16-edge block); they pin the sampling stream.
    report = simulate(cfp(b0()), Fraction(1, 3), 4099, seed=-7)
    assert report.deliveries == 453
    report = simulate(bounded_protocol(b0(), 4), Fraction(5, 8), 3001, seed=11, count_copies=True)
    assert report.copies == {0: 1329, 1: 749, 2: 496, 3: 286, 4: 69, 5: 39, 6: 33}
    assert report.deliveries == 1672
    assert M17_GRAPH.m == 17
    assert simulate(cfp(M17_GRAPH), Fraction(2, 5), 2500, seed=2026).deliveries == 1200


@pytest.mark.parametrize("orders, p0, deliveries", [
    ((1, 1), Fraction(1, 3), 190), ((1, 1), Fraction(2, 3), 6053),
    ((3,), Fraction(1, 3), 268), ((3,), Fraction(2, 3), 7217),
])
def test_golden_reports_of_breakpoint_graphs(orders, p0, deliveries):
    # Three and four digests per trial (m = 34 and 58), past the subset
    # scan: reports of the sampler that drew every block for every trial.
    graph = build_breakpoint_graph(orders)
    assert graph.m == {(1, 1): 34, (3,): 58}[orders]
    assert simulate(cfp(graph), p0, 10_000, seed=5).deliveries == deliveries


def reference_masks(m, p0, trials, seed):
    """Surviving-edge bitmask of each trial, one trial at a time."""
    threshold = (p0.numerator << 32) // p0.denominator
    key = seed.to_bytes(8, "big", signed=True)
    for t in range(trials):
        digest = b"".join(
            hashlib.blake2b(t.to_bytes(8, "big") + blk.to_bytes(2, "big"), key=key, digest_size=64).digest()
            for blk in range((m + 15) // 16)
        )
        yield sum(1 << j for j in range(m) if int.from_bytes(digest[4 * j:4 * j + 4], "big") < threshold)


def check_against_oracle(proto, p0, trials, seed):
    graph = proto.graph
    edges = graph.edge_list()
    masks = list(reference_masks(graph.m, p0, trials, seed))
    admitted = [subset_admits_walk(proto, [e for j, e in enumerate(edges) if mask >> j & 1]) for mask in masks]
    assert simulate(proto, p0, trials, seed).deliveries == sum(admitted)
    finite = is_finite(proto)
    if finite:
        report = simulate(proto, p0, trials, seed, count_copies=True)
        assert report.deliveries == sum(admitted)
        bits = {e: 1 << j for j, e in enumerate(edges)}
        walk_masks = [sum({bits[edge_key(w[i], w[i + 1])] for i in range(len(w) - 1)}) for w in a_walks(proto)]
        expected = Counter(sum(1 for w in walk_masks if w & mask == w) for mask in masks)
        assert report.copies == dict(expected)
    return finite


def test_differential_against_per_trial_oracle():
    rng = random.Random(4)
    finite = []
    for _ in range(24):
        graph = random_connected_graph(rng, 5, 11)
        p0 = Fraction(rng.randint(1, 9), 10)
        finite.append(check_against_oracle(cfp(graph), p0, rng.choice([1, 300, 513, 1100]), rng.randint(-50, 50)))
    assert 0 < finite.count(False) < len(finite)
    assert not check_against_oracle(cfp(M17_GRAPH), Fraction(3, 7), 1100, seed=5)
    assert check_against_oracle(bounded_protocol(M17_GRAPH, 3), Fraction(4, 5), 700, seed=-3)


def sparse_connected_graph(rng, m):
    """Random graph with m edges on about 2m/3 vertices, s and r connected
    but not adjacent: few enough s,r-paths for the CFP to stay small."""
    verts = ["s", "r"] + [f"v{i}" for i in range(2 * m // 3 - 2)]
    pairs = [frozenset((a, b)) for i, a in enumerate(verts) for b in verts[i + 1:]]
    pairs.remove(frozenset("sr"))
    while True:
        order = rng.sample(verts, len(verts))
        edges = {frozenset((v, rng.choice(order[:i]))) for i, v in enumerate(order) if i} - {frozenset("sr")}
        edges.update(rng.sample([e for e in pairs if e not in edges], m - len(edges)))
        graph = TwoTerminalGraph(verts, [tuple(e) for e in edges], "s", "r")
        if "r" in graph.distances_from("s"):
            return graph


def test_differential_against_per_trial_oracle_on_later_blocks():
    """Graphs of 17..40 edges, whose later blocks are drawn only for the
    trials the earlier ones leave undecided, against the oracle that draws
    every block of every trial: the CFP, a finite protocol, and the CFP
    without the instructions into r, which admits no walk."""
    rng = random.Random(17)
    graphs = [sparse_connected_graph(rng, m) for m in (17, 23, 32, 40)]
    draws = list(itertools.product([Fraction(1, 100), Fraction(1, 2), Fraction(99, 100)], [SEED_MIN, SEED_MAX]))
    for kind in ("cfp", "bounded", "no walk"):
        # each graph meets every trial count and every (p, seed) pair
        for (t, trials), (j, (p0, seed)) in itertools.product(enumerate([1, 511, 512, 513]), enumerate(draws)):
            graph = graphs[(t + j) % len(graphs)]
            proto = cfp(graph)
            if kind == "bounded":
                proto = bounded_protocol(graph, graph.distances_from("s")["r"] + 1)
            elif kind == "no walk":
                proto = proto.minus(x for x in proto.instructions if x[2] == graph.r)
            check_against_oracle(proto, p0, trials, seed)


def record_draws(monkeypatch):
    """Trials passed to the drawer per block, and the columns passed to
    each sweep."""
    module = importlib.import_module("relayopt.simulate")
    drawn, sweeps = Counter(), []
    draw, delivered = module._survival_digits, module.StateGraph.delivered

    def counted_draw(base, m, threshold, trials, blk):
        drawn[blk] += len(trials)
        return draw(base, m, threshold, trials, blk)

    def counted_sweep(self, columns):
        sweeps.append(len(columns))
        return delivered(self, columns)

    monkeypatch.setattr(module, "_survival_digits", counted_draw)
    monkeypatch.setattr(module.StateGraph, "delivered", counted_sweep)
    return drawn, sweeps


def test_later_blocks_drawn_only_for_undecided_trials(monkeypatch):
    drawn, sweeps = record_draws(monkeypatch)
    assert simulate(cfp(M17_GRAPH), Fraction(2, 5), 2500, seed=2026).deliveries == 1200
    assert drawn[0] == 2500 and 0 < drawn[1] < 2500 and set(drawn) == {0, 1}
    # one bounding sweep and one final sweep per column block of 512, each
    # over a column for every edge
    assert sweeps == [17] * 2 * 5
    drawn.clear()
    simulate(bounded_protocol(M17_GRAPH, 3), Fraction(2, 5), 2500, seed=2026, count_copies=True)
    assert drawn == {0: 2500, 1: 2500}  # copy counts need every edge


def test_one_block_graph_runs_no_bounding_sweep(monkeypatch):
    drawn, sweeps = record_draws(monkeypatch)
    assert simulate(cfp(b0()), Fraction(1, 3), 4099, seed=-7).deliveries == 453
    assert drawn == {0: 4099}
    assert sweeps == [10] * 9  # one per column block of 512


def test_copy_cap_admits_exactly_the_cap(monkeypatch):
    # The golden copies report's largest count is 6.
    module = importlib.import_module("relayopt.simulate")
    proto = bounded_protocol(b0(), 4)
    monkeypatch.setattr(module, "COPY_CAP", 6)
    report = simulate(proto, Fraction(5, 8), 3001, seed=11, count_copies=True)
    assert max(report.copies) == 6
    monkeypatch.setattr(module, "COPY_CAP", 5)
    with pytest.raises(GuardExceededError):
        simulate(proto, Fraction(5, 8), 3001, seed=11, count_copies=True)


def test_copies_without_any_walk():
    # s and r of b0 are not adjacent, so the empty protocol has no walk.
    proto = Protocol(b0(), ())
    for trials in (1, 513):
        assert check_against_oracle(proto, Fraction(1, 2), trials, seed=8)
        assert simulate(proto, Fraction(1, 2), trials, seed=8, count_copies=True).copies == {0: trials}


@pytest.mark.parametrize("trials", [1, 511, 512, 513])
def test_copies_at_block_edges(trials):
    assert check_against_oracle(bounded_protocol(b0(), 4), Fraction(5, 8), trials, seed=trials)


def test_bit_plane_sum():
    """``_add`` against integer addition, trial by trial, on planes with
    zero low planes and unequal lengths."""
    add = importlib.import_module("relayopt.simulate")._add
    rng = random.Random(6)

    def planes(counts):
        return [sum((c >> k & 1) << t for t, c in enumerate(counts)) for k in range(max(counts).bit_length())]

    for _ in range(300):
        a = [rng.choice([0, 1, 2, 4, 7, rng.randrange(1 << rng.randint(1, 12))]) for _ in range(40)]
        b = [rng.choice([0, 2, 8, 16, rng.randrange(1 << rng.randint(1, 12))]) for _ in range(40)]
        assert add(planes(a), planes(b)) == planes([x + y for x, y in zip(a, b)])


def test_copies_on_a_diamond_chain():
    """Each trial's count is the product, over the diamonds, of the number
    of the diamond's two branches whose both edges survive."""
    graph, proto = diamond_chain(12)
    position = {e: j for j, e in enumerate(graph.edge_list())}
    branches = [[(position[edge_key(f"v{i}", x)], position[edge_key(x, f"v{i + 1}")]) for x in (f"a{i}", f"b{i}")]
                for i in range(12)]
    p0, trials = Fraction(9, 10), 1100
    expected = Counter(
        math.prod(sum(mask >> j & mask >> k & 1 for j, k in pair) for pair in branches)
        for mask in reference_masks(graph.m, p0, trials, seed=12)
    )
    report = simulate(proto, p0, trials, seed=12, count_copies=True)
    assert report.copies == dict(expected)
    assert max(report.copies) > 1000  # the counts take many bit planes
