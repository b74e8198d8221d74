import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from relayopt import (
    EdgeProbabilityMap,
    GraphError,
    GuardExceededError,
    Protocol,
    ZeroPolynomialError,
    all_instructions,
    cfp,
    enumerate_sr_paths,
    is_finite,
    rho,
    rho_prime_A,
    spfp_reduce,
    strongly_essential_instructions,
)
from relayopt import constructions
from relayopt.constructions import (
    build_breakpoint_graph,
    build_crossing_pair,
    delta_rho,
    edge,
    expand,
    extend_protocol,
    implied_distribution,
    join_parallel,
    join_series,
    kelmans_compose,
    parallel,
    parse_sptree,
    path_graph,
    profile,
    profile_multiplicities,
    realize,
    series,
    sp_level_injection,
    sptree_json,
)
from relayopt.polys import Poly

from conftest import random_connected_graph, random_sptree

X = Poly.x()


# -- basic joins --------------------------------------------------------------

def test_series_parallel_reliability_identities():
    rng = random.Random(41)
    for _ in range(6):
        t1 = random_sptree(rng, 6)
        t2 = random_sptree(rng, 6)
        r1, r2 = rho(realize(t1)), rho(realize(t2))
        assert rho(realize(series(t1, t2))) == r1 * r2
        try:
            both = parallel(t1, t2)
        except GraphError:
            continue
        assert rho(realize(both)) == r1 + r2 - r1 * r2


def test_graph_level_joins():
    g1 = realize(path_graph(3))
    g2 = realize(path_graph(2))
    assert rho(join_series(g1, g2)) == X ** 3
    assert rho(join_parallel(g1, realize(path_graph(4)))) == X ** 2 + X ** 3 - X ** 5


def test_parallel_multi_edge_rejected():
    with pytest.raises(GraphError):
        parallel(edge(), edge())
    with pytest.raises(GraphError):
        parallel(edge(), parallel(path_graph(3), edge()))
    with pytest.raises(GraphError):
        join_parallel(realize(path_graph(2)), realize(path_graph(2)))


def test_path_graph_rho():
    assert rho(realize(path_graph(6))) == X ** 5
    with pytest.raises(ValueError):
        path_graph(1)


def test_deep_trees_parse_and_realize():
    assert realize(path_graph(3000)).m == 2999
    obj = {"edge": True}
    for _ in range(2999):
        obj = {"op": "series", "left": obj, "right": {"edge": True}}
    tree = parse_sptree(obj)
    assert tree.edge_count == 3000
    assert realize(tree).edges == realize(path_graph(3001)).edges


def test_deep_tree_hashes_compares_and_serialises():
    tree, copy = path_graph(3000), path_graph(3000)
    assert tree is not copy and hash(tree) == hash(copy) and tree == copy
    assert tree != path_graph(2999) and tree != series(edge(), path_graph(2999))
    assert parse_sptree(sptree_json(tree)) == tree
    levels = sp_level_injection(tree)
    (chain,) = enumerate_sr_paths(realize(tree))
    assert len(chain) == 3000
    vals = [levels[v] for v in chain]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_equality_compares_shared_subtrees_once(monkeypatch):
    # about 4 * 10^9 edges when unfolded, in two separately built trees
    monkeypatch.setattr(constructions, "MAX_BUILD_EDGES", 1 << 64)
    first, _ = build_crossing_pair((30,))
    again, _ = build_crossing_pair((30,))
    assert first is not again and first == again
    assert first != build_crossing_pair((29,))[0]


def test_deep_tree_copies_pickles_and_prints():
    tree = path_graph(3000)
    assert repr(tree) == "SPTree('series', edge_count=2999)"
    for again in (copy.deepcopy(tree), copy.copy(tree), pickle.loads(pickle.dumps(tree))):
        assert again is not tree and again == tree and again.edge_count == 2999


def test_copies_keep_shared_subtrees_shared(monkeypatch):
    pair = series(edge(), edge())
    tree = parallel(series(pair, pair), path_graph(3))
    for again in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert again == tree and again.left.left is again.left.right
    # about 4 * 10^9 edges when unfolded: only shared nodes make this small
    monkeypatch.setattr(constructions, "MAX_BUILD_EDGES", 1 << 64)
    big, _ = build_crossing_pair((30,))
    data = pickle.dumps(big)
    assert len(data) < 10_000 and pickle.loads(data) == big


def test_sptree_json_round_trip():
    tree = parallel(series(edge(), parallel(path_graph(3), edge())), path_graph(4))
    again = parse_sptree(json.loads(json.dumps(sptree_json(tree))))
    assert again == tree


# -- level injection ------------------------------------------------------------

def test_level_injection_monotone():
    rng = random.Random(59)
    for _ in range(8):
        tree = random_sptree(rng, 12)
        g = realize(tree)
        levels = sp_level_injection(tree)
        assert len(set(levels.values())) == len(levels)
        assert levels["s"] == 0 and levels["r"] == 1
        for p in enumerate_sr_paths(g):
            vals = [levels[v] for v in p]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            rev = list(reversed(vals))
            assert all(a > b for a, b in zip(rev, rev[1:]))


def test_level_injection_single_edge_and_middle():
    assert sp_level_injection(edge()) == {"s": Fraction(0), "r": Fraction(1)}
    levels = sp_level_injection(path_graph(3))
    assert levels["x1"] == Fraction(1, 2)


# -- expansion --------------------------------------------------------------------

def test_identity_expansion(b0_graph):
    exp = expand(b0_graph, ("s", "1"), edge())
    assert exp.graph == b0_graph


def test_expand_middle_edge_chain():
    p3 = realize(path_graph(3))
    exp = expand(p3, ("s", "x1"), path_graph(3))
    assert exp.graph.m == 3
    assert len(enumerate_sr_paths(exp.graph)) == 1


def test_expand_missing_edge(b0_graph):
    with pytest.raises(GraphError):
        expand(b0_graph, ("s", "4"), edge())


def test_fresh_prefixes_stack(b0_graph):
    first = expand(b0_graph, ("s", "1"), path_graph(3))
    second = expand(first.graph, ("s", "2"), path_graph(3))
    assert any(v.startswith("h1.") for v in second.graph.vertices)
    assert any(v.startswith("h2.") for v in second.graph.vertices)


def test_implied_distribution(b0_graph):
    h = parallel(path_graph(3), path_graph(3))
    exp = expand(b0_graph, ("s", "1"), h)
    pm = EdgeProbabilityMap.constant_p(exp.graph)
    implied = implied_distribution(exp, pm)
    assert implied.poly("s", "1") == 2 * X ** 2 - X ** 4
    assert implied.poly("s", "2") == X
    # reliability transports exactly through the implied distribution
    assert rho(exp.graph) == rho(b0_graph, implied)


def test_implied_distribution_single_edge(b0_graph):
    exp = expand(b0_graph, ("s", "1"), edge())
    pm = EdgeProbabilityMap.constant_p(exp.graph)
    assert implied_distribution(exp, pm).poly("s", "1") == X


def test_cfp_lifts(b0_graph):
    exp = expand(b0_graph, ("s", "1"), parallel(path_graph(3), path_graph(3)))
    assert extend_protocol(exp, cfp(b0_graph)) == cfp(exp.graph)


def test_extension_transports_path_reliability():
    """rho'_A(base, implied) equals rho'_(A+)(expansion, p) for random
    protocols, including ones with junk instructions."""
    rng = random.Random(71)
    for _ in range(5):
        base = random_connected_graph(rng, 3, 7)
        e1 = sorted(base.edges)[rng.randrange(base.m)]
        tree = random_sptree(rng, 5)
        exp = expand(base, e1, tree)
        pm = EdgeProbabilityMap.constant_p(exp.graph)
        implied = implied_distribution(exp, pm)
        assert rho(exp.graph, pm) == rho(base, implied)
        legal = all_instructions(base)
        for _ in range(3):
            proto = Protocol(base, [i for i in legal if rng.random() < 0.5])
            extended = extend_protocol(exp, proto)
            assert rho_prime_A(proto, implied) == rho_prime_A(extended, pm)


def test_extension_preserves_inclusion_and_spfp():
    rng = random.Random(83)
    for _ in range(4):
        base = random_connected_graph(rng, 3, 7)
        e1 = sorted(base.edges)[rng.randrange(base.m)]
        exp = expand(base, e1, random_sptree(rng, 5))
        astar = cfp(base)
        ins = sorted(astar.instructions)
        small = Protocol(base, [i for i in ins if rng.random() < 0.5])
        large = small.union([i for i in ins if rng.random() < 0.5])
        ext_small, ext_large = extend_protocol(exp, small), extend_protocol(exp, large)
        assert ext_small.instructions <= ext_large.instructions
        # finite SPFP transports in both directions
        for proto in (small, large):
            if not is_finite(proto):
                continue
            reduced = spfp_reduce(proto)
            extended = extend_protocol(exp, reduced)
            assert is_finite(extended)
            assert strongly_essential_instructions(extended) == extended.instructions


# -- pair composition ----------------------------------------------------------------

def test_kelmans_identity_random():
    rng = random.Random(97)
    for _ in range(6):
        f1, f2, g1, g2 = (random_sptree(rng, 5) for _ in range(4))
        h1, h2 = kelmans_compose(f1, f2, g1, g2)
        assert delta_rho(h1, h2) == delta_rho(f1, f2) * delta_rho(g1, g2)


def test_kelmans_equal_pair_gives_zero():
    f = path_graph(3)
    h1, h2 = kelmans_compose(f, f, path_graph(2), path_graph(4))
    assert delta_rho(h1, h2).is_zero


def test_kelmans_on_graphs(b0_graph):
    g1, g2 = realize(path_graph(2)), realize(path_graph(3))
    h1, h2 = kelmans_compose(g1, g2, realize(path_graph(4)), realize(path_graph(2)))
    assert delta_rho(h1, h2) == delta_rho(g1, g2) * delta_rho(realize(path_graph(4)), realize(path_graph(2)))


# -- profiles ---------------------------------------------------------------------------

def test_profile_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        profile(Poly.zero())
    assert delta_rho(path_graph(3), path_graph(3)).is_zero


def test_chain_vs_double_route_profiles():
    roots = []
    for k in (2, 3, 4):
        d = delta_rho(path_graph(k), parallel(path_graph(k + 1), path_graph(k + 1)))
        prof = profile(d)
        assert profile_multiplicities(prof) == (1,)
        assert prof[0][0].width <= Fraction(1, 1 << 20)
        roots.append(prof[0][0])
    # the crossing points strictly decrease with the chain length
    assert roots[0].compare(roots[1]) > 0
    assert roots[1].compare(roots[2]) > 0


def test_crossing_pair_profiles():
    for request in ((1,), (2,), (1, 1)):
        h1, h2 = build_crossing_pair(request)
        assert profile_multiplicities(profile(delta_rho(h1, h2))) == request


def test_crossing_pair_squared_root():
    h1, h2 = build_crossing_pair((2,))
    prof = profile(delta_rho(h1, h2))
    golden = profile(Poly((-1, 1, 1)))[0][0]
    assert prof[0][0].compare(golden) == 0


def test_crossing_pair_guards(monkeypatch):
    with pytest.raises(ValueError):
        build_crossing_pair(())
    with pytest.raises(ValueError):
        build_crossing_pair((0,))
    monkeypatch.setattr(constructions, "MAX_BUILD_EDGES", 32)
    with pytest.raises(GuardExceededError):
        build_crossing_pair((1,) * 6)


def test_crossing_pair_guard_is_checked_while_composing():
    """Composing only adds edges, so a pair is refused as soon as one built
    on the way passes the guard.  Checked only at the end, each of these
    composed for minutes."""
    refused = f"crossing pair exceeds {constructions.MAX_BUILD_EDGES} edges"
    for orders in ((3_000_000,), (1,) * 30_000, (1,) * 300_000):
        with pytest.raises(GuardExceededError, match=refused):
            build_crossing_pair(orders)
    with pytest.raises(GuardExceededError, match=refused):
        build_breakpoint_graph((3_000_001,))


# -- breakpoint graphs ---------------------------------------------------------------------

def test_breakpoint_graph_shapes(b0_graph):
    assert build_breakpoint_graph(()).m == b0_graph.m
    g = build_breakpoint_graph((1,))
    assert g.m == 13  # 8 core edges + 1 + 4
    with pytest.raises(ValueError):
        build_breakpoint_graph((2,))
