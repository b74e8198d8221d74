import copy
import json
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from relayopt import (
    EdgeProbabilityMap,
    GraphError,
    InstructionError,
    ProbabilityError,
    Protocol,
    TwoTerminalGraph,
    UnknownVertexError,
    all_instructions,
    cfp,
    graph_json,
    parse_graph,
    parse_protocol,
    protocol_json,
    validate_graph,
)
from relayopt.graphs import _bernstein_in_unit, b0, edge_key
from relayopt.polys import Poly

X = Poly.x()


def test_b0_fixture(b0_graph):
    assert len(b0_graph.vertices) == 7
    assert b0_graph.m == 10
    assert set(b0_graph.neighbors("3")) == {"1", "2", "4", "5"}
    assert set(b0_graph.neighbors("s")) == {"1", "2"}


def test_single_edge_graph():
    g = TwoTerminalGraph(["s", "r"], [("s", "r")], "s", "r")
    assert g.m == 1
    assert g.neighbors("s") == ("r",)


@pytest.mark.parametrize(
    "vertices,edges,s,r,code",
    [
        (["s", "r"], [("s", "s")], "s", "r", "loop"),
        (["s", "r"], [("s", "r"), ("r", "s")], "s", "r", "duplicate-edge"),
        (["s", "r"], [("s", "x")], "s", "r", "dangling-endpoint"),
        (["s", "r"], [], "s", "q", "missing-terminal"),
        (["s", "r"], [], "q", "r", "missing-terminal"),
        (["s", "r"], [], "s", "s", "equal-terminals"),
    ],
)
def test_validation_error_codes(vertices, edges, s, r, code):
    with pytest.raises(GraphError) as exc:
        TwoTerminalGraph(vertices, edges, s, r)
    assert exc.value.code == code


def test_neighbors_symmetry(b0_graph):
    for v in b0_graph.vertices:
        for w in b0_graph.neighbors(v):
            assert v in b0_graph.neighbors(w)
    with pytest.raises(UnknownVertexError):
        b0_graph.neighbors("zz")


def test_json_round_trip(b0_graph):
    pm = EdgeProbabilityMap.with_overrides(
        b0_graph,
        {("s", "1"): Poly.constant(Fraction(1, 2)), ("s", "2"): X * X},
    )
    obj = graph_json(b0_graph, pm)
    text = json.dumps(obj)
    graph2, pm2 = parse_graph(json.loads(text))
    assert graph2 == b0_graph
    assert pm2 == pm
    obj2 = graph_json(graph2, pm2)
    graph3, pm3 = parse_graph(obj2)
    assert graph3 == graph2 and pm3 == pm2


def test_validate_graph_accepts_and_rejects():
    good = {"vertices": ["s", "r"], "edges": [["s", "r"]], "s": "s", "r": "r"}
    assert validate_graph(good).m == 1
    bad = {"vertices": ["s", "r"], "edges": [["s", "s"]], "s": "s", "r": "r"}
    with pytest.raises(GraphError) as exc:
        validate_graph(bad)
    assert exc.value.code == "loop"


def test_probability_range_check(b0_graph):
    with pytest.raises(ProbabilityError):
        EdgeProbabilityMap.with_overrides(b0_graph, {("s", "1"): 2 * X})
    with pytest.raises(ProbabilityError):
        EdgeProbabilityMap.with_overrides(b0_graph, {("s", "1"): Poly.constant(1)})
    # p^2 and 2p - p^2 both map (0,1) into (0,1)
    EdgeProbabilityMap.with_overrides(b0_graph, {("s", "1"): X * X, ("s", "2"): 2 * X - X * X})
    # p^2000: its Bernstein bounds are one Taylor shift of the numerator,
    # not O(n^2) binomials of some 600 digits each
    EdgeProbabilityMap.with_overrides(b0_graph, {("3", "4"): X ** 2000})


def test_probability_range_check_is_exact(b0_graph):
    # in (0,1) at every k/8, yet about -503 at p = 1/16
    spike = Poly.constant(Fraction(1, 2))
    bump = Poly.one()
    for k in range(1, 8):
        bump = bump * (X - Fraction(k, 8))
    with pytest.raises(ProbabilityError):
        EdgeProbabilityMap.with_overrides(b0_graph, {("s", "1"): spike + 10 ** 6 * bump})
    # 4p(1-p) touches 1 at p = 1/2
    with pytest.raises(ProbabilityError):
        EdgeProbabilityMap.with_overrides(b0_graph, {("s", "1"): 4 * X * (1 - X)})
    # Bernstein coefficients 1/8, 25/24, -1/24, 7/8 leave [0,1], but the
    # values stay inside (0,1): accepted by the root-isolation fallback
    wiggle = Fraction(1, 2) + 4 * (X - Fraction(1, 4)) * (X - Fraction(1, 2)) * (X - Fraction(3, 4))
    EdgeProbabilityMap.with_overrides(b0_graph, {("s", "1"): wiggle})


def _from_bernstein(coeffs):
    """sum_k b_k C(n,k) p^k (1-p)^(n-k) for the given b_0..b_n."""
    n = len(coeffs) - 1
    return sum((b * math.comb(n, k) * X ** k * (1 - X) ** (n - k) for k, b in enumerate(coeffs)), Poly.zero())


def _bernstein_reference(poly):
    """Bernstein coefficients by the Fraction formula
    b_k = sum_{j<=k} C(k,j) / C(n,j) * a_j, n the degree."""
    n = poly.degree
    return [sum(math.comb(k, j) * poly.coefficient(j) / math.comb(n, j) for j in range(k + 1)) for k in range(n + 1)]


def test_integer_bernstein_criterion_matches_fraction_formula():
    tiny = Fraction(1, 10 ** 30)
    exact = [  # coefficients exactly 0 or 1, and just past them
        (X, True), (X * X, True), (2 * X - X * X, True), (X ** 12, True), (1 - (1 - X) ** 12, True),
        (_from_bernstein([0, 1, 0, 1]), True), (_from_bernstein([0, 1 + tiny, 1]), False),
        (_from_bernstein([-tiny, 1, 1]), False), (_from_bernstein([0, Fraction(1, 2), -tiny, 1]), False),
    ]
    for poly, expected in exact:
        assert all(0 <= b <= 1 for b in _bernstein_reference(poly)) == expected
        assert _bernstein_in_unit(poly) == expected
    rng = random.Random(1309)
    pool = [Fraction(0), Fraction(1), Fraction(1, 3), -Fraction(1, 97), Fraction(98, 97)]
    seen = Counter()
    for _ in range(600):
        n = rng.randint(1, 12)
        if rng.random() < 0.3:
            poly = Poly([Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n + 1)])
        else:
            poly = _from_bernstein([rng.choice(pool) if rng.random() < 0.5 else Fraction(rng.randint(0, 12), 12)
                                    for _ in range(n + 1)])
        if poly.degree < 1:
            continue
        reference = _bernstein_reference(poly)
        expected = all(0 <= b <= 1 for b in reference)
        assert _bernstein_in_unit(poly) == expected, poly
        seen[expected, 0 in reference or 1 in reference] += 1
    assert all(seen[key] >= 20 for key in ((True, True), (True, False), (False, True), (False, False))), seen


def test_bernstein_bounds_through_parse_graph():
    key = "-".join(edge_key("s", "1"))
    # Bernstein coefficients 0, 1, 0, 1: in [0,1], so accepted without root isolation
    inside = _from_bernstein([0, 1, 0, 1])
    obj = dict(graph_json(b0()), prob={"overrides": {key: inside.to_strings()}})
    _, probmap = parse_graph(obj)
    assert probmap.poly("s", "1") == inside
    # 0, 1, 11/10, 1: the value at p = 4/5 is 644/625
    outside = _from_bernstein([0, 1, Fraction(11, 10), 1])
    assert outside(Fraction(4, 5)) == Fraction(644, 625)
    obj = dict(graph_json(b0()), prob={"overrides": {key: outside.to_strings()}})
    with pytest.raises(ProbabilityError, match="reaches 1"):
        parse_graph(obj)


def test_probability_range_accepts_inserted_reliabilities(b0_graph):
    import random

    from relayopt import build_crossing_pair, realize, rho

    from conftest import random_sptree

    rng = random.Random(2024)
    trees = [random_sptree(rng, rng.randint(1, 9)) for _ in range(40)]
    for request in ((1,), (1, 1), (2,)):
        trees.extend(build_crossing_pair(request))
    for tree in trees:
        EdgeProbabilityMap.with_overrides(b0_graph, {("3", "4"): rho(realize(tree))})


def test_instruction_validation(b0_graph):
    Protocol(b0_graph, [("s", "1", "3")])
    with pytest.raises(InstructionError, match="endpoints equal"):
        Protocol(b0_graph, [("1", "3", "1")])
    with pytest.raises(InstructionError, match="not an edge"):
        Protocol(b0_graph, [("s", "1", "2")])
    with pytest.raises(InstructionError, match="not an edge"):
        Protocol(b0_graph, [("s", "3", "4")])


def test_all_instructions_are_valid(b0_graph):
    ins = all_instructions(b0_graph)
    Protocol(b0_graph, ins)
    assert ("s", "1", "3") in {tuple(i) for i in ins}
    assert len(ins) == len(set(ins))


def test_protocol_json_round_trip(b0_graph):
    proto = Protocol(b0_graph, [("s", "1", "3"), ("1", "3", "5")])
    again = parse_protocol(protocol_json(proto), b0_graph)
    assert again == proto


def test_protocol_set_semantics(b0_graph):
    proto = Protocol(b0_graph, [("s", "1", "3"), ("s", "1", "3")])
    assert len(proto) == 1
    bigger = proto.union([("1", "3", "5")])
    assert len(bigger) == 2
    assert bigger.minus([("s", "1", "3")]) == Protocol(b0_graph, [("1", "3", "5")])


VALUES = {
    "graph": b0(),
    "protocol": cfp(b0()),
    "probabilities": EdgeProbabilityMap.with_overrides(b0(), {("s", "1"): Poly.constant(Fraction(1, 3))}),
    "poly": Poly((0, Fraction(-1, 2), 3)),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_values_copy_and_pickle(value, how):
    again = how(value)
    assert type(again) is type(value) and again == value and hash(again) == hash(value)
    with pytest.raises(AttributeError):
        again.extra = None  # still immutable
