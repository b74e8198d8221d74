import random
from fractions import Fraction

import pytest

from relayopt import (
    EdgeProbabilityMap,
    GuardExceededError,
    InstructionError,
    Protocol,
    RelayoptError,
    TwoTerminalGraph,
    breakpoint_free_check,
    brute_force_rho_hat,
    candidate_polynomials,
    cfp,
    circuit_instructions,
    discrepancy,
    is_finite,
    min_discrepancy,
    minimal_removal_sets,
    optimal_protocol,
    rho,
    rho_A,
    rho_hat_at,
    rho_hat_piecewise,
    strongly_essential_instructions,
)
from relayopt import optimizer, reliability
from relayopt.cli import _piecewise_json
from relayopt.constructions import build_breakpoint_graph, parallel, path_graph, realize
from relayopt.engine import StateGraph, _bits, _predecessors, essential_instructions
from relayopt.optimizer import _minimal_removal_family, _upper_envelope
from relayopt.polys import Poly
from relayopt.reliability import admits_table
from relayopt.roots import AlgebraicNumber

from conftest import grid, random_connected_graph, random_graph, random_sptree, relabeled

X = Poly.x()
ONEMX = Poly((1, -1))
GRID = [Fraction(k, 10) for k in range(1, 10)]
SAMPLE_POINTS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


# -- discrepancy ------------------------------------------------------------------

def test_d432_constant_p(b0_graph):
    report = discrepancy(b0_graph, [("4", "3", "2")], check_event=True)
    assert report.polynomial == X ** 6 * ONEMX ** 4
    assert report.finite


def test_d531_constant_p(b0_graph):
    report = discrepancy(b0_graph, [("5", "3", "1")], check_event=True)
    assert report.polynomial == X ** 6 * ONEMX ** 4


def test_discrepancy_substituted_edges(b0_graph):
    """Non-constant sender edges factor out of the discrepancy exactly."""
    q1 = X * X
    q2 = 2 * X - X * X
    pm = EdgeProbabilityMap.with_overrides(b0_graph, {("s", "1"): q1, ("s", "2"): q2})
    d432 = discrepancy(b0_graph, [("4", "3", "2")], pm, check_event=True).polynomial
    assert d432 == X ** 5 * q1 * ONEMX ** 3 * (1 - q2)
    d531 = discrepancy(b0_graph, [("5", "3", "1")], pm, check_event=True).polynomial
    assert d531 == X ** 5 * q2 * ONEMX ** 3 * (1 - q1)


def test_discrepancy_empty_and_monotone(b0_graph):
    empty = discrepancy(b0_graph, [])
    assert empty.polynomial.is_zero
    assert not empty.finite  # the full CFP stays infinite
    d_one = discrepancy(b0_graph, [("4", "3", "2")]).polynomial
    d_two = discrepancy(b0_graph, [("4", "3", "2"), ("s", "1", "3")]).polynomial
    for q in GRID:
        assert 0 <= d_one(q) <= d_two(q)


def test_discrepancy_event_identity_more_sets(b0_graph):
    for removal in ([("1", "4", "3")], [("4", "3", "2"), ("5", "3", "1")], [("3", "2", "5")]):
        discrepancy(b0_graph, removal, check_event=True)


def test_discrepancy_event_identity_random_graphs(monkeypatch):
    """The removal event equals the discrepancy for random removal sets,
    whether or not the reduced protocol is finite, and for the empty one.
    No walk table is built for a protocol that contains the CFP: a
    nonempty removal builds one, for what the reduced protocol keeps, which
    the event check reads too, and the empty removal none."""
    tables = []

    def walk_table(sg):
        kept = {sg.instruction_of(i, j) for i, mask in enumerate(sg.succ) for j in _bits(mask)}
        assert not kept >= cfp(sg.graph).instructions
        tables.append(sg)
        return admits_table(sg)

    monkeypatch.setattr(optimizer, "admits_table", walk_table)
    monkeypatch.setattr(reliability, "admits_table", walk_table)
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        graph = random_connected_graph(rng, 5, 11)
        instructions = sorted(cfp(graph).instructions)
        if not instructions:
            continue
        removal = rng.sample(instructions, min(rng.randint(1, 3), len(instructions)))
        tables.clear()
        discrepancy(graph, removal, check_event=True)
        assert len(tables) == 1
        assert discrepancy(graph, [], check_event=True).polynomial == Poly.zero()
        assert len(tables) == 1
        checked += 1


def test_discrepancy_rejects_non_cfp(b0_graph):
    with pytest.raises(InstructionError) as exc:
        discrepancy(b0_graph, [("4", "1", "3")])
    assert exc.value.code == "not-in-cfp"


# -- minimal removal sets ------------------------------------------------------------

def test_b0_circuit_instructions(b0_graph):
    got = {"".join(i) for i in circuit_instructions(b0_graph)}
    assert got == {"143", "432", "325", "253", "531", "314"}


def test_b0_minimal_removals(b0_graph):
    sets = minimal_removal_sets(b0_graph)
    assert [sorted("".join(i) for i in s) for s in sets] == [
        ["143"], ["253"], ["314"], ["325"], ["432"], ["531"],
    ]
    astar = cfp(b0_graph)
    for s in sets:
        assert is_finite(astar.minus(s))


def test_minimal_removals_series_parallel():
    g = realize(parallel(path_graph(3), path_graph(4)))
    assert minimal_removal_sets(g) == [frozenset()]


def test_minimal_removals_finite_cfp():
    g = realize(path_graph(4))
    assert minimal_removal_sets(g) == [frozenset()]


def _check_masked_search(graph):
    assert minimal_removal_sets(graph) == _minimal_removal_family(cfp(graph), circuit_instructions(graph))


def test_masked_removal_search_matches_the_protocol_search(b0_graph):
    """The levelwise search over transition masks finds what the search
    that rebuilds a protocol per removal set finds, in the same order, on
    inputs whose renaming reorders the candidates.  The reference tries
    every combination of candidates, so the random graphs keep to at most
    14 of them (16 take it about 4 s)."""
    rng = random.Random(1997)
    for _ in range(6):
        _check_masked_search(relabeled(b0_graph, rng))
    _check_masked_search(grid(3, 3))
    checked = 0
    while checked < 20:
        graph = relabeled(random_graph(rng, rng.randint(11, 12)), rng)
        if 0 < len(circuit_instructions(graph)) <= 14:
            _check_masked_search(graph)
            checked += 1


# 13 edges, 28 circuit-borne instructions: some removals leave a circuit that
# s reaches but that reaches r only through removed transitions
KNOT_EDGES = [("e", "h"), ("e", "l"), ("e", "w"), ("e", "z"), ("h", "u"), ("h", "z"), ("l", "y"),
              ("o", "u"), ("o", "w"), ("u", "y"), ("u", "z"), ("w", "z"), ("y", "z")]


# every public field, by name: ``arcs`` is listed on first read, so the
# slots alone would leave it unchecked
STATE_GRAPH_FIELDS = ("graph", "states", "edge", "initial", "initial_mask", "accepting", "succ", "pred", "useful",
                      "essential", "arcs", "order")


def _same_state_graph(derived, built):
    assert derived.pred == tuple(_predecessors(derived.succ))
    for field in STATE_GRAPH_FIELDS:
        assert getattr(derived, field) == getattr(built, field), field


def test_masked_finiteness_and_essential_transitions_match_rebuilt_protocols(b0_graph):
    """For random removal masks, not only those the search meets, the
    masked verdict equals ``is_finite`` of the rebuilt protocol, and the
    state graph derived from the CFP's, whose essential transitions the
    prune compares, is the rebuilt protocol's field by field: its
    essential transitions are the rebuilt protocol's essential
    instructions, and it builds the same walk table."""
    rng = random.Random(2718)
    knot = TwoTerminalGraph({v for e in KNOT_EDGES for v in e}, KNOT_EDGES, "h", "l")
    for graph in (relabeled(b0_graph, rng), grid(3, 3), knot):
        space = optimizer._RemovalSpace(graph)
        astar = cfp(graph)
        cfp_sg = space.state_graph
        _same_state_graph(cfp_sg, StateGraph(astar))
        for trial in range(2000):
            mask = rng.getrandbits(len(space.instructions))
            removal = frozenset(ins for k, ins in enumerate(space.instructions) if mask >> k & 1)
            rebuilt = astar.minus(removal)
            assert space.is_finite(mask) == is_finite(rebuilt)
            derived = cfp_sg.without(space.moves[k] for k in _bits(mask))
            built = StateGraph(rebuilt)
            _same_state_graph(derived, built)
            if trial % 10 == 0:
                decoded = {derived.instruction_of(i, j) for i, arcs in enumerate(derived.arcs) for j in arcs}
                assert decoded == essential_instructions(rebuilt)
            if trial % 100 == 0:
                assert admits_table(derived) == admits_table(built)


# -- rho hat ---------------------------------------------------------------------------

def test_b0_rho_hat_closed_form(b0_graph):
    poly, removal = rho_hat_at(b0_graph)
    assert poly == rho(b0_graph) - X ** 6 * ONEMX ** 4
    assert sorted("".join(i) for i in removal) == ["432"]


def test_rho_hat_series_parallel():
    g = realize(parallel(path_graph(3), path_graph(3)))
    poly, removal = rho_hat_at(g)
    assert poly == rho(g)
    assert removal == frozenset()


def test_b0_oracle_agreement(b0_graph):
    for p0 in SAMPLE_POINTS:
        value, _ = rho_hat_at(b0_graph, at=p0)
        assert value == brute_force_rho_hat(b0_graph, p0)


def test_random_small_oracle_agreement():
    rng = random.Random(123)
    for _ in range(6):
        g = random_connected_graph(rng, 3, 8)
        for p0 in (Fraction(1, 2),):
            value, _ = rho_hat_at(g, at=p0)
            assert value == brute_force_rho_hat(g, p0)


def test_min_discrepancy_b0(b0_graph):
    md = min_discrepancy(b0_graph)
    assert md.single() == X ** 6 * ONEMX ** 4


def test_min_discrepancy_series_parallel():
    g = realize(path_graph(5))
    assert min_discrepancy(g).single().is_zero


def test_optimal_protocol_is_finite_spfp(b0_graph):
    proto, removal = optimal_protocol(b0_graph)
    assert is_finite(proto)
    assert strongly_essential_instructions(proto) == proto.instructions
    assert proto.instructions <= cfp(b0_graph).instructions


# -- piecewise envelope ------------------------------------------------------------------

def test_b0_piecewise_single_piece(b0_graph):
    pw = rho_hat_piecewise(b0_graph)
    assert len(pw.pieces) == 1
    assert pw.breakpoints == []
    assert pw.single() == rho(b0_graph) - X ** 6 * ONEMX ** 4


def test_breakpoint_graph_order_one():
    g = build_breakpoint_graph((1,))
    pw = rho_hat_piecewise(g)
    assert len(pw.breakpoints) == 1
    bp = pw.breakpoints[0]
    assert bp.order == 1
    gamma2 = AlgebraicNumber(Poly((-1, 1, 1)), Fraction(0), Fraction(1))
    assert bp.root.compare(gamma2) == 0
    # the pieces really are the envelope: each wins at its interval samples
    left, right = pw.pieces
    assert left.poly(Fraction(1, 2)) > right.poly(Fraction(1, 2))
    assert right.poly(Fraction(7, 10)) > left.poly(Fraction(7, 10))
    # continuity at the breakpoint: the difference vanishes there
    diff = left.poly - right.poly
    assert bp.root.poly == Poly((-1, 1, 1))
    # witnesses flip between the two sender-side removals
    assert sorted("".join(i) for i in left.removed) == ["531"]
    assert sorted("".join(i) for i in right.removed) == ["432"]


def test_piecewise_lookup_helpers():
    g = build_breakpoint_graph((1,))
    pw = rho_hat_piecewise(g)
    assert pw.polynomial_at(Fraction(1, 2)) == pw.pieces[0].poly
    assert pw.polynomial_at(Fraction(9, 10)) == pw.pieces[1].poly
    assert pw.value_at(Fraction(1, 2)) == pw.pieces[0].poly(Fraction(1, 2))
    with pytest.raises(ValueError):
        pw.value_at(Fraction(0))


def test_envelope_dominates_candidates():
    g = build_breakpoint_graph((1,))
    pw = rho_hat_piecewise(g)
    cands = candidate_polynomials(g)
    for q in GRID:
        top = pw.value_at(q)
        assert top == max(poly(q) for _, poly in cands)


def test_rho_hat_at_errors_when_piecewise():
    g = build_breakpoint_graph((1,))
    with pytest.raises(RelayoptError) as exc:
        rho_hat_at(g)
    assert exc.value.code == "piecewise-result"


def test_breakpoint_free_check_cases(b0_graph):
    # no breakpoints at all
    assert breakpoint_free_check(realize(path_graph(4)), 1, 3)
    assert breakpoint_free_check(b0_graph, 0, 1)
    g = build_breakpoint_graph((1,))
    for b in range(1, 5):
        for a in range(0, b + 1):
            assert breakpoint_free_check(g, a, b)
    with pytest.raises(ValueError):
        breakpoint_free_check(b0_graph, 2, 1)


@pytest.mark.parametrize("offset, free", [(Fraction(1, 2), False), (Fraction(1), True), (Fraction(0), True),
                                          (Fraction(-1, 2), False), (Fraction(-1), True)])
def test_breakpoint_free_check_inexact_rational_breakpoint(monkeypatch, offset, free):
    """One breakpoint at the rational center + offset * radius, given as
    the root of a linear polynomial on (0, 1): the bisection points are
    dyadic and the breakpoint is not, so refinement never makes it exact.
    Inside the radius it is a breakpoint near the center; on the radius's
    end or at the center itself it is not."""
    graph = realize(path_graph(3))
    center = Fraction(1, 3)
    radius = Fraction(1, 9 ** graph.m)
    point = center + offset * radius
    root = AlgebraicNumber(Poly((-point, 1)), Fraction(0), Fraction(1))
    assert root.exact is None
    envelope = optimizer.PiecewiseReliability([], [optimizer.Breakpoint(root, 1)])
    monkeypatch.setattr(optimizer, "rho_hat_piecewise", lambda graph, probmap: envelope)
    assert breakpoint_free_check(graph, 1, 3) is free
    assert root.exact is None


# -- dominance pruning ---------------------------------------------------------------

def _all_distinct_candidates(graph, probmap=None):
    """Every maximal finite candidate, collapsed by polynomial only: the
    candidate list before dominance pruning."""
    astar = cfp(graph)
    best = {}
    for removal in minimal_removal_sets(graph):
        poly = rho_A(astar.minus(removal), probmap)
        if poly not in best or sorted(removal) < sorted(best[poly]):
            best[poly] = removal
    return sorted(((rem, poly) for poly, rem in best.items()), key=lambda t: sorted(t[0]))


def _check_pruning_changes_nothing(graph, probmap=None):
    pruned = rho_hat_piecewise(graph, probmap)
    full = _upper_envelope(_all_distinct_candidates(graph, probmap))
    # pieces, witnesses, breakpoint polynomials, orders and printed intervals
    assert _piecewise_json(pruned) == _piecewise_json(full)
    for p0 in SAMPLE_POINTS:
        value, removed = rho_hat_at(graph, probmap, at=p0)
        assert value == brute_force_rho_hat(graph, p0, probmap)
        assert rho_A(cfp(graph).minus(removed), probmap)(p0) == value


def test_pruning_differential_random_graphs():
    rng = random.Random(20170518)
    checked = 0
    while checked < 30:
        g = random_connected_graph(rng, 4, 9)
        if len(cfp(g)) <= 22:  # oracle guard
            _check_pruning_changes_nothing(g)
            checked += 1


def test_pruning_differential_b0_with_inserted_reliabilities(b0_graph):
    rng = random.Random(1705)
    edges = sorted(b0_graph.edges)
    for _ in range(6):
        overrides = {
            e: rho(realize(random_sptree(rng, rng.randint(2, 5))))
            for e in rng.sample(edges, rng.randint(1, 3))
        }
        _check_pruning_changes_nothing(b0_graph, EdgeProbabilityMap.with_overrides(b0_graph, overrides))


def test_pruning_differential_relabeled_inputs(b0_graph, monkeypatch):
    """Renaming the vertices reorders the removal sets, and with them the
    sets whose essential transitions are subsumed by an earlier set's: on
    relabeled b0 those build no table, and every output stays the same."""
    built = []

    def counted(sg):
        built.append(sg)
        return admits_table(sg)

    monkeypatch.setattr(optimizer, "admits_table", counted)  # the binding candidates call
    rng = random.Random(1997)
    # one renaming of b0: the oracle's removal family is cached per CFP
    graph = relabeled(b0_graph, rng)
    edges = sorted(graph.edges)
    overrides = {e: rho(realize(random_sptree(rng, rng.randint(2, 5)))) for e in rng.sample(edges, 3)}
    cases = [(graph, None), (graph, EdgeProbabilityMap.with_overrides(graph, overrides))]
    while len(cases) < 5:
        # graphs with circuits and CFPs small enough for a quick oracle
        g = relabeled(random_graph(rng, rng.randint(8, 10)), rng)
        if circuit_instructions(g) and len(cfp(g)) <= 16:
            cases.append((g, None))
    pruned = []
    for g, probmap in cases:
        built.clear()
        candidate_polynomials(g, probmap)
        assert built  # every case has circuits, so its first set is tabled
        pruned.append(len(built) < len(minimal_removal_sets(g)))
        _check_pruning_changes_nothing(g, probmap)
    assert all(pruned)


def test_b0_candidates_pruned_to_one(b0_graph):
    assert len(_all_distinct_candidates(b0_graph)) == 2
    assert [sorted("".join(i) for i in rem) for rem, _ in candidate_polynomials(b0_graph)] == [["432"]]


def test_candidate_polynomials_respect_removal_guard(b0_graph, monkeypatch):
    # six finiteness tests are needed on b0
    monkeypatch.setattr(optimizer, "MAX_REMOVAL_TESTS", 6)
    candidate_polynomials(b0_graph)
    monkeypatch.setattr(optimizer, "MAX_REMOVAL_TESTS", 5)
    with pytest.raises(GuardExceededError):
        candidate_polynomials(b0_graph)


def test_candidates_and_discrepancies_rebuild_no_protocol_per_removal(b0_graph, monkeypatch):
    """Every removal set's state graph is derived from the CFP's: one
    ``StateGraph`` is built from a protocol per call, the CFP's, and no
    protocol is rebuilt with ``Protocol.minus``.  The walk tables are those
    the protocol per set built: one per tabled candidate (on b0, whichever
    edges are overridden, every set is tabled), one per nonempty removal
    with its event checked (the check reads the table the discrepancy
    built), and none for the empty removal or the one
    candidate of a finite CFP.  The knot's removal search passes its
    guard, so it takes discrepancies only."""
    knot = TwoTerminalGraph({v for e in KNOT_EDGES for v in e}, KNOT_EDGES, "h", "l")
    overrides = EdgeProbabilityMap.with_overrides(b0_graph, {("s", "1"): X * X, ("3", "4"): 2 * X - X * X})
    routes = realize(parallel(path_graph(3), path_graph(4)))
    expected = {(g, pm): candidate_polynomials(g, pm) for g, pm in ((b0_graph, overrides), (routes, None))}
    removals = {g: [(), circuit_instructions(g)[:1], circuit_instructions(g)[-2:], sorted(cfp(g).instructions)[:3]]
                for g in (b0_graph, knot)}
    events = {(g, tuple(r)): discrepancy(g, r, pm, check_event=True)
              for g, pm in ((b0_graph, overrides), (knot, None)) for r in removals[g]}
    built, minus, tables = [], [], []
    real_init, real_minus = StateGraph.__init__, Protocol.minus
    monkeypatch.setattr(StateGraph, "__init__", lambda sg, protocol: built.append(protocol) or real_init(sg, protocol))
    monkeypatch.setattr(Protocol, "minus", lambda protocol, removed: minus.append(protocol) or real_minus(protocol, removed))
    monkeypatch.setattr(optimizer, "admits_table", lambda sg: tables.append(sg) or admits_table(sg))
    for (g, pm), candidates in expected.items():
        built.clear()
        tables.clear()
        assert candidate_polynomials(g, pm) == candidates
        assert built == [cfp(g)]
        assert len(tables) == (6 if g is b0_graph else 0)
    for (g, removal), report in events.items():
        built.clear()
        tables.clear()
        assert discrepancy(g, removal, overrides if g is b0_graph else None, check_event=True) == report
        assert built == [cfp(g)]
        assert len(tables) == (1 if removal else 0)
    assert not minus


def test_candidate_polynomials_build_one_removal_space(b0_graph, monkeypatch):
    built = []

    class Counted(optimizer._RemovalSpace):
        def __init__(self, graph):
            built.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(optimizer, "_RemovalSpace", Counted)
    assert len(candidate_polynomials(b0_graph)) == 1
    assert built == [b0_graph]


# -- envelope breakpoints ----------------------------------------------------------------

GOLDEN = X * X + X - 1  # root (sqrt(5) - 1)/2 in (0,1)


@pytest.mark.parametrize("a, b", [(1, 3), (3, 1), (1, 1), (3, 3)])
def test_envelope_reports_crossing_orders_and_defining_factors(a, b):
    """Two candidates whose difference is
    c * p^2 (p - 1) (p + 2) (p - 1/3)^a (p^2 + p - 1)^b: the envelope
    switches exactly at 1/3 with order a and at the golden root with order
    b, and each breakpoint's polynomial is the square-free factor of the
    difference holding every root of that multiplicity."""
    third = Fraction(1, 3)
    factors = [(X, 2), (X - 1, 1), (X + 2, 1), (X - third, a), (GOLDEN, b)]
    diff = Poly.constant(Fraction(-5, 7))
    for factor, mult in factors:
        diff = diff * factor ** mult

    def defining(order):
        product = Poly.one()
        for factor, mult in factors:
            if mult == order:
                product = product * factor
        return product

    low = X ** 3 * ONEMX
    cands = [(frozenset({"low"}), low), (frozenset({"high"}), low + diff)]
    envelope = _upper_envelope(cands)
    assert [piece.removed for piece in envelope.pieces] == [frozenset({"high"}), frozenset({"low"}),
                                                            frozenset({"high"})]
    first, second = envelope.breakpoints
    assert first.order == a and first.root.poly == defining(a)
    assert first.root.compare_rational(third) == 0
    assert second.order == b and second.root.poly == defining(b)
    golden = AlgebraicNumber(GOLDEN, Fraction(1, 2), Fraction(1))
    assert second.root.compare(golden) == 0
    for bp in envelope.breakpoints:
        lo, hi = bp.root.dyadic_cell(Fraction(1, 1 << 20))
        assert bp.root.poly(lo) * bp.root.poly(hi) < 0
