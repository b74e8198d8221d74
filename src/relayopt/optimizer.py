"""Optimal finite protocols, discrepancies and the piecewise upper envelope.

The optimum over finite protocols is always attained on a maximal finite
subset of the CFP, so the candidate space is the complements of minimal
removal sets.  Candidate removals are drawn from the instructions lying on
at least one essential circuit: for any finite protocol F, removing the
circuit-borne instructions that are not essential for F leaves a finite
protocol at least as reliable as F, so restricting to circuit-borne
removals never loses the optimum.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .engine import StateGraph, _bits, cfp, enumerate_sr_paths, instructions_in, is_finite, spfp_reduce
from .errors import GuardExceededError, InstructionError, RelayoptError
from .graphs import (
    EdgeProbabilityMap,
    Instruction,
    Protocol,
    TwoTerminalGraph,
    require_open_unit,
)
from .polys import Poly
from .reliability import (
    _superset_table,
    admits_table,
    check_scan_guard,
    connectivity_counts,
    edge_masks,
    polynomial_from_counts,
    polynomial_from_table,
    rho,
    rho_A,
    subset_counts,
)
from .roots import AlgebraicNumber, rational_between, roots_with_multiplicity

RemovalSet = frozenset[Instruction]

MAX_REMOVAL_TESTS = 1 << 20
BRUTE_FORCE_CFP_LIMIT = 22


def _removal_sort_key(removal: RemovalSet) -> tuple:
    return tuple(sorted(removal))


# ---------------------------------------------------------------------------
# Discrepancy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscrepancyReport:
    removed: RemovalSet
    polynomial: Poly
    finite: bool


def _removal_event_polynomial(
    graph: TwoTerminalGraph,
    removed: RemovalSet,
    kept_table: int | None,
    probmap: EdgeProbabilityMap | None,
) -> Poly:
    """Probability that some s,r-path using a removed instruction survives
    while the reduced protocol admits no surviving walk (``kept_table`` is
    its walk table).  Every other surviving path is a walk of the reduced
    protocol, so this is exactly the reliability the removal loses.  Every
    CFP instruction lies on an s,r-path, so only the empty removal has
    none, and its ``kept_table`` (None) is not read."""
    used = edge_masks(graph, (p for p in enumerate_sr_paths(graph)
                              if any(i in removed for i in instructions_in(p))))
    if not used:
        return Poly.zero()
    used_table = _superset_table(graph.m, used)
    return polynomial_from_table(graph, probmap, used_table & ~kept_table)


def discrepancy(
    graph: TwoTerminalGraph,
    removed: Iterable[tuple[str, str, str]],
    probmap: EdgeProbabilityMap | None = None,
    check_event: bool = False,
) -> DiscrepancyReport:
    """Reliability lost by deleting the given instructions from the CFP.
    The reduced protocol's state graph is the CFP's without the removed
    transitions; no protocol is rebuilt.  The CFP's reliability is the
    connectivity counts', and so is what an empty removal keeps."""
    check_scan_guard(graph.m)
    astar = cfp(graph)
    removal = frozenset(Instruction(*i) for i in removed)
    bad = removal - astar.instructions
    if bad:
        worst = "".join(sorted(bad)[0])
        raise InstructionError(f"{worst} is not a CFP instruction", code="not-in-cfp")
    base = rho(graph, probmap)
    sg = StateGraph(astar)
    index = {st: i for i, st in enumerate(sg.states)}
    reduced = sg.without((index[(u, v)], index[(v, w)]) for u, v, w in removal)
    if removal:
        kept_table = admits_table(reduced)
        d = base - polynomial_from_table(graph, probmap, kept_table)
    else:  # the CFP keeps all of ``base``, and has no walk table
        kept_table, d = None, Poly.zero()
    if check_event:
        event = _removal_event_polynomial(graph, removal, kept_table, probmap)
        if event != d:
            raise AssertionError(
                f"event probability {event!r} differs from discrepancy {d!r}"
            )
    return DiscrepancyReport(removal, d, reduced.order is not None)


# ---------------------------------------------------------------------------
# Minimal removal sets
# ---------------------------------------------------------------------------

class _RemovalSpace:
    """The CFP's state graph ``state_graph``, built once, with its
    circuit-borne transitions ``moves`` numbered in the order of their
    ``instructions``: bit k of a removal mask removes the k-th.  A set's
    state graph is derived from ``state_graph`` with no protocol rebuilt,
    and its ``order`` is the finiteness test, the same one ``is_finite``
    runs; the same derived graph gives the set's walk table."""

    __slots__ = ("state_graph", "moves", "instructions")

    def __init__(self, graph: TwoTerminalGraph):
        self.state_graph = sg = StateGraph(cfp(graph))
        by_instruction = sorted((sg.instruction_of(i, j), i, j) for i, j in sg.circuit_transitions())
        self.moves = [(i, j) for _, i, j in by_instruction]
        self.instructions = [ins for ins, _, _ in by_instruction]

    def is_finite(self, removed: int) -> bool:
        """Whether the CFP without the removed transitions is finite."""
        return self.reduced(removed).order is not None

    def reduced(self, removed: int) -> StateGraph:
        """The state graph of the CFP without the removed transitions."""
        return self.state_graph.without(self.moves[k] for k in _bits(removed))

    def removal(self, removed: int) -> RemovalSet:
        """The instructions of a removal mask."""
        return frozenset(self.instructions[k] for k in _bits(removed))

    def minimal_removals(self) -> list[int]:
        """All inclusion-minimal removal masks leaving the CFP finite, in
        the order of their sorted instruction sets, by a levelwise search
        (Mannila & Toivonen 1997): a k-set is tested only when each of its
        (k-1)-subsets was tested and left the CFP infinite.  Those are
        exactly the k-sets containing no set found before, so the tests are
        those of trying every combination in turn and skipping the ones
        that contain a found set.  Each test derives the set's state graph
        from the CFP's.  Refused past ``MAX_REMOVAL_TESTS`` tests."""
        if self.is_finite(0):
            return [0]
        found: list[int] = []
        tests = 0
        level = [1 << k for k in range(len(self.moves))]
        while level:
            still_open: list[int] = []
            for removed in level:
                tests += 1
                if tests > MAX_REMOVAL_TESTS:
                    raise GuardExceededError(f"removal search exceeded {MAX_REMOVAL_TESTS} finiteness tests")
                if self.is_finite(removed):
                    found.append(removed)
                else:
                    still_open.append(removed)
            level = _next_level(still_open)
        # the instructions are numbered in sorted order, so the sorted bit
        # positions order the masks as their sorted instructions would
        return sorted(found, key=_bits)


def _next_level(level: list[int]) -> list[int]:
    """The (k+1)-sets all of whose k-subsets are in ``level``, from the
    k-sets of ``level`` in lexicographic order, and in that order
    themselves: each joins two sets of ``level`` that differ only in their
    greatest element (Apriori's join), then looks up its other k-subsets."""
    members = set(level)
    out = []
    for prefix, group in itertools.groupby(level, key=lambda mask: mask ^ 1 << mask.bit_length() - 1):
        group = list(group)
        drops = [1 << k for k in _bits(prefix)]
        for a, low in enumerate(group):
            for high in group[a + 1:]:
                joined = low | high
                if all(joined ^ bit in members for bit in drops):
                    out.append(joined)
    return out


def circuit_instructions(graph: TwoTerminalGraph) -> list[Instruction]:
    """CFP instructions lying on at least one essential circuit: the
    essential transitions whose end reaches back to their start."""
    return _RemovalSpace(graph).instructions


def _minimal_removal_family(astar: Protocol, candidates: Sequence[Instruction]) -> list[RemovalSet]:
    """All inclusion-minimal subsets of the candidates whose removal leaves
    the CFP finite, by increasing-size search with finiteness re-checked
    after every removal (essentiality shifts as instructions disappear);
    refused past ``MAX_REMOVAL_TESTS`` finiteness tests.  It rebuilds a
    protocol per test and shares no code with the masked search, so it is
    the reference of ``brute_force_rho_hat`` and of the tests."""
    if is_finite(astar):
        return [frozenset()]
    # A combination is the int mask of its candidate positions, so the
    # containment test against the sets found so far is one AND each.
    bits = [1 << i for i in range(len(candidates))]
    found: list[int] = []
    tests = 0
    for size in range(1, len(candidates) + 1):
        saw_open = False
        for mask in map(sum, itertools.combinations(bits, size)):
            for f in found:
                if f & mask == f:
                    break
            else:
                saw_open = True
                tests += 1
                if tests > MAX_REMOVAL_TESTS:
                    raise GuardExceededError(f"removal search exceeded {MAX_REMOVAL_TESTS} finiteness tests")
                if is_finite(astar.minus(c for c, bit in zip(candidates, bits) if mask & bit)):
                    found.append(mask)
        if not saw_open:
            break
    return sorted(
        (frozenset(c for c, bit in zip(candidates, bits) if mask & bit) for mask in found),
        key=_removal_sort_key,
    )


def minimal_removal_sets(graph: TwoTerminalGraph) -> list[RemovalSet]:
    """Minimal circuit-borne removal sets making the CFP finite, sorted.
    Removing every circuit-borne instruction always succeeds, so the family
    is nonempty; for a finite CFP it is the single empty set.  Each set is
    tested by ``StateGraph.order`` on the CFP's state graph without its
    transitions, the test ``is_finite`` runs on a built protocol."""
    space = _RemovalSpace(graph)
    return [space.removal(removed) for removed in space.minimal_removals()]


# ---------------------------------------------------------------------------
# Optimal reliability
# ---------------------------------------------------------------------------

def candidate_polynomials(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None = None,
) -> list[tuple[RemovalSet, Poly]]:
    """Reliability polynomial of every undominated maximal-finite-candidate
    protocol, with identical polynomials collapsed to the lexicographically
    least removal witness.

    Candidates are compared by their coordinates in the subset-count basis
    (see ``subset_counts``).  Every edge probability maps (0,1) into (0,1),
    so every basis term is positive on (0,1): a candidate whose counts are
    coordinatewise at most another's is strictly below it everywhere in
    (0,1), can neither win the pointwise maximum nor lie on the upper
    envelope, and is dropped before any polynomial is assembled.

    Each removal set's state graph is the CFP's without its transitions;
    no protocol is rebuilt.  A set whose essential transitions all are
    essential for an earlier set builds no table: every walk of the one is
    a walk of the other, so its counts equal the earlier ones (whose
    witness is kept) or are dominated by them.  The empty removal, the one
    candidate of a finite CFP, keeps every walk: its counts are the
    connectivity counts, and it builds no table either."""
    check_scan_guard(graph.m)
    space = _RemovalSpace(graph)
    width = len(space.state_graph.states)
    tabled: list[int] = []
    # Removal sets arrive sorted, so the first one kept is the least.
    by_counts: dict[tuple[int, ...], tuple[RemovalSet, list[list[int]]]] = {}
    for removed in space.minimal_removals():
        if removed:
            sg = space.reduced(removed)
            # bit i * width + j stands for the essential transition i -> j
            essential = sum(mask << i * width for i, mask in enumerate(sg.essential))
            # a set subsumed by a skipped set is subsumed by a tabled one
            if any(not essential & ~earlier for earlier in tabled):
                continue
            tabled.append(essential)
            counts = subset_counts(graph, probmap, admits_table(sg))
        else:
            counts = connectivity_counts(graph, probmap)
        by_counts.setdefault(tuple(itertools.chain.from_iterable(counts)), (space.removal(removed), counts))
    best: dict[Poly, RemovalSet] = {}
    for vector, (removal, counts) in by_counts.items():
        if any(other != vector and all(a <= b for a, b in zip(vector, other)) for other in by_counts):
            continue
        best.setdefault(polynomial_from_counts(graph, probmap, counts), removal)
    return sorted(((rem, poly) for poly, rem in best.items()), key=lambda t: _removal_sort_key(t[0]))


def rho_hat_at(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None = None,
    at: Fraction | None = None,
):
    """Optimal reliability over finite protocols.

    With ``at`` given, which must lie in the open interval (0,1), returns
    the exact pointwise maximum at that rational together with the
    witnessing removal set.  Without ``at``, the result must be a single
    polynomial on all of (0,1); if the optimum switches pieces, a domain
    error directs the caller to rho_hat_piecewise.
    """
    if at is not None:
        require_open_unit(at)
    cands = candidate_polynomials(graph, probmap)
    if at is not None:
        best_val: Fraction | None = None
        best_rem: RemovalSet | None = None
        for rem, poly in cands:
            val = poly(at)
            if best_val is None or val > best_val:
                best_val, best_rem = val, rem
        return best_val, best_rem
    pw = _upper_envelope(cands)
    if len(pw.pieces) > 1:
        raise RelayoptError(
            "optimal reliability is piecewise; use rho_hat_piecewise",
            code="piecewise-result",
        )
    piece = pw.pieces[0]
    return piece.poly, piece.removed


_ORACLE_CACHE: dict = {}


def brute_force_rho_hat(
    graph: TwoTerminalGraph,
    p0: Fraction,
    probmap: EdgeProbabilityMap | None = None,
) -> Fraction:
    """Test oracle: maximum reliability at p0 over every finite subset of
    the CFP.  Walk survival is monotone in the instruction set, so the
    maximum is attained on a maximal finite subset; those are enumerated by
    an increasing-size search over removals from the full instruction set,
    with no circuit analysis involved."""
    astar = cfp(graph)
    if len(astar) > BRUTE_FORCE_CFP_LIMIT:
        raise GuardExceededError(
            f"CFP has {len(astar)} instructions; oracle guard is {BRUTE_FORCE_CFP_LIMIT}"
        )
    removals = _ORACLE_CACHE.get(astar)
    if removals is None:
        removals = _minimal_removal_family(astar, sorted(astar.instructions))
        if len(_ORACLE_CACHE) > 16:
            _ORACLE_CACHE.clear()
        _ORACLE_CACHE[astar] = removals
    best: Fraction | None = None
    for removal in removals:
        val = rho_A(astar.minus(removal), probmap)(p0)
        if best is None or val > best:
            best = val
    return best


# ---------------------------------------------------------------------------
# Piecewise envelope
# ---------------------------------------------------------------------------

@dataclass
class Breakpoint:
    """Envelope switch point: the unique root of ``root.poly`` in its
    isolating interval; ``order`` is the vanishing order of the difference
    of the two adjacent pieces (odd by envelope geometry)."""

    root: AlgebraicNumber
    order: int


@dataclass
class Piece:
    poly: Poly
    removed: RemovalSet


@dataclass
class PiecewiseReliability:
    """Breakpoints in (0,1) and the polynomial + witness on each interval."""

    pieces: list[Piece]
    breakpoints: list[Breakpoint]

    def polynomial_at(self, p0: Fraction) -> Poly:
        return self.pieces[self._piece_index(p0)].poly

    def value_at(self, p0: Fraction) -> Fraction:
        return self.polynomial_at(p0)(p0)

    def _piece_index(self, p0: Fraction) -> int:
        if not 0 < p0 < 1:
            raise ValueError("argument must lie in (0,1)")
        idx = 0
        for bp in self.breakpoints:
            if bp.root.compare_rational(p0) < 0:
                idx += 1
            else:
                break
        return idx

    @property
    def leftmost(self) -> Piece:
        return self.pieces[0]

    @property
    def rightmost(self) -> Piece:
        return self.pieces[-1]

    def single(self) -> Poly:
        if len(self.pieces) != 1:
            raise RelayoptError("function has multiple pieces", code="piecewise-result")
        return self.pieces[0].poly

    def map_pieces(self, fn) -> PiecewiseReliability:
        return PiecewiseReliability(
            [Piece(fn(p.poly), p.removed) for p in self.pieces],
            self.breakpoints,
        )


def _sorted_unique_points(points: list[AlgebraicNumber]) -> list[AlgebraicNumber]:
    unique: list[AlgebraicNumber] = []
    for pt in points:
        if not any(pt.compare(q) == 0 for q in unique):
            unique.append(pt)
    unique.sort(key=functools.cmp_to_key(lambda a, b: a.compare(b)))
    return unique


def _upper_envelope(cands: list[tuple[RemovalSet, Poly]]) -> PiecewiseReliability:
    if not cands:
        raise ValueError("no candidates")
    if len(cands) == 1:
        rem, poly = cands[0]
        return PiecewiseReliability([Piece(poly, rem)], [])
    # per candidate pair, the roots of their difference with multiplicities
    crossings = {
        (a, b): roots_with_multiplicity(cands[a][1] - cands[b][1])
        for a, b in itertools.combinations(range(len(cands)), 2)
    }
    points = _sorted_unique_points([root for found in crossings.values() for root, _ in found])
    bounds: list = [Fraction(0), *points, Fraction(1)]
    samples = [rational_between(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    winners: list[int] = []
    for q in samples:
        vals = [poly(q) for _, poly in cands]
        winners.append(max(range(len(cands)), key=lambda k: (vals[k], )))
    pieces: list[Piece] = []
    breakpoints: list[Breakpoint] = []
    run_start = 0
    for i in range(1, len(winners) + 1):
        if i < len(winners) and cands[winners[i]][1] == cands[winners[run_start]][1]:
            continue
        rem, poly = cands[winners[run_start]]
        pieces.append(Piece(poly, rem))
        if i < len(winners):
            # the two winners are equal at the switch, so it is a root of
            # their difference
            point = points[i - 1]
            pair = crossings[tuple(sorted((winners[run_start], winners[i])))]
            root, order = next((r, k) for r, k in pair if r is point or r.compare(point) == 0)
            if order % 2 == 0:
                raise AssertionError("envelope switch with even vanishing order")
            breakpoints.append(Breakpoint(root, order))
        run_start = i
    return PiecewiseReliability(pieces, breakpoints)


def rho_hat_piecewise(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None = None,
) -> PiecewiseReliability:
    """Optimal reliability as an exact piecewise polynomial on (0,1): the
    upper envelope of the candidate polynomials, with breakpoints located
    by exact root isolation of pairwise differences."""
    return _upper_envelope(candidate_polynomials(graph, probmap))


def min_discrepancy(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None = None,
) -> PiecewiseReliability:
    """rho - rho_hat as an exact piecewise polynomial (a single piece where
    no breakpoint occurs)."""
    base = rho(graph, probmap)
    return rho_hat_piecewise(graph, probmap).map_pieces(lambda q: base - q)


def optimal_protocol(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None = None,
    at: Fraction | None = None,
) -> tuple[Protocol, RemovalSet]:
    """A finite strongly essential protocol attaining the optimum: the
    reduction of the winning maximal finite candidate."""
    _, removal = rho_hat_at(graph, probmap, at)
    return spfp_reduce(cfp(graph).minus(removal)), removal


def breakpoint_free_check(graph: TwoTerminalGraph, a: int, b: int) -> bool:
    """True iff no breakpoint of the optimal reliability lies within
    (3b)^-m of a/b (excluding a/b itself)."""
    if b < 1 or not 0 <= a <= b:
        raise ValueError("need 0 <= a <= b with b >= 1")
    center = Fraction(a, b)
    radius = Fraction(1, (3 * b) ** graph.m)
    pw = rho_hat_piecewise(graph, None)
    for bp in pw.breakpoints:
        root = bp.root
        if root.equals_rational(center):
            continue
        if root.compare_rational(center - radius) > 0 and root.compare_rational(center + radius) < 0:
            return False
    return True
