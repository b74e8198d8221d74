"""Walk and path semantics of forwarding protocols.

The single source of truth is the state graph: one state per ordered
adjacent pair (u,v), with a transition (u,v) -> (v,w) exactly when the
protocol contains the instruction uvw.  Message trajectories start at the
states (s,x) for neighbors x of s and deliver a copy each time they pass
through a state (y,r).  Under this encoding:

* walks from s to r that follow the protocol correspond to directed state
  walks from an initial to an accepting state;
* closed trails correspond to directed state cycles, so a protocol is
  finite exactly when no cycle survives among its essential transitions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .errors import GuardExceededError, InfiniteProtocolError
from .graphs import Instruction, Protocol, TwoTerminalGraph

State = tuple[str, str]
Walk = tuple[str, ...]

DEFAULT_MAX_WALKS = 500_000
# The most s,r-paths collected at once, within the 256 MiB the subset-scan
# guard allows: ``paths`` printed the 438,404 paths of K11 with s of degree
# 4 at a peak RSS of 181 MiB.  K12 has 9,864,101 and is refused in 1 s.
MAX_PATHS = 500_000


def instructions_in(seq: Sequence[str]) -> list[Instruction]:
    """The instruction triples contained in a vertex sequence."""
    return [Instruction(seq[i - 1], seq[i], seq[i + 1]) for i in range(1, len(seq) - 1)]


def enumerate_sr_paths(graph: TwoTerminalGraph) -> list[Walk]:
    """All simple s,r-paths, each once, in lexicographic order; refused
    once there are more than ``MAX_PATHS``."""
    paths: list[Walk] = []
    target = graph.r
    path = [graph.s]
    on_path = {graph.s}
    # one neighbour iterator per vertex on the path, so depth is not
    # bounded by the interpreter's recursion limit
    pending = [iter(graph.neighbors(graph.s))]
    while pending:
        for w in pending[-1]:
            if w == target:
                if len(paths) == MAX_PATHS:
                    raise GuardExceededError(f"more than {MAX_PATHS} s,r-paths")
                paths.append(tuple(path) + (w,))
            elif w not in on_path:
                path.append(w)
                on_path.add(w)
                pending.append(iter(graph.neighbors(w)))
                break
        else:
            pending.pop()
            on_path.remove(path.pop())
    return paths


def cfp(graph: TwoTerminalGraph) -> Protocol:
    """The complete forwarding protocol: every instruction contained in some
    simple s,r-path."""
    return Protocol(graph, _cfp_triples(graph))


def _cfp_triples(graph: TwoTerminalGraph) -> frozenset[tuple[str, str, str]]:
    """The CFP's instructions as plain triples, enumerated once per graph
    object and kept on it: the graph is immutable, and ``cfp`` and
    ``contains_cfp`` may ask for them many times.  ``Protocol`` wraps each
    triple once; plain triples hash and compare as the ``Instruction``
    tuples they stand for, so they are compared with protocols as they
    are."""
    try:
        return graph._cfp
    except AttributeError:
        pass
    # plain triples: making an Instruction per path and position took most
    # of the time on K10's 109,601 paths
    triples: set[tuple[str, str, str]] = set()
    for p in enumerate_sr_paths(graph):
        triples.update(zip(p, p[1:], p[2:]))
    found = frozenset(triples)
    object.__setattr__(graph, "_cfp", found)
    return found


def contains_cfp(protocol: Protocol) -> bool:
    """Whether the protocol holds every CFP instruction.  Such a protocol
    admits a walk in exactly the subsets that connect s and r: every
    s,r-path is a CFP walk, and every walk contains an s,r-path."""
    return protocol.instructions >= _cfp_triples(protocol.graph)


def a_paths(protocol: Protocol) -> list[Walk]:
    """The s,r-paths whose every contained instruction is in the protocol.
    A path of length 1 contains no instruction, so it always qualifies."""
    out = []
    for p in enumerate_sr_paths(protocol.graph):
        if all(i in protocol.instructions for i in instructions_in(p)):
            out.append(p)
    return out


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _closure(seeds: int, adjacency: Sequence[int], within: int = -1) -> int:
    """Bitmask of the states reachable from ``seeds`` along the successor
    masks ``adjacency`` without leaving ``within``, breadth first."""
    seen = frontier = seeds
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = step & within & ~seen
        seen |= frontier
    return seen


def _predecessors(adjacency: Sequence[int]) -> list[int]:
    """Predecessor masks of the successor masks ``adjacency``."""
    pred = [0] * len(adjacency)
    for i, mask in enumerate(adjacency):
        bit = 1 << i
        while mask:
            low = mask & -mask
            pred[low.bit_length() - 1] |= bit
            mask ^= low
    return pred


def _sweep(
    succ: Sequence[Sequence[int]],
    col: Sequence[int],
    initial: Sequence[int],
    accepting: Sequence[int],
) -> int:
    """Bit-sliced reachability: bit t of ``col[i]`` says node i is usable
    in world t (a sampled trial, or an edge subset).  Runs
    ``reach[j] |= reach[i] & col[j]`` along every arc i -> j of ``succ`` to
    its fixpoint, from ``reach[i] = col[i]`` at the initial nodes, and
    returns the worlds in which some accepting node is reached.

    Nodes wait first in, first out, each at most once at a time: on the
    grid graphs this takes several times fewer updates than a stack."""
    reach = [0] * len(col)
    queue = []
    queued = [False] * len(col)
    for i in initial:
        if col[i] and not queued[i]:
            reach[i] = col[i]
            queue.append(i)
            queued[i] = True
    # the list grows while it is read, so it serves as the queue
    for i in queue:
        queued[i] = False
        ri = reach[i]
        for j in succ[i]:
            grown = reach[j] | ri & col[j]
            if grown != reach[j]:
                reach[j] = grown
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
    got = 0
    for i in accepting:
        got |= reach[i]
    return got


def topological_order(adjacency: Sequence[int]) -> list[int] | None:
    """Every state, each before its successors in ``adjacency`` (one
    successor bitmask per state), or None when the masks contain a cycle."""
    indegree = [0] * len(adjacency)
    for mask in adjacency:
        while mask:
            low = mask & -mask
            indegree[low.bit_length() - 1] += 1
            mask ^= low
    order = [i for i, d in enumerate(indegree) if not d]
    # the list grows while it is read, so it serves as Kahn's queue
    for i in order:
        mask = adjacency[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
            mask ^= low
    return order if len(order) == len(adjacency) else None


class StateGraph:
    """Directed graph on ordered adjacent vertex pairs for one protocol: the
    one walk object, read by finiteness, walks, circuits, the walk tables,
    the removal search and the Monte Carlo sweep.

    States are numbered in sorted order.  ``succ[i]`` and ``pred[i]`` are
    the bitmasks of state i's successors and predecessors, and ``edge[i]``
    the canonical index of the edge under state i; ``initial`` lists the
    states (s, x), ``initial_mask`` holds them as a bitmask, and
    ``accepting`` is the bitmask of the states (y, r).  ``useful`` is the
    bitmask of the states reachable from an initial state and co-reaching
    an accepting one.  ``essential[i]`` is ``succ[i]`` cut to useful
    states, and ``arcs[i]``, listed on first read, holds the same
    successors ascending.  ``order`` is the useful states, each before its
    essential successors, or None when the protocol is infinite (the
    essential transitions hold a cycle): the one finiteness test.  Every
    walk over it is iterative.

    ``without`` gives the state graph of a protocol with fewer
    instructions from this one, with no protocol built: the layout fields
    (``graph`` to ``accepting``) are shared, the removed transitions are
    cleared from ``succ`` and ``pred``, and the fields read off them are
    derived by the code the constructor runs."""

    __slots__ = ("graph", "states", "edge", "initial", "initial_mask", "accepting", "succ", "pred", "useful",
                 "essential", "order", "_arcs")

    def __init__(self, protocol: Protocol):
        graph = protocol.graph
        pairs = sorted((st, k) for k, (u, v) in enumerate(graph.edge_list()) for st in ((u, v), (v, u)))
        self.graph = graph
        self.states = tuple(st for st, _ in pairs)
        self.edge = tuple(k for _, k in pairs)
        index = {st: i for i, st in enumerate(self.states)}
        succ = [0] * len(pairs)
        for u, v, w in protocol.instructions:
            succ[index[(u, v)]] |= 1 << index[(v, w)]
        self.initial = tuple(index[(graph.s, x)] for x in graph.neighbors(graph.s))
        self.initial_mask = sum(1 << i for i in self.initial)
        self.accepting = sum(1 << index[(y, graph.r)] for y in graph.neighbors(graph.r))
        self._derive(succ, _predecessors(succ))

    def _derive(self, succ: list[int], pred: list[int]) -> None:
        """Set ``succ``, ``pred`` and the fields read off them: ``useful``,
        ``essential`` and ``order``."""
        self.succ = tuple(succ)
        self.pred = tuple(pred)
        self.useful = useful = _closure(self.initial_mask, succ) & _closure(self.accepting, pred)
        self.essential = essential = tuple(mask & useful if useful >> i & 1 else 0 for i, mask in enumerate(succ))
        order = topological_order(essential)
        self.order = None if order is None else tuple(i for i in order if useful >> i & 1)

    @property
    def arcs(self) -> tuple[tuple[int, ...], ...]:
        """The essential successors of each state, ascending.  Listed on
        first read: the removal search derives a state graph per finiteness
        test and reads only its ``order``."""
        try:
            return self._arcs
        except AttributeError:
            self._arcs = arcs = tuple(map(_bits, self.essential))
            return arcs

    def without(self, transitions: Iterable[tuple[int, int]]) -> StateGraph:
        """The state graph of the same protocol minus the transitions
        i -> j given (state indices): the same states, edges, initial and
        accepting states, and the successor and predecessor masks with
        those bits cleared."""
        succ = list(self.succ)
        pred = list(self.pred)
        for i, j in transitions:
            succ[i] &= ~(1 << j)
            pred[j] &= ~(1 << i)
        reduced = StateGraph.__new__(StateGraph)
        for name in ("graph", "states", "edge", "initial", "initial_mask", "accepting"):
            setattr(reduced, name, getattr(self, name))
        reduced._derive(succ, pred)
        return reduced

    def delivered(self, columns: Sequence[int]) -> int:
        """Bitset of the worlds (sampled trials, or edge subsets) in which
        some protocol walk survives, given each edge's survival column."""
        return _sweep(self.arcs, [columns[e] for e in self.edge], self.initial, _bits(self.accepting))

    def relevant_edges(self) -> list[int]:
        """Canonical indices, ascending, of the edges under useful states:
        the only edges a protocol walk that reaches r can use."""
        return sorted({self.edge[i] for i in _bits(self.useful)})

    def admission_test(self, relevant: Sequence[int]) -> Callable[[int], bool]:
        """The test of whether one subset of the relevant edges (bit t for
        the t-th of ``relevant``, as ``relevant_edges`` lists them) admits
        a protocol walk: a depth-first search over the useful states whose
        edges it holds, stopping at the first accepting state it pushes.
        The edge bits are taken once, for the 2^k calls of a walk table over
        k relevant edges; initial states that are not useful are skipped,
        as no walk from them reaches r."""
        position = {e: 1 << t for t, e in enumerate(relevant)}
        ebit = [position.get(e, 0) for e in self.edge]
        arcs = self.arcs
        acc = self.accepting
        initial = [i for i in self.initial if self.useful >> i & 1]

        def test(S: int) -> bool:
            seen = 0
            stack = []
            for i in initial:
                if ebit[i] & S:
                    b = 1 << i
                    if acc & b:
                        return True
                    seen |= b
                    stack.append(i)
            while stack:
                for j in arcs[stack.pop()]:
                    b = 1 << j
                    if seen & b or not ebit[j] & S:
                        continue
                    if acc & b:
                        return True
                    seen |= b
                    stack.append(j)
            return False

        return test

    def circuit_transitions(self) -> list[tuple[int, int]]:
        """Essential transitions i -> j lying on an essential circuit, i.e.
        with i reachable from j, in ascending order."""
        ess = self.essential
        back: dict[int, int] = {}
        pairs = []
        for i, mask in enumerate(ess):
            for j in _bits(mask):
                if j not in back:
                    back[j] = _closure(1 << j, ess)
                if back[j] >> i & 1:
                    pairs.append((i, j))
        return pairs

    def instruction_of(self, i: int, j: int) -> Instruction:
        (u, v), (_, w) = self.states[i], self.states[j]
        return Instruction(u, v, w)

    def walk_of(self, state_path: Sequence[int]) -> Walk:
        first = self.states[state_path[0]]
        return (first[0],) + tuple(self.states[i][1] for i in state_path)


def essential_instructions(protocol: Protocol) -> frozenset[Instruction]:
    """Instructions of the protocol contained in at least one protocol walk
    from s to r: the start state is reachable, the end state co-reaches an
    accepting state, and the transition itself exists."""
    sg = StateGraph(protocol)
    return frozenset(sg.instruction_of(i, j) for i, arcs in enumerate(sg.arcs) for j in arcs)


def strongly_essential_instructions(protocol: Protocol) -> frozenset[Instruction]:
    """Instructions contained in at least one protocol path from s to r."""
    ins: set[Instruction] = set()
    for p in a_paths(protocol):
        ins.update(instructions_in(p))
    return frozenset(ins)


def is_finite(protocol: Protocol) -> bool:
    """True iff the protocol has finitely many s,r-walks, i.e. the essential
    transition subgraph of its state graph is acyclic."""
    return StateGraph(protocol).order is not None


def _circuits(protocol: Protocol) -> Iterator[tuple[State, ...]]:
    """The elementary directed cycles among essential transitions, each
    once, rotated to start at its least state, in increasing order: a
    preorder search from each anchor in turn, trying successors in
    ascending order, meets them in that order."""
    sg = StateGraph(protocol)
    if sg.order is not None:
        return
    ess = sg.essential
    pred = _predecessors(ess)
    for anchor, mask in enumerate(ess):
        if not mask:
            continue
        # Restrict to states >= anchor that can get back to the anchor, so
        # each cycle is found exactly once, rooted at its smallest state.
        bit = 1 << anchor
        back = _closure(bit, pred, -bit)
        # One mask of untried successors per state on the path; a state's
        # candidates are fixed when it is entered, since the path below it
        # is the same whenever it is resumed.  The anchor is the least
        # state in ``back``, so closing the cycle comes first.
        path = [anchor]
        on_path = bit
        pending = [mask & back]
        while pending:
            rest = pending[-1]
            if not rest:
                pending.pop()
                on_path ^= 1 << path.pop()
                continue
            low = rest & -rest
            pending[-1] = rest ^ low
            j = low.bit_length() - 1
            path.append(j)
            on_path |= low
            if ess[j] & bit:
                yield tuple(sg.states[i] for i in path)
            pending.append(ess[j] & back & ~on_path)


def essential_circuits(protocol: Protocol) -> list[tuple[State, ...]]:
    """All elementary directed cycles among essential transitions, each
    reported once, rotated to start at its smallest state, sorted."""
    return list(_circuits(protocol))


def finiteness_witness(protocol: Protocol) -> tuple[State, ...] | None:
    """The least essential circuit when the protocol is infinite, else
    None; the search stops at it."""
    return next(_circuits(protocol), None)


def a_walks(protocol: Protocol) -> list[Walk]:
    """All s,r-walks following the protocol, in lexicographic order.

    Walks correspond to state paths from an initial to an accepting state;
    restricted to useful states (reachable and co-reaching) the state graph
    of a finite protocol is acyclic, so the enumeration terminates.
    """
    sg = StateGraph(protocol)
    if sg.order is None:
        raise InfiniteProtocolError("infinite protocol")
    ess = sg.essential
    walks: list[Walk] = []
    # One mask of untried successors per state on the path, below a first
    # mask of the initial states; a state is recorded when it is entered.
    path: list[int] = []
    pending = [sg.initial_mask]
    while pending:
        rest = pending[-1]
        if not rest:
            pending.pop()
            del path[-1:]
            continue
        low = rest & -rest
        pending[-1] = rest ^ low
        i = low.bit_length() - 1
        path.append(i)
        pending.append(ess[i])
        if sg.accepting & low:
            if len(walks) >= DEFAULT_MAX_WALKS:
                raise GuardExceededError(f"more than {DEFAULT_MAX_WALKS} walks")
            walks.append(sg.walk_of(path))
    return walks


def loop_erase(walk: Sequence[str]) -> Walk:
    """Erase loops from a walk: on revisiting a vertex, drop the cycle and
    continue.  The surviving entry edge of each vertex precedes its final
    exit edge, so the result is a path contained in the walk."""
    path: list[str] = []
    pos: dict[str, int] = {}
    for v in walk:
        if v in pos:
            k = pos[v]
            for dropped in path[k + 1:]:
                del pos[dropped]
            del path[k + 1:]
        else:
            pos[v] = len(path)
            path.append(v)
    return tuple(path)


def spfp_reduce(protocol: Protocol) -> Protocol:
    """Reduce a finite protocol to a strongly essential partial forwarding
    protocol dominating it.

    One round extracts, from every walk of the current protocol, the
    loop-erased contained path, and collects all instructions on the
    extracted paths.  Rounds repeat until the instruction set is stable;
    from the first round on the sets only grow inside the CFP, so the
    fixpoint is reached after finitely many rounds.
    """
    if not is_finite(protocol):
        raise InfiniteProtocolError("infinite protocol")
    graph = protocol.graph
    current = protocol
    while True:
        walks = a_walks(current)
        ins: set[Instruction] = set()
        for w in walks:
            ins.update(instructions_in(loop_erase(w)))
        nxt = Protocol(graph, ins)
        if not is_finite(nxt):
            raise AssertionError("reduction produced an infinite protocol")
        if nxt.instructions == current.instructions:
            return nxt
        current = nxt


def bounded_protocol(graph: TwoTerminalGraph, m: int) -> Protocol:
    """Instructions contained in some s,r-path of length at most m."""
    if m < 1:
        raise ValueError("bound must be at least 1")
    ins: set[Instruction] = set()
    for p in enumerate_sr_paths(graph):
        if len(p) - 1 <= m:
            ins.update(instructions_in(p))
    return Protocol(graph, ins)
