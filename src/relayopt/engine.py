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

from typing import Iterable, Sequence

from .errors import GuardExceededError, InfiniteProtocolError
from .graphs import Instruction, Protocol, TwoTerminalGraph

State = tuple[str, str]
Walk = tuple[str, ...]

DEFAULT_MAX_WALKS = 500_000


def instructions_in(seq: Sequence[str]) -> list[Instruction]:
    """The instruction triples contained in a vertex sequence."""
    return [Instruction(seq[i - 1], seq[i], seq[i + 1]) for i in range(1, len(seq) - 1)]


def enumerate_sr_paths(graph: TwoTerminalGraph) -> list[Walk]:
    """All simple s,r-paths, each once, in lexicographic order."""
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
    ins: set[Instruction] = set()
    for p in enumerate_sr_paths(graph):
        ins.update(instructions_in(p))
    return Protocol(graph, ins)


def a_paths(protocol: Protocol) -> list[Walk]:
    """The s,r-paths whose every contained instruction is in the protocol.
    A path of length 1 contains no instruction, so it always qualifies."""
    out = []
    for p in enumerate_sr_paths(protocol.graph):
        if all(i in protocol.instructions for i in instructions_in(p)):
            out.append(p)
    return out


class StateGraph:
    """Directed graph on ordered adjacent vertex pairs for one protocol."""

    __slots__ = (
        "protocol", "graph", "states", "index", "out", "rev",
        "initial", "accepting",
    )

    def __init__(self, protocol: Protocol):
        graph = protocol.graph
        states: list[State] = []
        for u, v in sorted(graph.edges):
            states.append((u, v))
            states.append((v, u))
        states.sort()
        index = {st: i for i, st in enumerate(states)}
        out: list[list[int]] = [[] for _ in states]
        rev: list[list[int]] = [[] for _ in states]
        for u, v, w in protocol.instructions:
            i, j = index[(u, v)], index[(v, w)]
            out[i].append(j)
            rev[j].append(i)
        for lst in out:
            lst.sort()
        for lst in rev:
            lst.sort()
        object.__setattr__(self, "protocol", protocol)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "out", tuple(tuple(l) for l in out))
        object.__setattr__(self, "rev", tuple(tuple(l) for l in rev))
        object.__setattr__(
            self, "initial",
            tuple(index[(graph.s, x)] for x in graph.neighbors(graph.s)),
        )
        object.__setattr__(
            self, "accepting",
            frozenset(index[(y, graph.r)] for y in graph.neighbors(graph.r)),
        )

    def __setattr__(self, name, value):
        raise AttributeError("StateGraph is immutable")

    def _closure(self, seeds: Iterable[int], adjacency) -> set[int]:
        seen = set(seeds)
        stack = list(seen)
        while stack:
            i = stack.pop()
            for j in adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    def reachable(self) -> set[int]:
        return self._closure(self.initial, self.out)

    def coreachable(self) -> set[int]:
        return self._closure(self.accepting, self.rev)

    def essential_transitions(self) -> list[tuple[int, int]]:
        """Transitions lying on some initial-to-accepting state walk."""
        reach = self.reachable()
        core = self.coreachable()
        pairs = []
        for i in reach:
            for j in self.out[i]:
                if j in core:
                    pairs.append((i, j))
        pairs.sort()
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
    return frozenset(sg.instruction_of(i, j) for i, j in sg.essential_transitions())


def strongly_essential_instructions(protocol: Protocol) -> frozenset[Instruction]:
    """Instructions contained in at least one protocol path from s to r."""
    ins: set[Instruction] = set()
    for p in a_paths(protocol):
        ins.update(instructions_in(p))
    return frozenset(ins)


def _essential_adjacency(sg: StateGraph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for i, j in sg.essential_transitions():
        adj.setdefault(i, []).append(j)
    for lst in adj.values():
        lst.sort()
    return adj


def _has_cycle(adj: dict[int, list[int]]) -> bool:
    color: dict[int, int] = {}
    for root in adj:
        if color.get(root):
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, k = stack[-1]
            succs = adj.get(node, ())
            if k < len(succs):
                stack[-1] = (node, k + 1)
                nxt = succs[k]
                c = color.get(nxt, 0)
                if c == 1:
                    return True
                if c == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                stack.pop()
    return False


def is_finite(protocol: Protocol) -> bool:
    """True iff the protocol has finitely many s,r-walks, i.e. the essential
    transition subgraph of its state graph is acyclic."""
    sg = StateGraph(protocol)
    return not _has_cycle(_essential_adjacency(sg))


def essential_circuits(protocol: Protocol) -> list[tuple[State, ...]]:
    """All elementary directed cycles among essential transitions, each
    reported once, rotated to start at its lexicographically smallest state,
    sorted."""
    sg = StateGraph(protocol)
    adj = _essential_adjacency(sg)
    cycles: list[tuple[int, ...]] = []
    nodes = sorted(adj)
    for anchor in nodes:
        # Restrict to states >= anchor that can get back to the anchor, so
        # each cycle is found exactly once, rooted at its smallest state.
        back: set[int] = {anchor}
        stack = [anchor]
        radj: dict[int, list[int]] = {}
        for i, js in adj.items():
            if i < anchor:
                continue
            for j in js:
                if j >= anchor:
                    radj.setdefault(j, []).append(i)
        while stack:
            j = stack.pop()
            for i in radj.get(j, ()):
                if i not in back:
                    back.add(i)
                    stack.append(i)

        path = [anchor]
        on_path = {anchor}

        def walk(i: int) -> None:
            for j in adj.get(i, ()):
                if j == anchor:
                    cycles.append(tuple(path))
                elif j > anchor and j in back and j not in on_path:
                    path.append(j)
                    on_path.add(j)
                    walk(j)
                    path.pop()
                    on_path.remove(j)

        walk(anchor)
    cycles.sort()
    return [tuple(sg.states[i] for i in cyc) for cyc in cycles]


def finiteness_witness(protocol: Protocol) -> tuple[State, ...] | None:
    """One essential circuit when the protocol is infinite, else None."""
    circuits = essential_circuits(protocol)
    return circuits[0] if circuits else None


def a_walks(protocol: Protocol, max_walks: int = DEFAULT_MAX_WALKS) -> list[Walk]:
    """All s,r-walks following the protocol, in lexicographic order.

    Walks correspond to state paths from an initial to an accepting state;
    restricted to useful states (reachable and co-reaching) the state graph
    of a finite protocol is acyclic, so the enumeration terminates.
    """
    if not is_finite(protocol):
        raise InfiniteProtocolError("infinite protocol")
    sg = StateGraph(protocol)
    useful = sg.reachable() & sg.coreachable()
    walks: list[Walk] = []
    path: list[int] = []

    def extend(i: int) -> None:
        path.append(i)
        if i in sg.accepting:
            if len(walks) >= max_walks:
                raise GuardExceededError(f"more than {max_walks} walks")
            walks.append(sg.walk_of(path))
        for j in sg.out[i]:
            if j in useful:
                extend(j)
        path.pop()

    for i in sg.initial:
        if i in useful:
            extend(i)
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


def spfp_reduce(protocol: Protocol, max_walks: int = DEFAULT_MAX_WALKS) -> Protocol:
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
        walks = a_walks(current, max_walks=max_walks)
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
