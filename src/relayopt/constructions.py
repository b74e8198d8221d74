"""Series-parallel builders, edge expansion and crossing-pair generators.

Series joins identify the right terminal of one graph with the left
terminal of another; parallel joins identify both terminal pairs.  A
parallel join of two graphs that both carry a terminal-to-terminal edge
would create a multi-edge and is rejected, keeping every construction
simple.  Expansion replaces one edge of a base graph by a series-parallel
graph glued in at the endpoints; the implied distribution gives the
removed edge the inserted graph's reliability, which transports protocols,
reliabilities and optimality between the two levels.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .engine import a_paths, cfp
from .errors import DomainError, GraphError, GuardExceededError, ZeroPolynomialError
from .graphs import (
    Edge,
    EdgeProbabilityMap,
    Instruction,
    Protocol,
    TwoTerminalGraph,
    edge_key,
)
from .polys import Poly
from .reliability import rho
from .roots import AlgebraicNumber, roots_with_multiplicity

MAX_BUILD_EDGES = 64
PROFILE_INTERVAL_WIDTH = Fraction(1, 1 << 20)


# ---------------------------------------------------------------------------
# Series-parallel construction trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SPTree:
    """Construction tree: a single edge, or a series/parallel join.

    Trees share subtrees, so a tree of n nodes can realize exponentially
    many edges; the edge count, the terminal-edge flag and the hash are
    computed once per node, from the children's, when the node is built,
    and equality walks node pairs with an explicit stack, so neither
    recurses once per level."""

    kind: str
    left: SPTree | None = None
    right: SPTree | None = None
    edge_count: int = field(init=False, repr=False, compare=False)
    _terminal_edge: bool = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "edge":
            count, terminal = 1, True
        else:
            count = self.left.edge_count + self.right.edge_count
            terminal = self.kind == "parallel" and (self.left._terminal_edge or self.right._terminal_edge)
        object.__setattr__(self, "edge_count", count)
        object.__setattr__(self, "_terminal_edge", terminal)
        object.__setattr__(self, "_hash", hash((self.kind, self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, SPTree):
            return NotImplemented
        stack = [(self, other)]
        seen = set()  # node pairs already matched, so shared subtrees are compared once
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if a is None or b is None or a._hash != b._hash or a.kind != b.kind:
                return False
            seen.add((id(a), id(b)))
            stack += [(a.right, b.right), (a.left, b.left)]
        return True

    def __repr__(self) -> str:
        return f"SPTree({self.kind!r}, edge_count={self.edge_count})"

    def __reduce__(self):
        """Pickle and copy as a flat node list, children before parents and
        each shared subtree once, so that neither recurses per level."""
        nodes: list[tuple[str, int | None, int | None]] = []
        position: dict[int, int] = {}  # by id: every node is alive under self
        stack = [self]
        while stack:
            t = stack[-1]
            if id(t) in position:
                stack.pop()
                continue
            children = [c for c in (t.right, t.left) if c is not None and id(c) not in position]
            if children:
                stack += children
                continue
            stack.pop()
            position[id(t)] = len(nodes)
            left, right = (None if c is None else position[id(c)] for c in (t.left, t.right))
            nodes.append((t.kind, left, right))
        return _sptree_from_nodes, (nodes,)

    def has_terminal_edge(self) -> bool:
        """Does the realization contain an edge joining s and r directly?"""
        return self._terminal_edge


def _sptree_from_nodes(nodes: list[tuple[str, int | None, int | None]]) -> SPTree:
    """Inverse of ``SPTree.__reduce__``."""
    built: list[SPTree] = []
    for kind, left, right in nodes:
        built.append(SPTree(kind, None if left is None else built[left], None if right is None else built[right]))
    return built[-1]


def edge() -> SPTree:
    return SPTree("edge")


def series(a, b):
    """Series join.  On trees, returns a tree; on realized graphs, returns
    the composed graph."""
    if isinstance(a, SPTree) and isinstance(b, SPTree):
        return SPTree("series", a, b)
    return join_series(as_graph(a), as_graph(b))


def parallel(a, b):
    """Parallel join; rejects the multi-edge case."""
    if isinstance(a, SPTree) and isinstance(b, SPTree):
        if a.has_terminal_edge() and b.has_terminal_edge():
            raise GraphError("parallel join would create a multi-edge", code="duplicate-edge")
        return SPTree("parallel", a, b)
    return join_parallel(as_graph(a), as_graph(b))


def path_graph(k: int) -> SPTree:
    """Chain of k-1 edges on k vertices."""
    if k < 2:
        raise DomainError("a path graph needs at least 2 vertices")
    tree = edge()
    for _ in range(k - 2):
        tree = SPTree("series", tree, edge())
    return tree


def realize(tree: SPTree) -> TwoTerminalGraph:
    """Deterministic realization with terminals "s", "r" and internal
    vertices "x1", "x2", ... allocated in construction order (pre-order,
    left before right), walking the tree with an explicit stack."""
    counter = itertools.count(1)
    edges: list[tuple[str, str]] = []
    stack = [(tree, "s", "r")]
    while stack:
        t, sl, rl = stack.pop()
        if t.kind == "edge":
            edges.append((sl, rl))
        elif t.kind == "series":
            mid = f"x{next(counter)}"
            stack.append((t.right, mid, rl))
            stack.append((t.left, sl, mid))
        elif t.kind == "parallel":
            stack.append((t.right, sl, rl))
            stack.append((t.left, sl, rl))
        else:
            raise GraphError(f"unknown tree node kind {t.kind!r}")
    vertices = {v for e in edges for v in e}
    return TwoTerminalGraph(vertices, edges, "s", "r")


def as_graph(obj) -> TwoTerminalGraph:
    if isinstance(obj, SPTree):
        return realize(obj)
    if isinstance(obj, TwoTerminalGraph):
        return obj
    raise TypeError(f"expected SPTree or TwoTerminalGraph, got {type(obj).__name__}")


def sp_level_injection(tree: SPTree) -> dict[str, Fraction]:
    """Injective vertex levels strictly increasing along every s,r-path of
    the realization: series splits its band at the join vertex, parallel
    hands each side a disjoint open sub-band.  Join vertices are numbered
    in pre-order, as ``realize`` numbers them."""
    counter = itertools.count(1)
    levels: dict[str, Fraction] = {"s": Fraction(0), "r": Fraction(1)}
    stack = [(tree, Fraction(0), Fraction(1))]
    while stack:
        t, lo, hi = stack.pop()
        if t.kind == "edge":
            continue
        mid = (lo + hi) / 2
        if t.kind == "series":
            levels[f"x{next(counter)}"] = mid
        stack.append((t.right, mid, hi))
        stack.append((t.left, lo, mid))
    return levels


def sptree_json(tree: SPTree):
    """JSON object of the tree, each node filled in pre-order from an
    explicit stack."""
    root: dict = {}
    stack = [(tree, root)]
    while stack:
        t, obj = stack.pop()
        if t.kind == "edge":
            obj["edge"] = True
        else:
            obj.update(op=t.kind, left={}, right={})
            stack += [(t.right, obj["right"]), (t.left, obj["left"])]
    return root


def parse_sptree(obj) -> SPTree:
    """Tree from its JSON object, checked node by node in pre-order and
    joined bottom-up with an explicit stack, so any depth parses."""
    from .errors import FormatError

    built: list[SPTree] = []
    # (node, True) joins the node's two subtrees, already on ``built``
    stack = [(obj, False)]
    while stack:
        node, join = stack.pop()
        if join:
            right = built.pop()
            left = built.pop()
            built.append(parallel(left, right) if node["op"] == "parallel" else series(left, right))
            continue
        if not isinstance(node, dict):
            raise FormatError("tree JSON must be an object")
        if node.get("edge"):
            built.append(SPTree("edge"))
            continue
        op = node.get("op")
        if op not in ("series", "parallel"):
            raise FormatError(f"unknown tree op {op!r}")
        stack += [(node, True), (node.get("right"), False), (node.get("left"), False)]
    return built.pop()


# ---------------------------------------------------------------------------
# Generalized graph-level joins
# ---------------------------------------------------------------------------

def _relabel(graph: TwoTerminalGraph, smap: str, rmap: str, prefix: str) -> tuple[list[tuple[str, str]], set[str]]:
    def rename(v: str) -> str:
        if v == graph.s:
            return smap
        if v == graph.r:
            return rmap
        return prefix + v

    edges = [(rename(u), rename(v)) for u, v in graph.edge_list()]
    vertices = {rename(v) for v in graph.vertices}
    return edges, vertices


def join_series(g1: TwoTerminalGraph, g2: TwoTerminalGraph) -> TwoTerminalGraph:
    e1, v1 = _relabel(g1, "s", "x", "a.")
    e2, v2 = _relabel(g2, "x", "r", "b.")
    return TwoTerminalGraph(v1 | v2, e1 + e2, "s", "r")


def join_parallel(g1: TwoTerminalGraph, g2: TwoTerminalGraph) -> TwoTerminalGraph:
    if g1.has_edge(g1.s, g1.r) and g2.has_edge(g2.s, g2.r):
        raise GraphError("parallel join would create a multi-edge", code="duplicate-edge")
    e1, v1 = _relabel(g1, "s", "r", "a.")
    e2, v2 = _relabel(g2, "s", "r", "b.")
    return TwoTerminalGraph(v1 | v2, e1 + e2, "s", "r")


# ---------------------------------------------------------------------------
# Expansion at an edge
# ---------------------------------------------------------------------------

_PREFIX_RE = re.compile(r"^h(\d+)\.")


@dataclass(frozen=True)
class Expansion:
    """Replacement of base edge (x,y) by a series-parallel graph whose s is
    glued to x and whose r is glued to y."""

    base: TwoTerminalGraph
    edge: tuple[str, str]
    inserted: TwoTerminalGraph
    graph: TwoTerminalGraph
    vertex_map: dict[str, str]
    h_edges: frozenset[Edge]

    def h_neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbors of v inside the glued copy."""
        out = set()
        for a, b in self.h_edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return tuple(sorted(out))

    def h_subgraph(self, s: str, r: str) -> TwoTerminalGraph:
        vertices = {v for e in self.h_edges for v in e}
        return TwoTerminalGraph(vertices, self.h_edges, s, r)


def expand(
    base: TwoTerminalGraph,
    at: tuple[str, str],
    inserted,
) -> Expansion:
    """Expansion of ``base`` at the edge ``at`` = (x, y): the edge is
    removed and a copy of ``inserted`` (a series-parallel tree or its
    realization) is glued in with s at x and r at y.  Fresh internal labels
    use a reserved "h<k>." prefix."""
    x, y = at
    if edge_key(x, y) not in base.edges:
        raise GraphError(f"edge {x}-{y} not in the base graph", code="missing-edge")
    h = as_graph(inserted)
    used = [int(m.group(1)) for v in base.vertices if (m := _PREFIX_RE.match(v))]
    prefix = f"h{max(used, default=0) + 1}."
    vmap = {}
    for v in h.vertices:
        if v == h.s:
            vmap[v] = x
        elif v == h.r:
            vmap[v] = y
        else:
            vmap[v] = prefix + v
            if vmap[v] in base.vertices:
                raise GraphError(f"label collision at {vmap[v]!r}", code="label-collision")
    h_edges = frozenset(edge_key(vmap[u], vmap[v]) for u, v in h.edges)
    edges = (base.edges - {edge_key(x, y)}) | h_edges
    vertices = base.vertices | set(vmap.values())
    graph = TwoTerminalGraph(vertices, edges, base.s, base.r)
    return Expansion(base, (x, y), h, graph, vmap, h_edges)


def implied_distribution(exp: Expansion, probmap: EdgeProbabilityMap) -> EdgeProbabilityMap:
    """Distribution on the base graph matching one on the expansion: the
    replaced edge gets the inserted graph's reliability, every other edge
    keeps its polynomial."""
    x, y = exp.edge
    sub = exp.h_subgraph(x, y)
    inserted_rho = rho(sub, probmap.restrict(sub))
    polys = {e: probmap.poly_for_edge(e) for e in exp.base.edges if e != edge_key(x, y)}
    polys[edge_key(x, y)] = inserted_rho
    return EdgeProbabilityMap(exp.base, polys)


def corresponding_instructions(exp: Expansion, ins: Instruction) -> frozenset[Instruction]:
    """The instruction set in the expansion standing in for one base
    instruction: instructions touching the replaced edge fan out over the
    glued copy's neighbors of the shared endpoint."""
    u, v, w = ins
    x, y = exp.edge
    e1 = edge_key(x, y)
    if edge_key(u, v) == e1:
        return frozenset(Instruction(u2, v, w) for u2 in exp.h_neighbors(v))
    if edge_key(v, w) == e1:
        return frozenset(Instruction(u, v, w2) for w2 in exp.h_neighbors(v))
    return frozenset({ins})


def extend_protocol(exp: Expansion, protocol: Protocol) -> Protocol:
    """Extension of a base protocol to the expansion: the corresponding
    instructions of every base instruction, plus the CFP(s) of the glued
    copy oriented by how the protocol's paths traverse the replaced edge."""
    if protocol.graph != exp.base:
        raise GraphError("protocol is not bound to the expansion's base graph")
    x, y = exp.edge
    ins: set[Instruction] = set()
    for i in protocol.instructions:
        ins.update(corresponding_instructions(exp, i))
    forward = backward = False
    for p in a_paths(protocol):
        for i in range(len(p) - 1):
            if (p[i], p[i + 1]) == (x, y):
                forward = True
            elif (p[i], p[i + 1]) == (y, x):
                backward = True
    if forward:
        ins.update(cfp(exp.h_subgraph(x, y)).instructions)
    if backward:
        ins.update(cfp(exp.h_subgraph(y, x)).instructions)
    return Protocol(exp.graph, ins)


# ---------------------------------------------------------------------------
# Pair composition and crossing profiles
# ---------------------------------------------------------------------------

def kelmans_compose(f1, f2, g1, g2):
    """The swap composition: H1 = (F1∘G1) || (G2∘F2) and
    H2 = (F1∘G2) || (G1∘F2), whose reliability difference factors as the
    product of the pair differences.  Trees in, trees out."""
    if all(isinstance(t, SPTree) for t in (f1, f2, g1, g2)):
        return (
            parallel(series(f1, g1), series(g2, f2)),
            parallel(series(f1, g2), series(g1, f2)),
        )
    fa, fb, ga, gb = map(as_graph, (f1, f2, g1, g2))
    return (
        join_parallel(join_series(fa, ga), join_series(gb, fb)),
        join_parallel(join_series(fa, gb), join_series(ga, fb)),
    )


def delta_rho(a, b) -> Poly:
    """rho(a) - rho(b) at constant p."""
    return rho(as_graph(a)) - rho(as_graph(b))


Profile = list[tuple[AlgebraicNumber, int]]


def profile(poly: Poly) -> Profile:
    """Roots of the polynomial in open (0,1) with multiplicities, in
    increasing order, isolated exactly and refined below
    ``PROFILE_INTERVAL_WIDTH``."""
    if poly.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no profile")
    found = roots_with_multiplicity(poly)
    for root, _ in found:
        root.refine_below(PROFILE_INTERVAL_WIDTH)
    return found


def profile_multiplicities(prof: Profile) -> tuple[int, ...]:
    return tuple(mult for _, mult in prof)


def _base_pair(k: int) -> tuple[SPTree, SPTree]:
    """The elementary crossing pair: a k-1 edge chain against two parallel
    k-edge chains; their reliability difference has one simple root in
    (0,1)."""
    return path_graph(k), parallel(path_graph(k + 1), path_graph(k + 1))


def _compose_pairs(a: tuple[SPTree, SPTree], b: tuple[SPTree, SPTree]) -> tuple[SPTree, SPTree]:
    return kelmans_compose(a[0], a[1], b[0], b[1])


def _check_build(edges: int) -> None:
    """Refuse a pair side of more than ``MAX_BUILD_EDGES`` edges.  Composing
    only adds edges (both composed sides have the edges of all four
    inputs), so a pair past the guard can only grow into a larger one:
    every pair is checked as it is built, and a base pair from its size
    before."""
    if edges > MAX_BUILD_EDGES:
        raise GuardExceededError(f"crossing pair exceeds {MAX_BUILD_EDGES} edges")


def build_crossing_pair(orders: Sequence[int]) -> tuple[SPTree, SPTree]:
    """Series-parallel pair whose reliability difference has profile exactly
    ``orders``: the i-th root (in increasing order) gets multiplicity
    orders[i].  Built by powering the elementary pairs and composing."""
    if not orders:
        raise DomainError("need at least one requested multiplicity")
    if any(m < 1 for m in orders):
        raise DomainError("multiplicities must be positive")
    t = len(orders)
    combined: tuple[SPTree, SPTree] | None = None
    for i, mult in enumerate(orders, start=1):
        # Roots decrease as the chain length k grows, so the i-th smallest
        # root comes from the pair with k = t + 2 - i.
        k = t + 2 - i
        _check_build(2 * k)  # the larger side of ``_base_pair(k)``
        part = _base_pair(k)
        powered = part
        for _ in range(mult - 1):
            powered = _compose_pairs(powered, part)
            _check_build(powered[0].edge_count)
        combined = powered if combined is None else _compose_pairs(combined, powered)
        _check_build(combined[0].edge_count)
    return combined


def build_breakpoint_graph(orders: Sequence[int]) -> TwoTerminalGraph:
    """Expansion of the built-in fixture at its two sender edges by a
    crossing pair, so the optimal reliability has breakpoints of exactly
    the requested odd orders."""
    from .graphs import b0

    if any(m % 2 == 0 for m in orders):
        raise DomainError("breakpoint orders must be odd")
    if orders:
        h1, h2 = build_crossing_pair(orders)
    else:
        h1, h2 = edge(), edge()
    base = b0()
    first = expand(base, ("s", "1"), h1)
    second = expand(first.graph, ("s", "2"), h2)
    if second.graph.m > MAX_BUILD_EDGES:
        raise GuardExceededError(f"breakpoint graph exceeds {MAX_BUILD_EDGES} edges")
    return second.graph
