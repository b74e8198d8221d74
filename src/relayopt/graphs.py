"""Two-terminal graphs, instructions, protocols and edge probabilities.

A graph is undirected and simple with two distinguished vertices: a sender
``s`` and a receiver ``r``.  An instruction ``uvw`` tells vertex ``v`` to
forward a message received from ``u`` on to ``w``; a protocol is a set of
instructions bound to one host graph.  Edge probabilities are univariate
polynomials in a single global variable p (a rational constant is a
degree-0 polynomial).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (
    FormatError,
    GraphError,
    InstructionError,
    ProbabilityError,
    UnknownVertexError,
)
from .polys import Poly, format_rational, parse_rational
from .roots import _taylor_shift, isolate_roots_01

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    """Canonical unordered edge: endpoints in lexicographic order."""
    return (u, v) if u <= v else (v, u)


class TwoTerminalGraph:
    """Immutable simple graph with sender ``s`` and receiver ``r``.

    ``_cfp`` holds the CFP's instructions, as plain triples, once
    ``engine.cfp`` or ``engine.contains_cfp`` has enumerated them; it is
    unset until then."""

    __slots__ = ("vertices", "edges", "s", "r", "_adj", "_cfp")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]], s: str, r: str):
        vs = frozenset(str(v) for v in vertices)
        if s == r:
            raise GraphError(f"sender equals receiver: {s!r}", code="equal-terminals")
        if s not in vs:
            raise GraphError(f"sender {s!r} is not a declared vertex", code="missing-terminal")
        if r not in vs:
            raise GraphError(f"receiver {r!r} is not a declared vertex", code="missing-terminal")
        seen: set[Edge] = set()
        for u, v in edges:
            u, v = str(u), str(v)
            if u == v:
                raise GraphError(f"loop at {u!r}", code="loop")
            if u not in vs or v not in vs:
                raise GraphError(f"edge {u!r}-{v!r} has an undeclared endpoint", code="dangling-endpoint")
            e = edge_key(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge {u!r}-{v!r}", code="duplicate-edge")
            seen.add(e)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(seen))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r)
        adj: dict[str, list[str]] = {v: [] for v in sorted(vs)}
        for u, v in seen:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", {v: tuple(sorted(ns)) for v, ns in adj.items()})

    def __setattr__(self, name, value):
        raise AttributeError("TwoTerminalGraph is immutable")

    def __reduce__(self):
        # copies and unpickling rebuild through the validating constructor
        return TwoTerminalGraph, (sorted(self.vertices), self.edge_list(), self.s, self.r)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_list(self) -> tuple[Edge, ...]:
        """Edges in canonical sorted order (the subset-scan bit order)."""
        return tuple(sorted(self.edges))

    def neighbors(self, v: str) -> tuple[str, ...]:
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return self._adj[v]

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self.edges

    def distances_from(self, source: str) -> dict[str, int]:
        """BFS distances; unreachable vertices are absent."""
        if source not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {source!r}")
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoTerminalGraph):
            return NotImplemented
        return (self.vertices, self.edges, self.s, self.r) == (other.vertices, other.edges, other.s, other.r)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges, self.s, self.r))

    def __repr__(self) -> str:
        return f"TwoTerminalGraph(|V|={len(self.vertices)}, |E|={self.m}, s={self.s!r}, r={self.r!r})"


class Instruction(NamedTuple):
    """Ordered forwarding rule: v, on receiving from u, sends to w."""

    u: str
    v: str
    w: str


def check_instruction(graph: TwoTerminalGraph, ins: Instruction) -> None:
    """Raise InstructionError describing the violated condition, if any."""
    u, v, w = ins
    if u == w:
        raise InstructionError(f"{u}{v}{w}: endpoints equal (u must differ from w)")
    if not graph.has_edge(u, v):
        raise InstructionError(f"{u}{v}{w}: {u!r}-{v!r} is not an edge of the host graph")
    if not graph.has_edge(v, w):
        raise InstructionError(f"{u}{v}{w}: {v!r}-{w!r} is not an edge of the host graph")


class Protocol:
    """A set of instructions bound to one host graph."""

    __slots__ = ("graph", "instructions")

    def __init__(self, graph: TwoTerminalGraph, instructions: Iterable[tuple[str, str, str]] = ()):
        ins = frozenset(Instruction(*i) for i in instructions)
        for i in ins:
            check_instruction(graph, i)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "instructions", ins)

    def __setattr__(self, name, value):
        raise AttributeError("Protocol is immutable")

    def __reduce__(self):
        return Protocol, (self.graph, sorted(self.instructions))

    def __contains__(self, item) -> bool:
        return Instruction(*item) in self.instructions

    def __iter__(self):
        return iter(sorted(self.instructions))

    def __len__(self) -> int:
        return len(self.instructions)

    def minus(self, removed: Iterable[tuple[str, str, str]]) -> Protocol:
        gone = {Instruction(*i) for i in removed}
        return Protocol(self.graph, self.instructions - gone)

    def union(self, added: Iterable[tuple[str, str, str]]) -> Protocol:
        extra = {Instruction(*i) for i in added}
        return Protocol(self.graph, self.instructions | extra)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Protocol):
            return NotImplemented
        return self.graph == other.graph and self.instructions == other.instructions

    def __hash__(self) -> int:
        return hash((self.graph, self.instructions))

    def __repr__(self) -> str:
        return f"Protocol({len(self.instructions)} instructions)"


def all_instructions(graph: TwoTerminalGraph) -> list[Instruction]:
    """Every legal instruction of the graph, sorted."""
    out = []
    for v in sorted(graph.vertices):
        ns = graph.neighbors(v)
        for u in ns:
            for w in ns:
                if u != w:
                    out.append(Instruction(u, v, w))
    return sorted(out)


class EdgeProbabilityMap:
    """Assignment of a survival polynomial in p to every edge."""

    __slots__ = ("graph", "_polys")

    def __init__(self, graph: TwoTerminalGraph, polys: dict[Edge, Poly]):
        for e in graph.edges:
            if e not in polys:
                raise ProbabilityError(f"no probability for edge {e[0]}-{e[1]}")
        cleaned = {}
        for e, poly in polys.items():
            if e not in graph.edges:
                raise ProbabilityError(f"probability for non-edge {e[0]}-{e[1]}")
            _check_range(e, poly)
            cleaned[e] = poly
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_polys", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeProbabilityMap is immutable")

    def __reduce__(self):
        return EdgeProbabilityMap, (self.graph, dict(self.items()))

    @classmethod
    def constant_p(cls, graph: TwoTerminalGraph) -> EdgeProbabilityMap:
        x = Poly.x()
        return cls(graph, {e: x for e in graph.edges})

    @classmethod
    def with_overrides(
        cls,
        graph: TwoTerminalGraph,
        overrides: dict[tuple[str, str], Poly],
        default: Poly | None = None,
    ) -> EdgeProbabilityMap:
        default = Poly.x() if default is None else default
        polys = {e: default for e in graph.edges}
        for (u, v), poly in overrides.items():
            e = edge_key(u, v)
            if e not in graph.edges:
                raise ProbabilityError(f"override for non-edge {u}-{v}")
            polys[e] = poly
        return cls(graph, polys)

    def poly(self, u: str, v: str) -> Poly:
        e = edge_key(u, v)
        try:
            return self._polys[e]
        except KeyError:
            raise ProbabilityError(f"no probability for edge {u}-{v}") from None

    def poly_for_edge(self, e: Edge) -> Poly:
        return self._polys[e]

    def restrict(self, graph: TwoTerminalGraph) -> EdgeProbabilityMap:
        """The same assignment on a graph whose edges are a subset of ours."""
        return EdgeProbabilityMap(graph, {e: self._polys[e] for e in graph.edges})

    def items(self) -> tuple[tuple[Edge, Poly], ...]:
        return tuple(sorted(self._polys.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeProbabilityMap):
            return NotImplemented
        return self.graph == other.graph and self._polys == other._polys

    def __hash__(self) -> int:
        return hash((self.graph, self.items()))


def require_open_unit(p0: Fraction) -> Fraction:
    """``p0`` itself if it lies in the open interval (0,1), where every
    edge probability and reliability is defined; ProbabilityError if not."""
    if not 0 < p0 < 1:
        raise ProbabilityError(f"p={p0} is outside the open interval (0,1)")
    return p0


def _bernstein_in_unit(poly: Poly) -> bool:
    """Whether every coefficient of ``poly`` in the degree-n Bernstein basis
    on [0,1], n its degree, lies in [0,1].  For poly = num / den the k-th
    coefficient is sum_{j<=k} C(k,j) / C(n,j) * num_j / den, and
    C(k,j) / C(n,j) = C(n-j, k-j) / C(n,k), so the bounds are tested on
    integers: 0 <= sum_{j<=k} C(n-j, k-j) * num_j <= C(n,k) * den.  Those
    sums are the coefficients of x^(n-k) in sum_j num_j (x + 1)^(n-j): the
    reversed numerator, Taylor shifted by one."""
    n, num, den = poly.degree, poly.num, poly.den
    sums = _taylor_shift(num[::-1])[::-1]
    return all(0 <= c <= math.comb(n, k) * den for k, c in enumerate(sums))


def _check_range(e: Edge, poly: Poly) -> None:
    """Require 0 < poly(p) < 1 for every p in the open interval (0,1).

    A nonconstant polynomial whose Bernstein coefficients all lie in [0,1]
    is a convex combination of basis terms positive on (0,1), so it stays
    strictly inside (0,1) there; this settles every reliability polynomial
    at once.  Otherwise neither poly nor 1 - poly may have a root in (0,1),
    and then one interior value decides."""
    if poly.degree <= 0:
        value = poly.coefficient(0)
        if not 0 < value < 1:
            raise ProbabilityError(f"edge {e[0]}-{e[1]}: value {value} is outside (0,1)")
        return
    if poly == Poly.x() or _bernstein_in_unit(poly):
        return
    for bound, f in ((0, poly), (1, poly - 1)):
        roots = isolate_roots_01(f)
        if roots:
            raise ProbabilityError(
                f"edge {e[0]}-{e[1]}: probability reaches {bound} at some p in "
                f"({roots[0].lo}, {roots[0].hi})"
            )
    half = Fraction(1, 2)
    value = poly(half)
    if not 0 < value < 1:
        raise ProbabilityError(f"edge {e[0]}-{e[1]}: value {value} at p={half} is outside (0,1)")


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def _parse_probability_value(raw) -> Poly:
    if raw == "p":
        return Poly.x()
    if isinstance(raw, str):
        return Poly.constant(parse_rational(raw))
    if isinstance(raw, list):
        return Poly.from_strings(raw)
    raise FormatError(f"bad probability value: {raw!r}")


def _probability_value_json(poly: Poly):
    if poly == Poly.x():
        return "p"
    if poly.degree <= 0:
        return format_rational(poly.coefficient(0))
    return poly.to_strings()


_GRAPH_KEYS = ("vertices", "edges", "s", "r", "prob")
_PROB_KEYS = ("default", "overrides")


def _refuse_unknown_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    """A key the format does not know is refused, not ignored: a misspelt
    or misplaced ``prob`` or ``overrides`` would leave every edge at p."""
    for key in obj:
        if key not in known:
            raise FormatError(f"unknown key {key!r} in {where} (known: {', '.join(known)})")


def parse_graph(obj) -> tuple[TwoTerminalGraph, EdgeProbabilityMap]:
    """Parse the on-disk graph JSON object; returns the graph and its
    probability map (constant p where unspecified)."""
    if not isinstance(obj, dict):
        raise FormatError("graph JSON must be an object")
    _refuse_unknown_keys(obj, _GRAPH_KEYS, "graph JSON")
    for key in ("vertices", "edges", "s", "r"):
        if key not in obj:
            raise FormatError(f"graph JSON missing {key!r}")
    if not isinstance(obj["vertices"], (list, tuple)) or not isinstance(obj["edges"], (list, tuple)):
        raise FormatError("graph JSON 'vertices' and 'edges' must be lists")
    for e in obj["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise FormatError(f"bad edge entry: {e!r}")
    graph = TwoTerminalGraph(obj["vertices"], obj["edges"], str(obj["s"]), str(obj["r"]))
    prob = obj.get("prob")
    if prob is None:
        return graph, EdgeProbabilityMap.constant_p(graph)
    if not isinstance(prob, dict):
        raise FormatError("prob must be an object")
    _refuse_unknown_keys(prob, _PROB_KEYS, "prob")
    default = _parse_probability_value(prob.get("default", "p"))
    keymap = {f"{u}-{v}": (u, v) for u, v in graph.edges}
    if len(keymap) != graph.m:
        raise FormatError("edge keys collide; vertex labels may not contain '-'")
    raw_overrides = prob.get("overrides", {})
    if not isinstance(raw_overrides, dict):
        raise FormatError("prob overrides must be an object")
    overrides = {}
    for key, raw in raw_overrides.items():
        if key not in keymap:
            raise FormatError(f"override for unknown edge {key!r}")
        overrides[keymap[key]] = _parse_probability_value(raw)
    return graph, EdgeProbabilityMap.with_overrides(graph, overrides, default)


def validate_graph(obj) -> TwoTerminalGraph:
    """Validate a raw description, returning the graph or raising a
    diagnostic with a distinct error code."""
    graph, _ = parse_graph(obj)
    return graph


def graph_json(graph: TwoTerminalGraph, probmap: EdgeProbabilityMap | None = None) -> dict:
    obj = {
        "vertices": sorted(graph.vertices),
        "edges": [list(e) for e in graph.edge_list()],
        "s": graph.s,
        "r": graph.r,
    }
    if probmap is not None:
        overrides = {
            f"{u}-{v}": _probability_value_json(probmap.poly(u, v))
            for u, v in graph.edge_list()
            if probmap.poly(u, v) != Poly.x()
        }
        prob: dict = {"default": "p"}
        if overrides:
            prob["overrides"] = overrides
        obj["prob"] = prob
    return obj


def parse_protocol(obj, graph: TwoTerminalGraph) -> Protocol:
    if not isinstance(obj, dict) or "instructions" not in obj:
        raise FormatError("protocol JSON must be an object with 'instructions'")
    triples = []
    for item in obj["instructions"]:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise FormatError(f"bad instruction entry: {item!r}")
        triples.append(tuple(item))
    return Protocol(graph, triples)


def protocol_json(protocol: Protocol) -> dict:
    return {"instructions": [list(i) for i in protocol]}


def b0() -> TwoTerminalGraph:
    """The built-in 7-vertex, 10-edge fixture anchoring the golden tests."""
    return TwoTerminalGraph(
        vertices=["s", "1", "2", "3", "4", "5", "r"],
        edges=[
            ("s", "1"), ("s", "2"),
            ("1", "3"), ("1", "4"),
            ("2", "3"), ("2", "5"),
            ("3", "4"), ("3", "5"),
            ("4", "r"), ("5", "r"),
        ],
        s="s",
        r="r",
    )
