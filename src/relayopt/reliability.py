"""Exact reliability polynomials via exhaustive edge-subset scans.

The primary method enumerates all 2^m spanning edge subsets (guarded by
``max_edges``), tests each for admitting a protocol walk, and assembles the
survival probability as an exact polynomial.  Admission is monotone in the
subset, which the table construction exploits: a subset admits whenever one
of its one-smaller subsets does, so the state-graph search only runs on
lattice-minimal candidates and on non-admitting sets.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .engine import StateGraph, a_paths, cfp
from .errors import GuardExceededError
from .graphs import Edge, EdgeProbabilityMap, Protocol, TwoTerminalGraph, edge_key
from .polys import Poly

MAX_SCAN_EDGES = 24
# The largest subset-scan guard a caller may ask for: a 2^28-entry
# admission table takes 256 MiB.
MAX_SCAN_EDGES_CEILING = 28
MAX_SPECIAL_EDGES = 16
MAX_IE_PATHS = 20


def _check_scan_guard(m: int, max_edges: int) -> None:
    if m > max_edges:
        raise GuardExceededError(f"{m} edges exceeds the subset-scan guard of {max_edges}")


def edge_bits(graph: TwoTerminalGraph) -> dict[Edge, int]:
    """Bit position of each edge in canonical order."""
    return {e: 1 << i for i, e in enumerate(graph.edge_list())}


class WalkAdmission:
    """Subset-restricted reachability test for one protocol."""

    __slots__ = ("m", "ebit", "out", "initial", "accepting_mask")

    def __init__(self, protocol: Protocol):
        sg = StateGraph(protocol)
        self.m = protocol.graph.m
        self.ebit = [1 << e for e in sg.edge]
        self.out = sg.out
        self.initial = sg.initial
        self.accepting_mask = sg.accepting

    def test(self, S: int) -> bool:
        ebit = self.ebit
        out = self.out
        acc = self.accepting_mask
        seen = 0
        stack = []
        for i in self.initial:
            if ebit[i] & S:
                b = 1 << i
                if acc & b:
                    return True
                if not seen & b:
                    seen |= b
                    stack.append(i)
        while stack:
            i = stack.pop()
            for j in out[i]:
                b = 1 << j
                if seen & b or not ebit[j] & S:
                    continue
                if acc & b:
                    return True
                seen |= b
                stack.append(j)
        return False


def monotone_table(m: int, test: Callable[[int], bool]) -> bytearray:
    """Indicator table of a monotone subset property over all 2^m subsets."""
    table = bytearray(1 << m)
    for S in range(1 << m):
        ok = 0
        rest = S
        while rest:
            low = rest & -rest
            if table[S ^ low]:
                ok = 1
                break
            rest ^= low
        if not ok and test(S):
            ok = 1
        table[S] = ok
    return table


def admits_table(protocol: Protocol, max_edges: int = MAX_SCAN_EDGES) -> bytearray:
    _check_scan_guard(protocol.graph.m, max_edges)
    return monotone_table(protocol.graph.m, WalkAdmission(protocol).test)


def subset_admits_walk(protocol: Protocol, subset: Iterable[tuple[str, str]]) -> bool:
    """True iff some walk of the protocol uses only edges of the subset."""
    bits = edge_bits(protocol.graph)
    S = 0
    for u, v in subset:
        S |= bits[edge_key(u, v)]
    return WalkAdmission(protocol).test(S)


def edge_masks(graph: TwoTerminalGraph, paths: Iterable[Sequence[str]]) -> list[int]:
    """Edge bitmasks of the given vertex sequences, deduplicated."""
    bits = edge_bits(graph)
    masks = set()
    for p in paths:
        mask = 0
        for i in range(len(p) - 1):
            mask |= bits[edge_key(p[i], p[i + 1])]
        masks.add(mask)
    return sorted(masks)


def path_masks(protocol: Protocol) -> list[int]:
    """Edge bitmasks of the protocol's s,r-paths, deduplicated."""
    return edge_masks(protocol.graph, a_paths(protocol))


def path_table(protocol: Protocol, max_edges: int = MAX_SCAN_EDGES) -> bytearray:
    """Indicator of subsets containing the edge set of some protocol path."""
    _check_scan_guard(protocol.graph.m, max_edges)
    mask_set = set(path_masks(protocol))
    return monotone_table(protocol.graph.m, lambda S: S in mask_set)


class _Connectivity:
    __slots__ = ("adj", "s_idx", "r_idx", "n")

    def __init__(self, graph: TwoTerminalGraph):
        order = sorted(graph.vertices)
        idx = {v: i for i, v in enumerate(order)}
        bits = edge_bits(graph)
        adj: list[list[tuple[int, int]]] = [[] for _ in order]
        for e in graph.edge_list():
            u, v = e
            b = bits[e]
            adj[idx[u]].append((idx[v], b))
            adj[idx[v]].append((idx[u], b))
        self.adj = adj
        self.s_idx = idx[graph.s]
        self.r_idx = idx[graph.r]
        self.n = len(order)

    def test(self, S: int) -> bool:
        target = self.r_idx
        seen = 1 << self.s_idx
        stack = [self.s_idx]
        while stack:
            i = stack.pop()
            for j, b in self.adj[i]:
                if b & S and not seen >> j & 1:
                    if j == target:
                        return True
                    seen |= 1 << j
                    stack.append(j)
        return False


def connectivity_table(graph: TwoTerminalGraph, max_edges: int = MAX_SCAN_EDGES) -> bytearray:
    """Indicator of subsets keeping s and r in one component."""
    _check_scan_guard(graph.m, max_edges)
    return monotone_table(graph.m, _Connectivity(graph).test)


def spectrum_from_table(m: int, table: bytearray) -> tuple[int, ...]:
    counts = [0] * (m + 1)
    for S in range(1 << m):
        if table[S]:
            counts[S.bit_count()] += 1
    return tuple(counts)


def walk_spectrum(protocol: Protocol, max_edges: int = MAX_SCAN_EDGES) -> tuple[int, ...]:
    """a_i = number of i-edge subsets admitting a protocol walk."""
    return spectrum_from_table(protocol.graph.m, admits_table(protocol, max_edges))


def path_spectrum(protocol: Protocol, max_edges: int = MAX_SCAN_EDGES) -> tuple[int, ...]:
    """a_i = number of i-edge subsets containing some protocol path."""
    return spectrum_from_table(protocol.graph.m, path_table(protocol, max_edges))


def _binomial_basis(n: int) -> list[Poly]:
    """base[i] = p^i (1-p)^(n-i)."""
    x = Poly.x()
    onemx = Poly((1, -1))
    xp = [Poly.one()]
    op = [Poly.one()]
    for _ in range(n):
        xp.append(xp[-1] * x)
        op.append(op[-1] * onemx)
    return [xp[i] * op[n - i] for i in range(n + 1)]


def _edge_polynomials(
    graph: TwoTerminalGraph, probmap: EdgeProbabilityMap | None
) -> tuple[list[Poly], list[int]]:
    """Per-edge survival polynomials in canonical order, and the positions
    of the overridden edges (those whose polynomial is not plain p)."""
    x = Poly.x()
    if probmap is None:
        return [x] * graph.m, []
    wpolys = [probmap.poly_for_edge(e) for e in graph.edge_list()]
    return wpolys, [i for i, w in enumerate(wpolys) if w != x]


def subset_counts(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None,
    table: bytearray,
) -> list[list[int]]:
    """counts[pattern][i]: admitted subsets whose overridden edges are
    exactly those of ``pattern`` (bit k for the k-th overridden edge in
    canonical order) and which hold i plain p-edges.  These are the
    coefficients of the admitted-subset sum in the basis
    prod_{k in pattern} w_k * prod_{k not in pattern} (1 - w_k) * p^i (1-p)^(n-i)."""
    _, spos = _edge_polynomials(graph, probmap)
    if len(spos) > MAX_SPECIAL_EDGES:
        raise GuardExceededError(f"{len(spos)} overridden edges exceeds {MAX_SPECIAL_EDGES}")
    m = graph.m
    plain_mask = 0
    for i in range(m):
        if i not in spos:
            plain_mask |= 1 << i
    n_plain = m - len(spos)

    counts = [[0] * (n_plain + 1) for _ in range(1 << len(spos))]
    if not spos:
        row = counts[0]
        for S in range(1 << m):
            if table[S]:
                row[(S & plain_mask).bit_count()] += 1
    else:
        for S in range(1 << m):
            if table[S]:
                pat = 0
                for k, pos in enumerate(spos):
                    pat |= (S >> pos & 1) << k
                counts[pat][(S & plain_mask).bit_count()] += 1
    return counts


def polynomial_from_counts(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None,
    counts: list[list[int]],
) -> Poly:
    """Assemble the polynomial whose coordinates in the subset-count basis
    are ``counts`` (as returned by ``subset_counts``): plain p-edges
    contribute through the binomial basis and only the overridden edges
    are expanded pattern by pattern."""
    wpolys, spos = _edge_polynomials(graph, probmap)
    basis = _binomial_basis(graph.m - len(spos))
    total = Poly.zero()
    for pat, row in enumerate(counts):
        inner = Poly.zero()
        for i, c in enumerate(row):
            if c:
                inner = inner + Poly.constant(c) * basis[i]
        if inner.is_zero:
            continue
        factor = Poly.one()
        for k, pos in enumerate(spos):
            w = wpolys[pos]
            factor = factor * (w if pat >> k & 1 else Poly.one() - w)
        total = total + factor * inner
    return total


def polynomial_from_table(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None,
    table: bytearray,
) -> Poly:
    """Sum, over admitted subsets S, of prod_{e in S} w_e * prod_{e not in S}
    (1 - w_e): the subset counts of the table, assembled."""
    return polynomial_from_counts(graph, probmap, subset_counts(graph, probmap, table))


def rho_A(
    protocol: Protocol,
    probmap: EdgeProbabilityMap | None = None,
    max_edges: int = MAX_SCAN_EDGES,
) -> Poly:
    """Probability that the edges of some protocol walk all survive."""
    table = admits_table(protocol, max_edges)
    return polynomial_from_table(protocol.graph, probmap, table)


def rho_prime_A(
    protocol: Protocol,
    probmap: EdgeProbabilityMap | None = None,
    max_edges: int = MAX_SCAN_EDGES,
) -> Poly:
    """Probability that the edge set of some protocol path fully survives."""
    table = path_table(protocol, max_edges)
    return polynomial_from_table(protocol.graph, probmap, table)


def rho(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None = None,
    max_edges: int = MAX_SCAN_EDGES,
) -> Poly:
    """Two-terminal reliability: walk survival under the CFP."""
    return rho_A(cfp(graph), probmap, max_edges)


def rho_by_connectivity(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None = None,
    max_edges: int = MAX_SCAN_EDGES,
) -> Poly:
    """Independent cross-check: per-subset s,r-connectivity."""
    table = connectivity_table(graph, max_edges)
    return polynomial_from_table(graph, probmap, table)


def rho_prime_inclusion_exclusion(
    protocol: Protocol,
    probmap: EdgeProbabilityMap | None = None,
    max_paths: int = MAX_IE_PATHS,
) -> Poly:
    """Inclusion-exclusion over the protocol's paths; cross-check only."""
    if probmap is None:
        probmap = EdgeProbabilityMap.constant_p(protocol.graph)
    masks = path_masks(protocol)
    k = len(masks)
    if k > max_paths:
        raise GuardExceededError(f"{k} paths exceeds the inclusion-exclusion guard of {max_paths}")
    edges = protocol.graph.edge_list()
    wpolys = [probmap.poly_for_edge(e) for e in edges]
    products: dict[int, Poly] = {0: Poly.one()}

    def product(mask: int) -> Poly:
        cached = products.get(mask)
        if cached is None:
            low = mask & -mask
            cached = product(mask ^ low) * wpolys[low.bit_length() - 1]
            products[mask] = cached
        return cached

    total = Poly.zero()
    for T in range(1, 1 << k):
        union = 0
        t = T
        while t:
            low = t & -t
            union |= masks[low.bit_length() - 1]
            t ^= low
        term = product(union)
        total = total + term if T.bit_count() % 2 else total - term
    return total
