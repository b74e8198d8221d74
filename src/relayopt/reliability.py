"""Exact reliability polynomials: subset tables over all 2^m edge subsets,
and s,r-connectivity counts by a frontier DP over the edges.

Most exact answers are sums over the 2^m edge subsets, read off a table,
and are refused past ``MAX_SCAN_EDGES`` edges.  A table is an int with bit S set iff
subset S is admitted, where bit e of S stands for the e-th edge in
canonical order.  Tables are built bit-sliced, from the edge columns:
column e has bit S set iff edge e is in S, so one int operation decides
all subsets at once.

- Connectivity: the sweep ``reach[j] |= reach[i] & col[j]`` (the one the
  Monte Carlo sampler runs on 512-trial columns) over the undirected
  graph's vertex-edge incidence graph, in which a vertex passes every
  subset on and an edge only the subsets that contain it.  This table is
  the oracle of ``connectivity_counts``, and its sweep, run over the
  worlds of one failure level, serves the failure-level searches.
- Paths: the OR, over the protocol's path edge sets, of the AND of each
  set's columns; only the columns of edges on some path are built.
  ``path_counts`` builds it only for protocols that do not contain the
  CFP, over the edges of their paths alone.
- Walks: only the k edges under the state graph's useful states can
  carry a walk, and admission is monotone in the subset, so
  ``monotone_table`` runs the state-graph search over the 2^k subsets of
  those edges alone, one subset at a time, and only on subsets none of
  whose one-smaller subsets admits.  The minimal admitting subsets it
  finds give the table as their superset closure, built like the path
  table: over those k edges for the counts, and lifted to canonical edge
  positions for ``admits_table``.

Counts come from popcounts: the table ANDed with weight-layer masks gives
the admitted subsets of each size, and overridden edges are first moved
to the top index bits so that each override pattern is one contiguous
block of the table.  The walk and path counts are taken over only the k
edges their table depends on (the relevant edges, or the edges of the
protocol's paths) and widened to the full basis (``support_counts``):
each of the other m - k edges may survive or fail in an admitted subset,
so a free plain edge convolves the counts with binomial coefficients and
a free overridden edge gives each row to both of its patterns; no 2^m
table is built when k < m.  The polynomial is assembled from those
counts: each pattern's row becomes its plain-edge polynomial, and the
rows are folded in pairs, one overridden edge at a time, by that edge's w
and 1 - w.

The connectivity counts (``rho``, the cut census, and the walk and path
counts of a protocol that contains the CFP) come from
``connectivity_counts`` instead, which builds no 2^m table.  It decides
every edge by the same step: one packed count per partition of a narrow
frontier of vertices and override pattern moves to the partition the edge
leaves when it fails and to the one it leaves when it survives.  Joined s
and r are one more partition, the empty one, which every edge leaves as it
is.  The edges are decided in the narrower of two vertex orders, a BFS one
and a greedy min-frontier one, as a bound on the entries the DP can hold
tells; past ``MAX_SCAN_EDGES`` edges that bound, not m, is its guard
(``MAX_DP_CONFIGURATIONS``).
"""

from __future__ import annotations

from functools import cache
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .engine import StateGraph, _bits, _sweep, a_paths, contains_cfp, enumerate_sr_paths
from .errors import GuardExceededError
from .graphs import Edge, EdgeProbabilityMap, Protocol, TwoTerminalGraph, edge_key
from .polys import Poly, _canonical
from .roots import _taylor_shift

# The most edges a table over 2^m subsets, a path enumeration or a
# failure-level search takes.  A table or column over 2^m subsets takes
# 2^m/8 bytes, and the connectivity table's sweep keeps about 3m of them
# live (the edge columns, and a reach set per vertex and per edge): on a
# tree with m + 1 vertices its peak RSS rose 168 MiB at m = 24 and 345 MiB
# at m = 25, past a 256 MiB budget.  ``rho`` and the cut census count by the
# frontier DP, which builds no table and has its own guard below.
MAX_SCAN_EDGES = 24
# The most (pattern, configuration) entries the frontier DP may hold,
# summed over its steps: the bound B of ``connectivity_counts``, checked
# before its first step on graphs past ``MAX_SCAN_EDGES`` edges.  B is
# loose for sparse and planar graphs and nearly tight for dense ones, so
# the cost near the guard is the dense one's.  On a 2-core host (CPython
# 3.11.7) the 8x8 grid (m = 112, B = 3.7M) took 0.8 s and 38 MiB, K11
# (B = 2.2M) 7 s and 147 MiB, and K12 less four edges (B = 3.9M) 16 s and
# 235 MiB, within the 256 MiB budget above.  K12 (B = 13M) is refused.  Up
# to ``MAX_SCAN_EDGES`` edges the DP always runs, as B takes every override
# pattern with every partition: with 16 overridden edges the 4x4 grid has
# B past 4M while the DP holds under 1M entries (0.7 s, 67 MiB).
MAX_DP_CONFIGURATIONS = 4_000_000
MAX_SPECIAL_EDGES = 16
MAX_IE_PATHS = 20
_LEAF_BITS = 12  # subsets counted per leaf: 2^12 table bits, 512 bytes


def check_scan_guard(m: int) -> None:
    """Refuse a table over 2^m subsets, a path enumeration or a
    failure-level search past ``MAX_SCAN_EDGES``; called before any path
    enumeration the work needs.  The frontier DP of ``connectivity_counts``
    is guarded past ``MAX_SCAN_EDGES`` by its configuration bound instead."""
    if m > MAX_SCAN_EDGES:
        raise GuardExceededError(f"{m} edges exceeds the subset-scan guard of {MAX_SCAN_EDGES}")


def edge_bits(graph: TwoTerminalGraph) -> dict[Edge, int]:
    """Bit position of each edge in canonical order."""
    return {e: 1 << i for i, e in enumerate(graph.edge_list())}


def _full(m: int) -> int:
    """The table of all 2^m subsets."""
    return (1 << (1 << m)) - 1


def _column(m: int, e: int) -> int:
    """Column e over 2^m subsets: bit S set iff bit e of S is.  Built from
    its byte pattern: alternating runs of 2^e zeros and 2^e ones."""
    if e < 3:
        unit = (b"\xaa", b"\xcc", b"\xf0")[e]
    else:
        half = 1 << (e - 3)
        unit = bytes(half) + b"\xff" * half
    column = int.from_bytes(unit * max(1, (1 << m) // (8 * len(unit))), "little")
    return column if m >= 3 else column & _full(m)


def monotone_table(k: int, test: Callable[[int], bool]) -> list[int]:
    """The minimal subsets, ascending, of a monotone property over all 2^k
    subsets of k bits.  Subsets are visited in increasing order, so each
    one-smaller subset is decided first; ``test`` runs only on a subset
    none of them has, and then it succeeds exactly on a minimal one."""
    table = bytearray(1 << k)
    minimal = []
    for S in range(1 << k):
        rest = S
        while rest:
            low = rest & -rest
            if table[S ^ low]:
                table[S] = 1
                break
            rest ^= low
        else:
            if test(S):
                table[S] = 1
                minimal.append(S)
    return minimal


def _minimal_walk_subsets(sg: StateGraph) -> tuple[list[int], list[int]]:
    """The k edges under useful states (``StateGraph.relevant_edges``) and
    the minimal subsets of them that admit a walk, ascending, bit t of each
    for the t-th of those edges: the per-subset walk search over their 2^k
    subsets alone.  Only those edges can carry a walk that reaches r."""
    relevant = sg.relevant_edges()
    return relevant, monotone_table(len(relevant), sg.admission_test(relevant))


def admits_table(sg: StateGraph) -> int:
    """Indicator of subsets admitting a walk of the protocol whose state
    graph is ``sg``: the minimal admitting subsets of the relevant edges,
    lifted to canonical edge positions, give the table as their superset
    closure.  The caller builds the graph, or derives it from the CFP's
    (``StateGraph.without``) for a removal set.  The counts of a walk
    table come from ``walk_table_counts``, which builds no 2^m table."""
    check_scan_guard(sg.graph.m)
    relevant, minimal = _minimal_walk_subsets(sg)
    return _superset_table(sg.graph.m, (sum(1 << relevant[t] for t in _bits(S)) for S in minimal))


def subset_admits_walk(protocol: Protocol, subset: Iterable[tuple[str, str]]) -> bool:
    """True iff some walk of the protocol uses only edges of the subset: a
    breadth-first search over the states (u, v), from any (s, x) to any
    (y, r), that follows instruction uvw only when uv and vw both lie in
    the subset.  It shares no code with the walk tables, which it checks."""
    graph = protocol.graph
    alive = {edge_key(u, v) for u, v in subset}
    forward: dict[tuple[str, str], list[str]] = {}
    for u, v, w in protocol.instructions:
        if edge_key(u, v) in alive and edge_key(v, w) in alive:
            forward.setdefault((u, v), []).append(w)
    frontier = [(graph.s, x) for x in graph.neighbors(graph.s) if edge_key(graph.s, x) in alive]
    seen = set(frontier)
    while frontier:
        if any(v == graph.r for _, v in frontier):
            return True
        step = []
        for u, v in frontier:
            for w in forward.get((u, v), ()):
                if (v, w) not in seen:
                    seen.add((v, w))
                    step.append((v, w))
        frontier = step
    return False


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


def _superset_table(m: int, masks: Iterable[int]) -> int:
    """Indicator of subsets containing one of the edge masks: the OR, over
    the masks, of the AND of each mask's columns.  A column is built when
    a mask first needs it, so edges on no mask cost nothing."""
    columns: dict[int, int] = {}
    full = _full(m)
    table = 0
    for mask in masks:
        up = full
        for e in _bits(mask):
            column = columns.get(e)
            if column is None:
                column = columns[e] = _column(m, e)
            up &= column
        table |= up
    return table


def path_table(protocol: Protocol) -> int:
    """Indicator of subsets containing the edge set of some protocol path."""
    check_scan_guard(protocol.graph.m)
    return _superset_table(protocol.graph.m, path_masks(protocol))


def connected_worlds(graph: TwoTerminalGraph, columns: Sequence[int], worlds: int) -> int:
    """The worlds of the bitset ``worlds`` that keep s and r in one
    component, given each edge's survival column over them: the sweep over
    the vertex-edge incidence graph, in which a vertex passes every world
    on and an edge only the worlds in which it survives."""
    order = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    # nodes 0..n-1 are the vertices, n + e is the e-th edge
    succ: list[Sequence[int]] = [[] for _ in order]
    for e, (u, v) in enumerate(graph.edge_list()):
        succ[index[u]].append(n + e)
        succ[index[v]].append(n + e)
        succ.append((index[u], index[v]))
    return _sweep(succ, [worlds] * n + list(columns), [index[graph.s]], [index[graph.r]])


def connectivity_table(graph: TwoTerminalGraph) -> int:
    """Indicator of subsets keeping s and r in one component."""
    m = graph.m
    check_scan_guard(m)
    return connected_worlds(graph, [_column(m, e) for e in range(m)], _full(m))


def failure_levels(m: int) -> Iterator[list[int]]:
    """For k = 0, 1, ..., m in turn, the survival columns of the C(m, k)
    worlds that fail exactly k of the m edges: bit t of column e is set iff
    edge e survives in world t.  A caller that stops early builds no later
    level.

    The columns follow the Pascal recurrence over the edges: the worlds
    failing k of edges 0..j are those failing k of edges 0..j-1 with edge
    j alive, then those failing k - 1 of them with edge j failed.  So each
    earlier column is its first block ORed with its second shifted past
    the first, and edge j's column is the first block's run of ones.  Only
    levels k - 1 and k are kept, one column list per prefix of the edges."""
    previous = [[0] * j for j in range(m + 1)]  # below level 0: no worlds
    previous_size = [0] * (m + 1)
    for k in range(m + 1):
        level, size = [[]], [1 if k == 0 else 0]
        for j in range(m):
            n = size[j]
            level.append([a | b << n for a, b in zip(level[j], previous[j])] + [(1 << n) - 1])
            size.append(n + previous_size[j])
            previous[j] = None  # level k - 1 of this prefix is no longer needed
        yield level[m]
        previous, previous_size = level, size


def _layers(n: int) -> list[int]:
    """Weight-layer masks over 2^n subsets: bit S of ``layers[i]`` is set
    iff S has i bits set."""
    layers = [1]
    for k in range(n):
        shift = 1 << k
        layers = [(layers[i] if i <= k else 0) | (layers[i - 1] << shift if i else 0) for i in range(k + 2)]
    return layers


def _block_counts(table: int, n: int, k: int) -> list[list[int]]:
    """counts[q][i]: subsets of the table (over n + k index bits) whose top
    k index bits read q and whose low n index bits hold i ones.

    The table is cut into leaves of 2^L bits, L = min(n, _LEAF_BITS); the
    index bits above a leaf's own are fixed within it, so each leaf adds
    the popcounts of its ANDs with the L-bit weight layers, shifted by the
    weight of its fixed low-part bits."""
    leaf = min(n, _LEAF_BITS)
    layers = _layers(leaf)
    data = table.to_bytes(max(1, (1 << (n + k)) >> 3), "little")
    if leaf >= 3:
        size = 1 << (leaf - 3)
        leaves = (int.from_bytes(data[at:at + size], "little") for at in range(0, len(data), size))
    else:  # several leaves per byte
        width = 1 << leaf
        low = (1 << width) - 1
        leaves = (data[at >> 3] >> (at & 7) & low for at in range(0, 1 << (n + k), width))
    high = n - leaf
    fixed = (1 << high) - 1
    counts = [[0] * (n + 1) for _ in range(1 << k)]
    for q, value in enumerate(leaves):
        if value:
            row = counts[q >> high]
            base = (q & fixed).bit_count()
            for i, layer in enumerate(layers):
                row[base + i] += (value & layer).bit_count()
    return counts


def spectrum_from_table(m: int, table: int) -> tuple[int, ...]:
    """a_i = number of i-edge subsets in the table."""
    return tuple(_block_counts(table, m, 0)[0])


def walk_spectrum(protocol: Protocol) -> tuple[int, ...]:
    """a_i = number of i-edge subsets admitting a protocol walk."""
    return tuple(walk_counts(protocol, None)[0])


def path_spectrum(protocol: Protocol) -> tuple[int, ...]:
    """a_i = number of i-edge subsets containing some protocol path."""
    return tuple(path_counts(protocol, None)[0])


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


def _overridden(graph: TwoTerminalGraph, probmap: EdgeProbabilityMap | None) -> list[int]:
    """Canonical positions of the overridden edges, refused past
    ``MAX_SPECIAL_EDGES``."""
    _, spos = _edge_polynomials(graph, probmap)
    if len(spos) > MAX_SPECIAL_EDGES:
        raise GuardExceededError(f"{len(spos)} overridden edges exceeds {MAX_SPECIAL_EDGES}")
    return spos


def _swap_index_bits(m: int, table: int, a: int, b: int) -> int:
    """The table over 2^m subsets with index bits a < b exchanged: one
    masked delta swap between each subset holding a but not b and the
    subset holding b but not a."""
    column = _column(m, a)
    mask = column ^ (column & _column(m, b))
    shift = (1 << b) - (1 << a)
    t = (table ^ table >> shift) & mask
    return table ^ t ^ t << shift


def _table_counts(n: int, spos: Sequence[int], table: int) -> list[list[int]]:
    """``subset_counts`` of a table over 2^n subsets whose index bits
    ``spos`` (ascending) are the overridden edges."""
    n_plain = n - len(spos)
    # Move the k-th overridden edge to index bit n_plain + k, so that each
    # pattern is one contiguous block of 2^n_plain subsets.  Going from the
    # last, each swap trades an overridden edge for a plain one above it
    # (spos[k] <= n_plain + k), and the edges still to move stay put.
    for k in reversed(range(len(spos))):
        if spos[k] != n_plain + k:
            table = _swap_index_bits(n, table, spos[k], n_plain + k)
    return _block_counts(table, n_plain, len(spos))


def subset_counts(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None,
    table: int,
) -> list[list[int]]:
    """counts[pattern][i]: admitted subsets whose overridden edges are
    exactly those of ``pattern`` (bit k for the k-th overridden edge in
    canonical order) and which hold i plain p-edges.  These are the
    coefficients of the admitted-subset sum in the basis
    prod_{k in pattern} w_k * prod_{k not in pattern} (1 - w_k) * p^i (1-p)^(n-i)."""
    return _table_counts(graph.m, _overridden(graph, probmap), table)


def support_counts(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None,
    support: Sequence[int],
    table: int,
) -> list[list[int]]:
    """``subset_counts`` of the table over all 2^m subsets that admits a
    subset exactly when its part on the k edges of ``support`` (canonical
    positions, ascending) is in ``table``, a table over their 2^k subsets
    (bit t of a subset for the t-th of them).  No 2^m table is built: the
    table is counted over its own k edges, then widened to the full basis.
    The m - k free edges may be in an admitted subset or not, so a free
    plain edge convolves each row with C(n_free, j), the ways to take j of
    the n_free free plain edges, and a free overridden edge gives each
    pattern row to both of its patterns."""
    spos = _overridden(graph, probmap)
    overridden = set(spos)
    inner = [t for t, e in enumerate(support) if e in overridden]
    counts = _table_counts(len(support), inner, table)
    if len(support) == graph.m:
        return counts
    n_free = graph.m - len(support) - (len(spos) - len(inner))
    ways = [comb(n_free, j) for j in range(n_free + 1)]
    widened = []
    for row in counts:
        full = [0] * (len(row) + n_free)
        for i, c in enumerate(row):
            if c:
                for j, w in enumerate(ways):
                    full[i + j] += c * w
        widened.append(full)
    # the row of each full pattern: its bits on the support's overridden edges
    held = set(support)
    rows, t = [0], 0
    for e in spos:
        if e in held:
            rows += [q | 1 << t for q in rows]
            t += 1
        else:
            rows += rows
    return [list(widened[q]) for q in rows]


def _bfs_rank(graph: TwoTerminalGraph) -> dict[str, int]:
    """Every vertex ranked by one BFS, the component of s first and each
    other component from its least vertex; the dict lists them by rank."""
    rank: dict[str, int] = {}
    for root in (graph.s, *sorted(graph.vertices)):
        if root not in rank:
            rank[root] = len(rank)
            queue = [root]
            for v in queue:
                for w in graph.neighbors(v):
                    if w not in rank:
                        rank[w] = len(rank)
                        queue.append(w)
    return rank


def _greedy_rank(graph: TwoTerminalGraph, bfs: dict[str, int]) -> dict[str, int]:
    """A min-frontier ranking: s first, then each time the vertex that
    leaves the fewest placed vertices with an unplaced neighbour, ties going
    to more edges into the placed set, then to the lower BFS rank.  When no
    unplaced vertex touches the placed set, the unplaced vertex of least
    BFS rank comes next.

    Vertices are worked on by their BFS rank.  Placing x adds x to those
    vertices if it keeps an unplaced neighbour, and takes away each placed
    neighbour x is the last unplaced neighbour of (``closes[x]``), so every
    candidate's key is kept up to date as it changes, packed into one int,
    and the next vertex is the least key."""
    names = list(bfs)
    n = len(names)
    neighbors = [[bfs[u] for u in graph.neighbors(v)] for v in names]
    placed = [False] * n
    unplaced = [0] * n  # of a placed vertex: its unplaced neighbours
    closes = [0] * n
    into = [0] * n  # of an unplaced vertex: its edges into the placed set
    key: dict[int, int] = {}  # unplaced vertex next to the placed set -> its key
    ranked: list[int] = []

    def rekey(x: int) -> None:
        key[x] = (((len(neighbors[x]) > into[x]) - closes[x] + n) * (n + 1) + n - into[x]) * n + x

    def close_last(u: int) -> None:
        for w in neighbors[u]:
            if not placed[w]:
                closes[w] += 1
                rekey(w)
                return

    v = restart = 0  # s has BFS rank 0
    while True:
        ranked.append(v)
        placed[v] = True
        key.pop(v, None)
        for u in neighbors[v]:
            if not placed[u]:
                unplaced[v] += 1
                into[u] += 1
                rekey(u)
            else:
                unplaced[u] -= 1
                if unplaced[u] == 1:
                    close_last(u)
        if unplaced[v] == 1:
            close_last(v)
        if len(ranked) == n:
            return {names[v]: k for k, v in enumerate(ranked)}
        if key:
            v = min(key.values()) % n
        else:
            while placed[restart]:
                restart += 1
            v = restart


@cache
def _bell(n: int) -> int:
    """The number of partitions of an n-set: Bell(n) = sum_i C(n - 1, i) Bell(i)."""
    return 1 if n == 0 else sum(comb(n - 1, i) * _bell(i) for i in range(n))


def _plan(graph: TwoTerminalGraph, spos: Sequence[int], rank: dict[str, int]) -> tuple[int, list[int]]:
    """(B, order) under a vertex ranking.  The order lists the canonical
    edge positions as the DP decides them: by the rank of the later
    endpoint, then of the earlier.  B sums, over its steps j, the bound
    Bell(w_j) * 2^o_j on the (pattern, configuration) entries the DP holds
    after deciding the j-th edge: w_j is the width of the frontier after
    the step with s and r always counted, since labels 0 and 1 outlive
    them, and o_j the number of overridden edges decided so far.  A
    configuration is a partition of those w_j vertices, and a pattern a
    subset of those o_j edges.  B is summed in one pass over the sorted
    order, each vertex followed by its rank rather than its name."""
    keyed = []
    for e, (u, v) in enumerate(graph.edge_list()):
        a, b = rank[u], rank[v]
        keyed.append((a, b, e) if a > b else (b, a, e))
    keyed.sort()
    last = [0] * len(rank)
    for j, (high, low, _) in enumerate(keyed):
        last[high] = last[low] = j
    entered = [False] * len(rank)
    for x in (rank[graph.s], rank[graph.r]):  # counted throughout
        entered[x] = True
        last[x] = -1
    overridden = set(spos)
    bound, width, decided = 0, 2, 0
    for j, (high, low, e) in enumerate(keyed):
        if not entered[high]:
            entered[high] = True
            width += 1
        if not entered[low]:
            entered[low] = True
            width += 1
        if last[high] == j:
            width -= 1
        if last[low] == j:
            width -= 1
        if e in overridden:
            decided += 1
        bound += _bell(width) << decided
    return bound, [e for _, _, e in keyed]


def _decision_orders(graph: TwoTerminalGraph, spos: Sequence[int]) -> list[tuple[int, list[int]]]:
    """(B, order) for the BFS and then the greedy ranking.  When the two
    rankings coincide, so do their plans, and the BFS one is used twice."""
    bfs = _bfs_rank(graph)
    greedy = _greedy_rank(graph, bfs)
    first = _plan(graph, spos, bfs)
    return [first, first if greedy == bfs else _plan(graph, spos, greedy)]


class _Settled(dict):
    """One DP step's configurations on the new frontier, by the labels the
    step keeps: renumbered by first occurrence keeping 0 and 1, or None
    when label 0 or 1 is gone (the configuration is dropped).  Many
    configurations keep the same labels, so each is renumbered once."""

    __slots__ = ()

    def __missing__(self, picked: tuple[int, ...]) -> tuple[int, ...] | None:
        key = None
        if 0 in picked and 1 in picked:
            seen = {0: 0, 1: 1}
            key = tuple([seen.setdefault(x, len(seen)) for x in picked])
        self[picked] = key
        return key


def _frontier_steps(
    graph: TwoTerminalGraph, spos: Sequence[int], order: Sequence[int]
) -> Iterator[dict[int, dict[tuple[int, ...], int]]]:
    """The DP's groups after each step, deciding the edges (canonical
    positions) in the given order; ``spos`` lists the overridden edges.
    See ``connectivity_counts``."""
    m = graph.m
    edges = graph.edge_list()
    s, r = graph.s, graph.r
    flag = [0] * m  # pattern bit of each overridden edge
    for k, e in enumerate(spos):
        flag[e] = 1 << k
    width = _field_bits(m)
    last = {s: 0, r: 0}  # an s or r with no edge leaves at the first step
    last.update((v, j) for j, e in enumerate(order) for v in edges[e])

    frontier = [s, r]
    states: dict[int, dict[tuple[int, ...], int]] = {0: {(0, 1): 1}}
    for j, e in enumerate(order):
        u, v = edges[e]
        entering = [x for x in (u, v) if x not in frontier]
        fresh = tuple(range(len(frontier), len(frontier) + len(entering)))  # above every label in use
        frontier += entering
        a, b = frontier.index(u), frontier.index(v)
        keep = [i for i, x in enumerate(frontier) if last[x] != j]
        frontier = [frontier[i] for i in keep]
        pick = itemgetter(*keep) if len(keep) > 1 else lambda labels: tuple([labels[i] for i in keep])
        settled = _Settled()

        # Where each configuration goes if e fails and if it survives, the
        # same in every pattern (None where it is dropped), worked out when
        # the configuration is first met.  A merge is applied to the kept
        # labels, so a component that leaves the frontier is never renamed.
        moves: dict[tuple[int, ...], tuple] = {(): ((), ())}
        shift = 0 if flag[e] else width
        following: dict[int, dict[tuple[int, ...], int]] = {}
        for pattern, group in states.items():
            fail = following.setdefault(pattern, {})
            live = following.setdefault(pattern | flag[e], {})
            for labels, count in group.items():
                move = moves.get(labels)
                if move is None:
                    grown = labels + fresh
                    la, lb = grown[a], grown[b]
                    picked = pick(grown)
                    failed = settled[picked]
                    if la == lb:  # surviving or not, e joins nothing
                        move = (failed, failed)
                    elif la + lb == 1:
                        move = (failed, ())
                    else:
                        low, high = (la, lb) if la < lb else (lb, la)
                        if high in picked:
                            move = (failed, settled[tuple([low if x == high else x for x in picked])])
                        else:
                            move = (failed, failed)
                    moves[labels] = move
                failed, survived = move
                if failed is not None:
                    fail[failed] = fail.get(failed, 0) + count
                if survived is not None:
                    live[survived] = live.get(survived, 0) + (count << shift)
        states = {pattern: group for pattern, group in following.items() if group}
        yield states


def _field_bits(m: int) -> int:
    """The bits of one plain-edge count's field in the DP's packed ints:
    more than m, since no count exceeds 2^m."""
    return 8 * (m // 8 + 1)


def _frontier_counts(graph: TwoTerminalGraph, spos: Sequence[int], order: Sequence[int]) -> list[list[int]]:
    """The connectivity counts by the DP, deciding the edges in the given
    order, read off the joined configuration ``()`` after the last step."""
    states: dict[int, dict[tuple[int, ...], int]] = {0: {(0, 1): 1}}
    for states in _frontier_steps(graph, spos, order):
        pass
    step = _field_bits(graph.m) // 8
    fields = graph.m - len(spos) + 1
    counts = []
    for pattern in range(1 << len(spos)):
        data = states.get(pattern, {}).get((), 0).to_bytes(step * fields, "little")
        counts.append([int.from_bytes(data[at:at + step], "little") for at in range(0, step * fields, step)])
    return counts


def connectivity_counts(graph: TwoTerminalGraph, probmap: EdgeProbabilityMap | None) -> list[list[int]]:
    """``subset_counts(graph, probmap, connectivity_table(graph))``: the
    subsets keeping s and r in one component, counted by a frontier DP over
    the edges (Carlier & Lucet 1996; Hardy, Lucet & Limnios 2007) instead
    of a 2^m-bit table.

    The edges are decided one at a time, keyed by the rank of their later
    endpoint.  The frontier is s, r and the vertices with both decided and
    undecided edges; an edge brings in each endpoint not on it with a fresh
    label.  A configuration is the partition of the frontier into
    components of the surviving decided edges: a tuple of labels, 0 for the
    component of s and 1 for that of r.  Configurations are grouped by the
    override pattern of the decided edges (bit k for the k-th overridden
    edge in canonical order), and each carries one packed int, a field of
    ``_field_bits(m)`` bits per plain-edge count, and a surviving plain edge
    shifts the int by one field.  A group holds only the patterns that
    occur, so heavy overrides cost entries, not a dense block of 2^k
    patterns per configuration.  Joined s and r are the configuration
    ``()``, which every edge leaves as it is; the counts are read from it at
    the end.  A configuration whose label 0 or 1 leaves the frontier can no
    longer join them: it is dropped.

    The vertices are ranked two ways, by one BFS from s and by a greedy
    min-frontier rule (``_greedy_rank``).  Each ranking's order has a bound
    B, the sum of its step bounds (``_plan``), on the entries the DP holds;
    the DP runs the order of smaller B, BFS on a tie.  Past
    ``MAX_SCAN_EDGES`` edges it is refused before its first step when that
    B passes ``MAX_DP_CONFIGURATIONS``.  Up to there it runs whatever B is:
    B counts every override pattern with every partition, so it overstates
    heavy overrides, while each step holds at most one entry per subset of
    the decided edges."""
    spos = _overridden(graph, probmap)
    bound, order = min(_decision_orders(graph, spos), key=lambda plan: plan[0])
    if graph.m > MAX_SCAN_EDGES and bound > MAX_DP_CONFIGURATIONS:
        raise GuardExceededError(
            f"the frontier DP's configuration bound on {graph.m} edges exceeds its guard of {MAX_DP_CONFIGURATIONS}"
        )
    return _frontier_counts(graph, spos, order)


def polynomial_from_counts(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None,
    counts: list[list[int]],
) -> Poly:
    """Assemble the polynomial whose coordinates in the subset-count basis
    are ``counts`` (as returned by ``subset_counts``).  A pattern's plain
    part sum_i c_i p^i (1-p)^(n-i) has integer coefficients: that of p^k is
    sum_{i<=k} c_i C(n-i, k-i) (-1)^(k-i), the coefficient of x^(n-k) in
    sum_i c_i (x - 1)^(n-i): the reversed counts, Taylor shifted by -1.
    The override factors are folded in one edge at a time, from the last
    overridden edge (the top pattern bit) to the first: rows q and q | bit,
    one in each half, become row_q + (row_{q|bit} - row_q) * w."""
    wpolys, spos = _edge_polynomials(graph, probmap)
    rows = [_canonical(_taylor_shift(row[::-1], -1)[::-1], 1) for row in counts]
    for pos in reversed(spos):
        w = wpolys[pos]
        half = len(rows) // 2
        rows = [a + (b - a) * w for a, b in zip(rows[:half], rows[half:])]
    return rows[0]


def polynomial_from_table(
    graph: TwoTerminalGraph,
    probmap: EdgeProbabilityMap | None,
    table: int,
) -> Poly:
    """Sum, over admitted subsets S, of prod_{e in S} w_e * prod_{e not in S}
    (1 - w_e): the subset counts of the table, assembled."""
    return polynomial_from_counts(graph, probmap, subset_counts(graph, probmap, table))


def walk_table_counts(sg: StateGraph, probmap: EdgeProbabilityMap | None) -> list[list[int]]:
    """``subset_counts(sg.graph, probmap, admits_table(sg))``: the walk
    table over the 2^k subsets of the k relevant edges, its superset
    closure of the minimal admitting subsets, counted and widened
    (``support_counts``), so no 2^m table is built when k < m."""
    check_scan_guard(sg.graph.m)
    relevant, minimal = _minimal_walk_subsets(sg)
    return support_counts(sg.graph, probmap, relevant, _superset_table(len(relevant), minimal))


def walk_counts(protocol: Protocol, probmap: EdgeProbabilityMap | None) -> list[list[int]]:
    """The subset counts of the protocol's walk table: the connectivity
    counts, with no table built, for a protocol that contains the CFP, and
    otherwise ``walk_table_counts`` of its state graph."""
    graph = protocol.graph
    check_scan_guard(graph.m)
    if contains_cfp(protocol):
        return connectivity_counts(graph, probmap)
    return walk_table_counts(StateGraph(protocol), probmap)


def path_counts(protocol: Protocol, probmap: EdgeProbabilityMap | None) -> list[list[int]]:
    """The subset counts of the protocol's path table.  The s,r-paths are
    enumerated once: when every one is a protocol path, the protocol
    contains the CFP and these are the connectivity counts, with no table
    built; otherwise the table of the protocol paths is built over the
    edges of those paths alone, and counted and widened
    (``support_counts``)."""
    graph = protocol.graph
    check_scan_guard(graph.m)
    paths = enumerate_sr_paths(graph)
    # plain triples hash and compare as the Instruction tuples they stand for
    kept = [p for p in paths if protocol.instructions.issuperset(zip(p, p[1:], p[2:]))]
    if len(kept) == len(paths):
        return connectivity_counts(graph, probmap)
    masks = edge_masks(graph, kept)
    union = 0
    for mask in masks:
        union |= mask
    support = _bits(union)
    if len(support) < graph.m:  # renumber the masks' bits by the support
        position = {e: 1 << t for t, e in enumerate(support)}
        masks = [sum(position[e] for e in _bits(mask)) for mask in masks]
    return support_counts(graph, probmap, support, _superset_table(len(support), masks))


def rho_A(protocol: Protocol, probmap: EdgeProbabilityMap | None = None) -> Poly:
    """Probability that the edges of some protocol walk all survive."""
    return polynomial_from_counts(protocol.graph, probmap, walk_counts(protocol, probmap))


def rho_prime_A(protocol: Protocol, probmap: EdgeProbabilityMap | None = None) -> Poly:
    """Probability that the edge set of some protocol path fully survives:
    the path counts, assembled."""
    return polynomial_from_counts(protocol.graph, probmap, path_counts(protocol, probmap))


def rho(graph: TwoTerminalGraph, probmap: EdgeProbabilityMap | None = None) -> Poly:
    """Two-terminal reliability: walk survival under the CFP, which is the
    probability that s and r stay connected.  Read off the connectivity
    counts; no CFP is built and no path enumerated."""
    return polynomial_from_counts(graph, probmap, connectivity_counts(graph, probmap))


def rho_by_connectivity(graph: TwoTerminalGraph, probmap: EdgeProbabilityMap | None = None) -> Poly:
    """Two-terminal reliability from the bit-sliced connectivity table: the
    table oracle of the frontier DP behind ``rho``.  The two share only the
    polynomial assembly, so each checks the other's counts."""
    table = connectivity_table(graph)
    return polynomial_from_table(graph, probmap, table)


def rho_prime_inclusion_exclusion(protocol: Protocol, probmap: EdgeProbabilityMap | None = None) -> Poly:
    """Inclusion-exclusion over the protocol's paths; cross-check only."""
    if probmap is None:
        probmap = EdgeProbabilityMap.constant_p(protocol.graph)
    masks = path_masks(protocol)
    k = len(masks)
    if k > MAX_IE_PATHS:
        raise GuardExceededError(f"{k} paths exceeds the inclusion-exclusion guard of {MAX_IE_PATHS}")
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
