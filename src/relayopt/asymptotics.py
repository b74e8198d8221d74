"""Path/cut censuses, near-zero and near-one heads, and robustness.

Near p = 0 the optimal reliability is governed by the counts of short
s,r-paths; near p = 1 by the number of minimum s,r edge cuts.  The
near-zero head is read off the path census, which enumerates the paths
under the path guard, and the cut census is the complement of the
connectivity counts, under the frontier DP's guard; neither builds a 2^m
table.  The near-one head and robustness are questions about the fewest
failures, so they search the failure levels (the worlds that fail exactly
k edges) upward from k = 0 under the subset-scan guard, and stop at the
first level that answers.  The
piecewise optimizer's extreme pieces are checked against the heads in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .engine import StateGraph, bounded_protocol, contains_cfp, enumerate_sr_paths, is_finite
from .errors import DomainError, InfiniteProtocolError
from .graphs import Protocol, TwoTerminalGraph
from .reliability import (
    check_scan_guard,
    connected_worlds,
    connectivity_counts,
    failure_levels,
)


@dataclass(frozen=True)
class PathCensus:
    """distance: length of a shortest s,r-path; counts: path count by length."""

    distance: int | None
    counts: dict[int, int]

    def count(self, length: int) -> int:
        return self.counts.get(length, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class CutCensus:
    """min_cut: size of a smallest disconnecting edge set; counts[j]: number
    of j-edge sets whose removal disconnects s from r."""

    min_cut: int | None
    counts: dict[int, int]

    def count(self, size: int) -> int:
        return self.counts.get(size, 0)


def path_census(graph: TwoTerminalGraph) -> PathCensus:
    """Path counts by length, from the one enumeration of the s,r-paths,
    which ``MAX_PATHS`` guards; no 2^m table is built, so the subset-scan
    guard does not apply."""
    counts: dict[int, int] = {}
    for p in enumerate_sr_paths(graph):
        counts[len(p) - 1] = counts.get(len(p) - 1, 0) + 1
    return PathCensus(min(counts) if counts else None, counts)


def cut_census(graph: TwoTerminalGraph) -> CutCensus:
    """A j-set disconnects iff its complement does not connect s to r, so
    the counts are the complement of the connectivity spectrum, which the
    frontier DP counts."""
    m = graph.m
    connected = connectivity_counts(graph, None)[0]
    counts: dict[int, int] = {}
    for j in range(m + 1):
        c = comb(m, j) - connected[m - j]
        if c:
            counts[j] = c
    return CutCensus(min(counts) if counts else None, counts)


def near_zero_expansion(graph: TwoTerminalGraph):
    """Head data of the optimal reliability near p = 0: the distance k, the
    counts of paths of lengths k and k+1, and the finite protocol of all
    instructions on paths of length at most k+1."""
    census = path_census(graph)
    k = census.distance
    if k is None:
        raise DomainError("s and r are disconnected", code="disconnected")
    protocol = bounded_protocol(graph, k + 1)
    if not is_finite(protocol):
        raise AssertionError("short-path protocol is not finite")
    return k, census.count(k), census.count(k + 1), protocol


def near_one_expansion(graph: TwoTerminalGraph) -> tuple[int, int]:
    """Head data near p = 1: minimum cut size e and the number of minimum
    cuts, so the optimum is 1 - c_e q^e + O(q^(e+1)) in q = 1 - p.

    The failure levels k = 0, 1, ... are searched upward: the first with a
    world that disconnects s from r has k = e, and its disconnected worlds
    are the c_e minimum cuts."""
    m = graph.m
    check_scan_guard(m)
    for k, columns in enumerate(failure_levels(m)):
        worlds = (1 << comb(m, k)) - 1
        cuts = worlds ^ connected_worlds(graph, columns, worlds)
        if cuts:
            return k, cuts.bit_count()
    raise DomainError("s and r cannot be disconnected by edge removals")


def robustness(protocol: Protocol) -> int:
    """Largest k such that every failure of at most k edges that leaves s,r
    connected still admits a protocol walk; requires a finite protocol.
    It is m when no failure leaves s,r connected without a walk, and -1
    when the graph with no failure already does (the empty protocol on a
    graph with no s,r edge, say).

    The failure levels k = 0, 1, ... are searched upward.  The first level
    with a world that connects s and r but admits no walk gives k - 1.  A
    level with no connected world gives m, since every world with more
    failures is disconnected too.  A protocol containing the CFP admits a
    walk wherever s and r are connected, so its robustness is m at once."""
    graph = protocol.graph
    m = graph.m
    check_scan_guard(m)
    sg = StateGraph(protocol)
    if sg.order is None:
        raise InfiniteProtocolError("infinite protocol")
    if contains_cfp(protocol):
        return m
    for k, columns in enumerate(failure_levels(m)):
        connected = connected_worlds(graph, columns, (1 << comb(m, k)) - 1)
        if not connected:
            break
        if connected & ~sg.delivered(columns):
            return k - 1
    return m
