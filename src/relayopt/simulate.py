"""Monte Carlo cross-validation of the exact reliabilities.

Edge survival is sampled from a counter-based generator: one keyed BLAKE2b
digest per (seed, trial index, 16-edge block), four bytes per edge.  Trials
are therefore independent of evaluation order, so re-runs with the same
seed reproduce reports byte for byte.

Trials are sampled as columns, ``BLOCK`` trials at a time: each edge's
survival over a block is one int with one bit per trial.  Delivery is
decided for the whole block by one reachability sweep over the protocol's
state graph, ``reach[j] |= reach[i] & column[edge of j]``, run to a
fixpoint, so infinite protocols need no special case and no cost grows
with 2^m.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .engine import StateGraph, _sweep, a_walks, is_finite, topological_order
from .errors import GuardExceededError, InfiniteProtocolError
from .graphs import EdgeProbabilityMap, Protocol, edge_key, require_open_unit
from .polys import Poly

COPY_CAP = 10 ** 6
BLOCK = 512  # trials sampled and swept together
_CHUNK = 4  # bytes of hash output per edge
_SCALE = 1 << (8 * _CHUNK)
_PER_DIGEST = 64 // _CHUNK  # edges per digest
_MEMO_MASKS = 1 << 16  # walk counts kept for copy counting
_binary = partial(int, base=2)
SEED_MIN, SEED_MAX = -(1 << 63), (1 << 63) - 1  # seeds key BLAKE2b as 8 signed bytes


@dataclass(frozen=True)
class TrialReport:
    trials: int
    deliveries: int
    estimate: Fraction
    stderr: float
    copies: dict[int, int] | None = None

    def to_json(self) -> dict:
        obj = {
            "trials": self.trials,
            "deliveries": self.deliveries,
            "estimate": str(self.estimate),
            "stderr": self.stderr,
        }
        if self.copies is not None:
            obj["copies"] = {str(k): v for k, v in sorted(self.copies.items())}
        return obj


def _survival_digits(base, m: int, threshold: int, first: int, stop: int) -> list[bytes]:
    """For each edge, one ASCII digit per trial in ``range(first, stop)``:
    ``1`` where the edge survives.  Edge j survives trial t iff the
    big-endian word at offset 4*(j mod 16) of the digest of
    (t, j // 16) is below ``threshold``.

    The words are compared by their top byte first, with one ``translate``
    per edge; only the trials whose top byte ties the threshold's (1 in
    256) compare the remaining three bytes one by one."""
    top, low = divmod(threshold, 1 << 24)
    by_top = b"1" * top + b"?" + b"0" * (255 - top)
    digits = []
    for blk in range((m + _PER_DIGEST - 1) // _PER_DIGEST):
        tail = blk.to_bytes(2, "big")
        digests = []
        for t in range(first, stop):
            h = base.copy()
            h.update(t.to_bytes(8, "big") + tail)
            digests.append(h.digest())
        stream = b"".join(digests)
        for at in range(0, _CHUNK * min(_PER_DIGEST, m - blk * _PER_DIGEST), _CHUNK):
            row = stream[at::64].translate(by_top)
            tie = row.find(b"?")
            if tie >= 0:
                row = bytearray(row)
                while tie >= 0:
                    k = 64 * tie + at + 1
                    row[tie] = 49 if int.from_bytes(stream[k:k + 3], "big") < low else 48
                    tie = row.find(b"?", tie + 1)
            digits.append(row)
    return digits


class _StateSweep:
    """The protocol's useful states (reachable from an initial state and
    co-reaching an accepting one), each with the index of its edge, and
    their topological order when the protocol is finite."""

    def __init__(self, protocol: Protocol):
        sg = StateGraph(protocol)
        useful = sg.useful()
        essential = sg.essential()
        self.edge = sg.edge
        self.succ = [tuple(j for j in out if mask >> j & 1) for out, mask in zip(sg.out, essential)]
        self.initial = [i for i in sg.initial if useful >> i & 1]
        self.accepting = [i for i in range(len(essential)) if (sg.accepting & useful) >> i & 1]
        order = topological_order(essential)
        self.order = None if order is None else [i for i in order if useful >> i & 1]

    def delivered(self, columns: list[int]) -> int:
        """Bitset of the trials in which some protocol walk survives, given
        each edge's survival column."""
        return _sweep(self.succ, [columns[e] for e in self.edge], self.initial, self.accepting)

    def walk_counter(self):
        """A function from an edge mask to its number of surviving walks,
        memoised on the most recent ``_MEMO_MASKS`` masks.  The useful
        states of a finite protocol form a DAG; counts are filled in
        reverse topological order."""
        succ = self.succ
        accepting = set(self.accepting)
        plan = [(i, 1 << self.edge[i], int(i in accepting), succ[i]) for i in reversed(self.order)]
        initial = self.initial

        @lru_cache(maxsize=_MEMO_MASKS)
        def count(mask: int) -> int:
            walks = [0] * len(succ)
            for i, bit, delivers, nxt in plan:
                if mask & bit:
                    total = delivers
                    for j in nxt:
                        total += walks[j]
                    walks[i] = total
            return sum([walks[i] for i in initial])

        return count


def simulate(
    protocol: Protocol,
    p0: Fraction,
    trials: int,
    seed: int,
    count_copies: bool = False,
) -> TrialReport:
    """Estimate delivery probability by sampling edge failures; optionally
    histogram the number of message copies the receiver gets per trial."""
    require_open_unit(p0)
    if trials < 1:
        raise ValueError("the number of trials must be at least 1")
    if not SEED_MIN <= seed <= SEED_MAX:
        raise ValueError("the seed must fit in a signed 64-bit integer")
    if count_copies and not is_finite(protocol):
        raise InfiniteProtocolError("copy counting needs a finite protocol")
    m = protocol.graph.m
    sweep = _StateSweep(protocol)
    count = sweep.walk_counter() if count_copies else None
    threshold = (p0.numerator * _SCALE) // p0.denominator
    base = hashlib.blake2b(key=seed.to_bytes(8, "big", signed=True), digest_size=64)
    deliveries = 0
    histogram: Counter[int] = Counter()
    for first in range(0, trials, BLOCK):
        stop = min(first + BLOCK, trials)
        digits = _survival_digits(base, m, threshold, first, stop)
        deliveries += sweep.delivered([_binary(d[::-1]) for d in digits]).bit_count()
        if count is not None:
            # Most significant digit first: edge m-1 down to edge 0, behind
            # a leading 0 so that m = 0 still yields one mask per trial.
            masks = Counter(map(bytes, zip(b"0" * (stop - first), *reversed(digits))))
            for mask, n in masks.items():
                c = count(_binary(mask))
                if c > COPY_CAP:
                    raise GuardExceededError(f"more than {COPY_CAP} surviving walks in one trial")
                histogram[c] += n
    estimate = Fraction(deliveries, trials)
    stderr = math.sqrt(float(estimate * (1 - estimate)) / trials)
    return TrialReport(trials, deliveries, estimate, stderr, dict(histogram) if count_copies else None)


def expected_copies(protocol: Protocol, probmap: EdgeProbabilityMap | None = None) -> Poly:
    """Exact expected number of copies delivered: the sum over protocol
    walks of the survival probability of the walk's (distinct) edges."""
    if probmap is None:
        probmap = EdgeProbabilityMap.constant_p(protocol.graph)
    total = Poly.zero()
    for walk in a_walks(protocol):
        term = Poly.one()
        for e in {edge_key(walk[i], walk[i + 1]) for i in range(len(walk) - 1)}:
            term = term * probmap.poly_for_edge(e)
        total = total + term
    return total
