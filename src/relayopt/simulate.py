"""Monte Carlo cross-validation of the exact reliabilities.

Edge survival is sampled from a counter-based generator: one keyed BLAKE2b
digest per (seed, trial index, 16-edge block), four bytes per edge.  Trials
are therefore independent of evaluation order, so re-runs with the same
seed reproduce reports byte for byte.

Trials are sampled as columns, ``BLOCK`` trials at a time: each edge's
survival over a block is one int with one bit per trial.  Delivery is
decided for the whole block by reachability sweeps over the protocol's
state graph, ``reach[j] |= reach[i] & column[edge of j]``, run to a
fixpoint, so infinite protocols need no special case and no cost grows
with 2^m.

Only the first 16-edge block is drawn for every trial.  Delivery is
monotone in the surviving edges: a trial delivered with the undrawn edges
all failed is delivered whatever they do, and one not delivered with them
all surviving is never delivered.  So before each later block one sweep
computes both bounds, and only the trials between them draw it.  The
digest of a (trial, block) does not depend on which trials draw it, so
the reports are the same as when every block is drawn.

Copies are counted bit-sliced over the same columns, and need every edge:
``count_copies`` draws every block for every trial.  The useful states
of a finite protocol form a DAG; each holds its number of surviving walks
as bit planes (bit t of plane k is bit k of the count in trial t), filled
in reverse topological order: a state's planes are the ripple-carry sum of
its successors' planes, plus one plane of every trial if it is accepting,
each ANDed with the column of its edge.  The block's histogram splits its
trials by the planes of the initial states' sum, most significant first,
with one popcount per distinct count.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from typing import Callable, Sequence

from .engine import StateGraph, a_walks
from .errors import GuardExceededError, InfiniteProtocolError
from .graphs import EdgeProbabilityMap, Protocol, edge_key, require_open_unit
from .polys import Poly

COPY_CAP = 10 ** 6
BLOCK = 512  # trials sampled and swept together
_CHUNK = 4  # bytes of hash output per edge
_SCALE = 1 << (8 * _CHUNK)
_PER_DIGEST = 64 // _CHUNK  # edges per digest
_binary = partial(int, base=2)
_KEEP = bytes.maketrans(b"01", b"\0\1")  # undecided-trial flags to truth values for ``compress``
_DROP = bytes.maketrans(b"01", b"\x80\0")  # ... and to ``_compact``'s marks, 0x80 where decided
_message = struct.Struct(">QH").pack  # (trial index, 16-edge block)
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


def _survival_digits(base, m: int, threshold: int, trials: Sequence[int], blk: int) -> list[bytes]:
    """For each edge of the 16-edge block ``blk``, one ASCII digit per
    trial index in ``trials``: ``1`` where the edge survives.  Edge j
    survives trial t iff the big-endian word at offset 4*(j mod 16) of the
    digest of (t, j // 16) is below ``threshold``.

    The words are compared by their top byte first, with one ``translate``
    per edge; only the trials whose top byte ties the threshold's (1 in
    256) compare the remaining three bytes one by one.  The digests are
    drawn by ``map`` over the hash type's own methods, so no Python code
    runs per trial."""
    top, low = divmod(threshold, 1 << 24)
    by_top = b"1" * top + b"?" + b"0" * (255 - top)
    kind = type(base)
    n = len(trials)
    hashes = list(map(kind.copy, repeat(base, n)))
    deque(map(kind.update, hashes, map(_message, trials, repeat(blk, n))), maxlen=0)
    stream = b"".join(map(kind.digest, hashes))
    digits = []
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


def _compact(digits: list[bytes], drop: bytes) -> list[bytes]:
    """The digit rows without the positions where ``drop`` holds 0x80 (it
    holds 0 elsewhere).  Adding ``drop`` to each row lifts the dropped
    digits to 0xB0 and 0xB1, which one ``translate`` deletes."""
    n = len(drop)
    flagged = int.from_bytes(b"".join(digits), "big") + int.from_bytes(drop * len(digits), "big")
    kept = flagged.to_bytes(n * len(digits), "big").translate(None, b"\xb0\xb1")
    k = len(kept) // len(digits)
    return [kept[i:i + k] for i in range(0, len(kept), k)]


def _deliveries(sg: StateGraph, draw: Callable[[Sequence[int], int], list[bytes]], m: int,
                trials: Sequence[int]) -> int:
    """Number of the trials ``trials`` in which some protocol walk survives.

    Block 0 is drawn for every trial.  Before each later block, one sweep
    over twice the trials bounds delivery: in the low half the undrawn
    edges all fail, in the high half they all survive.  Delivery is
    monotone in the surviving edges, so a trial delivered in the low half
    is delivered whatever the undrawn edges do, and one not delivered in
    the high half is not delivered at all.  Only the trials in between
    draw the next block, and the digit rows drawn so far are compacted to
    them.  A final sweep decides the trials left after the last block.

    Digit i of a row is the trial ``trials[i]``, so it is bit n - 1 - i of
    the row's column."""
    digits = draw(trials, 0)
    delivered = 0
    for blk in range(1, (m + _PER_DIGEST - 1) // _PER_DIGEST):
        n = len(trials)
        both = [c << n | c for c in map(_binary, digits)] + [((1 << n) - 1) << n] * (m - len(digits))
        got = sg.delivered(both)
        lo, hi = got & (1 << n) - 1, got >> n
        delivered += lo.bit_count()
        if hi == lo:
            return delivered
        undecided = format(hi & ~lo, f"0{n}b").encode()
        trials = list(compress(trials, undecided.translate(_KEEP)))
        digits = _compact(digits, undecided.translate(_DROP)) + draw(trials, blk)
    return delivered + sg.delivered(list(map(_binary, digits))).bit_count()


def _copy_counts(sg: StateGraph, columns: list[int], trials: int) -> dict[int, int]:
    """Histogram of the number of surviving protocol walks over the trials
    of the bitset ``trials``, given each edge's survival column.  Needs the
    topological order, so the protocol must be finite."""
    arcs = sg.arcs
    planes: list[list[int]] = [[] for _ in arcs]
    for i in reversed(sg.order):
        total = [trials] if sg.accepting >> i & 1 else []
        for j in arcs[i]:
            total = _add(total, planes[j])
        col = columns[sg.edge[i]]
        planes[i] = [p & col for p in total]
    total = []
    for i in sg.initial:
        total = _add(total, planes[i])
    groups = {0: trials}
    for k in reversed(range(len(total))):
        plane, split = total[k], {}
        for count, where in groups.items():
            high = where & plane
            if high:
                split[count | 1 << k] = high
            if high != where:
                split[count] = where ^ high
        groups = split
    return {count: where.bit_count() for count, where in groups.items()}


def _add(a: list[int], b: list[int]) -> list[int]:
    """Ripple-carry sum of two per-trial counts held as bit planes, least
    significant plane first."""
    if len(a) < len(b):
        a, b = b, a
    out, carry = [], 0
    for k, x in enumerate(a):
        if k < len(b):
            y = b[k]
        elif carry:
            y = 0
        else:
            return out + a[k:]
        out.append(x ^ y ^ carry)
        carry = x & y | carry & (x ^ y)
    if carry:
        out.append(carry)
    return out


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
    sg = StateGraph(protocol)
    if count_copies and sg.order is None:
        raise InfiniteProtocolError("copy counting needs a finite protocol")
    m = protocol.graph.m
    threshold = (p0.numerator * _SCALE) // p0.denominator
    base = hashlib.blake2b(key=seed.to_bytes(8, "big", signed=True), digest_size=64)
    draw = partial(_survival_digits, base, m, threshold)
    blocks = (m + _PER_DIGEST - 1) // _PER_DIGEST
    deliveries = 0
    histogram: Counter[int] = Counter()
    for first in range(0, trials, BLOCK):
        batch = range(first, min(first + BLOCK, trials))
        if not count_copies:
            deliveries += _deliveries(sg, draw, m, batch)
            continue
        # copy counts need every edge, so every trial draws every block
        columns = [_binary(row) for blk in range(blocks) for row in draw(batch, blk)]
        deliveries += sg.delivered(columns).bit_count()
        counts = _copy_counts(sg, columns, (1 << len(batch)) - 1)
        if max(counts) > COPY_CAP:
            raise GuardExceededError(f"more than {COPY_CAP} surviving walks in one trial")
        histogram.update(counts)
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
