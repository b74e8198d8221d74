"""Seeded query streams for the four benchmark workloads, and the checks
that verify each query's output outside the timed region.

Graphs come from the fixed corpus in ``corpus.json`` (see
``make_corpus.py``), arranged in strata of like cost.  A run walks the
corpus in a fixed order, round by round, one item of every stratum per
round and every command of the workload on each item, and times whole
passes over it, so runs of different seeds time the same mix.  The run seed picks fresh vertex
labels for every query and the query parameters (evaluation points,
removal sets, sampler seeds).

Fresh labels make every query's graph a new value: no two queries of one
run share a graph and probability map (for ``simulate``: a graph,
probability and sampler seed), so the optimizer's in-process caches never
answer a repeat, as for a command-line user, who gets a fresh process
per command.  Query i draws from its own stream ``"<workload>:<seed>:<i>"``,
so the first N queries are the same whatever N is; warm-up queries use
the separate ``":warmup"`` stream.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from relayopt import asymptotics, constructions, engine, optimizer, reliability
from relayopt.graphs import EdgeProbabilityMap, Instruction, Protocol, b0, graph_json, parse_graph
from relayopt.polys import Poly, parse_rational
from relayopt.simulate import expected_copies

from make_corpus import random_tree

HERE = os.path.dirname(os.path.abspath(__file__))


class VerificationError(Exception):
    """A query's output disagrees with an independent computation."""


@dataclass
class Query:
    qid: str
    kind: str
    argv: list[str]
    stdin: str
    item: tuple = ()
    meta: dict = field(default_factory=dict)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationError(message)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _poly(strings: list[str]) -> Poly:
    return Poly.from_strings(strings)


def _rational(rng: random.Random) -> str:
    b = rng.randint(3, 9)
    return f"{rng.randint(1, b - 1)}/{b}"


def relabel(gobj: dict, rng: random.Random) -> tuple[dict, dict]:
    """The graph with its internal vertices renamed at random; s and r keep
    their names.  Returns the graph JSON and the renaming."""
    inner = [v for v in gobj["vertices"] if v not in (gobj["s"], gobj["r"])]
    names = [f"u{k}" for k in rng.sample(range(1000), len(inner))]
    ren = {gobj["s"]: "s", gobj["r"]: "r", **dict(zip(inner, names))}
    edges = sorted(sorted((ren[u], ren[v])) for u, v in gobj["edges"])
    return {"vertices": sorted(ren.values()), "edges": edges, "s": "s", "r": "r"}, ren


def load_corpus() -> dict:
    with open(os.path.join(HERE, "corpus.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------

class Workload:
    """Deterministic query stream over stratified corpus items; each item
    gets every command in ``COMMANDS``."""

    name = ""
    COMMANDS: tuple[str, ...] = ()
    #: Queries per second on the reference machine; sizes traced runs.
    nominal_rate = 1.0
    warmup_count = 0
    #: Monte Carlo trials per query.
    trials = 0

    def __init__(self, seed: int, workdir: str, corpus: dict):
        self.seed = seed
        self.workdir = workdir
        self.strata: list[list] = corpus[self.name]
        self._seen: set[str] = set()
        self._count = 0
        self._cache: dict = {}

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{stream}")

    @property
    def pass_size(self) -> int:
        """Queries in one pass over the corpus."""
        return len(self.COMMANDS) * sum(len(stratum) for stratum in self.strata)

    def item_of(self, j: int) -> tuple[int, int]:
        """(stratum, index) of the j-th item: each round takes the next item
        of every stratum, in corpus order."""
        s = j % len(self.strata)
        return s, (j // len(self.strata)) % len(self.strata[s])

    def next_query(self) -> Query:
        """The next query of the timed sequence, never a repeat."""
        i = self._count
        self._count += 1
        kind = self.COMMANDS[i % len(self.COMMANDS)]
        item = self.item_of(i // len(self.COMMANDS))
        for attempt in range(100):
            q = self.make(kind, item, self.rng(f"{i}:{attempt}"), f"q{i}")
            key = _dump([q.stdin, q.meta.get("key")])
            if key not in self._seen:
                self._seen.add(key)
                return q
        raise RuntimeError(f"no fresh query for slot {i}")

    def warmup_queries(self) -> list[Query]:
        return [
            self.make(self.COMMANDS[i % len(self.COMMANDS)], (0, 0), self.rng(f"warmup:{i}"), f"w{i}")
            for i in range(self.warmup_count)
        ]

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def base_graph(self, item):
        return parse_graph(self.strata[item[0]][item[1]])

    def make(self, kind: str, item: tuple, rng: random.Random, qid: str) -> Query:
        raise NotImplementedError

    def verify(self, q: Query, out: str) -> None:
        raise NotImplementedError

    def run_checks(self, run_query) -> None:
        """Checks that need the program again, after the timed region."""

    def path(self, qid: str, what: str) -> str:
        return os.path.join(self.workdir, f"{qid}-{what}.json")


# ---------------------------------------------------------------------------
# scan: exact reliability through the subset kernel
# ---------------------------------------------------------------------------

# Inclusion-exclusion costs 2^paths polynomial products; at 20 paths that
# is minutes per query, so the cross-check runs where it takes well under
# a second.
PRIME_IE_PATHS = 12


class Scan(Workload):
    name = "scan"
    nominal_rate = 6.0
    warmup_count = 9
    COMMANDS = ("reliability", "prime", "at", "protocol", "protocol-prime", "census", "near-zero", "near-one",
                "robustness")

    def make(self, kind, item, rng, qid):
        gobj, _ = relabel(self.strata[item[0]][item[1]], rng)
        meta = {}
        if kind in ("reliability", "prime", "at"):
            argv = ["reliability"]
            if kind == "prime":
                argv.append("--prime")
            elif kind == "at":
                meta["at"] = _rational(rng)
                argv += ["--at", meta["at"]]
        elif kind in ("protocol", "protocol-prime", "robustness"):
            graph, _ = parse_graph(gobj)
            k = asymptotics.path_census(graph).distance
            protocol = engine.bounded_protocol(graph, k + 1)
            path = _write(self.path(qid, "protocol"), {"instructions": [list(x) for x in sorted(protocol)]})
            argv = {"protocol": ["reliability"], "protocol-prime": ["reliability", "--prime"],
                    "robustness": ["robustness"]}[kind] + ["--protocol", path]
        else:
            argv = [kind]
        return Query(qid, kind, argv, _dump(gobj), item, meta)

    def verify(self, q, out):
        obj = json.loads(out)
        graph, probmap = parse_graph(json.loads(q.stdin))
        m = graph.m
        if q.kind in ("reliability", "prime", "at"):
            # Reliability does not depend on the labels: one connectivity
            # scan of the corpus graph checks all of its relabelled copies.
            exact = self.cached(("conn", q.item), lambda: reliability.rho_by_connectivity(*self.base_graph(q.item)))
            if q.kind == "at":
                _check(parse_rational(obj["value"]) == exact(parse_rational(q.meta["at"])),
                       "reliability --at differs from the connectivity scan")
            else:
                # For the CFP every s,r-path is a protocol path, so both the
                # walk and the path reliability equal s,r-connectivity.
                _check(_poly(obj["poly"]) == exact, f"{q.kind} differs from the connectivity scan")
            if q.kind == "prime":
                protocol = engine.cfp(graph)
                if len(reliability.path_masks(protocol)) <= PRIME_IE_PATHS:
                    _check(_poly(obj["poly"]) == reliability.rho_prime_inclusion_exclusion(protocol, probmap),
                           "reliability --prime differs from inclusion-exclusion")
            return
        lengths = [len(p) - 1 for p in engine.enumerate_sr_paths(graph)]
        k = min(lengths)
        if q.kind in ("protocol", "protocol-prime"):
            # The near-zero protocol holds every path of length k or k+1, so
            # its walk and path reliabilities both start d_k p^k with d_k the
            # shortest-path count.
            poly = _poly(obj["poly"])
            _check(all(poly.coefficient(j) == 0 for j in range(k)), "protocol reliability starts below p^k")
            _check(poly.coefficient(k) == lengths.count(k), "protocol reliability head is not d_k p^k")
            _check(all(0 < poly(x) < 1 for x in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))),
                   "protocol reliability out of (0,1)")
        elif q.kind == "census":
            _check(obj["k"] == k, "census distance is wrong")
            _check(sum(obj["d"].values()) == len(lengths), "census path count is wrong")
            _check(all(0 < c <= math.comb(m, int(j)) for j, c in obj["c"].items()), "cut count out of range")
            _check(obj["e"] == min(int(j) for j in obj["c"]), "minimum cut is not the least cut size")
        elif q.kind == "near-zero":
            _check((obj["k"], obj["d_k"], obj["d_k1"]) == (k, lengths.count(k), lengths.count(k + 1)),
                   "near-zero head disagrees with the path lengths")
            _check(engine.is_finite(Protocol(graph, obj["protocol"])), "near-zero protocol is not finite")
        elif q.kind == "near-one":
            degree_s = len(graph.neighbors(graph.s))
            _check(1 <= obj["e"] <= degree_s and obj["c_e"] >= 1, "near-one head out of range")
        elif q.kind == "robustness":
            _check(0 <= obj["robustness"] <= m, "robustness out of range")


# ---------------------------------------------------------------------------
# optimize: removal search, finiteness tests and candidate scans
# ---------------------------------------------------------------------------

# The oracle searches removals from the whole CFP: about 4 s at 19
# instructions and over 10 s at 22, so it runs on small CFPs only and at
# most a few times per run.
ORACLE_CFP_LIMIT = 19
ORACLE_CHECKS = 2


class Optimize(Workload):
    name = "optimize"
    nominal_rate = 5.0
    warmup_count = 5
    COMMANDS = ("piecewise", "at", "min-discrepancy", "discrepancy", "finite")

    def __init__(self, seed, workdir, corpus):
        super().__init__(seed, workdir, corpus)
        self.oracle_checks = 0

    def make(self, kind, item, rng, qid):
        gobj, _ = relabel(self.strata[item[0]][item[1]], rng)
        meta = {}
        if kind == "piecewise":
            argv = ["rho-hat", "--piecewise"]
        elif kind == "at":
            meta["at"] = _rational(rng)
            argv = ["rho-hat", "--at", meta["at"]]
        elif kind == "min-discrepancy":
            argv = ["min-discrepancy"]
        elif kind == "discrepancy":
            circuit = optimizer.circuit_instructions(parse_graph(gobj)[0])
            meta["removal"] = [list(x) for x in sorted(rng.sample(circuit, rng.randint(1, 3)))]
            argv = ["discrepancy", "--remove", _write(self.path(qid, "remove"), {"instructions": meta["removal"]})]
        else:
            argv = ["finite", "--witness"]
        return Query(qid, kind, argv, _dump(gobj), item, meta)

    def verify(self, q, out):
        obj = json.loads(out)
        graph, probmap = parse_graph(json.loads(q.stdin))
        astar = engine.cfp(graph)
        full = self.cached(("conn", q.item), lambda: reliability.rho_by_connectivity(*self.base_graph(q.item)))

        def witness_poly(removed) -> Poly:
            protocol = astar.minus(tuple(x) for x in removed)
            _check(engine.is_finite(protocol), "witness protocol is not finite")
            return reliability.rho_A(protocol, probmap)

        if q.kind == "at":
            at = parse_rational(q.meta["at"])
            value = parse_rational(obj["value"])
            _check(witness_poly(obj["removed"])(at) == value, "rho-hat value is not its witness's reliability")
            _check(value <= full(at), "rho-hat exceeds the reliability")
            if len(astar) <= ORACLE_CFP_LIMIT and self.oracle_checks < ORACLE_CHECKS:
                self.oracle_checks += 1
                _check(value == optimizer.brute_force_rho_hat(graph, at, probmap), "rho-hat differs from the oracle")
        elif q.kind in ("piecewise", "min-discrepancy"):
            pieces = obj["pieces"] if "pieces" in obj else [obj]
            _check(len(pieces) == len(obj.get("breakpoints", [])) + 1, "piece and breakpoint counts disagree")
            for piece in pieces:
                expect = witness_poly(piece["removed"])
                if q.kind == "min-discrepancy":
                    expect = full - expect
                _check(_poly(piece["poly"]) == expect, f"{q.kind} piece is not its witness's polynomial")
        elif q.kind == "discrepancy":
            reduced = astar.minus(tuple(x) for x in q.meta["removal"])
            _check(_poly(obj["poly"]) == full - reliability.rho_A(reduced, probmap), "discrepancy is wrong")
            _check(obj["finite"] == engine.is_finite(reduced), "discrepancy finiteness flag is wrong")
        else:
            _check(obj["finite"] is False and obj["witness"], "CFP with circuits reported finite")
            states = [tuple(s) for s in obj["witness"]]
            for k, (u, v) in enumerate(states):
                v2, w = states[(k + 1) % len(states)]
                _check(v == v2 and Instruction(u, v, w) in astar.instructions,
                       "witness is not a circuit of CFP instructions")


# ---------------------------------------------------------------------------
# transport: b0 carrying the reliabilities of inserted graphs
# ---------------------------------------------------------------------------

def _tree_poly(tree: constructions.SPTree) -> Poly:
    return reliability.rho(constructions.realize(tree))


class Transport(Workload):
    name = "transport"
    nominal_rate = 9.0
    warmup_count = 5
    COMMANDS = ("piecewise", "expand", "min-discrepancy", "kelmans", "at")

    def __init__(self, seed, workdir, corpus):
        super().__init__(seed, workdir, corpus)
        self.base = graph_json(b0())
        self.pairs = {orders: constructions.build_crossing_pair(orders) for orders in ((1,), (1, 1))}
        self.pair_polys = {k: (_tree_poly(h1), _tree_poly(h2)) for k, (h1, h2) in self.pairs.items()}

    def insert_poly(self, tree_json) -> Poly:
        return self.cached(("tree", _dump(tree_json)), lambda: _tree_poly(constructions.parse_sptree(tree_json)))

    def make(self, kind, item, rng, qid):
        spec = self.strata[item[0]][item[1]]
        gobj, ren = relabel(self.base, rng)
        graph, _ = parse_graph(gobj)
        if kind == "expand":
            if spec["inserts"]:
                (u, v), tree = spec["inserts"][0]
            else:
                (u, v), tree = ("s", "1"), constructions.sptree_json(self.pairs[tuple(spec["pair"])][0])
            path = _write(self.path(qid, "tree"), tree)
            meta = {"tree_edges": constructions.parse_sptree(tree).edge_count}
            return Query(qid, kind, ["expand", "--edge", f"{ren[u]}-{ren[v]}", "--with", path], _dump(gobj), item, meta)
        if kind == "kelmans":
            trees = [constructions.parse_sptree(random_tree(rng, rng.randint(1, 4))) for _ in range(4)]
            argv = ["compose", "--op", "kelmans"]
            for flag, tree in zip(("--f2", "--g1", "--g2"), trees[1:]):
                argv += [flag, _write(self.path(qid, flag[2:]), graph_json(constructions.realize(tree)))]
            meta = {"edges": sum(t.edge_count for t in trees), "key": [constructions.sptree_json(t) for t in trees]}
            return Query(qid, kind, argv, _dump(graph_json(constructions.realize(trees[0]))), item, meta)
        overrides = {}
        if spec["pair"]:
            q1, q2 = self.pair_polys[tuple(spec["pair"])]
            overrides[("s", ren["1"])], overrides[("s", ren["2"])] = q1, q2
        for (u, v), tree in spec["inserts"]:
            overrides[(ren[u], ren[v])] = self.insert_poly(tree)
        gobj = graph_json(graph, EdgeProbabilityMap.with_overrides(graph, overrides))
        meta = {}
        if kind == "at":
            meta["at"] = _rational(rng)
            argv = ["rho-hat", "--at", meta["at"]]
        else:
            argv = ["rho-hat", "--piecewise"] if kind == "piecewise" else ["min-discrepancy"]
        return Query(qid, kind, argv, _dump(gobj), item, meta)

    def candidates(self, q, graph, probmap) -> list[Poly]:
        """Candidate polynomials computed afresh, not through the optimizer's
        cache; they do not depend on the labels, so once per corpus item."""
        def compute():
            astar = engine.cfp(graph)
            return [reliability.rho_A(astar.minus(r), probmap) for r in optimizer.minimal_removal_sets(graph)]
        return self.cached(("cands", q.item), compute)

    def verify(self, q, out):
        obj = json.loads(out)
        if q.kind == "expand":
            g = parse_graph(obj)[0]
            _check((g.s, g.r) == ("s", "r"), "expansion changed the terminals")
            _check(g.m == b0().m - 1 + q.meta["tree_edges"], "expansion has the wrong edge count")
            return
        if q.kind == "kelmans":
            for side in ("h1", "h2"):
                _check(parse_graph(obj[side])[0].m == q.meta["edges"], "swap composition has the wrong edge count")
            return
        graph, probmap = parse_graph(json.loads(q.stdin))
        cands = self.candidates(q, graph, probmap)
        if q.kind == "at":
            at = parse_rational(q.meta["at"])
            _check(parse_rational(obj["value"]) == max(c(at) for c in cands), "rho-hat --at is not the best candidate")
            return
        pieces = obj["pieces"] if "pieces" in obj else [obj]
        bps = obj.get("breakpoints", [])
        _check(len(pieces) == len(bps) + 1, "piece and breakpoint counts disagree")
        bounds = [Fraction(0)]
        for bp in bps:
            lo, hi = (parse_rational(x) for x in bp["interval"])
            _check(bounds[-1] <= lo <= hi, "breakpoints are not increasing")
            bounds += [lo, hi]
        bounds.append(Fraction(1))
        if q.kind == "min-discrepancy":
            # Turn each discrepancy piece back into the optimum it leaves.
            base = self.cached(("conn", q.item), lambda: reliability.rho_by_connectivity(graph, probmap))
            polys = [base - _poly(piece["poly"]) for piece in pieces]
        else:
            polys = [_poly(piece["poly"]) for piece in pieces]
        for k, poly in enumerate(polys):
            x = (bounds[2 * k] + bounds[2 * k + 1]) / 2
            _check(all(poly(x) >= c(x) for c in cands), f"{q.kind} optimum is below a candidate")
            _check(poly in cands, f"{q.kind} piece is no candidate's polynomial")


# ---------------------------------------------------------------------------
# simulate: Monte Carlo sampling
# ---------------------------------------------------------------------------

class Simulate(Workload):
    """Rounds of five queries: b0 three times, copies on a finite b0
    protocol, and one corpus graph with m = 17..18 (two BLAKE2b digests per
    trial).  The corpus graphs form a single stratum."""

    name = "simulate"
    nominal_rate = 5.0
    warmup_count = 3
    COMMANDS = ("b0", "copies", "b0", "large", "b0")
    trials = 10_000

    def __init__(self, seed, workdir, corpus):
        super().__init__(seed, workdir, corpus)
        base = b0()
        self.b0 = _dump(graph_json(base))
        k = asymptotics.path_census(base).distance
        self.finite = engine.bounded_protocol(base, k + 1)
        self.protocol_path = _write(os.path.join(workdir, "b0-finite.json"),
                                    {"instructions": [list(x) for x in sorted(self.finite)]})

    def make(self, kind, item, rng, qid):
        if qid.startswith("w"):
            kind = "b0"
        meta = {"p": _rational(rng), "seed": rng.randrange(1 << 31)}
        meta["key"] = [meta["p"], meta["seed"]]
        argv = ["simulate", "--p", meta["p"], "--trials", str(self.trials), "--seed", str(meta["seed"])]
        stdin = self.b0
        if kind == "copies":
            argv += ["--protocol", self.protocol_path, "--copies"]
        elif kind == "large":
            stdin = _dump(self.strata[item[0]][item[1]])
        return Query(qid, kind, argv, stdin, item if kind == "large" else (), meta)

    def exact(self, q) -> Poly:
        def compute():
            graph, probmap = parse_graph(json.loads(q.stdin))
            if q.kind == "copies":
                return reliability.rho_A(self.finite, probmap)
            return reliability.rho_by_connectivity(graph, probmap)
        return self.cached((q.kind, q.item), compute)

    def verify(self, q, out):
        obj = json.loads(out)
        p = parse_rational(q.meta["p"])
        n = obj["trials"]
        _check(n == self.trials, "wrong trial count")
        estimate = Fraction(obj["deliveries"], n)
        _check(parse_rational(obj["estimate"]) == estimate, "estimate is not deliveries / trials")
        exact = self.exact(q)(p)
        sigma = math.sqrt(float(exact * (1 - exact)) / n)
        _check(abs(float(estimate - exact)) <= 5 * max(obj["stderr"], sigma),
               f"estimate {float(estimate):.4f} is more than 5 stderr from {float(exact):.4f}")
        if q.kind == "copies":
            hist = {int(k): v for k, v in obj["copies"].items()}
            _check(sum(hist.values()) == n, "copy histogram does not cover every trial")
            _check(hist.get(0, 0) == n - obj["deliveries"], "copy histogram disagrees with deliveries")
            mean_exact = self.cached("copies-mean", lambda: expected_copies(self.finite))(p)
            mean = Fraction(sum(k * v for k, v in hist.items()), n)
            var = float(sum(v * (k - mean) ** 2 for k, v in hist.items())) / n
            _check(abs(float(mean - mean_exact)) <= 5 * max(math.sqrt(var / n), 1e-12),
                   "mean copy count is more than 5 stderr from its exact value")

    def run_checks(self, run_query):
        """Two same-seed reports within one commit must be identical."""
        for kind in ("b0", "copies", "large"):
            q = self.make(kind, (0, 0), self.rng(f"repeat:{kind}"), f"r-{kind}")
            _check(run_query(q) == run_query(q), f"two same-seed {kind} simulate reports differ")


WORKLOADS = {cls.name: cls for cls in (Scan, Optimize, Transport, Simulate)}
