"""Regenerate ``corpus.json``, the benchmark's fixed graph corpus.

    PYTHONPATH=src python3 perfbench/make_corpus.py

The corpus is drawn once from a fixed seed and kept as data, so every run
sees the same graphs in the same order and so the same cost mix; the run
seed then picks vertex labels and query parameters (see ``workloads.py``).
Rerunning this script reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import os
import random
import sys

from relayopt import optimizer
from relayopt.graphs import parse_graph

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_SEED = 20170518

# A run times whole passes over its workload's corpus, so the corpus is
# kept small enough that a pass takes a fraction of a run; strata within a
# workload hold the same number of items.  Every pass is 45 queries (items
# times commands): with P = 45 queries per pass, the median (pass rank 23)
# and p90 (rank 40.5) fall inside the copies of one query rather than
# between two, so they do not jump between neighbouring costs from run to
# run.
#
# scan: random graphs by edge count, plus the two grids (9 commands).
SCAN_SIZES = (14, 16, 18)
SCAN_ROUNDS = 1
# optimize: (vertices, edges, circuit-borne instructions lo..hi) per stratum
# (5 commands).
OPTIMIZE_STRATA = ((6, 12, 6, 7), (6, 11, 8, 9), (8, 14, 10, 10))
OPTIMIZE_ROUNDS = 3
# transport: crossing pair on the sender edges, per stratum (5 commands).
TRANSPORT_PAIRS = ((1,), None, (1, 1))
TRANSPORT_ROUNDS = 3
# simulate: graphs with m = 17..18, one per round of 5 queries.
SIMULATE_LARGE = (17, 17, 17, 17, 17, 18, 18, 18, 18)


def random_graph(rng: random.Random, n: int, m: int) -> dict:
    """Random connected simple graph on n vertices with m edges: a random
    spanning tree plus random chords."""
    names = ["s"] + [f"v{i}" for i in range(1, n - 1)] + ["r"]
    order = names[:]
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((order[i], order[rng.randrange(i)]))))
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(names, 2))))
    return {"vertices": names, "edges": [list(e) for e in sorted(edges)], "s": "s", "r": "r"}


def grid_graph(rows: int, cols: int) -> dict:
    """rows x cols grid with s and r at opposite corners."""
    name = {(i, j): f"g{i}{j}" for i in range(rows) for j in range(cols)}
    name[(0, 0)], name[(rows - 1, cols - 1)] = "s", "r"
    edges = []
    for (i, j), v in name.items():
        if i + 1 < rows:
            edges.append(sorted((v, name[(i + 1, j)])))
        if j + 1 < cols:
            edges.append(sorted((v, name[(i, j + 1)])))
    return {"vertices": sorted(name.values()), "edges": sorted(edges), "s": "s", "r": "r"}


def random_tree(rng: random.Random, budget: int) -> dict:
    """Series-parallel tree JSON with ``budget`` edges; a parallel join that
    would make a multi-edge becomes a series join."""
    if budget <= 1:
        return {"edge": True}
    k = rng.randint(1, budget - 1)
    left, right = random_tree(rng, k), random_tree(rng, budget - k)

    def terminal_edge(t):
        return t.get("edge") or (t["op"] == "parallel" and (terminal_edge(t["left"]) or terminal_edge(t["right"])))

    op = "parallel" if rng.random() < 0.5 and not (terminal_edge(left) and terminal_edge(right)) else "series"
    return {"op": op, "left": left, "right": right}


def optimize_graph(rng: random.Random, n: int, m: int, lo: int, hi: int) -> dict:
    while True:
        g = random_graph(rng, n, m)
        if lo <= len(optimizer.circuit_instructions(parse_graph(g)[0])) <= hi:
            return g


def build() -> dict:
    def rng_for(name: str) -> random.Random:
        return random.Random(f"{CORPUS_SEED}:{name}")

    rng = rng_for("scan")
    scan = [[random_graph(rng, rng.randint(8, 10), m) for _ in range(SCAN_ROUNDS)] for m in SCAN_SIZES]
    scan += [[grid_graph(2, 6)], [grid_graph(3, 4)]]
    rng = rng_for("optimize")
    optimize = [[optimize_graph(rng, *shape) for _ in range(OPTIMIZE_ROUNDS)] for shape in OPTIMIZE_STRATA]
    b0_edges = [["1", "3"], ["1", "4"], ["2", "3"], ["2", "5"], ["3", "4"], ["3", "5"], ["4", "r"], ["5", "r"]]
    rng = rng_for("transport")
    transport = []
    for pair in TRANSPORT_PAIRS:
        stratum = []
        for _ in range(TRANSPORT_ROUNDS):
            extra = rng.randint(1 if pair is None else 0, 2)
            inserts = [[e, random_tree(rng, rng.randint(2, 5))] for e in rng.sample(b0_edges, extra)]
            stratum.append({"pair": list(pair) if pair else None, "inserts": inserts})
        transport.append(stratum)
    rng = rng_for("simulate")
    simulate = [[random_graph(rng, rng.randint(8, 10), m) for m in SIMULATE_LARGE]]
    return {"seed": CORPUS_SEED, "scan": scan, "optimize": optimize, "transport": transport,
            "simulate": simulate}


def main() -> int:
    with open(os.path.join(HERE, "corpus.json"), "w", encoding="utf-8") as fh:
        json.dump(build(), fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
