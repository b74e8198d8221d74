import gc
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from relayopt import build_breakpoint_graph, build_crossing_pair, cfp, essential_circuits, realize, reliability, rho
from relayopt import cli
from relayopt.cli import build_parser, main
from relayopt.constructions import path_graph
from relayopt.graphs import EdgeProbabilityMap, TwoTerminalGraph, b0, graph_json, protocol_json
from relayopt.polys import Poly

from conftest import complete_graph, diamond_chain


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    status = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def b0_text():
    return json.dumps(graph_json(b0()))


def test_fixture_emits_b0():
    status, out, err = run_cli(["fixture", "b0"])
    assert status == 0 and not err
    obj = json.loads(out)
    assert obj["s"] == "s" and len(obj["edges"]) == 10


def test_fixture_pipes_into_cfp():
    _, graph_text, _ = run_cli(["fixture", "b0"])
    status, out, _ = run_cli(["cfp"], graph_text)
    assert status == 0
    assert len(json.loads(out)["instructions"]) == 22


def test_finite_witness_golden():
    status, out, _ = run_cli(["finite", "--witness"], b0_text())
    assert status == 0
    assert json.loads(out) == {
        "finite": False,
        "witness": [["1", "4"], ["4", "3"], ["3", "2"], ["2", "5"], ["5", "3"], ["3", "1"]],
    }


def test_min_discrepancy_golden():
    status, out, _ = run_cli(["min-discrepancy"], b0_text())
    assert status == 0
    obj = json.loads(out)
    assert obj["poly"] == ["0", "0", "0", "0", "0", "0", "1", "-4", "6", "-4", "1"]


def test_paths_and_validate():
    status, out, _ = run_cli(["paths"], b0_text())
    assert status == 0 and len(json.loads(out)["paths"]) == 12
    status, out, _ = run_cli(["validate"], b0_text())
    assert status == 0
    assert json.loads(out)["edges"][0] == ["1", "3"]


def test_reliability_at_point():
    status, out, _ = run_cli(["reliability", "--at", "1/2"], b0_text())
    assert status == 0
    assert json.loads(out)["value"] == "367/1024"


def test_rho_hat_single_piece():
    status, out, _ = run_cli(["rho-hat"], b0_text())
    assert status == 0
    obj = json.loads(out)
    assert obj["removed"] == [["4", "3", "2"]]
    status, out, _ = run_cli(["rho-hat", "--at", "1/2"], b0_text())
    assert json.loads(out)["value"] == "183/512"


def test_rho_hat_piecewise_structure():
    _, graph_text, _ = run_cli(["breakpoint-graph", "--orders", "1"], b0_text())
    status, out, _ = run_cli(["rho-hat", "--piecewise"], graph_text)
    assert status == 0
    obj = json.loads(out)
    assert len(obj["breakpoints"]) == 1
    assert obj["breakpoints"][0]["order"] == 1
    assert obj["breakpoints"][0]["poly"] == ["-1", "1", "1"]
    assert [p["from"] for p in obj["pieces"]] == ["0", "bp0"]
    assert [p["to"] for p in obj["pieces"]] == ["bp0", "1"]


def test_discrepancy_subcommand(tmp_path):
    removal = tmp_path / "removal.json"
    removal.write_text(json.dumps({"instructions": [["4", "3", "2"]]}))
    status, out, _ = run_cli(["discrepancy", "--remove", str(removal)], b0_text())
    assert status == 0
    obj = json.loads(out)
    assert obj["finite"] is True
    assert obj["poly"] == ["0", "0", "0", "0", "0", "0", "1", "-4", "6", "-4", "1"]


def test_compose_chain(tmp_path):
    _, p3, _ = run_cli(["fixture", "b0"])  # placeholder, replaced below
    path_file = tmp_path / "path.json"
    path_json = {"vertices": ["s", "r"], "edges": [["s", "r"]], "s": "s", "r": "r"}
    path_file.write_text(json.dumps(path_json))
    status, out, _ = run_cli(["compose", "--op", "series", "--with", str(path_file)], json.dumps(path_json))
    assert status == 0
    status, out2, _ = run_cli(["reliability"], out)
    assert json.loads(out2)["poly"] == ["0", "0", "1"]


def test_expand_subcommand(tmp_path):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({"op": "parallel",
                                     "left": {"op": "series", "left": {"edge": True}, "right": {"edge": True}},
                                     "right": {"op": "series", "left": {"edge": True}, "right": {"edge": True}}}))
    status, out, _ = run_cli(["expand", "--edge", "s-1", "--with", str(tree_file)], b0_text())
    assert status == 0
    assert len(json.loads(out)["edges"]) == 13


def test_census_and_asymptotics():
    status, out, _ = run_cli(["census"], b0_text())
    obj = json.loads(out)
    assert obj["k"] == 3 and obj["e"] == 2
    assert obj["d"] == {"3": 2, "4": 4, "5": 4, "6": 2}
    assert obj["c"]["2"] == 2
    status, out, _ = run_cli(["near-zero"], b0_text())
    obj = json.loads(out)
    assert (obj["k"], obj["d_k"], obj["d_k1"]) == (3, 2, 4)
    assert len(obj["protocol"]) == 12
    status, out, _ = run_cli(["near-one"], b0_text())
    assert json.loads(out) == {"c_e": 2, "e": 2}


def test_simulate_subcommand():
    status, out, _ = run_cli(
        ["simulate", "--p", "1/2", "--trials", "2000", "--seed", "9"],
        json.dumps({"vertices": ["s", "r"], "edges": [["s", "r"]], "s": "s", "r": "r"}),
    )
    assert status == 0
    obj = json.loads(out)
    assert obj["trials"] == 2000
    status2, out2, _ = run_cli(
        ["simulate", "--p", "1/2", "--trials", "2000", "--seed", "9"],
        json.dumps({"vertices": ["s", "r"], "edges": [["s", "r"]], "s": "s", "r": "r"}),
    )
    assert out == out2


def test_compose_kelmans(tmp_path):
    chain2 = {"vertices": ["s", "m", "r"], "edges": [["s", "m"], ["m", "r"]], "s": "s", "r": "r"}
    single = {"vertices": ["s", "r"], "edges": [["s", "r"]], "s": "s", "r": "r"}
    files = {}
    for name, obj in (("f2", chain2), ("g1", single), ("g2", chain2)):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(obj))
        files[name] = str(f)
    status, out, _ = run_cli(
        ["compose", "--op", "kelmans", "--f2", files["f2"], "--g1", files["g1"], "--g2", files["g2"]],
        json.dumps(single),
    )
    assert status == 0
    obj = json.loads(out)
    assert set(obj) == {"h1", "h2"}
    status, out1, _ = run_cli(["reliability"], json.dumps(obj["h1"]))
    status, out2, _ = run_cli(["reliability"], json.dumps(obj["h2"]))
    # delta rho = (rho(F1)-rho(F2)) * (rho(G1)-rho(G2)) = (p-p^2)^2
    from relayopt.polys import Poly

    d = Poly.from_strings(json.loads(out1)["poly"]) - Poly.from_strings(json.loads(out2)["poly"])
    assert d == (Poly.x() - Poly.x() ** 2) ** 2


def test_reliability_prime_flag(tmp_path):
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"instructions": [["s", "1", "4"], ["1", "4", "r"],
                                                  ["s", "2", "5"], ["2", "5", "r"]]}))
    status, out, _ = run_cli(["reliability", "--prime", "--protocol", str(proto)], b0_text())
    assert status == 0
    assert json.loads(out)["poly"] == ["0", "0", "0", "2", "0", "0", "-1"]


def test_robustness_minus_one(tmp_path):
    """A protocol with no walk on the intact graph has robustness -1."""
    proto = tmp_path / "empty.json"
    proto.write_text(json.dumps({"instructions": []}))
    status, out, _ = run_cli(["robustness", "--protocol", str(proto)], b0_text())
    assert status == 0
    assert json.loads(out) == {"robustness": -1}


def test_min_discrepancy_piecewise_output():
    _, graph_text, _ = run_cli(["breakpoint-graph", "--orders", "1"], b0_text())
    status, out, _ = run_cli(["min-discrepancy"], graph_text)
    assert status == 0
    obj = json.loads(out)
    assert len(obj["breakpoints"]) == 1 and len(obj["pieces"]) == 2


def test_usage_error_exit_code():
    status, out, err = run_cli(["no-such-command"])
    assert status == 1
    assert json.loads(err)["error"]["code"] == "usage"


def test_domain_error_exit_code():
    bad = json.dumps({"vertices": ["s", "r"], "edges": [["s", "s"]], "s": "s", "r": "r"})
    status, _, err = run_cli(["cfp"], bad)
    assert status == 2
    assert json.loads(err)["error"]["code"] == "loop"


def test_infinite_protocol_error():
    status, _, err = run_cli(["spfp-reduce", "--protocol", "/dev/null"], b0_text())
    assert status == 2  # unreadable protocol JSON is a format error
    status, _, err = run_cli(["robustness"], b0_text())
    assert status == 2
    assert json.loads(err)["error"]["code"] == "infinite-protocol"


def test_guard_error_exit_code(monkeypatch):
    monkeypatch.setattr(reliability, "MAX_SCAN_EDGES", 9)  # b0 has 10 edges
    status, _, err = run_cli(["rho-hat"], b0_text())
    assert status == 3
    assert json.loads(err)["error"]["code"] == "guard-exceeded"
    monkeypatch.setattr(reliability, "MAX_DP_CONFIGURATIONS", 0)  # plain reliability is the frontier DP
    status, _, err = run_cli(["reliability"], b0_text())
    assert status == 3
    assert json.loads(err)["error"]["code"] == "guard-exceeded"


@pytest.mark.parametrize("command", [["rho-hat"], ["reliability"]])
@pytest.mark.parametrize("at", ["0", "1", "3/2", "-1/2"])
def test_at_outside_open_interval_is_rejected(command, at):
    status, out, err = run_cli(command + [f"--at={at}"], b0_text())
    assert status == 2 and not out
    assert json.loads(err)["error"]["code"] == "bad-probability"


def test_override_outside_unit_interval_is_rejected():
    # 1/2 + 10^6 (p - 1/8)(p - 2/8)...(p - 7/8): inside (0,1) at every k/8 only
    from relayopt.polys import Poly

    w = Poly.constant(Fraction(1, 2))
    bump = Poly.one()
    for k in range(1, 8):
        bump = bump * (Poly.x() - Fraction(k, 8))
    graph = json.loads(b0_text())
    graph["prob"] = {"default": "p", "overrides": {"1-s": (w + 10 ** 6 * bump).to_strings()}}
    status, out, err = run_cli(["rho-hat", "--at", "1/16"], json.dumps(graph))
    assert status == 2 and not out
    assert json.loads(err)["error"]["code"] == "bad-probability"



@pytest.mark.parametrize("p", ["3/2", "0", "1", "-1/2"])
def test_simulate_probability_outside_open_interval_is_rejected(p):
    status, out, err = run_cli(["simulate", f"--p={p}", "--trials", "10", "--seed", "1"], b0_text())
    assert status == 2 and not out
    assert json.loads(err)["error"]["code"] == "bad-probability"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_trials_below_one_is_a_usage_error(trials):
    status, out, err = run_cli(["simulate", "--p", "1/2", f"--trials={trials}", "--seed", "1"], b0_text())
    assert status == 1 and not out
    assert json.loads(err)["error"]["code"] == "usage"


def test_simulate_refuses_edges_of_their_own_probability(monkeypatch):
    """Every edge is sampled at --p, so a graph that gives an edge another
    probability is refused before any trial: b0 with 1-s and 2-s at 1/100
    would otherwise print the plain b0 estimate.  A ``prob`` that gives
    every edge p is plain b0."""
    argv = ["simulate", "--p", "1/2", "--trials", "2000", "--seed", "1"]
    _, plain, _ = run_cli(argv, b0_text())
    graph = json.loads(b0_text())
    graph["prob"] = {"default": "p"}
    assert run_cli(argv, json.dumps(graph)) == (0, plain, "")
    graph["prob"] = {"default": "p", "overrides": {"1-s": "1/100", "2-s": "1/100"}}
    monkeypatch.setattr(cli, "run_trials", None)  # reached only by running trials
    status, out, err = run_cli(argv, json.dumps(graph))
    assert (status, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == "bad-probability"


def test_simulate_is_not_bound_by_the_subset_scan_guard():
    # Six disjoint 5-edge routes: m = 30, beyond the 24-edge scan guard.
    from relayopt.constructions import parallel, path_graph, realize
    from relayopt.engine import cfp
    from relayopt.simulate import expected_copies

    tree = path_graph(6)
    for _ in range(5):
        tree = parallel(tree, path_graph(6))
    graph = realize(tree)
    assert graph.m == 30
    p = Fraction(4, 5)
    status, out, err = run_cli(
        ["simulate", "--p", str(p), "--trials", "3000", "--seed", "3", "--copies"],
        json.dumps(graph_json(graph)),
    )
    assert status == 0, err
    obj = json.loads(out)
    n = obj["trials"]
    exact = 1 - (1 - p ** 5) ** 6
    assert abs(Fraction(obj["estimate"]) - exact) <= 5 * obj["stderr"]
    hist = {int(k): v for k, v in obj["copies"].items()}
    mean = sum(k * v for k, v in hist.items()) / n
    var = sum(k * k * v for k, v in hist.items()) / n - mean ** 2
    assert abs(mean - float(expected_copies(cfp(graph))(p))) <= 5 * (var / n) ** 0.5


@pytest.mark.parametrize("argv", [["breakpoint-graph", "--orders", "1"], ["crossing-pair", "--profile", "1"]])
def test_constructions_read_no_stdin(argv):
    status, out, err = run_cli(argv, "")
    assert status == 0 and not err
    assert json.loads(out)


def _graph_text(**fields):
    obj = {"vertices": ["s", "a", "r"], "edges": [["s", "a"], ["a", "r"]], "s": "s", "r": "r"}
    obj.update(fields)
    return json.dumps(obj)


DISCONNECTED = _graph_text(edges=[["s", "a"]])
MISSING = "/nonexistent/relayopt-input.json"
DEEP_TREE = "<20000-level tree file>"

MALFORMED = {
    "even-breakpoint-order": (["breakpoint-graph", "--orders", "2"], "", "bad-argument", 2),
    "negative-breakpoint-order": (["breakpoint-graph", "--orders", "-1"], "", "bad-argument", 2),
    "zero-profile": (["crossing-pair", "--profile", "0"], "", "bad-argument", 2),
    "empty-profile": (["crossing-pair", "--profile", ""], "", "bad-argument", 2),
    "near-zero-disconnected": (["near-zero"], DISCONNECTED, "disconnected", 2),
    "missing-protocol-file": (["simulate", "--protocol", MISSING, "--p", "1/2", "--trials", "5", "--seed", "1"],
                              _graph_text(), "usage", 1),
    "missing-remove-file": (["discrepancy", "--remove", MISSING], _graph_text(), "usage", 1),
    "missing-with-file": (["compose", "--op", "series", "--with", MISSING], _graph_text(), "usage", 1),
    "missing-kelmans-files": (["compose", "--op", "kelmans", "--f2", MISSING, "--g1", MISSING, "--g2", MISSING],
                              _graph_text(), "usage", 1),
    "missing-tree-file": (["expand", "--edge", "s-a", "--with", MISSING], _graph_text(), "usage", 1),
    "deep-tree-file": (["expand", "--edge", "s-a", "--with", DEEP_TREE], _graph_text(), "bad-format", 2),
    "three-element-edge": (["validate"], _graph_text(edges=[["s", "a", "x"], ["a", "r"]]), "bad-format", 2),
    "one-element-edge": (["validate"], _graph_text(edges=[["s"]]), "bad-format", 2),
    "edges-not-a-list": (["validate"], _graph_text(edges="sa"), "bad-format", 2),
    "vertices-not-a-list": (["validate"], _graph_text(vertices=3), "bad-format", 2),
    "overrides-not-an-object": (["validate"], _graph_text(prob={"overrides": []}), "bad-format", 2),
    "overrides-at-the-top-level": (["validate"], _graph_text(overrides={"a-s": "1/2"}), "bad-format", 2),
    "misspelt-prob": (["reliability"], _graph_text(probs={"overrides": {"a-s": "1/2"}}), "bad-format", 2),
    "unknown-prob-key": (["reliability"], _graph_text(prob={"overides": {"a-s": "1/2"}}), "bad-format", 2),
    "graph-not-an-object": (["validate"], "\"not an object\"", "bad-format", 2),
    "at-with-piecewise": (["rho-hat", "--at", "1/2", "--piecewise"], _graph_text(), "usage", 1),
    "removed-threads-flag": (["--threads", "2", "cfp"], _graph_text(), "usage", 1),
    "removed-quiet-flag": (["--quiet", "cfp"], _graph_text(), "usage", 1),
    "removed-max-edges-flag": (["--max-edges", "4", "reliability"], _graph_text(), "usage", 1),
    "seed-beyond-64-bits": (["simulate", "--p", "1/2", "--trials", "5", "--seed", str(1 << 70)],
                            _graph_text(), "usage", 1),
    "seed-below-64-bits": (["simulate", "--p", "1/2", "--trials", "5", "--seed", str(-(1 << 63) - 1)],
                           _graph_text(), "usage", 1),
}


@pytest.mark.parametrize("argv, stdin_text, code, status", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_json_error(argv, stdin_text, code, status, tmp_path):
    if DEEP_TREE in argv:
        deep = tmp_path / "deep.json"
        deep.write_text('{"op": "series", "left": ' * 20000 + '{"edge": true}' + ', "right": {"edge": true}}' * 20000)
        argv = [str(deep) if a == DEEP_TREE else a for a in argv]
    got, out, err = run_cli(argv, stdin_text)
    assert (got, out) == (status, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == code


def test_undecodable_graph_is_a_format_error():
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
    assert main(["validate"], stdin=stdin, stdout=out, stderr=err) == 2
    assert json.loads(err.getvalue())["error"]["code"] == "bad-format"


def test_integer_terminals_match_integer_labels():
    status, out, err = run_cli(["validate"], json.dumps({"vertices": [1, 2], "edges": [[1, 2]], "s": 1, "r": 2}))
    assert status == 0 and not err
    assert json.loads(out)["s"] == "1"


K12 = json.dumps({"vertices": [str(i) for i in range(12)],
                  "edges": [[str(i), str(j)] for i in range(12) for j in range(i + 1, 12)], "s": "0", "r": "11"})
CHAIN25 = json.dumps(graph_json(realize(path_graph(reliability.MAX_SCAN_EDGES + 2))))  # one edge past the guard
REMOVE = "<removal file>"


# Plain reliability: the frontier DP, guarded by its configuration bound.
DP_COMMANDS = [["reliability"], ["reliability", "--prime"], ["reliability", "--at", "1/2"]]
# The census counts its cuts by the same DP first, and its paths under the path guard.
ANSWERS_THE_CHAIN = DP_COMMANDS + [["census"]]


@pytest.mark.parametrize("argv", ANSWERS_THE_CHAIN + [
    ["rho-hat"], ["rho-hat", "--at", "1/2"], ["min-discrepancy"], ["discrepancy", "--remove", REMOVE],
    ["robustness"], ["near-one"],
], ids=" ".join)
def test_scan_guard_comes_before_path_enumeration(argv, tmp_path):
    """K12 has 66 edges and 9,864,101 s,r-paths: every subset-scan command
    refuses it before enumerating them, as it refuses a 25-edge chain, and
    the frontier DP behind plain ``reliability`` and the cut census refuses
    it from its configuration bound before its first step (it answers the
    chain)."""
    removal = tmp_path / "remove.json"
    graphs = [(K12, ["0", "1", "2"])] + ([] if argv in ANSWERS_THE_CHAIN else [(CHAIN25, ["s", "x24", "x23"])])
    for graph_text, instruction in graphs:
        removal.write_text(json.dumps({"instructions": [instruction]}))
        start = time.perf_counter()
        status, out, err = run_cli([str(removal) if a == REMOVE else a for a in argv], graph_text)
        assert time.perf_counter() - start < 2
        assert (status, out) == (3, "")
        assert err.endswith("\n") and err.count("\n") == 1
        assert json.loads(err)["error"]["code"] == "guard-exceeded"


@pytest.mark.parametrize("argv", DP_COMMANDS, ids=" ".join)
def test_the_frontier_dp_answers_past_the_scan_guard(argv):
    """The 25-edge chain keeps s and r joined only when every edge
    survives: p^25, and (1/2)^25 at p = 1/2."""
    status, out, err = run_cli(argv, CHAIN25)
    assert (status, err) == (0, "")
    assert json.loads(out) == ({"value": "1/33554432"} if "--at" in argv else {"poly": ["0"] * 25 + ["1"]})


def test_census_and_near_zero_answer_past_the_scan_guard():
    """Neither builds a 2^m table: the 25-edge chain has one path, of all
    25 edges, so every nonempty edge set cuts it, and its near-zero
    protocol is the CFP."""
    m = reliability.MAX_SCAN_EDGES + 1
    status, out, err = run_cli(["census"], CHAIN25)
    assert (status, err) == (0, "")
    assert json.loads(out) == {"k": m, "d": {str(m): 1}, "e": 1, "c": {str(j): comb(m, j) for j in range(1, m + 1)}}
    status, out, err = run_cli(["near-zero"], CHAIN25)
    assert (status, err) == (0, "")
    chain_cfp = cfp(realize(path_graph(m + 1)))
    assert json.loads(out) == {"k": m, "d_k": 1, "d_k1": 0, "protocol": [list(i) for i in chain_cfp]}


@pytest.mark.parametrize("argv", [
    ["paths"], ["cfp"], ["finite"], ["finite", "--witness"], ["simulate", "--p", "1/2", "--trials", "8", "--seed", "1"],
    ["near-zero"],
], ids=" ".join)
def test_path_guard(argv):
    """The commands that collect every s,r-path refuse K12's 9,864,101 once
    past ``engine.MAX_PATHS``, with one guard error line."""
    start = time.perf_counter()
    status, out, err = run_cli(argv, K12)
    assert time.perf_counter() - start < 5
    assert (status, out) == (3, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == "guard-exceeded"


def test_paths_within_the_path_guard():
    k10 = json.dumps({"vertices": [str(i) for i in range(10)],
                      "edges": [[str(i), str(j)] for i in range(10) for j in range(i + 1, 10)], "s": "0", "r": "9"})
    start = time.perf_counter()
    status, out, err = run_cli(["paths"], k10)
    assert time.perf_counter() - start < 5
    assert status == 0 and not err
    paths = json.loads(out)["paths"]
    assert len(paths) == 109_601 and len(set(map(tuple, paths))) == len(paths)


def test_spfp_reduce_follows_walks_not_paths(tmp_path):
    """spfp-reduce enumerates the protocol's walks, not the graph's paths:
    on K12 the protocol of increasing labels (2^10 walks) is its own
    reduction."""
    increasing = [[str(u), str(v), str(w)] for u in range(12) for v in range(u + 1, 12) for w in range(v + 1, 12)]
    protocol = tmp_path / "increasing.json"
    protocol.write_text(json.dumps({"instructions": increasing}))
    start = time.perf_counter()
    status, out, err = run_cli(["spfp-reduce", "--protocol", str(protocol)], K12)
    assert time.perf_counter() - start < 5
    assert status == 0 and not err
    assert sorted(json.loads(out)["instructions"]) == sorted(increasing)


def test_copy_cap_on_a_diamond_chain(tmp_path):
    """A chain of 20 diamonds has 2^20 forward walks, past the cap of 10^6
    copies in one trial: at p = 999/1000 most trials keep every edge."""
    graph, forward = diamond_chain(20)
    protocol = tmp_path / "forward.json"
    protocol.write_text(json.dumps(protocol_json(forward)))
    argv = ["simulate", "--p", "999/1000", "--trials", "10000", "--seed", "1", "--copies", "--protocol", str(protocol)]
    start = time.perf_counter()
    status, out, err = run_cli(argv, json.dumps(graph_json(graph)))
    assert time.perf_counter() - start < 5
    assert (status, out) == (3, "")
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["code"] == "guard-exceeded" and "surviving walks" in error["message"]


TINY = _graph_text(prob={"default": "p", "overrides": {"a-s": "1e-3000", "a-r": "1e-3000"}})
TOO_LONG = {
    "reliability-at-1e-500": (["reliability", "--at", "1e-500"], b0_text()),
    "rho-hat-at-1e-500": (["rho-hat", "--at", "1e-500"], b0_text()),
    "reliability-at-1e-200000": (["reliability", "--at", "1e-200000"], b0_text()),
    "rho-hat-at-1e-200000": (["rho-hat", "--at", "1e-200000"], b0_text()),
    "at-with-a-huge-exponent": (["reliability", "--at", "1e-" + "9" * 5000], b0_text()),
    "at-just-past-the-limit": (["reliability", "--at", "1e-4300"], b0_text()),
    "override-product": (["reliability"], TINY),
    "override-exponent": (["validate"], _graph_text(prob={"overrides": {"a-s": "1e-200000"}})),
    "simulate-p": (["simulate", "--p", "1e-200000", "--trials", "5", "--seed", "1"], b0_text()),
}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter prints ints of any length")
@pytest.mark.parametrize("argv, stdin_text", TOO_LONG.values(), ids=TOO_LONG.keys())
def test_values_too_long_to_print_are_a_guard_error(argv, stdin_text):
    """Exact values whose numerator or denominator has more digits than
    the interpreter converts to a string are refused: an input as soon as
    it is read, a result when it is printed."""
    start = time.perf_counter()
    status, out, err = run_cli(argv, stdin_text)
    assert time.perf_counter() - start < 2
    assert (status, out) == (3, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == "guard-exceeded"


def test_values_within_the_digit_limit_are_printed():
    status, out, err = run_cli(["reliability", "--at", "1e-300"], b0_text())
    assert status == 0, err
    assert Fraction(json.loads(out)["value"]) == rho(b0())(Fraction(1, 10 ** 300))
    status, out, err = run_cli(["reliability"], _graph_text(prob={"overrides": {"a-s": "1e-2000", "a-r": "1e-2000"}}))
    assert status == 0, err
    assert json.loads(out) == {"poly": [f"1/1{'0' * 4000}"]}


@pytest.mark.parametrize("argv", [["breakpoint-graph", "--orders", "25"], ["crossing-pair", "--profile", "25"]])
def test_large_construction_hits_the_guard_quickly(argv):
    start = time.perf_counter()
    status, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1
    assert (status, out) == (3, "")
    assert json.loads(err)["error"]["code"] == "guard-exceeded"


def test_cfp_on_a_long_chain():
    n = 5000
    verts = [f"v{i}" for i in range(n)]
    text = json.dumps({"vertices": verts, "edges": [[verts[i], verts[i + 1]] for i in range(n - 1)],
                       "s": verts[0], "r": verts[-1]})
    for argv in (["cfp"], ["paths"]):
        status, out, err = run_cli(argv, text)
        assert status == 0 and not err
    assert len(json.loads(out)["paths"][0]) == n


def _chain(n):
    verts = [f"v{i}" for i in range(n)]
    return TwoTerminalGraph(verts, [(verts[i], verts[i + 1]) for i in range(n - 1)], verts[0], verts[-1])


def test_spfp_reduce_on_a_long_chain(tmp_path):
    graph = _chain(1200)
    chain_cfp = json.loads(json.dumps(protocol_json(cfp(graph))))
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(chain_cfp))
    status, out, err = run_cli(["spfp-reduce", "--protocol", str(path)], json.dumps(graph_json(graph)))
    assert status == 0 and not err
    assert json.loads(out) == chain_cfp


def _subdivided_b0(k):
    """b0 with every edge replaced by a chain of k edges."""
    base = b0()
    verts, edges = set(base.vertices), []
    for u, v in base.edge_list():
        chain = [u] + [f"{u}.{v}.{t}" for t in range(1, k)] + [v]
        verts.update(chain)
        edges += zip(chain, chain[1:])
    return TwoTerminalGraph(verts, edges, base.s, base.r)


def test_witness_on_a_long_circuit():
    graph = _subdivided_b0(171)
    assert graph.m == 1710
    status, out, err = run_cli(["finite", "--witness"], json.dumps(graph_json(graph)))
    assert status == 0 and not err
    obj = json.loads(out)
    witness = tuple(tuple(state) for state in obj["witness"])
    assert not obj["finite"] and len(witness) == 1026
    assert essential_circuits(cfp(graph)) == [witness]


@pytest.mark.parametrize("n", [8, 10])
def test_witness_on_a_complete_graph_stops_at_the_least_circuit(n):
    """K8's CFP has far more essential circuits than K7's 46,308; the
    witness search stops at the first, so the command answers at once."""
    graph = complete_graph(n)
    start = time.perf_counter()
    status, out, err = run_cli(["finite", "--witness"], json.dumps(graph_json(graph)))
    assert time.perf_counter() - start < 1
    assert status == 0 and not err
    obj = json.loads(out)
    assert obj["finite"] is False
    witness = [tuple(state) for state in obj["witness"]]
    instructions = cfp(graph).instructions
    assert len(witness) >= 2
    assert all(a[1] == b[0] and (a[0], a[1], b[1]) in instructions
               for a, b in zip(witness, witness[1:] + witness[:1]))


def _crossing_pair_b0_text(names=None, orders=(1,), extra=None):
    """b0 with the crossing pair's polynomials on its sender edges s1 and
    s2, its vertices renamed by ``names`` if given, and the overrides in
    ``extra`` on further edges."""
    base = b0()
    names = names or {v: v for v in base.vertices}
    graph = TwoTerminalGraph(names.values(), [(names[u], names[v]) for u, v in base.edge_list()],
                             names["s"], names["r"])
    h1, h2 = build_crossing_pair(orders)
    overrides = {(names["s"], names["1"]): rho(realize(h1)), (names["s"], names["2"]): rho(realize(h2))}
    overrides.update(extra or {})
    return json.dumps(graph_json(graph, EdgeProbabilityMap.with_overrides(graph, overrides)))


# sha256 of the standard output, pinned before the integer-numerator kernel;
# transport onto b0 and the expanded graph print the same bytes
TRANSPORT_GOLDEN = {
    ("rho-hat", "--piecewise"): "dc79a1ab45e1ec33f990ef193b67f0745c8777674a343d370fe23723d3bf51ec",
    ("min-discrepancy",): "6f0e750817dfa0d3e8a599f1cb5ccc01c44b01a2f78cae07a0a6acdd383777d6",
    ("rho-hat", "--at", "2/7"): "4c32900cc9bfbef42bb3ff1a0c1c21cc14c4908cc749969dc5f6e4692d2218e3",
}

# A renaming of b0 under which four of its six removal sets have essential
# transitions subsumed by an earlier set's and build no walk table; the
# digests were pinned before that prune.
RENAMED_B0 = {"s": "p", "1": "m", "2": "y", "3": "n", "4": "b", "5": "i", "r": "q"}
RENAMED_GOLDEN = {
    ("rho-hat", "--piecewise"): "939da9debdbb7824603d299cc3e3f5715493c910140e0f8bc532c2a8669c51a8",
    ("min-discrepancy",): "6131a1d605da8a71bb9467717a60322001676ba65e1c5eb3b8875f70def8e64d",
    ("rho-hat", "--at", "2/7"): "d5746c784679b06d939917d1b6e661bdfdd3e4004b19a0a6ccceb00401395cd9",
}


@pytest.mark.parametrize("source", ["b0-crossing-pair", "breakpoint-graph", "renamed-b0-crossing-pair"])
@pytest.mark.parametrize("argv", TRANSPORT_GOLDEN, ids=" ".join)
def test_breakpoint_outputs_golden(source, argv):
    golden = TRANSPORT_GOLDEN
    if source == "b0-crossing-pair":
        text = _crossing_pair_b0_text()
    elif source == "breakpoint-graph":
        text = json.dumps(graph_json(build_breakpoint_graph((1,))))
    else:
        text = _crossing_pair_b0_text(RENAMED_B0)
        golden = RENAMED_GOLDEN
    status, out, err = run_cli(list(argv), text)
    assert status == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == golden[argv]


# b0 with the (1,1) crossing pair on its sender edges, alone and with p^4 on
# edge 3-4; the second candidate difference has degree 36, and its
# breakpoint near 0.985 lies on a degree-22 factor.  Pinned before the
# Descartes isolation kernel.
PAIR_1_1_GOLDEN = {
    ("alone", "rho-hat", "--piecewise"): "f80c5819e7ee49341f278fc8fda05c4bd10af6301225a13ed22312be4774f804",
    ("alone", "min-discrepancy"): "bbde8a90753898afd807c4cf90484facae9fdcb813e836c7c3881fb8be1b55d6",
    ("p^4 on 3-4", "rho-hat", "--piecewise"): "be2e3f4983cd434d731bbed6896ed23ed6de0e3e9bc6f0c5fb912cea960a96f6",
    ("p^4 on 3-4", "min-discrepancy"): "c198ae74597cf8f1cae18b2422821144e147fedca80931242a60ca44778f59d1",
}


@pytest.mark.parametrize("case", PAIR_1_1_GOLDEN, ids=" ".join)
def test_crossing_pair_1_1_outputs_golden(case):
    extra = {("3", "4"): Poly.x() ** 4} if case[0] == "p^4 on 3-4" else None
    status, out, err = run_cli(list(case[1:]), _crossing_pair_b0_text(orders=(1, 1), extra=extra))
    assert status == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == PAIR_1_1_GOLDEN[case]
    if extra:
        (bp,) = json.loads(out)["breakpoints"]
        assert len(bp["poly"]) == 23 and 0.9849 < Fraction(bp["interval"][0]) < 0.985


# -- one parser per process ---------------------------------------------------------

@pytest.mark.parametrize("argv", [["--help"], ["reliability", "-h"]], ids=" ".join)
def test_help_goes_to_the_given_stdout(argv, capsys):
    status, out, err = run_cli(argv)
    assert (status, err) == (0, "")
    assert out.startswith("usage: relayopt")
    assert capsys.readouterr() == ("", "")


INTERLEAVED = [
    ["reliability", "--prime"],
    ["reliability", "--at", "1/2"],
    ["reliability"],
    ["--max-edges", "-3", "reliability"],
    ["simulate", "--p", "1/3", "--trials", "700", "--seed", "4"],
    ["rho-hat", "--piecewise"],
]


def test_interleaved_calls_match_lone_runs():
    alone = []
    for argv in INTERLEAVED:
        build_parser.cache_clear()
        alone.append(run_cli(argv, b0_text()))
    parser = build_parser()
    for _ in range(2):
        for argv, expected in zip(INTERLEAVED, alone):
            assert run_cli(argv, b0_text()) == expected
    assert build_parser() is parser
    assert [status for status, _, _ in alone] == [0, 0, 0, 1, 0, 0]
    assert json.loads(alone[1][1]) == {"value": "367/1024"} and "value" not in alone[2][1]


def test_repeated_call_leaves_no_cyclic_garbage():
    text = b0_text()
    run_cli(["reliability"], text)
    gc.collect()
    gc.disable()
    try:
        status, _, _ = run_cli(["reliability"], text)
        assert status == 0 and gc.collect() == 0
    finally:
        gc.enable()
