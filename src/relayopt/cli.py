"""Command-line front end: every subcommand is a thin shell over the
library, reading graph JSON from standard input (so constructions chain
through pipes) and writing result JSON to standard output.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 resource guard
exceeded.  Errors are reported as JSON on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction

from . import asymptotics, constructions, engine, optimizer, reliability
from .errors import FormatError, GuardExceededError, ProbabilityError, RelayoptError
from .graphs import (
    EdgeProbabilityMap,
    Protocol,
    TwoTerminalGraph,
    b0,
    graph_json,
    parse_graph,
    parse_protocol,
    protocol_json,
    require_open_unit,
)
from .optimizer import PiecewiseReliability
from .polys import Poly, format_rational, parse_rational
from .roots import AlgebraicNumber
from .simulate import SEED_MAX, SEED_MIN, simulate as run_trials

OUTPUT_WIDTH = Fraction(1, 1 << 20)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _poly_json(poly: Poly) -> list[str]:
    return poly.to_strings()


def _breakpoint_json(root: AlgebraicNumber, order: int) -> dict:
    """The breakpoint's canonical dyadic cell, so the printed interval
    depends only on the root and not on how it was isolated; a root that
    turns out rational is printed exactly, with its linear factor."""
    lo, hi = root.dyadic_cell(OUTPUT_WIDTH)
    poly = Poly((-lo, 1)) if lo == hi else root.poly
    return {"interval": [format_rational(lo), format_rational(hi)], "poly": _poly_json(poly), "order": order}


def _piecewise_json(pw: PiecewiseReliability) -> dict:
    bps = [_breakpoint_json(bp.root, bp.order) for bp in pw.breakpoints]
    bounds = ["0"] + [f"bp{i}" for i in range(len(bps))] + ["1"]
    pieces = [
        {
            "from": bounds[i],
            "to": bounds[i + 1],
            "poly": _poly_json(piece.poly),
            "removed": [list(ins) for ins in sorted(piece.removed)],
        }
        for i, piece in enumerate(pw.pieces)
    ]
    return {"breakpoints": bps, "pieces": pieces}


def _single_or_piecewise(pw: PiecewiseReliability) -> dict:
    if len(pw.pieces) == 1:
        return {
            "poly": _poly_json(pw.pieces[0].poly),
            "removed": [list(ins) for ins in sorted(pw.pieces[0].removed)],
        }
    return _piecewise_json(pw)


def _read_json(stream, what: str):
    try:
        return json.load(stream)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"bad {what} JSON: {exc}") from exc
    except RecursionError:
        raise FormatError(f"bad {what} JSON: nested too deeply") from None


def _load_graph(stdin) -> tuple[TwoTerminalGraph, EdgeProbabilityMap]:
    return parse_graph(_read_json(stdin, "graph"))


def _read_json_file(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_json(fh, what)
    except OSError as exc:
        raise _UsageError(f"cannot read {what} file: {exc}") from exc


def _load_graph_file(path: str) -> tuple[TwoTerminalGraph, EdgeProbabilityMap]:
    return parse_graph(_read_json_file(path, "graph"))


def _load_protocol(path: str | None, graph: TwoTerminalGraph) -> Protocol:
    if path is None:
        return engine.cfp(graph)
    return parse_protocol(_read_json_file(path, "protocol"), graph)


def _load_tree(path: str) -> constructions.SPTree:
    return constructions.parse_sptree(_read_json_file(path, "tree"))


def _parse_orders(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise FormatError(f"bad order list {raw!r}") from exc


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process; ``parse_args`` leaves it unchanged,
    so every ``main`` call shares it."""
    parser = _Parser(prog="relayopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate")
    sub.add_parser("cfp")
    sub.add_parser("paths")

    p = sub.add_parser("finite")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--protocol")

    p = sub.add_parser("spfp-reduce")
    p.add_argument("--protocol", required=True)

    p = sub.add_parser("reliability")
    p.add_argument("--protocol")
    p.add_argument("--prime", action="store_true")
    p.add_argument("--at")

    p = sub.add_parser("rho-hat")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--at")
    one.add_argument("--piecewise", action="store_true")

    p = sub.add_parser("discrepancy")
    p.add_argument("--remove", required=True)
    p.add_argument("--check-event", action="store_true")

    sub.add_parser("min-discrepancy")

    p = sub.add_parser("compose")
    p.add_argument("--op", choices=["series", "parallel", "kelmans"], required=True)
    p.add_argument("--with", dest="with_file")
    p.add_argument("--f2")
    p.add_argument("--g1")
    p.add_argument("--g2")

    p = sub.add_parser("expand")
    p.add_argument("--edge", required=True, help="ordered endpoints u-v")
    p.add_argument("--with", dest="with_file", required=True, help="series-parallel tree JSON file")

    p = sub.add_parser("crossing-pair")
    p.add_argument("--profile", required=True)

    p = sub.add_parser("breakpoint-graph")
    p.add_argument("--orders", required=True)

    sub.add_parser("census")
    sub.add_parser("near-zero")
    sub.add_parser("near-one")

    p = sub.add_parser("robustness")
    p.add_argument("--protocol")

    p = sub.add_parser("simulate")
    p.add_argument("--p", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--protocol")
    p.add_argument("--copies", action="store_true")

    p = sub.add_parser("fixture")
    p.add_argument("name", choices=["b0"])
    return parser


def _run(args, stdin, stdout) -> None:
    def emit(obj) -> None:
        stdout.write(json.dumps(obj, sort_keys=True) + "\n")

    cmd = args.command
    # Commands that build their graph from arguments read no stdin.
    if cmd == "fixture":
        emit(graph_json(b0()))
        return
    if cmd == "crossing-pair":
        h1, h2 = constructions.build_crossing_pair(_parse_orders(args.profile))
        emit({
            "h1": graph_json(constructions.realize(h1)),
            "h2": graph_json(constructions.realize(h2)),
            "trees": {"h1": constructions.sptree_json(h1), "h2": constructions.sptree_json(h2)},
        })
        return
    if cmd == "breakpoint-graph":
        emit(graph_json(constructions.build_breakpoint_graph(_parse_orders(args.orders))))
        return

    graph, probmap = _load_graph(stdin)

    if cmd == "validate":
        emit(graph_json(graph, probmap))
    elif cmd == "cfp":
        emit(protocol_json(engine.cfp(graph)))
    elif cmd == "paths":
        emit({"paths": [list(p) for p in engine.enumerate_sr_paths(graph)]})
    elif cmd == "finite":
        protocol = _load_protocol(args.protocol, graph)
        if args.witness:
            # the witness search builds the one state graph: None exactly
            # when the protocol is finite
            witness = engine.finiteness_witness(protocol)
            result = {"finite": witness is None}
            if witness is not None:
                result["witness"] = [list(state) for state in witness]
        else:
            result = {"finite": engine.is_finite(protocol)}
        emit(result)
    elif cmd == "spfp-reduce":
        protocol = _load_protocol(args.protocol, graph)
        emit(protocol_json(engine.spfp_reduce(protocol)))
    elif cmd == "reliability":
        # With no protocol the CFP is meant, whose walk and path reliability
        # are both rho, from the graph alone: no CFP is built, and the DP's
        # own guard stands in for the subset-scan guard.
        plain = args.protocol is None
        if not plain:
            reliability.check_scan_guard(graph.m)  # before the protocol is loaded
        protocol = None if plain else _load_protocol(args.protocol, graph)
        at = None if args.at is None else require_open_unit(parse_rational(args.at))
        if plain:
            poly = reliability.rho(graph, probmap)
        else:
            poly = (reliability.rho_prime_A if args.prime else reliability.rho_A)(protocol, probmap)
        if at is not None:
            emit({"value": format_rational(poly(at))})
        else:
            emit({"poly": _poly_json(poly)})
    elif cmd == "rho-hat":
        if args.piecewise:
            emit(_piecewise_json(optimizer.rho_hat_piecewise(graph, probmap)))
        elif args.at is not None:
            value, removed = optimizer.rho_hat_at(graph, probmap, parse_rational(args.at))
            emit({"value": format_rational(value), "removed": [list(i) for i in sorted(removed)]})
        else:
            poly, removed = optimizer.rho_hat_at(graph, probmap)
            emit({"poly": _poly_json(poly), "removed": [list(i) for i in sorted(removed)]})
    elif cmd == "discrepancy":
        removal = parse_protocol(_read_json_file(args.remove, "protocol"), graph)
        report = optimizer.discrepancy(graph, removal.instructions, probmap, args.check_event)
        emit({
            "poly": _poly_json(report.polynomial),
            "finite": report.finite,
            "removed": [list(i) for i in sorted(report.removed)],
        })
    elif cmd == "min-discrepancy":
        emit(_single_or_piecewise(optimizer.min_discrepancy(graph, probmap)))
    elif cmd == "compose":
        if args.op == "kelmans":
            for flag in ("f2", "g1", "g2"):
                if getattr(args, flag) is None:
                    raise _UsageError(f"compose --op kelmans requires --{flag}")
            f2, _ = _load_graph_file(args.f2)
            g1, _ = _load_graph_file(args.g1)
            g2, _ = _load_graph_file(args.g2)
            h1, h2 = constructions.kelmans_compose(graph, f2, g1, g2)
            emit({"h1": graph_json(h1), "h2": graph_json(h2)})
        else:
            if args.with_file is None:
                raise _UsageError("compose requires --with FILE")
            other, _ = _load_graph_file(args.with_file)
            joined = (constructions.join_series if args.op == "series" else constructions.join_parallel)(graph, other)
            emit(graph_json(joined))
    elif cmd == "expand":
        if "-" not in args.edge:
            raise _UsageError("--edge must be u-v")
        x, y = args.edge.split("-", 1)
        exp = constructions.expand(graph, (x, y), _load_tree(args.with_file))
        emit(graph_json(exp.graph))
    elif cmd == "census":
        # cuts first: the frontier DP's bound refuses a dense graph before
        # its paths are enumerated
        cuts = asymptotics.cut_census(graph)
        paths = asymptotics.path_census(graph)
        emit({
            "k": paths.distance,
            "d": {str(k): v for k, v in sorted(paths.counts.items())},
            "e": cuts.min_cut,
            "c": {str(k): v for k, v in sorted(cuts.counts.items())},
        })
    elif cmd == "near-zero":
        k, dk, dk1, protocol = asymptotics.near_zero_expansion(graph)
        emit({"k": k, "d_k": dk, "d_k1": dk1, "protocol": [list(i) for i in protocol]})
    elif cmd == "near-one":
        e, ce = asymptotics.near_one_expansion(graph)
        emit({"e": e, "c_e": ce})
    elif cmd == "robustness":
        reliability.check_scan_guard(graph.m)
        protocol = _load_protocol(args.protocol, graph)
        emit({"robustness": asymptotics.robustness(protocol)})
    elif cmd == "simulate":
        if args.trials < 1:
            raise _UsageError("--trials must be at least 1")
        if not SEED_MIN <= args.seed <= SEED_MAX:
            raise _UsageError("--seed must fit in a signed 64-bit integer")
        # every edge is sampled at --p, so a probability of its own would be ignored
        own = [f"{u}-{v}" for (u, v), poly in probmap.items() if poly != Poly.x()]
        if own:
            raise ProbabilityError(f"simulate samples every edge at --p, but edge {own[0]} has its own probability")
        protocol = _load_protocol(args.protocol, graph)
        report = run_trials(protocol, parse_rational(args.p), args.trials, args.seed, count_copies=args.copies)
        emit(report.to_json())
    else:  # pragma: no cover - argparse enforces the choices
        raise _UsageError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr

    def fail(code: str, message: str, status: int) -> int:
        stderr.write(json.dumps({"error": {"code": code, "message": message}}, sort_keys=True) + "\n")
        return status

    try:
        with contextlib.redirect_stdout(stdout):  # where --help writes
            args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return fail("usage", str(exc), 1)
    except SystemExit as exc:  # --help, after writing the help
        return exc.code
    try:
        _run(args, stdin, stdout)
    except _UsageError as exc:
        return fail("usage", str(exc), 1)
    except GuardExceededError as exc:
        return fail(exc.code, str(exc), 3)
    except RelayoptError as exc:
        return fail(exc.code, str(exc), 2)
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
