"""Per-module spans for the traced run, recorded from outside the library.

``Tracer.install`` wraps the public module-level functions of each traced
``relayopt`` module and rebinds the wrapper at every place the function is
bound: modules import each other with ``from .x import y``, so
``optimizer.rho_A`` or ``simulate.admits_table`` are separate bindings of
one function.  Every ``relayopt.*`` module attribute that *is* the target
is patched.  ``polys`` is not wrapped: its per-operation cost is too fine
grained and shows up in the self time of reliability assembly and roots.

Spans are kept in memory as ``[name, start, end, parent, query, work]``
and only recorded while a query runs.  ``metrics`` turns them into the
per-layer figures; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("graphs", "engine", "reliability", "optimizer", "roots", "constructions",
                  "asymptotics", "simulate")

# Leaf helpers called per instruction, path or bisection step: a span each
# would cost more than the work it measures.
SKIP = frozenset({
    "graphs.edge_key", "graphs.check_instruction", "engine.instructions_in",
    "engine.loop_erase", "roots.sign_variations", "roots.count_roots",
})

TABLES = ("reliability.admits_table", "reliability.path_table", "reliability.connectivity_table")

# Work recorded with a span: subsets a table build scans, sets or
# candidates a search returns, trials a simulation draws.
WORK = {
    "reliability.admits_table": lambda a, r: 1 << a[0].graph.m,
    "reliability.path_table": lambda a, r: 1 << a[0].graph.m,
    "reliability.connectivity_table": lambda a, r: 1 << a[0].m,
    "reliability.monotone_table": lambda a, r: 1 << a[0],
    "optimizer.minimal_removal_sets": lambda a, r: len(r),
    "optimizer.candidate_polynomials": lambda a, r: len(r),
    "simulate.simulate": lambda a, r: r.trials,
}

NAME, START, END, PARENT, QUERY, WORKED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query: str | None = None
        self.refine_calls = 0

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query, 0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.query is None:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    self.spans[idx][WORKED] = work(args, result)
                return result
            finally:
                self.end(idx)

        return traced

    def install(self) -> int:
        """Wrap every traced function at all of its bindings; returns the
        number of bindings patched."""
        from relayopt.roots import AlgebraicNumber

        modules = [m for n, m in sys.modules.items() if n == "relayopt" or n.startswith("relayopt.")]
        patched = 0
        for short in TRACED_MODULES:
            mod = sys.modules[f"relayopt.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if f"{short}.{attr}" in SKIP:
                    continue
                wrapped = self.wrap(f"{short}.{attr}", fn)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, name, wrapped)
                            patched += 1
        refine = AlgebraicNumber.refine_once

        def counted(number):
            if self.query is not None:
                self.refine_calls += 1
            return refine(number)

        AlgebraicNumber.refine_once = counted
        return patched

    # -- analysis ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        n = len(spans)
        children: list[list[int]] = [[] for _ in range(n)]
        for i, sp in enumerate(spans):
            if sp[PARENT] >= 0:
                children[sp[PARENT]].append(i)

        def dur(i: int) -> float:
            return spans[i][END] - spans[i][START]

        def has_ancestor(i: int, names) -> bool:
            j = spans[i][PARENT]
            while j >= 0:
                if spans[j][NAME] in names:
                    return True
                j = spans[j][PARENT]
            return False

        def outermost_within(i: int, names) -> list[int]:
            """Descendants of i named in ``names`` with no such ancestor below i."""
            found, stack = [], list(children[i])
            while stack:
                j = stack.pop()
                if spans[j][NAME] in names:
                    found.append(j)
                else:
                    stack.extend(children[j])
            return found

        incl: dict[str, float] = {}
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        for i, sp in enumerate(spans):
            name = sp[NAME]
            calls[name] = calls.get(name, 0) + 1
            if not has_ancestor(i, (name,)):
                incl[name] = incl.get(name, 0.0) + dur(i)
                work[name] = work.get(name, 0) + sp[WORKED]

        def self_total(name: str, minus) -> float:
            total = 0.0
            for i, sp in enumerate(spans):
                if sp[NAME] == name and not has_ancestor(i, (name,)):
                    total += dur(i) - sum(dur(j) for j in outermost_within(i, minus))
            return total

        cli_self = 0.0
        for i, sp in enumerate(spans):
            if sp[NAME] == "cli.main":
                cli_self += dur(i) - sum(dur(j) for j in children[i])

        table_time = 0.0
        subsets = 0
        for i, sp in enumerate(spans):
            name = sp[NAME]
            outer_table = name in TABLES and not has_ancestor(i, TABLES)
            loose_kernel = name == "reliability.monotone_table" and not has_ancestor(i, TABLES)
            if outer_table or loose_kernel:
                table_time += dur(i)
                subsets += sp[WORKED]

        finiteness_tests = sum(
            1 for i, sp in enumerate(spans)
            if sp[NAME] == "engine.is_finite" and has_ancestor(i, ("optimizer.minimal_removal_sets",))
        )
        sim_s = incl.get("simulate.simulate", 0.0)
        trials = work.get("simulate.simulate", 0)

        out = {
            "cli.self_s": cli_self,
            "graphs.parse_graph.s": incl.get("graphs.parse_graph", 0.0),
            "graphs.parse_graph.calls": calls.get("graphs.parse_graph", 0),
            "engine.cfp.s": incl.get("engine.cfp", 0.0),
            "engine.enumerate_sr_paths.calls": calls.get("engine.enumerate_sr_paths", 0),
            "engine.is_finite.calls": calls.get("engine.is_finite", 0),
            "engine.is_finite.s": incl.get("engine.is_finite", 0.0),
            "engine.essential_circuits.s": incl.get("engine.essential_circuits", 0.0),
            "reliability.admits_table.s": incl.get("reliability.admits_table", 0.0),
            "reliability.admits_table.calls": calls.get("reliability.admits_table", 0),
            "reliability.path_table.s": incl.get("reliability.path_table", 0.0),
            "reliability.connectivity_table.s": incl.get("reliability.connectivity_table", 0.0),
            "reliability.monotone_table.s": incl.get("reliability.monotone_table", 0.0),
            "reliability.polynomial_from_table.s": incl.get("reliability.polynomial_from_table", 0.0),
            "reliability.polynomial_from_table.calls": calls.get("reliability.polynomial_from_table", 0),
            "reliability.subsets_scanned": subsets,
            "reliability.ns_per_subset": table_time / subsets * 1e9 if subsets else 0.0,
            "optimizer.minimal_removal_sets.s": incl.get("optimizer.minimal_removal_sets", 0.0),
            "optimizer.finiteness_tests": finiteness_tests,
            "optimizer.removal_sets": work.get("optimizer.minimal_removal_sets", 0),
            "optimizer.candidate_polynomials.s": incl.get("optimizer.candidate_polynomials", 0.0),
            "optimizer.candidates": work.get("optimizer.candidate_polynomials", 0),
            "optimizer.envelope_self_s": self_total("optimizer.rho_hat_piecewise",
                                                    ("optimizer.candidate_polynomials",)),
            "optimizer.discrepancy.s": incl.get("optimizer.discrepancy", 0.0),
            "roots.isolate_roots_01.s": incl.get("roots.isolate_roots_01", 0.0),
            "roots.isolate_roots_01.calls": calls.get("roots.isolate_roots_01", 0),
            "roots.multiplicity_at.s": incl.get("roots.multiplicity_at", 0.0),
            "roots.refine_calls": self.refine_calls,
            "constructions.expand.s": incl.get("constructions.expand", 0.0),
            "constructions.realize.s": incl.get("constructions.realize", 0.0),
            "constructions.kelmans_compose.s": incl.get("constructions.kelmans_compose", 0.0),
            "asymptotics.cut_census.s": incl.get("asymptotics.cut_census", 0.0),
            "asymptotics.path_census.s": incl.get("asymptotics.path_census", 0.0),
            "asymptotics.robustness.s": incl.get("asymptotics.robustness", 0.0),
            "asymptotics.near_zero_expansion.s": incl.get("asymptotics.near_zero_expansion", 0.0),
            "simulate.simulate.s": sim_s,
            "simulate.sampling_self_s": self_total("simulate.simulate", ("reliability.admits_table",)),
            "simulate.trials": trials,
            "simulate.trials_per_s": trials / sim_s if sim_s else 0.0,
        }
        return out

    def dump(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, query, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp))
                fh.write("\n")
