"""relayopt benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``scan``, ``optimize``, ``transport``
and ``simulate``.  Each runs in fresh child processes with
``RELAYOPT_THREADS`` removed from the environment and ``PYTHONHASHSEED``
fixed; the library is imported from ``src/`` of the checkout.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(median of three fresh processes), queries per second, median and p90
latency, and peak RSS.  ``--trace 1`` runs a fixed number of passes over
the workload's corpus twice, traced and untraced, and reports per-module
metrics and the tracing overhead.  Every output is verified after the timed region; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Digests of the outputs and
the spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("scan", "optimize", "transport", "simulate")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
# The machine's speed drifts with its neighbours' load (the same query was
# measured at 49 ms and at 94 ms a minute apart on a shared 2-core host),
# while a fixed calibration kernel timed next to each query tracks that
# drift within a few percent.  End-to-end times are therefore reported at
# the reference speed, at which the kernel takes CAL_REF_S; the raw
# figures are printed alongside.
CAL_REF_S = 0.006

UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RELAYOPT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", OUT, *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"worker printed nothing: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def at_reference_speed(times: list[float], cal: list[float]) -> list[float]:
    """Each time scaled by the median calibration of its five neighbours."""
    return [t * CAL_REF_S / statistics.median(cal[max(0, i - 2):i + 3]) for i, t in enumerate(times)]


def layer_unit(name: str) -> str:
    if name.endswith("ns_per_subset"):
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "relayopt", "cli.py")):
        print(f"no relayopt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            trace_run = run_child(args, "--fixed", "--trace")
            plain_run = run_child(args, "--fixed")
            runs = [trace_run, plain_run]
            metrics = dict(trace_run["layers"])
            metrics["trace.overhead_s"] = (sum(at_reference_speed(trace_run["latencies"], trace_run["cal"]))
                                           - sum(at_reference_speed(plain_run["latencies"], plain_run["cal"])))
            units = {k: layer_unit(k) for k in metrics}
            notes = {"queries": trace_run["attempted"]}
        else:
            setup_runs = [run_child(args, "--setup-only") for _ in range(SETUP_RUNS - 1)]
            full = run_child(args)
            setup_runs.append(full)
            runs = [full]
            raw = full["latencies"]
            if len(raw) < 10:
                raise ChildFailed("fewer than ten queries completed")
            lat = at_reference_speed(raw, full["cal"])
            setups = [r["setup_s"] * CAL_REF_S / statistics.median(r["setup_cal"]) for r in setup_runs]
            metrics = {
                "setup_s": statistics.median(setups),
                "queries_per_s": len(lat) / sum(lat),
                "latency_p50_ms": statistics.median(lat) * 1e3,
                "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
                "peak_rss_mib": full["peak_rss_mib"],
            }
            units = UNITS
            notes = {
                "samples": len(lat),
                "beyond_p90": sum(1 for x in lat if x * 1e3 > metrics["latency_p90_ms"]),
                "speed_factor": statistics.median(full["cal"]) / CAL_REF_S,
                "raw_setup_s": statistics.median(r["setup_s"] for r in setup_runs),
                "raw_latency_p50_ms": statistics.median(raw) * 1e3,
                "raw_latency_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
                "raw_queries_per_s": len(raw) / sum(raw),
            }
            if full["trials"]:
                # Every query of the workload is a simulate query.
                notes["trials_per_s"] = full["trials"] / sum(lat)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["checks_ok"] for r in runs)
    env = {"commit": commit(), "python": platform.python_version(), "nproc": os.cpu_count()}
    for r in runs:
        for f in r["failures"]:
            print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"commit {env['commit']} python {env['python']} nproc {env['nproc']}")
    print(" ".join(f"{k} {v}" for k, v in notes.items()))
    print(f"failed_ratio {failed / attempted if attempted else 0.0} 1")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, notes=notes, **env)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
