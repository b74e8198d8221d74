"""One workload in one process: set up, run a closed loop of CLI queries,
verify every output, print one JSON line.

Run by ``run.py`` in a fresh child process; not meant to be started by
hand.  Each query calls ``relayopt.cli.main(argv, stdin=..., stdout=...,
stderr=...)`` in-process, the path a command-line user runs minus
interpreter start-up.  One client, no threads: the next query is issued
when the previous one has returned.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

from relayopt import cli  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, VerificationError, load_corpus  # noqa: E402


MIN_SAMPLES = 100


def calibrate() -> float:
    """Seconds taken by a fixed slice of pure-Python work (integer, dict and
    Fraction arithmetic, the library's own mix).  Timed next to every query
    so that drift in the machine's speed can be divided out."""
    start = time.perf_counter()
    table = {}
    acc = 0
    total = Fraction(0)
    for i in range(20000):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
        if i % 50 == 0:
            total += Fraction(i % 7 + 1, i % 11 + 2)
    return time.perf_counter() - start


def call(q, tracer: Tracer | None = None) -> tuple[int, str, str, float]:
    """Run one query; returns exit status, stdout, stderr and latency."""
    stdin, stdout, stderr = io.StringIO(q.stdin), io.StringIO(), io.StringIO()
    idx = None
    if tracer is not None:
        tracer.query = q.qid
        idx = tracer.begin("cli.main")
    start = time.perf_counter()
    try:
        status = cli.main(list(q.argv), stdin=stdin, stdout=stdout, stderr=stderr)
    except Exception as exc:  # a traceback is a failed query, not a crashed run
        status = -1
        stderr.write(f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end(idx)
        tracer.query = None
    return status, stdout.getvalue(), stderr.getvalue(), latency


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--fixed", action="store_true",
                    help="run a fixed number of whole passes instead of a timed loop")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for digests and spans")
    args = ap.parse_args()

    workdir = os.path.join(args.out, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    workload = WORKLOADS[args.workload](args.seed, workdir, load_corpus())
    # Whole passes over the corpus, so that every run times the same mix.
    passes = math.ceil(args.seconds * workload.nominal_rate / workload.pass_size)
    if args.fixed:
        passes = math.ceil(passes / 2)  # a traced run and its untraced twin
    count = passes * workload.pass_size
    queries = [workload.next_query() for _ in range(count)]
    for q in workload.warmup_queries():
        call(q)
    setup_s = time.perf_counter() - PROCESS_START
    setup_cal = [calibrate() for _ in range(3)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal": setup_cal}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    # Timed runs stop at the pass boundary nearest to --seconds of query
    # time, once ten queries can lie beyond the p90 (unless --seconds is too
    # short for that at the nominal rate); calibration and making queries
    # beyond the prefilled ones do not count.
    min_samples = min(MIN_SAMPLES, args.seconds * workload.nominal_rate)
    results = []
    cal = []
    busy_s = 0.0
    while True:
        done = len(results)
        if done and done % workload.pass_size == 0:
            half_pass = busy_s / (done // workload.pass_size) / 2
            if done >= count if args.fixed else busy_s >= args.seconds - half_pass and done >= min_samples:
                break
        if done == len(queries):
            queries.append(workload.next_query())
        cal.append(calibrate())
        results.append(call(queries[done], tracer))
        busy_s += results[-1][3]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    digests = {}
    for q, (status, out, err, _) in zip(queries, results):
        try:
            if status != 0:
                raise VerificationError(f"exit {status}: {err.strip()[:300]}")
            workload.verify(q, out)
        except Exception as exc:  # any defect in an output fails that query
            failures.append({"query": q.qid, "argv": q.argv, "error": f"{type(exc).__name__}: {exc}"})
        digests[q.qid] = hashlib.sha256(out.encode()).hexdigest()
    run_checks_ok = True
    try:
        workload.run_checks(lambda q: call(q)[1])
    except VerificationError as exc:
        run_checks_ok = False
        failures.append({"query": "run_checks", "error": str(exc)})

    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    with open(os.path.join(args.out, f"digests-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
    report = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "latencies": [r[3] for r in results],
        "cal": cal,
        "trials": workload.trials * len(results),
        "attempted": len(results),
        "failed": sum(1 for f in failures if f["query"] != "run_checks"),
        "checks_ok": run_checks_ok,
        "failures": failures[:20],
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer is not None:
        tracer.dump(os.path.join(args.out, f"spans-{tag}.jsonl"))
        report["layers"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
