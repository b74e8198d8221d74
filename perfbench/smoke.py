"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, with verification on; each run must report failed_ratio == 0.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    bad = 0
    for workload in ("scan", "optimize", "transport", "simulate"):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = (result is not None and result["correct"] and result["attempted"] >= 1
                  and result["failed"] == 0)
            ratio = "-" if result is None else result["failed"] / result["attempted"]
            print(f"{workload} trace {trace}: failed_ratio {ratio} {'ok' if ok else 'FAIL'}")
            if not ok:
                bad += 1
                sys.stderr.write(proc.stderr[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
