#!/usr/bin/env python3
"""erdosmat benchmark: one run of one workload.

Usage, from the root of the repository:

    python3 erdosbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog-n4, catalog-n5-shallow, verify, decompose (see
README.md).  The run happens in a child process started here, so that
``setup_s`` counts from that process's start; this launcher waits for it
and relays its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Exits non-zero, printing no result, when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalog-n4", "catalog-n5-shallow", "verify", "decompose")
TIMEOUT_S = 170


def malformed(result: dict, trace: int) -> str | None:
    """What is wrong with a result line, held against BENCHMARK.json, or None."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"keys {sorted(result)}"
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if sorted(metrics) != sorted(wanted):
        return f"metrics {sorted(set(metrics) ^ set(wanted))} differ from the manifest"
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if (sorted(entry) != ["unit", "value"] or entry["unit"] != wanted[name]
                or isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            return f"metric {name}: {entry}"
    for key in ("attempted", "failed"):
        if isinstance(result[key], bool) or not isinstance(result[key], int):
            return f"{key}: {result[key]!r}"
    if result["attempted"] < 1 or not isinstance(result["correct"], bool):
        return "attempted or correct"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t0 = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--t0", repr(t0)],
            stdout=subprocess.PIPE, timeout=TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {TIMEOUT_S}s", file=sys.stderr)
        return 124
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the run exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    problem = malformed(result, args.trace)
    if problem:
        print(f"error: malformed result line: {problem}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
