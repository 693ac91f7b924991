#!/usr/bin/env python3
"""Time the enumeration layers: permutation tables, the walk, and class building.

Usage, from the root of the repository:

    python3 benchmarks/walk_layers.py [--rounds K] [--baseline DIR]
        [--pairs P] [--out FILE]

One round runs ``enumerate_erdos(n, max_support=cap)`` for every
(n, cap) of ``PLAN`` and splits each run's time three ways:
``tables`` is the time spent in ``enumeration.get_tables`` (the tables
cache is emptied before every run, so this includes building them),
``classes`` the time in ``enumeration._build_classes`` (canonical forms
and re-verification), and ``walk`` the rest of the run: the walk
itself, one ``kernels.run_shard`` call from {I}.  A side's figure per layer is the median
over ``--rounds`` rounds, in a child process of its own that imports
``erdosmat`` from the side's ``src`` directory.

With ``--baseline DIR`` (another checkout, such as the parent commit)
the two sides, ``baseline`` and ``checkout`` (this one), run
``--pairs`` times each, alternating which goes first, and the summary
gives each side's median and quartiles over the pairs.  Each side also
reports, per run of the plan, a digest of the report's JSON payload
without ``elapsed_seconds``, ``rejected_dependent`` (the one counter
whose meaning may differ between walks) and ``workers`` (a key that
older checkouts print), so equal digests show that
both sides found the same classes, supports, weights, sources and
counters.  The JSON result, with a header naming the machine, goes to
stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (n, max_support): the catalog-n4 workload, the catalog-n5-shallow one,
# one level deeper at n = 5, and the pairs {I, g} of n = 6
PLAN = ((4, 6), (5, 3), (5, 4), (6, 2))
LAYERS = ("tables", "walk", "classes")


def one_side(src: str, rounds: int) -> dict:
    """Per-run, per-layer median seconds in this process, from ``src``."""
    sys.path.insert(0, src)
    from erdosmat import enumeration

    clock = time.perf_counter
    spent = dict.fromkeys(LAYERS, 0.0)

    def timed(layer, fn):
        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                spent[layer] += clock() - t0

        return wrapper

    enumeration.get_tables = timed("tables", enumeration.get_tables)
    enumeration._build_classes = timed("classes", enumeration._build_classes)

    def run(n, cap):
        enumeration._tables_cache.clear()
        for layer in LAYERS:
            spent[layer] = 0.0
        t0 = clock()
        report = enumeration.enumerate_erdos(n, max_support=cap)
        total = clock() - t0
        seconds = dict(spent, walk=total - spent["tables"] - spent["classes"])
        return seconds, report.to_json()

    samples = {plan: [] for plan in PLAN}
    payloads = {}
    for _ in range(rounds):
        for n, cap in PLAN:
            seconds, payload = run(n, cap)
            samples[(n, cap)].append(seconds)
            payloads[(n, cap)] = payload

    def digest(payload) -> str:
        kept = {k: v for k, v in payload.items()
                if k not in ("elapsed_seconds", "rejected_dependent", "workers")}
        return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]

    return {
        f"n{n}-cap{cap}": {
            "seconds": {k: statistics.median(s[k] for s in samples[(n, cap)]) for k in LAYERS},
            "class_count": payloads[(n, cap)]["class_count"],
            "sets_visited": payloads[(n, cap)]["sets_visited"],
            "rejected_dependent": payloads[(n, cap)]["rejected_dependent"],
            "digest": digest(payloads[(n, cap)]),
        }
        for n, cap in PLAN
    }


def run_child(src: str, rounds: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", src,
           "--rounds", str(rounds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def summary(runs: list, key: str) -> dict:
    """Median and quartiles of each layer's per-run medians, with the total."""
    out = {}
    for layer in LAYERS + ("total",):
        values = sorted(
            sum(r[key]["seconds"].values()) if layer == "total" else r[key]["seconds"][layer]
            for r in runs
        )
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[layer] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    return out


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--baseline", help="root of another checkout to compare with")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--out")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(one_side(args.child, args.rounds)))
        return 0

    sides = {"checkout": os.path.join(ROOT, "src")}
    if args.baseline:
        sides = {"baseline": os.path.join(os.path.abspath(args.baseline), "src"), **sides}
    runs = {name: [] for name in sides}
    order = list(sides)
    for _ in range(args.pairs if args.baseline else 1):
        for name in order:
            runs[name].append(run_child(sides[name], args.rounds))
        order.reverse()
    keys = [f"n{n}-cap{cap}" for n, cap in PLAN]
    result = {
        "benchmark": "walk_layers",
        "machine": machine(),
        "plan": {"runs": [list(p) for p in PLAN],
                 "rounds_per_run": args.rounds, "runs_per_side": len(runs[order[0]])},
        "sides": {
            name: {
                key: {
                    "seconds_per_run": summary(rs, key),
                    **{k: rs[0][key][k] for k in ("class_count", "sets_visited",
                                                   "rejected_dependent", "digest")},
                }
                for key in keys
            }
            for name, rs in runs.items()
        },
    }
    text = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
