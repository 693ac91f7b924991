"""The harness shared by the layer scripts in this directory.

A layer script names its ``LAYERS``, describes its plan, and gives a
``prepare(seed)`` that imports ``erdosmat`` and returns the body of one
round.  A round returns ``{entry: (seconds, facts)}``: each layer's
seconds, and the counts and digests of what it computed.  The walk's
entries are the runs of its plan, timed per run; a script with one
entry names it ``""``, and its figures, per round, head a side's report.

``main`` runs each side, ``checkout`` (this one) and, with
``--baseline DIR`` (another checkout, such as the parent commit),
``baseline``, in a child process that imports ``erdosmat`` from the
side's ``src``.  The child runs one untimed warm-up round, whose facts
it reports, then ``--rounds`` timed rounds, and gives each layer's
median.  With a baseline the sides run ``--pairs`` times each,
alternating which goes first.  The summary gives each side's median and
quartiles over its runs, and their total, in seconds to 5 digits.  The
JSON result, with a header naming the machine, goes to stdout or
``--out``.
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


class Laps:
    """Seconds per layer, summed over the calls of one round."""

    def __init__(self, layers):
        self.seconds = dict.fromkeys(layers, 0.0)

    def time(self, layer, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[layer] += time.perf_counter() - t0
        return result


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _child(src: str, prepare, layers, seed, rounds: int) -> dict:
    """Per-entry medians of each layer's seconds over the timed rounds, with the facts."""
    sys.path.insert(0, src)
    one_round = prepare(seed)
    first = one_round()
    samples = [one_round() for _ in range(rounds)]
    return {
        entry: {"seconds": {k: statistics.median(s[entry][0][k] for s in samples)
                            for k in layers}, **facts}
        for entry, (_, facts) in first.items()
    }


def _summary(seconds: list, layers) -> dict:
    """Median and quartiles of each layer's per-run medians, with the total."""
    out = {}
    for layer in layers + ("total",):
        values = [sum(s.values()) if layer == "total" else s[layer] for s in seconds]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[layer] = {"median": round(med, 5), "q1": round(q1, 5), "q3": round(q3, 5)}
    return out


def _side(runs: list, layers) -> dict:
    out = {}
    for entry, first in runs[0].items():
        block = {
            "seconds_per_run" if entry else "seconds_per_round":
                _summary([r[entry]["seconds"] for r in runs], layers),
            **{k: v for k, v in first.items() if k != "seconds"},
        }
        if entry:
            out[entry] = block
        else:
            out.update(block)
    return out


def main(script: str, doc: str, layers, prepare, plan: dict, *,
         rounds: int, pairs: int, seed: int | None = None) -> int:
    """Run the layer script ``script`` with its defaults; ``seed=None`` means it takes none."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--rounds", type=int, default=rounds)
    parser.add_argument("--baseline", help="root of another checkout to compare with")
    parser.add_argument("--pairs", type=int, default=pairs)
    parser.add_argument("--out")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    seed = getattr(args, "seed", None)
    if args.child:
        print(json.dumps(_child(args.child, prepare, layers, seed, args.rounds)))
        return 0

    script = os.path.abspath(script)
    sides = {"checkout": os.path.join(os.path.dirname(os.path.dirname(script)), "src")}
    if args.baseline:
        sides = {"baseline": os.path.join(os.path.abspath(args.baseline), "src"), **sides}
    cmd = [sys.executable, script, "--rounds", str(args.rounds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    runs = {name: [] for name in sides}
    order = list(sides)
    for _ in range(args.pairs if args.baseline else 1):
        for name in order:
            done = subprocess.run(cmd + ["--child", sides[name]], stdout=subprocess.PIPE,
                                  text=True, check=True)
            runs[name].append(json.loads(done.stdout))
        order.reverse()
    if seed is not None:
        plan = {**plan, "seed": seed}
    result = {
        "benchmark": os.path.splitext(os.path.basename(script))[0],
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numba": importlib.util.find_spec("numba") is not None,
                    "platform": platform.platform()},
        "plan": {**plan, "rounds_per_run": args.rounds, "runs_per_side": len(runs["checkout"])},
        "sides": {name: _side(rs, layers) for name, rs in runs.items()},
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0
