#!/usr/bin/env python3
"""Time the verify path: parsing, ``max_trace``, ``frobenius_sq`` and the JSON output.

Usage, from the root of the repository:

    python3 benchmarks/verify_layers.py [--seed N] [--rounds K]
        [--baseline DIR] [--pairs P] [--out FILE]

The plan is the ``verify`` workload's: ``erdosbench/inputs.py`` draws
20 bistochastic matrices of sizes 6 to 8 from ``--seed``
(``VERIFY_PLAN``), and their text is what ``erdosmat verify`` reads.
One round runs, on every matrix in turn, ``parse_matrix`` with its
bistochastic check, ``max_trace`` (``auto``), ``frobenius_sq``, then the
``--format json`` envelope that ``erdosmat verify`` prints, built and
written by ``cli._emit_json`` (its output caught in a string buffer),
and adds up the time of each layer.  A
side's figure per layer is the median over ``--rounds`` rounds, after
one untimed warm-up round, in a child process of its own that imports
``erdosmat`` from the side's ``src`` directory.

With ``--baseline DIR`` (another checkout, such as the parent commit)
the two sides, ``baseline`` and ``checkout`` (this one), run
``--pairs`` times each, alternating which goes first, and the summary
gives each side's median and quartiles over the pairs.  Each side also
reports a digest of its plan and of its JSON payloads, so equal digests
show that both computed the same verdicts.  The JSON result, with a
header naming the machine, goes to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("parse_matrix", "max_trace", "frobenius_sq", "emit_json")
WITNESS_CAP = 100


def one_side(src: str, seed: int, rounds: int) -> dict:
    """Per-layer median seconds per round, in this process, from ``src``."""
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "erdosbench"))
    import inputs
    from erdosmat.assignment import frobenius_sq, max_trace
    from erdosmat.cli import _emit_json
    from erdosmat.linalg import parse_matrix
    from erdosmat.rational import format_rational

    texts = [inputs.matrix_text(item["matrix"]) for item in inputs.verify_inputs(seed)]
    clock = time.perf_counter

    def round_times():
        spent = dict.fromkeys(LAYERS, 0.0)
        out = []
        for text in texts:
            t0 = clock()
            a = parse_matrix(text, bistochastic=True)
            t1 = clock()
            cert = max_trace(a)
            t2 = clock()
            frob = frobenius_sq(a)
            t3 = clock()
            gap = cert.value - frob
            payload = {
                "frob_sq": format_rational(frob),
                "maxtr": format_rational(cert.value),
                "delta": format_rational(gap),
                "erdos": gap == 0,
                "witnesses": [list(w.one_indexed()) for w in cert.witnesses[:WITNESS_CAP]],
                "witness_count": len(cert.witnesses),
                "witnesses_complete": cert.complete,
                "algorithm": cert.algorithm,
            }
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                _emit_json(None, "verify", a.nrows, payload)
            emitted = buf.getvalue()
            t4 = clock()
            for layer, dt in zip(LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                spent[layer] += dt
            out.append(emitted)
        return spent, out

    _, out = round_times()
    samples = [round_times()[0] for _ in range(rounds)]

    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]

    return {
        "seconds": {k: statistics.median(s[k] for s in samples) for k in LAYERS},
        "matrices": len(texts),
        "erdos": sum(json.loads(e)["payload"]["erdos"] for e in out),
        "plan_digest": digest(texts),
        "output_digest": digest(out),
    }


def run_child(src: str, seed: int, rounds: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", src,
           "--seed", str(seed), "--rounds", str(rounds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def summary(runs: list) -> dict:
    """Median and quartiles of each layer's per-run medians, with the total."""
    out = {}
    for layer in LAYERS + ("total",):
        values = sorted(
            sum(r["seconds"].values()) if layer == "total" else r["seconds"][layer]
            for r in runs
        )
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[layer] = {"median": round(med, 5), "q1": round(q1, 5), "q3": round(q3, 5)}
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
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--baseline", help="root of another checkout to compare with")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(one_side(args.child, args.seed, args.rounds)))
        return 0

    sides = {"checkout": os.path.join(ROOT, "src")}
    if args.baseline:
        sides = {"baseline": os.path.join(os.path.abspath(args.baseline), "src"), **sides}
    runs = {name: [] for name in sides}
    order = list(sides)
    for _ in range(args.pairs if args.baseline else 1):
        for name in order:
            runs[name].append(run_child(sides[name], args.seed, args.rounds))
        order.reverse()
    result = {
        "benchmark": "verify_layers",
        "machine": machine(),
        "plan": {"workload": "erdosbench verify", "seed": args.seed,
                 "rounds_per_run": args.rounds, "runs_per_side": len(runs[order[0]])},
        "sides": {
            name: {
                "seconds_per_round": summary(rs),
                **{k: rs[0][k] for k in ("matrices", "erdos", "plan_digest",
                                          "output_digest")},
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
