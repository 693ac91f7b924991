#!/usr/bin/env python3
"""Time the Birkhoff layer: parsing, ``decompose``, ``reduce_linear``, the checks and the output.

Usage, from the root of the repository:

    python3 benchmarks/decompose_layers.py [--seed N] [--rounds K]
        [--baseline DIR] [--pairs P] [--out FILE]

The plan is seeded: ``sampling.random_bistochastic`` draws matrices of
sizes 8 to 12 with up to 3n terms each (``PLAN``).  One round runs, on
every matrix in turn, ``parse_matrix`` with its bistochastic check on
the matrix's text, ``decompose``, then ``reduce_linear`` on its output,
the reconstruction check that ``erdosmat decompose`` makes on that
(``r.matrix() != a``), then ``linear_independent`` and
``affine_independent`` on the decomposition's support, ``to_json`` of
the reduced decomposition, and the ``--format json`` envelope that
``erdosmat decompose`` prints (``cli._emit_json``, its output caught in a
string buffer), and adds up the time of each layer.  A side's figure per layer is the median over
``--rounds`` rounds, after one untimed warm-up round, in a child process
of its own that imports ``erdosmat`` from the side's ``src`` directory.

With ``--baseline DIR`` (another checkout, such as the parent commit)
the two sides, ``baseline`` and ``checkout`` (this one), run
``--pairs`` times each, alternating which goes first, and the summary
gives each side's median and quartiles over the pairs.
Each side also reports a digest of its plan and of its decompositions,
so equal digests show that both computed the same terms.  The JSON
result, with a header naming the machine, goes to stdout or ``--out``.
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
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (n, count): the decompose workload's sizes, the median one being n = 10
PLAN = ((8, 2), (9, 2), (10, 6), (11, 2), (12, 2))
LAYERS = ("parse_matrix", "decompose", "reduce_linear", "reconstruct",
          "linear_independent", "affine_independent", "to_json", "emit")


def one_side(src: str, seed: int, rounds: int) -> dict:
    """Per-layer median seconds per round, in this process, from ``src``."""
    sys.path.insert(0, src)
    from erdosmat import affine_independent, decompose, linear_independent, reduce_linear
    from erdosmat.cli import _emit_json
    from erdosmat.linalg import format_matrix, parse_matrix
    from erdosmat.sampling import random_bistochastic

    rng = random.Random(seed)
    plan = [random_bistochastic(n, rng, max_terms=3 * n) for n, count in PLAN for _ in range(count)]
    texts = [format_matrix(a) for a in plan]
    clock = time.perf_counter

    def round_times():
        spent = dict.fromkeys(LAYERS, 0.0)
        out = []
        for text in texts:
            t0 = clock()
            a = parse_matrix(text, bistochastic=True)
            t1 = clock()
            d = decompose(a)
            t2 = clock()
            r = reduce_linear(d)
            t3 = clock()
            if r.matrix() != a:
                raise RuntimeError("decomposition failed to reconstruct the input")
            t4 = clock()
            linear_independent(d.support)
            t5 = clock()
            affine_independent(d.support)
            t6 = clock()
            terms = r.to_json()
            t7 = clock()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                _emit_json(None, "decompose", a.n,
                           {"terms": terms, "term_count": len(r), "reduce": "linear"})
            t8 = clock()
            times = (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6, t8 - t7)
            for layer, dt in zip(LAYERS, times):
                spent[layer] += dt
            out.append((d.to_json(), len(r), buf.getvalue()))
        return spent, out

    _, out = round_times()
    samples = [round_times()[0] for _ in range(rounds)]

    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]

    return {
        "seconds": {k: statistics.median(s[k] for s in samples) for k in LAYERS},
        "matrices": len(plan),
        "terms_in": sum(len(terms) for terms, _, _ in out),
        "terms_out": sum(k for _, k, _ in out),
        "plan_digest": digest([[str(e) for row in a for e in row] for a in plan]),
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
    parser.add_argument("--rounds", type=int, default=5)
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
        "benchmark": "decompose_layers",
        "machine": machine(),
        "plan": {"sizes": [list(p) for p in PLAN], "seed": args.seed,
                 "rounds_per_run": args.rounds, "runs_per_side": len(runs[order[0]])},
        "sides": {
            name: {
                "seconds_per_round": summary(rs),
                **{k: rs[0][k] for k in ("matrices", "terms_in", "terms_out",
                                          "plan_digest", "output_digest")},
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
