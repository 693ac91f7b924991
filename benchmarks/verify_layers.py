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
and adds up the time of each layer.  It reports a digest of its plan
and of its JSON payloads, so equal digests show that both sides
computed the same verdicts.  ``layers.py`` runs the rounds, the sides
and the summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("parse_matrix", "max_trace", "frobenius_sq", "emit_json")
WITNESS_CAP = 100


def prepare(seed):
    sys.path.insert(0, os.path.join(ROOT, "erdosbench"))
    import inputs
    from erdosmat.assignment import frobenius_sq, max_trace
    from erdosmat.cli import _emit_json
    from erdosmat.linalg import parse_matrix
    from erdosmat.rational import format_rational

    texts = [inputs.matrix_text(item["matrix"]) for item in inputs.verify_inputs(seed)]
    plan_digest = layers.digest(texts)

    def emit(a, cert, frob):
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
        return buf.getvalue()

    def one_round():
        laps = layers.Laps(LAYERS)
        out = []
        for text in texts:
            a = laps.time("parse_matrix", parse_matrix, text, bistochastic=True)
            cert = laps.time("max_trace", max_trace, a)
            frob = laps.time("frobenius_sq", frobenius_sq, a)
            out.append(laps.time("emit_json", emit, a, cert, frob))
        return {"": (laps.seconds, {
            "matrices": len(texts),
            "erdos": sum(json.loads(e)["payload"]["erdos"] for e in out),
            "plan_digest": plan_digest,
            "output_digest": layers.digest(out),
        })}

    return one_round


if __name__ == "__main__":
    sys.exit(layers.main(__file__, __doc__, LAYERS, prepare,
                         {"workload": "erdosbench verify"}, seed=1, rounds=20, pairs=5))
