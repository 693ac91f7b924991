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
(``r.matrix() != a``), then ``linear_independent`` on the
decomposition's support (read before it is timed, since that first
read builds the decomposition's ``(Fraction, Permutation)`` terms;
``affine_independent`` runs the same body), ``to_json`` of the reduced
decomposition, and the ``--format json`` envelope that ``erdosmat
decompose`` prints (``cli._emit_json``, its output caught in a string
buffer), and adds up the time of each layer.  It reports a digest of
its plan and of its decompositions, so equal digests show that both
sides computed the same terms.  ``layers.py`` runs the rounds, the
sides and the summary.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys

import layers

# (n, count): the decompose workload's sizes, the median one being n = 10
PLAN = ((8, 2), (9, 2), (10, 6), (11, 2), (12, 2))
LAYERS = ("parse_matrix", "decompose", "reduce_linear", "reconstruct",
          "linear_independent", "to_json", "emit")


def prepare(seed):
    from erdosmat import decompose, linear_independent, reduce_linear
    from erdosmat.cli import _emit_json
    from erdosmat.linalg import format_matrix, parse_matrix
    from erdosmat.sampling import random_bistochastic

    rng = random.Random(seed)
    plan = [random_bistochastic(n, rng, max_terms=3 * n) for n, count in PLAN for _ in range(count)]
    texts = [format_matrix(a) for a in plan]
    plan_digest = layers.digest([[str(e) for row in a for e in row] for a in plan])

    def reconstruct(r, a):
        if r.matrix() != a:
            raise RuntimeError("decomposition failed to reconstruct the input")

    def emit(n, r, terms):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _emit_json(None, "decompose", n, {"terms": terms, "term_count": len(r), "reduce": "linear"})
        return buf.getvalue()

    def one_round():
        laps = layers.Laps(LAYERS)
        out = []
        for text in texts:
            a = laps.time("parse_matrix", parse_matrix, text, bistochastic=True)
            d = laps.time("decompose", decompose, a)
            r = laps.time("reduce_linear", reduce_linear, d)
            laps.time("reconstruct", reconstruct, r, a)
            support = d.support
            laps.time("linear_independent", linear_independent, support)
            terms = laps.time("to_json", r.to_json)
            out.append((d.to_json(), len(r), laps.time("emit", emit, a.n, r, terms)))
        return {"": (laps.seconds, {
            "matrices": len(plan),
            "terms_in": sum(len(terms) for terms, _, _ in out),
            "terms_out": sum(k for _, k, _ in out),
            "plan_digest": plan_digest,
            "output_digest": layers.digest(out),
        })}

    return one_round


if __name__ == "__main__":
    sys.exit(layers.main(__file__, __doc__, LAYERS, prepare,
                         {"sizes": [list(p) for p in PLAN]}, seed=1, rounds=5, pairs=5))
