#!/usr/bin/env python3
"""Rebuild the n = 4 reference class list with the benchmark's own Gram walk.

Walks every linearly independent support {I, p_1, ..., p_k} of at most
six permutation matrices of S_4, solves each Gram system exactly, keeps
the nonnegative candidates that are Erdos, and writes their classes
(brute-force canonical forms) to reference/n4-max-support-6.json.  It
does not use erdosmat.  Takes a few seconds.

Usage: python3 erdosbench/rebuild_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import checks
import oracle

N, MAX_SUPPORT = 4, 6


def main() -> int:
    t0 = time.perf_counter()
    walk = oracle.gram_walk(N, MAX_SUPPORT)
    keys = sorted({oracle.brute_class_key(oracle.key_matrix(raw)) for raw in walk["raw"]},
                  key=lambda k: (oracle.frob_sq(oracle.key_matrix(k)), oracle.key_matrix(k)))
    ref = {
        "n": N,
        "max_support": MAX_SUPPORT,
        "supports_visited": walk["visited"],
        "candidates_accepted": walk["accepted"],
        "distinct_matrices": len(walk["raw"]),
        "class_count": len(keys),
        "classes": [
            [" ".join(row) for row in oracle.format_rows(oracle.key_matrix(k))] for k in keys
        ],
    }
    os.makedirs(os.path.dirname(checks.REFERENCE_N4), exist_ok=True)
    with open(checks.REFERENCE_N4, "w", encoding="utf-8") as fh:
        # one class per line
        head = json.dumps({k: v for k, v in ref.items() if k != "classes"}, indent=1)
        rows = ",\n  ".join(json.dumps(c) for c in ref["classes"])
        fh.write(f'{head[:-2]},\n "classes": [\n  {rows}\n ]\n}}\n')
    print(
        f"n={N} max_support={MAX_SUPPORT}: {walk['visited']} supports,"
        f" {walk['accepted']} accepted, {len(walk['raw'])} matrices,"
        f" {len(keys)} classes in {time.perf_counter() - t0:.1f}s"
        f" -> {os.path.relpath(checks.REFERENCE_N4)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
