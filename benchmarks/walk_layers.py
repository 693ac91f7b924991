#!/usr/bin/env python3
"""Time the enumeration layers: permutation tables, the walk, and class building.

Usage, from the root of the repository:

    python3 benchmarks/walk_layers.py [--rounds K] [--baseline DIR]
        [--pairs P] [--out FILE]

One round runs ``enumerate_erdos(n, max_support=cap)`` for every
(n, cap) of ``PLAN`` and splits each run's time three ways:
``tables`` is the time spent in ``enumeration.get_tables`` (its cache
is emptied before every run, so this includes building the tables),
``classes`` the time in ``enumeration._build_classes`` (canonical forms
and the integer re-checks), and ``walk`` the rest of the run: the walk
itself, one ``kernels.run_shard`` call from {I}, which carries the
Gram determinant and adjugate down the tree and visits one support per
orbit under ``S -> t s^-1 S t^-1``.  Each run of the plan reports a
digest of the report's JSON payload without ``elapsed_seconds``,
``rejected_dependent`` and ``workers`` (a key that older checkouts
print), so equal digests show that both sides found the same classes,
supports, weights, sources and weighted counters.  ``rejected_dependent``
is left out because it counts the dependent extensions tried from the
visited supports: a walk that prunes by another symmetry visits other
supports and reads another count.  ``layers.py`` runs the rounds, the
sides and the summary.
"""

from __future__ import annotations

import functools
import sys

import layers

# (n, max_support): the catalog-n4 workload, the catalog-n5-shallow one,
# one level deeper at n = 5, and the pairs {I, g} of n = 6
PLAN = ((4, 6), (5, 3), (5, 4), (6, 2))
LAYERS = ("tables", "walk", "classes")


def prepare(seed):
    from erdosmat import enumeration

    get_tables, build_classes = enumeration.get_tables, enumeration._build_classes
    # older checkouts keep the tables in a dict rather than a functools cache
    clear = getattr(get_tables, "cache_clear", None) or enumeration._tables_cache.clear

    def one_round():
        out = {}
        for n, cap in PLAN:
            clear()
            laps = layers.Laps(LAYERS)
            enumeration.get_tables = functools.partial(laps.time, "tables", get_tables)
            enumeration._build_classes = functools.partial(laps.time, "classes", build_classes)
            payload = laps.time("walk", enumeration.enumerate_erdos, n, max_support=cap).to_json()
            laps.seconds["walk"] -= laps.seconds["tables"] + laps.seconds["classes"]
            kept = {k: v for k, v in payload.items()
                    if k not in ("elapsed_seconds", "rejected_dependent", "workers")}
            out[f"n{n}-cap{cap}"] = (laps.seconds, {
                **{k: payload[k] for k in ("class_count", "sets_visited", "rejected_dependent")},
                "digest": layers.digest(kept),
            })
        return out

    return one_round


if __name__ == "__main__":
    sys.exit(layers.main(__file__, __doc__, LAYERS, prepare,
                         {"runs": [list(p) for p in PLAN]}, rounds=3, pairs=3))
