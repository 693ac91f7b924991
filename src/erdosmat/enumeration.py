"""Exhaustive, symmetry-reduced enumeration of Erdos classes.

The search walks subsets of permutation matrices that contain the
identity (fixing it costs no generality up to equivalence), extends only
while the set stays linearly independent, runs the candidate pipeline at
every node, and deduplicates accepted matrices by their canonical form
under row/column permutation equivalence.  Supports of one and two
elements go through the rational pipeline of ``gram``; larger ones
through the integer walk of ``kernels``, which carries one fraction-free
elimination of the Gram system down the tree.

Work is sharded at the top two tree levels: each shard is an independent
prefix {I, a, b} whose subtree one worker owns.  Shard results merge by
summing counters and unioning accepted candidates, which is associative
and commutative, so complete runs are deterministic for any worker
count.  Every emitted class is re-verified through the exact rational
pipeline after canonicalization.
"""

from __future__ import annotations

import itertools
import operator
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from multiprocessing import get_context

from . import gram as gram_mod
from . import kernels
from .assignment import frobenius_sq, is_erdos
from .linalg import BistochasticMatrix
from .perms import Permutation
from .rational import format_rational

CANON_CAP = 6
# the one search algorithm, named in every report
ENGINE = "int-walk"


@dataclass(frozen=True)
class ErdosClass:
    """One equivalence class of Erdos matrices with certificate data."""

    canonical: BistochasticMatrix
    support: tuple
    weights: tuple
    common_value: Fraction
    frob_sq: Fraction
    sources: int

    def to_json(self) -> dict:
        return {
            "matrix": [[format_rational(e) for e in row] for row in self.canonical],
            "support": [list(p.one_indexed()) for p in self.support],
            "weights": [format_rational(w) for w in self.weights],
            "value": format_rational(self.common_value),
            "sources": self.sources,
        }


@dataclass(frozen=True)
class EnumerationReport:
    """Classes found plus search statistics for one dimension."""

    n: int
    classes: tuple
    sets_visited: int
    rejected_dependent: int
    rejected_negative: int
    rejected_maxtr: int
    elapsed: float
    complete: bool
    engine: str
    workers: int

    def to_json(self) -> dict:
        return {
            "classes": [c.to_json() for c in self.classes],
            "class_count": len(self.classes),
            "sets_visited": self.sets_visited,
            "rejected_dependent": self.rejected_dependent,
            "rejected_negative": self.rejected_negative,
            "rejected_maxtr": self.rejected_maxtr,
            "elapsed_seconds": round(self.elapsed, 3),
            "complete": self.complete,
            "engine": self.engine,
            "workers": self.workers,
        }


class _Tables:
    """Per-dimension lookup tables shared by the search, indexed by rank.

    ``pos[g]`` lists the row-major positions of the ones of permutation
    matrix g, one per column; ``agree[g][h]`` is the agreement count of g
    and h, the Frobenius inner product of their matrices.
    """

    def __init__(self, n: int):
        self.n = n
        self.perms = tuple(
            Permutation(p) for p in itertools.permutations(range(n))
        )
        self.pos = tuple(
            tuple(i * n + j for j, i in enumerate(p.images)) for p in self.perms
        )
        images = [p.images for p in self.perms]
        self.agree = tuple(
            tuple(sum(map(operator.eq, a, b)) for b in images) for a in images
        )


_tables_cache: dict = {}


def get_tables(n: int) -> _Tables:
    if n not in _tables_cache:
        _tables_cache[n] = _Tables(n)
    return _tables_cache[n]


def canonical_form(a: BistochasticMatrix) -> BistochasticMatrix:
    """The lexicographically least row-major flattening of PAQ over all P, Q.

    Two matrices are equivalent exactly when their canonical forms are
    equal.  Entries are coded by the rank of their exact value and the
    least order is found by ``_canonical_order``.

    Why a row-by-row search is exact: for a fixed row order the least
    column order sorts the columns as vectors, and sorting columns by
    their full tuples also sorts their first-d-row prefixes.  So the first
    d rows of the result depend only on the first d rows chosen, a global
    minimizer is least at every depth and is never pruned, and every order
    that survives to the end gives the same flattening.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError("canonical form requires a square matrix")
    if n > CANON_CAP:
        raise ValueError(f"canonical form is capped at n={CANON_CAP}, got {n}")
    values = sorted(set(a.flatten()))
    code = {v: k for k, v in enumerate(values)}
    rp, cols = _canonical_order([[code[e] for e in row] for row in a])
    return BistochasticMatrix([[a[r][c] for c in cols] for r in rp])


def _canonical_order(rows) -> tuple:
    """(row order, column order) of the least row-major flattening of PAQ.

    ``rows`` is a square grid of nonnegative ints.  The row order grows
    one row at a time, keeping only the partial orders whose next row of
    the column-sorted matrix is least (the refinement step of canonical
    labelling, McKay 1981).  Each column's prefix is carried as a base-b
    integer, b = 1 + the largest entry, so integer order is prefix order;
    among survivors, which share all earlier rows, the sorted prefixes
    compare exactly as the new row does.  Identical unused rows are tried
    once per node, since either choice leads to the same matrices.
    """
    n = len(rows)
    rows = [tuple(r) for r in rows]
    b = 1 + max(max(r) for r in rows)
    level = [((), tuple(range(n)), (0,) * n)]
    for _ in range(n):
        best = None
        survivors = []
        for order, unused, prefix in level:
            tried = set()
            for r in unused:
                row = rows[r]
                if row in tried:
                    continue
                tried.add(row)
                grown = [p * b + e for p, e in zip(prefix, row)]
                key = sorted(grown)
                if best is None or key < best:
                    best = key
                    survivors = []
                elif key != best:
                    continue
                survivors.append(
                    (order + (r,), tuple(u for u in unused if u != r), grown)
                )
        level = survivors
    order, _, prefix = level[0]
    return order, tuple(sorted(range(n), key=prefix.__getitem__))


class _Collector:
    """Accumulates counters and accepted candidates during the search."""

    def __init__(self, n: int):
        self.n = n
        self.visited = 0
        self.dep = 0
        self.neg = 0
        self.maxtr = 0
        self.raws: dict = {}

    def merge_counters(self, visited, dep, neg, maxtr):
        self.visited += visited
        self.dep += dep
        self.neg += neg
        self.maxtr += maxtr

    def merge_raws(self, raws: dict):
        for key, (count, rep) in raws.items():
            mine = self.raws.get(key)
            if mine is None:
                self.raws[key] = [count, rep]
            else:
                mine[0] += count
                if rep < mine[1]:
                    mine[1] = rep

    def record_candidate(self, tables: _Tables, support_ranks, u, s):
        """File one accepted (support, u, s) candidate under its raw matrix."""
        n = self.n
        anum = [0] * (n * n)
        for k, r in enumerate(support_ranks):
            uk = u[k]
            if uk:
                for j in tables.pos[r]:
                    anum[j] += uk
        g = s
        for v in anum:
            g = gcd(g, v)
        key = (s // g, tuple(v // g for v in anum))
        rep = (len(support_ranks), tuple(support_ranks), tuple(u), s)
        entry = self.raws.get(key)
        if entry is None:
            self.raws[key] = [1, rep]
        else:
            entry[0] += 1
            if rep < entry[1]:
                entry[1] = rep

    def record_pipeline(self, tables: _Tables, support_ranks, result):
        """File a PipelineResult produced on an independent support."""
        if result.status == gram_mod.REJECT_NEGATIVE:
            self.neg += 1
        elif result.status == gram_mod.REJECT_MAXTR:
            self.maxtr += 1
        elif result.status == gram_mod.STATUS_OK:
            x = result.solution.x
            s = lcm(*(v.denominator for v in x))
            u = tuple(int(v * s) for v in x)
            self.record_candidate(tables, support_ranks, u, s)
        else:
            raise RuntimeError(f"unexpected pipeline status {result.status!r}")


def _pipeline_at(tables: _Tables, support_ranks, method: str = "auto"):
    """Exact pipeline on a support known to be linearly independent."""
    perms = [tables.perms[r] for r in support_ranks]
    rows = [[tables.agree[a][b] for b in support_ranks] for a in support_ranks]
    return gram_mod._pipeline_known_independent(perms, rows, method)


def _shard_batch(args):
    """Worker entry: run a batch of shard prefixes, return mergeable results.

    ``deadline`` is wall-clock (time.time) so it stays meaningful across
    worker processes; the walk reads it at the start of every shard and
    every ``kernels.CLOCK_EVERY`` nodes within one.
    """
    n, max_support, deadline, prefixes = args
    tables = get_tables(n)
    collector = _Collector(n)
    truncated = False
    for prefix in prefixes:
        stats, accepted, truncated = kernels.run_shard(
            tables, prefix, max_support, deadline
        )
        collector.merge_counters(*stats)
        for support_ranks, u, s in accepted:
            collector.record_candidate(tables, support_ranks, u, s)
        if truncated:
            break
    counters = (collector.visited, collector.dep, collector.neg, collector.maxtr)
    return counters, collector.raws, truncated


def enumerate_erdos(
    n: int,
    max_support: int | None = None,
    budget: float | None = None,
    workers: int | None = None,
    progress=None,
) -> EnumerationReport:
    """Enumerate all Erdos classes in dimension n, up to equivalence.

    A complete run (``complete=True``) certifies that every class whose
    minimal linearly independent support has at most ``max_support``
    elements appears; with the default cap (n-1)^2 + 1 that is every
    class.  ``budget`` is a wall-clock limit in seconds; truncated runs
    report ``complete=False`` with the partial classes still verified.

    Budget slack: the clock is read before every support of size two, at
    the start of every shard and every ``kernels.CLOCK_EVERY``
    (1,024) nodes inside one, so the search stops at most that many nodes
    past the deadline, about 0.05 s at n = 4.  Building the classes after
    the search (one canonical order per distinct matrix found, about
    0.08 ms each at n = 5 and 0.35 ms at n = 6) is not cut short and comes
    on top.  At n = 6 a 2 s budget finds about 720 distinct matrices, so
    the classes add about 0.25 s and the run returns after about 2.3 s.
    """
    if not 2 <= n <= CANON_CAP:
        raise ValueError(f"enumeration supports 2 <= n <= {CANON_CAP}, got {n}")
    cap = (n - 1) ** 2 + 1
    if max_support is None:
        max_support = cap
    if not 1 <= max_support <= cap:
        raise ValueError(f"max_support must lie in [1, {cap}], got {max_support}")
    if workers is None:
        workers = int(os.environ.get("ERDOSMAT_WORKERS", "1"))
    if workers < 1:
        raise ValueError("workers must be at least 1")

    t0 = time.perf_counter()
    deadline = time.time() + budget if budget is not None else None
    tables = get_tables(n)
    nperms = factorial(n)
    collector = _Collector(n)
    complete = True

    def out_of_time() -> bool:
        return deadline is not None and time.time() >= deadline

    def shallow_node(ranks) -> None:
        collector.visited += 1
        res = _pipeline_at(tables, ranks)
        collector.record_pipeline(tables, ranks, res)

    # sizes 1 and 2 run through the exact pipeline in the driver; any two
    # or three distinct permutation matrices are linearly independent
    shallow_node((0,))
    if max_support >= 2:
        for a in range(1, nperms):
            if out_of_time():
                complete = False
                break
            shallow_node((0, a))

    # sizes >= 3 are sharded by the first two non-identity elements
    if max_support >= 3 and complete:
        shards = [(0, a, b) for a in range(1, nperms) for b in range(a + 1, nperms)]
        done = 0

        def consume(result) -> bool:
            nonlocal complete, done
            counters, raws, truncated = result
            collector.merge_counters(*counters)
            collector.merge_raws(raws)
            done += 1
            if progress is not None:
                progress(done, n_batches)
            if truncated:
                complete = False
            return complete and not out_of_time()

        if workers == 1:
            n_batches = len(shards)
            for prefix in shards:
                result = _shard_batch((n, max_support, deadline, [prefix]))
                if not consume(result):
                    break
        else:
            batches = [shards[i::workers * 8] for i in range(workers * 8)]
            batches = [b for b in batches if b]
            n_batches = len(batches)
            ctx = get_context("fork")
            with ctx.Pool(workers) as pool:
                jobs = [(n, max_support, deadline, batch) for batch in batches]
                for result in pool.imap(_shard_batch, jobs):
                    if not consume(result):
                        pool.terminate()
                        break
        if out_of_time() and done < n_batches:
            complete = False

    classes = _build_classes(tables, collector)
    elapsed = time.perf_counter() - t0
    return EnumerationReport(
        n=n,
        classes=tuple(classes),
        sets_visited=collector.visited,
        rejected_dependent=collector.dep,
        rejected_negative=collector.neg,
        rejected_maxtr=collector.maxtr,
        elapsed=elapsed,
        complete=complete,
        engine=ENGINE,
        workers=workers,
    )


def _build_classes(tables: _Tables, collector: _Collector) -> list:
    """Canonicalize raw accepted matrices, deduplicate, and re-verify.

    A raw key (s, anum) is the matrix anum / s reduced by the gcd of s and
    every numerator, so s is the LCM of its denominators and equivalent
    matrices share it; the canonical order of the integer rows of anum
    then identifies the class without building any ``Fraction``.
    """
    n = tables.n
    grouped: dict = {}
    for (s, anum), (count, rep) in collector.raws.items():
        rp, cols = _canonical_order([anum[i * n:(i + 1) * n] for i in range(n)])
        key = (s, tuple(anum[r * n + c] for r in rp for c in cols))
        entry = grouped.get(key)
        if entry is None:
            grouped[key] = [count, rep]
        else:
            entry[0] += count
            if rep < entry[1]:
                entry[1] = rep

    classes = []
    for (s, flat), (sources, rep) in grouped.items():
        canon = BistochasticMatrix(
            [[Fraction(v, s) for v in flat[i * n:(i + 1) * n]] for i in range(n)]
        )
        _, support_ranks, _, _ = rep
        support = tuple(tables.perms[r] for r in support_ranks)
        res = gram_mod.pipeline(list(support))
        if res.status != gram_mod.STATUS_OK:
            raise RuntimeError("class re-verification failed in the exact pipeline")
        if canonical_form(res.matrix) != canon:
            raise RuntimeError("class representative does not match its canonical form")
        verdict, cert = is_erdos(canon)
        frob = frobenius_sq(canon)
        if not verdict or cert.value != frob or frob != res.solution.common_value:
            raise RuntimeError("canonical matrix failed the Erdos re-check")
        classes.append(
            ErdosClass(
                canonical=canon,
                support=support,
                weights=res.solution.x,
                common_value=res.solution.common_value,
                frob_sq=frob,
                sources=sources,
            )
        )
    classes.sort(key=lambda c: (c.frob_sq, c.canonical.flatten()))
    return classes
