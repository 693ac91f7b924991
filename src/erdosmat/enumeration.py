"""Exhaustive, symmetry-reduced enumeration of Erdos classes.

The search walks subsets of permutation matrices that contain the
identity (fixing it costs no generality up to equivalence), extends only
while the set stays linearly independent, tests the candidate at every
node, and deduplicates accepted matrices by their canonical form under
row/column permutation equivalence.  Every node is visited by the
integer walk of ``kernels``, which carries the determinant and adjugate
of the Gram matrix down the tree.  ``kernels`` also builds the
per-dimension tables the walk reads; ``get_tables`` keeps them once per
process, and this module reads only their ``perms`` and ``n``.  The
walk is orderly under the maps ``S -> t s^-1 S t^-1`` (s in S, t in
S_n), which take a support onto the supports containing the identity
among its ``P S Q`` and each candidate to an equivalent one: it visits
only the supports that are lexicographically least among their images,
and counts each for its whole orbit.

One call of the walk covers the whole tree in one process: {I}, then
every least pair {I, a}, then each pair's subtree, so a budgeted run has
the classes of the smallest supports before it descends.  Every emitted
class is re-checked once, on integers, by paths that share no arithmetic
with the walk: its support's independence, its weighted permutation sum,
and the certified Kuhn-Munkres maximal trace of its canonical matrix.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import kernels
from .assignment import frobenius_sq, max_trace
from .linalg import BistochasticMatrix, _independent, _permutation_sum
from .rational import format_ratio, format_rational

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
        s = self.canonical.scale
        return {
            "matrix": [[format_ratio(v, s) for v in row] for row in self.canonical.numerators],
            "support": [list(p.one_indexed()) for p in self.support],
            "weights": [format_rational(w) for w in self.weights],
            "value": format_rational(self.common_value),
            "sources": self.sources,
        }


@dataclass(frozen=True)
class EnumerationReport:
    """Classes found plus search statistics for one dimension.

    ``sets_visited``, ``rejected_negative``, ``rejected_maxtr`` and each
    class's ``sources`` count linearly independent supports containing the
    identity, every one of them, though the walk visits one per orbit:
    the supports containing the identity among the ``P S Q`` of one
    support S, over all permutation matrices P and Q.  A support is least
    in its orbit when its sorted ranks are lexicographically least there.
    ``rejected_dependent`` counts the dependent extensions tried from the
    visited supports, each least in its own orbit; orbits do not weight
    it, so it is not a count of all dependent supports.
    """

    n: int
    classes: tuple
    sets_visited: int
    rejected_dependent: int
    rejected_negative: int
    rejected_maxtr: int
    elapsed: float
    complete: bool
    engine: str

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
        }


@functools.cache
def get_tables(n: int) -> kernels._Tables:
    """The walk's tables for dimension n, built once per process."""
    return kernels._Tables(n)


def canonical_form(a: BistochasticMatrix) -> BistochasticMatrix:
    """The lexicographically least row-major flattening of PAQ over all P, Q.

    Two matrices are equivalent exactly when their canonical forms are
    equal.  The least order of the integer numerators over the matrix's
    scale is found by ``_canonical_order``, which tries one row per twin
    class at each node (rows that a row swap with some column
    permutation exchanges lead to the same matrices).

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
    nums = a.numerators
    rp, cols = _canonical_order(nums)
    return BistochasticMatrix._from_numerators(a.scale, [[nums[r][c] for c in cols] for r in rp])


def _canonical_order(rows) -> tuple:
    """(row order, column order) of the least row-major flattening of PAQ.

    ``rows`` is a square grid of nonnegative ints.  The row order grows
    one row at a time, keeping only the partial orders whose next row of
    the column-sorted matrix is least (the refinement step of canonical
    labelling, McKay 1981).  Each column's prefix is carried as a base-b
    integer, b = 1 + the largest entry, so integer order is prefix order;
    among survivors, which share all earlier rows, the sorted prefixes
    compare exactly as the new row does.

    Each node tries one unused row per twin class (``_twins``).  Why that
    is exact: if swapping rows r and r' maps the grid onto itself under
    some column permutation, that pair of permutations is an automorphism
    fixing every other row.  At a node where both are unused it fixes the
    rows already placed, so it maps the orders below "place r" one to one
    onto those below "place r'" and gives each the same column-sorted
    matrix: the two subtrees survive alike and reach the same
    flattenings.  Identical rows are the case where no column moves.
    """
    n = len(rows)
    rows = [tuple(r) for r in rows]
    twin = _twins(rows)
    b = 1 + max(max(r) for r in rows)
    level = [((), tuple(range(n)), (0,) * n)]
    for _ in range(n):
        best = None
        survivors = []
        for order, unused, prefix in level:
            tried = set()
            for i, r in enumerate(unused):
                t = twin[r]
                if t in tried:
                    continue
                tried.add(t)
                grown = [p * b + e for p, e in zip(prefix, rows[r])]
                key = sorted(grown)
                if best is None or key < best:
                    best = key
                    survivors = []
                elif key != best:
                    continue
                survivors.append((order + (r,), unused[:i] + unused[i + 1:], grown))
        level = survivors
    order, _, prefix = level[0]
    return order, tuple(sorted(range(n), key=prefix.__getitem__))


def _twins(rows) -> list:
    """Each row's twin class, named by its least row.

    Rows h and r are twins when swapping them leaves the multiset of
    columns unchanged; only the columns where the two rows differ move,
    so only those are compared.  The swap is then an automorphism with
    the column permutation that matches the moved columns, and swaps
    that are automorphisms compose ((h r) = (h r')(r' r)(h r')), so
    twins are an equivalence and each row is tested only against the
    least row of each class found so far.
    """
    n = len(rows)
    cols = list(zip(*rows))
    shapes = [sorted(row) for row in rows]
    twin = list(range(n))
    heads = []
    for r, row in enumerate(rows):
        for h in heads:
            if shapes[h] != shapes[r]:
                continue
            moved = [c for c, x, y in zip(cols, rows[h], row) if x != y]
            swap = list(range(n))
            swap[h], swap[r] = r, h
            if sorted(moved) == sorted([tuple([c[i] for i in swap]) for c in moved]):
                twin[r] = h
                break
        else:
            heads.append(r)
    return twin


def enumerate_erdos(
    n: int,
    max_support: int | None = None,
    budget: float | None = None,
    progress=None,
) -> EnumerationReport:
    """Enumerate all Erdos classes in dimension n, up to equivalence.

    A complete run (``complete=True``) certifies that every class whose
    minimal linearly independent support has at most ``max_support``
    elements appears; with the default cap (n-1)^2 + 1 that is every
    class.  ``budget`` is a positive wall-clock limit in seconds (``inf``
    sets none); truncated runs report ``complete=False`` with the partial
    classes still verified; ``time.perf_counter`` times both the budget
    and ``elapsed``, so a step of the system clock cannot move either.  ``progress(done, total)`` is called once per
    least pair {I, g} whose subtree the walk has finished.

    Budget slack: the clock is read before every tried extension, so the
    search stops within one try of the deadline.  A try ORs, adds and
    ANDs up to 2 |S| + 1 packed ints of n! image masks, so deep tries at
    n = 6 are the longest: on a shared 2-core machine the longest try of
    a run with a 2 s budget took 1.4-4.4 ms at n = 4 (a complete run),
    3.5-5.1 ms at n = 5 and 5.4-12 ms at n = 6, garbage collection
    included.  Building the n = 6 tables (0.1-0.16 s) counts against
    the budget; building the classes found (8.4 ms for 41 at n = 4,
    2.1 ms for 15 at n = 6) is not cut short and comes on top.
    """
    if not 2 <= n <= CANON_CAP:
        raise ValueError(f"enumeration supports 2 <= n <= {CANON_CAP}, got {n}")
    cap = (n - 1) ** 2 + 1
    if max_support is None:
        max_support = cap
    if not 1 <= max_support <= cap:
        raise ValueError(f"max_support must lie in [1, {cap}], got {max_support}")
    if budget is not None and not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")

    t0 = time.perf_counter()
    deadline = t0 + budget if budget is not None else None
    tables = get_tables(n)
    stats, accepted, truncated = kernels.run_shard(tables, max_support, deadline, progress)
    classes = _build_classes(tables, accepted)
    elapsed = time.perf_counter() - t0
    return EnumerationReport(
        n=n,
        classes=tuple(classes),
        sets_visited=stats[0],
        rejected_dependent=stats[1],
        rejected_negative=stats[2],
        rejected_maxtr=stats[3],
        elapsed=elapsed,
        complete=not truncated,
        engine=ENGINE,
    )


def _build_classes(tables: kernels._Tables, accepted) -> list:
    """Canonicalize the walk's accepted candidates, deduplicate, and re-check.

    ``accepted`` lists (support ranks, u, s, anum, weight) as
    ``kernels.run_shard`` returns them; each adds ``weight`` sources, the
    supports in the orbit of its own, whose candidates are all
    equivalent.  One pass files each record under a raw key (s, anum),
    the matrix anum / s reduced by the gcd of s and every numerator (so s
    is the LCM of its denominators), and each distinct raw key under the
    class key that one ``_canonical_order`` of its integer rows gives,
    with no ``Fraction``.  A class keeps its least (size, support ranks)
    representative, with that support's u, s and raw key.  The classes
    sort by squared norm, then by the canonical numerators written over
    the least common multiple of every class's scale: the order of the
    canonical ``flatten()``, with no ``Fraction`` row built.

    Each class is re-checked once, on integers, by paths that share no
    arithmetic with the walk: its support is independent
    (``linalg._independent``), its u are nonnegative and sum its
    permutations to the raw matrix (``linalg._permutation_sum``), and the
    certified Kuhn-Munkres maximal trace of its bistochastic canonical
    matrix equals the squared norm.  On an independent support a matrix's
    coefficients are unique, and every Birkhoff term of a certified Erdos
    matrix is a witness (Marcus-Ree equality), so the weights u / s are
    the support's Gram candidate and the common value is the
    certificate's.  A complete run's representatives have no zero weight:
    dropping such a term leaves an equivalent, shorter support that the
    walk also visits.
    """
    n = tables.n
    keys: dict = {}
    grouped: dict = {}
    for support_ranks, u, s, anum, weight in accepted:
        g = gcd(s, *anum)
        raw = (s // g, tuple(v // g for v in anum))
        key = keys.get(raw)
        if key is None:
            rp, cols = _canonical_order([raw[1][i * n:(i + 1) * n] for i in range(n)])
            key = keys[raw] = (raw[0], tuple(raw[1][r * n + c] for r in rp for c in cols))
        rep = (len(support_ranks), support_ranks, u, s, raw)
        entry = grouped.get(key)
        if entry is None:
            grouped[key] = [weight, rep]
        else:
            entry[0] += weight
            if rep < entry[1]:
                entry[1] = rep

    top = lcm(*(s for s, _ in grouped))
    ranked = []
    for (s, flat), (sources, (_, support_ranks, u, u_sum, raw)) in grouped.items():
        support = tuple(tables.perms[r] for r in support_ranks)
        images = [p.images for p in support]
        if not _independent(images):
            raise RuntimeError("class support is linearly dependent")
        nums = sum(_permutation_sum(u, images), [])
        g = gcd(u_sum, *nums)
        if min(u) < 0 or (u_sum // g, tuple(v // g for v in nums)) != raw:
            raise RuntimeError("class weights do not rebuild the walk's matrix")
        canon = BistochasticMatrix._from_numerators(s, [flat[i * n:(i + 1) * n] for i in range(n)])
        value = max_trace(canon, method="hungarian").value
        if value != frobenius_sq(canon):
            raise RuntimeError("canonical matrix failed the Erdos re-check")
        weights = tuple(Fraction(v, u_sum) for v in u)
        key = (value, tuple(v * (top // s) for v in flat))
        ranked.append((key, ErdosClass(canon, support, weights, value, value, sources)))
    ranked.sort(key=lambda kc: kc[0])
    return [c for _, c in ranked]
