"""The orderly integer walk against an independent rational oracle.

The oracle lists every support that contains the identity with
``itertools.combinations``, tests it with ``linalg.linear_independent``
and runs ``gram.pipeline`` (``Fraction`` arithmetic) on the independent
ones.  It finds each support's conjugacy orbit by brute force, conjugating
by every s in S_n with ``Permutation`` products, and groups candidates
into classes with the row-scan canonical form of ``conftest``.  It shares
no arithmetic with the walk.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import rowscan_canonical_flatten
from erdosmat import gram, kernels
from erdosmat.enumeration import _build_classes, enumerate_erdos, get_tables
from erdosmat.linalg import BistochasticMatrix, linear_independent, solve_integer
from erdosmat.perms import Permutation


@functools.lru_cache(maxsize=None)
def _oracle_records(n, max_support):
    """Every support containing the identity, with its oracle verdicts.

    Maps the sorted ranks of each support of at most ``max_support``
    elements to (least, orbit, result): whether the ranks are
    lexicographically least among the supports conjugate to it, the
    number of those supports, and the ``gram.pipeline`` result (None for
    a dependent support).
    """
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    rank = {p: r for r, p in enumerate(perms)}
    conj = [[rank[s * p * s.inverse()] for p in perms] for s in perms]
    records = {}
    for size in range(1, max_support + 1):
        for rest in itertools.combinations(range(1, len(perms)), size - 1):
            ranks = (0,) + rest
            orbit = {tuple(sorted(c[r] for r in ranks)) for c in conj}
            support = [perms[r] for r in ranks]
            res = gram.pipeline(support) if linear_independent(support) else None
            records[ranks] = (min(orbit) == ranks, len(orbit), res)
    return records


# the largest support the tests walk in each dimension: the oracle runs
# once per dimension at that cap, and smaller caps filter its records
ORACLE_CAP = {3: 5, 4: 5, 5: 3}


def _records(n, max_support):
    """The oracle records of the supports of at most ``max_support`` elements."""
    records = _oracle_records(n, ORACLE_CAP[n])
    return {ranks: rec for ranks, rec in records.items() if len(ranks) <= max_support}


def _unpruned(records):
    """(visited, negative, maxtr) and the classes of the unpruned walk.

    Classes map the row-scan canonical flattening to [sources, least
    (size, support), weights of that least support].
    """
    stats = [0, 0, 0]
    classes = {}
    for ranks, (_, _, res) in records.items():
        if res is None:
            continue
        stats[0] += 1
        if res.status == gram.REJECT_NEGATIVE:
            stats[1] += 1
        elif res.status == gram.REJECT_MAXTR:
            stats[2] += 1
        else:
            assert res.status == gram.STATUS_OK
            key = rowscan_canonical_flatten(res.matrix)
            rep = (len(ranks), ranks)
            entry = classes.setdefault(key, [0, rep, res.solution.x])
            entry[0] += 1
            if rep < entry[1]:
                entry[1:] = [rep, res.solution.x]
    return tuple(stats), classes


def _dependent(records):
    """Dependent supports that are least in their orbit but drop to an
    independent support without their last element: the extensions the
    walk tries and rejects as dependent."""
    return sum(
        1
        for ranks, (least, _, res) in records.items()
        if least and res is None and records[ranks[:-1]][2] is not None
    )


def _walk(n, max_support):
    """Walk stats, accepted {support: weight}, and classes in the oracle's form."""
    tables = get_tables(n)
    stats, accepted, truncated = kernels.run_shard(tables, max_support)
    assert not truncated
    classes = {}
    for ranks, u, s, anum, weight in accepted:
        key = rowscan_canonical_flatten(_matrix(n, anum, s))
        rep = (len(ranks), ranks)
        entry = classes.setdefault(key, [0, rep, tuple(Fraction(w, s) for w in u)])
        entry[0] += weight
        if rep < entry[1]:
            entry[1:] = [rep, tuple(Fraction(w, s) for w in u)]
    weights = {support: weight for support, _, _, _, weight in accepted}
    assert len(weights) == len(accepted)
    return stats, weights, classes


def _matrix(n, anum, s):
    return BistochasticMatrix(
        [[Fraction(anum[i * n + j], s) for j in range(n)] for i in range(n)]
    )


def _check_against_oracle(n, max_support):
    records = _records(n, max_support)
    (visited, negative, maxtr), classes = _unpruned(records)
    stats, weights, walk_classes = _walk(n, max_support)
    # the weighted counters are the unpruned walk's
    assert stats == (visited, _dependent(records), negative, maxtr)
    # accepted supports are the least accepted ones, each weighted by its orbit
    assert weights == {
        ranks: orbit
        for ranks, (least, orbit, res) in records.items()
        if least and res is not None and res.status == gram.STATUS_OK
    }
    # per class: summed sources, least representative and its weights
    assert walk_classes == classes
    return stats


def test_walk_matches_oracle_n3():
    stats = _check_against_oracle(3, 5)
    assert stats == (31, 0, 0, 0)


def test_walk_matches_oracle_n4_small_support():
    # size-4 supports already give dependent extensions and every
    # rejection reason
    stats = _check_against_oracle(4, 4)
    assert all(stats)


def test_walk_matches_oracle_n4_support_5():
    assert all(_check_against_oracle(4, 5))


def test_walk_matches_oracle_n5_support_3():
    stats = _check_against_oracle(5, 3)
    assert stats == (7141, 0, 0, 4980)


@pytest.mark.parametrize("n, max_support", [(3, 5), (4, 5), (5, 3)])
def test_visited_supports_are_the_least_independent_ones(n, max_support):
    # the orbit the walk weighs a least support by, n! over its stabiliser
    # in the conjugation tables, is the oracle's brute-force orbit
    tables = get_tables(n)
    for ranks, (is_least, orbit, res) in _records(n, max_support).items():
        if is_least and res is not None:
            assert orbit == len(tables.pos) // _stabiliser(tables, ranks)


def _stabiliser(tables, ranks):
    """The conjugations, the identity included, that fix the support."""
    target = set(ranks)
    return 1 + sum(1 for table in tables.conj if {table[r] for r in ranks} == target)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conjugation_tables_match_brute_force(n):
    tables = get_tables(n)
    perms = list(tables.perms)
    rank = {p: r for r, p in enumerate(perms)}
    assert tables.conj == tuple(
        tuple(rank[s * p * s.inverse()] for p in perms) for s in perms[1:]
    )
    nperms = len(perms)
    assert tables.conj_bits == tuple(
        tuple(1 << (nperms - 1 - table[r]) for table in tables.conj)
        for r in range(nperms)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_agreement_table_matches_pairwise_count(n):
    tables = get_tables(n)
    images = [p.images for p in tables.perms]
    assert tables.agree == tuple(
        tuple(sum(x == y for x, y in zip(a, b)) for b in images) for a in images
    )


def test_past_deadline_truncates():
    tables = get_tables(3)
    stats, accepted, truncated = kernels.run_shard(tables, 5, deadline=time.time() - 1.0)
    assert truncated
    assert stats == (0, 0, 0, 0) and accepted == []


def _tries(records, nperms, max_support):
    """The supports the walk tries, in order: {I}, every pair {I, x}, then
    each visited pair's subtree: depth first, every extension by a larger
    rank of a visited support with room."""
    out = [(0,)]
    out += [(0, x) for x in range(1, nperms)]

    def grow(ranks):
        for x in range(ranks[-1] + 1, nperms):
            child = ranks + (x,)
            out.append(child)
            least, _, res = records[child]
            if least and res is not None and len(child) < max_support:
                grow(child)

    for pair in out[1:]:
        least, _, res = records[pair]
        if least and res is not None and max_support > 2:
            grow(pair)
    return out


def _counted(records, tried):
    """(visited, dependent, negative, maxtr) of the walk over ``tried``."""
    stats = [0, 0, 0, 0]
    for ranks in tried:
        least, orbit, res = records[ranks]
        if not least:
            continue
        if res is None:
            stats[1] += 1
            continue
        stats[0] += orbit
        if res.status == gram.REJECT_NEGATIVE:
            stats[2] += orbit
        elif res.status == gram.REJECT_MAXTR:
            stats[3] += orbit
    return tuple(stats)


def test_walk_stops_after_k_tries_when_clock_read_k_plus_1_is_late(monkeypatch):
    # the clock is read before every tried extension, visited or not:
    # with readings 1..k before the deadline and reading k + 1 past it,
    # the walk stops after exactly k tries and counts exactly those
    records = _records(3, 5)
    tried = _tries(records, 6, 5)
    assert _counted(records, tried) == (31, 0, 0, 0)
    assert not all(records[ranks][0] for ranks in tried[:8])
    for k in range(1, len(tried)):
        readings = iter([0.0] * k + [2.0])

        class Clock:
            @staticmethod
            def time():
                return next(readings)

        monkeypatch.setattr(kernels, "time", Clock)
        stats, _, truncated = kernels.run_shard(get_tables(3), 5, deadline=1.0)
        assert truncated
        assert stats == _counted(records, tried[:k]), k


def test_walk_stopped_after_the_pairs_has_the_support_2_classes(monkeypatch):
    # the walk tries {I} and the n! - 1 pairs before any subtree: with the
    # clock before the deadline on those n! tries and past it on the next,
    # it stops on the first try of the first subtree, and has then found
    # exactly what the max_support = 2 walk finds
    n = 4
    tables = get_tables(n)
    readings = iter([0.0] * 24 + [2.0])

    class Clock:
        @staticmethod
        def time():
            return next(readings)

    monkeypatch.setattr(kernels, "time", Clock)
    stats, accepted, truncated = kernels.run_shard(tables, 5, deadline=1.0)
    assert truncated
    pair_stats, pair_accepted, pair_truncated = kernels.run_shard(tables, 2)
    assert not pair_truncated
    assert (stats, accepted) == (pair_stats, pair_accepted)
    classes = {c.canonical.flatten() for c in _build_classes(tables, accepted)}
    report = enumerate_erdos(n, max_support=2)
    assert report.complete and len(report.classes) == 5
    assert classes == {c.canonical.flatten() for c in report.classes}


@pytest.mark.parametrize("n, pairs", [(3, 2), (4, 4), (5, 6)])
def test_progress_once_per_pair_subtree(n, pairs):
    # one least pair {I, g} per conjugacy class of S_n but the identity's
    for max_support in (2, 3):
        calls = []
        kernels.run_shard(get_tables(n), max_support, progress=lambda *a: calls.append(a))
        assert calls == [(k, pairs) for k in range(1, pairs + 1)]
    calls = []
    kernels.run_shard(get_tables(n), 1, progress=lambda *a: calls.append(a))
    assert calls == []


def test_cap_2_walk_reads_the_clock_once_per_try(monkeypatch):
    # with cap 2 the walk tries {I} and all n! - 1 pairs, reading the
    # clock before each of them
    reads = []

    class Clock:
        @staticmethod
        def time():
            reads.append(None)
            return 0.0

    monkeypatch.setattr(kernels, "time", Clock)
    for n, nperms in ((4, 24), (5, 120), (6, 720)):
        reads.clear()
        _, _, truncated = kernels.run_shard(get_tables(n), 2, deadline=1.0)
        assert not truncated
        assert len(reads) == nperms


def _state(elim):
    return [list(elim.piv), [list(u) for u in elim.upper], elim.weights()]


def test_push_and_pop_restore_the_elimination():
    tables = get_tables(3)
    elim = kernels._GramElimination()
    support = []
    states = []
    for r in range(5):
        assert elim.push([tables.agree[r][b] for b in support] + [3])
        support.append(r)
        states.append(_state(elim))
    # a dependent extension leaves everything as it was
    assert not elim.push([tables.agree[5][b] for b in support] + [3])
    assert _state(elim) == states[-1]
    elim.pop()
    assert _state(elim) == states[-2]


def test_weights_check_the_back_substitution():
    # {I, (2 3)} in S_3: G = [[3, 1], [1, 3]], so det(G) = 8 and u = (2, 2)
    elim = kernels._GramElimination()
    assert elim.push([3]) and elim.push([1, 3])
    assert elim.weights() == (8, [2, 2])
    elim.upper[0][-1] += 1  # u[0] would be (8 * 2 - 2) / 3
    with pytest.raises(ArithmeticError, match="non-exact"):
        elim.weights()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_weights_equal_solve_integer(n):
    # seeded random supports, grown one push at a time: every independent
    # prefix's (det, weights) is linalg's solve of its Gram system, and a
    # refused push is a dependent extension
    rng = random.Random(1000 + n)
    tables = get_tables(n)
    agree = tables.agree
    full = (n - 1) ** 2 + 1  # the dimension of the span of S_n
    for _ in range(4):
        elim = kernels._GramElimination()
        support = []
        for r in rng.sample(range(len(agree)), len(agree)):
            if len(support) == full:
                break
            grown = support + [r]
            if not elim.push([agree[r][b] for b in support] + [n]):
                assert not linear_independent([tables.perms[b] for b in grown])
                continue
            support = grown
            gram_rows = [[agree[a][b] for b in support] for a in support]
            assert elim.weights() == solve_integer(gram_rows, [1] * len(support))
        assert len(support) == full
