"""The orderly integer walk against an independent rational oracle.

The oracle lists every support that contains the identity with
``itertools.combinations``, tests it with ``linalg.linear_independent``
and runs ``gram.pipeline`` (``Fraction`` arithmetic) on the independent
ones.  It finds each support's orbit by brute force: the supports
``t s^-1 S t^-1`` for every t in S_n and s in S, which are the supports
containing the identity among the ``P S Q``, from tables of ``Permutation``
products.  It groups candidates into classes with the row-scan canonical
form of ``conftest``.  It shares no arithmetic with the walk.
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
from erdosmat.linalg import (
    BistochasticMatrix,
    Matrix,
    inverse,
    linear_independent,
    solve_integer,
)
from erdosmat.perms import Permutation, agreement_count


@functools.lru_cache(maxsize=None)
def _oracle_records(n, max_support):
    """Every support containing the identity, with its oracle verdicts.

    Maps the sorted ranks of each support of at most ``max_support``
    elements to (least, orbit, result): whether the ranks are
    lexicographically least in the support's orbit, the number of
    supports in it, and the ``gram.pipeline`` result (None for a
    dependent support).  Orbits partition the supports of each size, so
    each is listed once and shared by its members.
    """
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    orbits = {}
    records = {}
    for size in range(1, max_support + 1):
        for rest in itertools.combinations(range(1, len(perms)), size - 1):
            ranks = (0,) + rest
            if ranks not in orbits:
                orbit = _orbit(n, ranks)
                orbits.update(dict.fromkeys(orbit, orbit))
            orbit = orbits[ranks]
            support = [perms[r] for r in ranks]
            res = gram.pipeline(support) if linear_independent(support) else None
            records[ranks] = (min(orbit) == ranks, len(orbit), res)
    return records


@functools.lru_cache(maxsize=None)
def _maps(n):
    """Rank tables of ``p -> t p t^-1`` and ``p -> s^-1 p``, by rank of t and s."""
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    rank = {p: r for r, p in enumerate(perms)}
    conj = [[rank[t * p * t.inverse()] for p in perms] for t in perms]
    translate = [[rank[s.inverse() * p] for p in perms] for s in perms]
    return conj, translate


def _orbit(n, ranks):
    """The sorted ranks of every ``t s^-1 S t^-1``, s in S and t in S_n."""
    conj, translate = _maps(n)
    return {tuple(sorted(c[translate[s][r]] for r in ranks)) for s in ranks for c in conj}


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
    # the orbit the walk weighs a least support by, n! |S| over the maps
    # t s^-1 S t^-1 of the walk's tables that fix it, is the oracle's
    # brute-force orbit
    tables = get_tables(n)
    for ranks, (is_least, orbit, res) in _records(n, max_support).items():
        if is_least and res is not None:
            assert orbit == len(tables.pos) * len(ranks) // _stabiliser(tables, ranks)


def _fields(tables, packed):
    """The n! fields of a packed int, field k (from the low end) at index k."""
    nperms, size = len(tables.perms), tables.width // 8
    data = packed.to_bytes(nperms * size, "little")
    return [int.from_bytes(data[k * size:(k + 1) * size], "little") for k in range(nperms)]


def _mask(tables, ranks):
    nperms = len(tables.perms)
    return sum(1 << (nperms - 1 - r) for r in ranks)


def _images(tables, ranks):
    """Per s in the support, the packed masks of every ``t s^-1 S t^-1``."""
    images = []
    for s in ranks:
        p = 0
        for x in ranks:
            p |= tables.packed[tables.left[s][x]]
        images.append(p)
    return images


def _stabiliser(tables, ranks):
    """The pairs (t, s), s in the support, with ``t s^-1 S t^-1 = S``."""
    mask = _mask(tables, ranks)
    return sum(_fields(tables, p).count(mask) for p in _images(tables, ranks))


def test_full_n4_walk_accepts_least_supports_weighted_by_their_orbits():
    # past the oracle's cap: every accepted support of the complete n = 4
    # walk is least in its brute-force orbit and weighs that orbit's size,
    # and the weighted count is that of the independent supports
    # containing the identity, as the conjugation-only walk counted them
    stats, accepted, _ = kernels.run_shard(get_tables(4), 10)
    assert stats[0] == 949498
    assert max(len(support) for support, *_ in accepted) > ORACLE_CAP[4]
    for support, _, _, _, weight in accepted:
        orbit = _orbit(4, support)
        assert min(orbit) == support and len(orbit) == weight, support


def test_prefixes_of_least_supports_are_least():
    # dropping the largest element keeps a support least in its orbit,
    # which is what lets the walk drop a support with its subtree
    records = _records(4, 5)
    least = [ranks for ranks, (is_least, _, _) in records.items() if is_least]
    assert len(least) > 100
    for ranks in least:
        assert records[ranks[:-1] or (0,)][0], ranks


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_conjugation_tables_match_brute_force(n):
    # every s up to n = 5; at n = 6 a seeded sample of 30, as the full
    # brute force takes seconds there.  Field k of packed[r] holds the
    # bit of s r s^-1 for the s of rank k, one bit and no carry bit.
    tables = get_tables(n)
    perms = list(tables.perms)
    rank = {p: r for r, p in enumerate(perms)}
    nperms = len(perms)
    assert tables.width % 8 == 0 and tables.width > nperms
    fields = [_fields(tables, p) for p in tables.packed]
    sample = range(nperms) if n < 6 else random.Random(6).sample(range(nperms), 30)
    for k in sample:
        s = perms[k]
        assert [f[k] for f in fields] == [
            1 << (nperms - 1 - rank[s * p * s.inverse()]) for p in perms
        ]
        assert list(tables.left[k]) == [rank[s.inverse() * b] for b in perms]
    assert all(f.bit_count() == 1 and f >> nperms == 0 for row in fields for f in row)
    assert tables.ones == sum(1 << (tables.width * k) for k in range(nperms))
    assert tables.carry == tables.ones << nperms


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_carry_test_and_fixers_match_the_decoded_fields(n):
    # the walk's packed comparison of seeded supports with their images:
    # p + comp sets a carry bit exactly when some field exceeds the mask,
    # and, when none does, p + comp + ones sets one exactly in the fields
    # equal to it.  Each support is also checked as the least support of
    # its orbit, the largest mask among its images, where no field exceeds.
    tables = get_tables(n)
    nperms, ones, carry = len(tables.perms), tables.ones, tables.carry
    rng = random.Random(300 + n)
    exceeded = 0
    for _ in range(4 if n == 6 else 12):
        drawn = (0,) + tuple(sorted(rng.sample(range(1, nperms), rng.randint(1, n))))
        top = max(max(_fields(tables, p)) for p in _images(tables, drawn))
        least = tuple(nperms - 1 - i for i in reversed(range(nperms)) if top >> i & 1)
        for ranks in (drawn, least):
            mask = _mask(tables, ranks)
            # the walk's complement: every mask bit but the support's, in every field
            comp = carry - ones - (ones << (nperms - 1))
            for r in ranks[1:]:
                comp ^= ones << (nperms - 1 - r)
            assert _fields(tables, comp) == [(1 << nperms) - 1 - mask] * nperms
            fixers = 0
            for p in _images(tables, ranks):
                fields = _fields(tables, p)
                assert bool((p + comp) & carry) == (max(fields) > mask)
                if max(fields) > mask:
                    exceeded += 1
                else:
                    count = ((p + comp + ones) & carry).bit_count()
                    assert count == fields.count(mask)
                    fixers += count
            if ranks == least:
                assert fixers == _stabiliser(tables, ranks) >= 1
    assert exceeded


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_agreement_table_matches_pairwise_count(n):
    # the agreement count of a and b is the fixed-point count of a^-1 b
    tables = get_tables(n)
    images = [p.images for p in tables.perms]
    assert [[tables.fix[r] for r in row] for row in tables.left] == [
        [sum(x == y for x, y in zip(a, b)) for b in images] for a in images
    ]


def test_past_deadline_truncates():
    tables = get_tables(3)
    stats, accepted, truncated = kernels.run_shard(tables, 5, deadline=time.perf_counter() - 1.0)
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
            def perf_counter():
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
        def perf_counter():
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
        def perf_counter():
            reads.append(None)
            return 0.0

    monkeypatch.setattr(kernels, "time", Clock)
    for n, nperms in ((4, 24), (5, 120), (6, 720)):
        reads.clear()
        _, _, truncated = kernels.run_shard(get_tables(n), 2, deadline=1.0)
        assert not truncated
        assert len(reads) == nperms


def _descend_randomly(n, rng):
    """Seeded random supports of S_n grown from nothing by ``kernels._extend``.

    Every permutation is tried once, in a random order.  Yields, for each
    try, the grown support's ranks, the support's node (d, adj, z) and
    ``_extend``'s (d', y, z'); the extension is kept, with the bordered
    adjugate, when d' is nonzero.  Random permutations are rarely
    dependent before they span, so most dependent tries come after.
    """
    tables = get_tables(n)
    support, d, adj, z = [], 1, [], []
    for r in rng.sample(range(len(tables.perms)), len(tables.perms)):
        b = [tables.fix[tables.left[r][x]] for x in support]
        d2, y, z2 = kernels._extend(d, adj, z, b, n)
        yield support + [r], (d, adj, z), (d2, y, z2)
        if d2:
            support.append(r)
            d, adj, z = d2, kernels._bordered_adjugate(d, adj, y, d2), z2
    # the span of S_n has dimension (n - 1)^2 + 1
    assert len(support) == (n - 1) ** 2 + 1


def test_extension_is_dependent_exactly_when_the_determinant_vanishes():
    for n in (3, 4, 5, 6):
        rng = random.Random(2000 + n)
        tables = get_tables(n)
        for _ in range(3):
            dependent = 0
            for grown, _, (d2, _, z2) in _descend_randomly(n, rng):
                if dependent < 5:  # linalg's test is the slow side
                    independent = linear_independent([tables.perms[r] for r in grown])
                    assert bool(d2) == independent
                    dependent += not independent
                assert (z2 is None) == (not d2)
            # every permutation outside a spanning support is dependent on it
            assert dependent == min(5, len(tables.perms) - (n - 1) ** 2 - 1)


def test_corrupted_adjugate_raises():
    # {I, (2 3)} in S_3: G = [[3, 1], [1, 3]], so det(G) = 8, adj(G) =
    # [[3, -1], [-1, 3]] and adj(G) 1 = (2, 2)
    d, y, z = kernels._extend(3, [[1]], [1], [1], 3)
    adj = kernels._bordered_adjugate(3, [[1]], y, d)
    assert (d, adj, z) == (8, [[3, -1], [-1, 3]], [2, 2])
    # bordered by b = (1, 1): y = adj b = (2, 2), d' = 3 * 8 - 4 = 20
    assert kernels._extend(d, adj, z, [1, 1], 3) == (20, [2, 2], [4, 4, 4])
    adj[0][0] += 1  # now y = (3, 2), d' = 19 and z'[0] = (19 * 2 - 3 * 3) / 8
    with pytest.raises(ArithmeticError, match="non-exact"):
        kernels._extend(d, adj, z, [1, 1], 3)
    with pytest.raises(ArithmeticError, match="non-exact"):
        kernels._bordered_adjugate(d, adj, [3, 2], 19)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_weights_equal_solve_integer(n):
    # seeded random supports, grown one extension at a time: at every
    # node d is the Gram determinant, adj is d times the Gram inverse, and
    # z is linalg's integer solve of the Gram system against the ones
    rng = random.Random(1000 + n)
    perms = get_tables(n).perms
    for _ in range(4):
        for grown, (d, adj, z), (d2, y, z2) in _descend_randomly(n, rng):
            if not d2:
                continue
            gram_rows = [[agreement_count(perms[a], perms[b]) for b in grown] for a in grown]
            assert (d2, z2) == solve_integer(gram_rows, [1] * len(grown))
            adj2 = kernels._bordered_adjugate(d, adj, y, d2)
            assert [[Fraction(v, d2) for v in row] for row in adj2] == [
                list(row) for row in inverse(Matrix(gram_rows))
            ]
