"""The integer enumeration walk against an independent rational oracle.

The oracle lists every support that contains the identity with
``itertools.combinations``, tests it with ``linalg.linear_independent``
and runs ``gram.pipeline`` (``Fraction`` arithmetic) on the independent
ones.  It shares no arithmetic with the walk.
"""

import itertools
import time
from fractions import Fraction

import pytest

from erdosmat import gram, kernels
from erdosmat.enumeration import _Collector, get_tables
from erdosmat.linalg import linear_independent
from erdosmat.perms import Permutation


def _oracle(n, max_support):
    """(visited, dependent, negative, maxtr) and the accepted matrices.

    Accepted matrices map their flattening to [count, least (size,
    support), weights of that least support].  A support counts as
    dependent when it is dependent but drops to an independent one
    without its last element: the walk tries exactly those extensions.
    """
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    stats = [0, 0, 0, 0]
    found = {}
    for size in range(1, max_support + 1):
        for rest in itertools.combinations(range(1, len(perms)), size - 1):
            ranks = (0,) + rest
            support = [perms[r] for r in ranks]
            if not linear_independent(support):
                if linear_independent(support[:-1]):
                    stats[1] += 1
                continue
            stats[0] += 1
            res = gram.pipeline(support)
            if res.status == gram.REJECT_NEGATIVE:
                stats[2] += 1
            elif res.status == gram.REJECT_MAXTR:
                stats[3] += 1
            else:
                assert res.status == gram.STATUS_OK
                key = res.matrix.flatten()
                rep = (size, ranks)
                entry = found.setdefault(key, [0, rep, res.solution.x])
                entry[0] += 1
                if rep < entry[1]:
                    entry[1:] = [rep, res.solution.x]
    return tuple(stats), found


def _walk(n, max_support):
    """Walk stats and its accepted candidates in the oracle's form."""
    tables = get_tables(n)
    stats, accepted, truncated = kernels.run_shard(tables, (0,), max_support)
    assert not truncated
    collector = _Collector()
    for candidate in accepted:
        collector.record_candidate(*candidate)
    found = {}
    for (s, anum), (count, (size, ranks, u, us)) in collector.raws.items():
        key = tuple(Fraction(a, s) for a in anum)
        found[key] = [count, (size, ranks), tuple(Fraction(w, us) for w in u)]
    return stats, found


def test_walk_matches_oracle_n3():
    stats, found = _walk(3, 5)
    assert stats == (31, 0, 0, 0)
    assert (stats, found) == _oracle(3, 5)


def test_walk_matches_oracle_n4_small_support():
    # size-4 supports already give dependent extensions and every
    # rejection reason
    stats, found = _walk(4, 4)
    assert all(stats)
    assert (stats, found) == _oracle(4, 4)


def test_past_deadline_truncates():
    tables = get_tables(3)
    stats, accepted, truncated = kernels.run_shard(
        tables, (0,), 5, deadline=time.time() - 1.0
    )
    assert truncated
    assert stats == (0, 0, 0, 0) and accepted == []


def test_clock_read_every_clock_every_nodes(monkeypatch):
    # the third clock reading is past the deadline: the walk stops after
    # two full stretches of CLOCK_EVERY nodes
    readings = iter([0.0, 0.0, 2.0])

    class Clock:
        @staticmethod
        def time():
            return next(readings)

    monkeypatch.setattr(kernels, "CLOCK_EVERY", 4)
    monkeypatch.setattr(kernels, "time", Clock)
    stats, _, truncated = kernels.run_shard(get_tables(3), (0,), 5, deadline=1.0)
    assert truncated
    assert stats[0] == 8


def test_dependent_prefix_raises():
    # the six permutation matrices of S_3 are dependent: even and odd
    # permutations have the same sum
    with pytest.raises(ValueError, match="not linearly independent"):
        kernels.run_shard(get_tables(3), (0, 1, 2, 3, 4, 5), 6)


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


def test_inexact_division_raises():
    assert kernels._exact_div([4, -6, 0], 2) == [2, -3, 0]
    assert kernels._exact_div([4, -6], -2) == [-2, 3]
    for nums, d in (([3, 4], 2), ([1, -1], 2), ([5, 1], -3)):
        with pytest.raises(ArithmeticError, match="non-exact"):
            kernels._exact_div(nums, d)
