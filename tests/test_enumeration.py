import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from erdosmat import assignment, enumeration, gram, kernels
from erdosmat.assignment import delta, frobenius_sq, is_erdos, max_trace
from erdosmat.enumeration import (
    _build_classes,
    canonical_form,
    enumerate_erdos,
    get_tables,
)
from erdosmat.gram import (
    REJECT_MAXTR,
    REJECT_NEGATIVE,
    STATUS_OK,
    count_bound,
    half_identity_family,
    pipeline,
)
from erdosmat.linalg import BistochasticMatrix
from erdosmat.perms import Permutation, partitions
from erdosmat.sampling import random_bistochastic, random_permutation

from conftest import brute_canonical_flatten, direct_sum, rowscan_canonical_flatten

F = Fraction


def _report_key(report):
    return (
        [c.canonical.flatten() for c in report.classes],
        report.sets_visited,
        report.rejected_dependent,
        report.rejected_negative,
        report.rejected_maxtr,
        [c.sources for c in report.classes],
        [[p.rank() for p in c.support] for c in report.classes],
        [c.weights for c in report.classes],
    )


def _scrambled(a, rng):
    """PAQ for random permutation matrices P and Q."""
    p = random_permutation(a.n, rng).matrix()
    q = random_permutation(a.n, rng).matrix()
    return BistochasticMatrix((p * a * q).rows)


def _kron_uniform(b, k):
    """B tensor J_k: every row and column of B repeated k times."""
    return BistochasticMatrix(
        [[b[i // k][j // k] / k for j in range(b.n * k)] for i in range(b.n * k)]
    )


def test_canonical_form_matches_brute_oracle(ref):
    rng = random.Random(107)
    mats = [ref["R"], ref["S"], ref["IJ2"], ref["J3"]]
    mats += [random_bistochastic(3, rng) for _ in range(10)]
    four = [BistochasticMatrix.identity(4), BistochasticMatrix.uniform(4), ref["NS4"]]
    four += half_identity_family(4)
    four += [
        direct_sum(ref[name], BistochasticMatrix.identity(1))
        for name in ("R", "S", "T", "J3")
    ]
    four += [
        direct_sum(BistochasticMatrix.uniform(2), BistochasticMatrix.identity(2)),
        direct_sum(BistochasticMatrix.uniform(2), BistochasticMatrix.uniform(2)),
    ]
    four += [random_bistochastic(4, rng) for _ in range(6)]
    mats += [_scrambled(a, rng) for a in four]
    for a in mats:
        assert canonical_form(a).flatten() == brute_canonical_flatten(a)


def test_canonical_form_matches_rowscan_oracle(ref):
    rng = random.Random(113)
    mats = []
    for n in (5, 6):
        mats += [BistochasticMatrix.identity(n), BistochasticMatrix.uniform(n)]
        mats += half_identity_family(n)
        mats += [random_bistochastic(n, rng) for _ in range(4)]
    # repeated rows and columns
    mats += [
        direct_sum(ref["NS4"], BistochasticMatrix.identity(1)),
        direct_sum(ref["NS4"], BistochasticMatrix.uniform(2)),
        direct_sum(ref["J3"], ref["IJ2"]),
        direct_sum(BistochasticMatrix.uniform(2), ref["S"]),
        _kron_uniform(ref["R"], 2),
        _kron_uniform(random_bistochastic(3, rng), 2),
        _kron_uniform(random_bistochastic(2, rng), 3),
    ]
    for a in mats:
        for b in (a, _scrambled(a, rng)):
            assert canonical_form(b).flatten() == rowscan_canonical_flatten(a)


def test_canonical_form_orbit_invariance():
    rng = random.Random(109)
    for n in (3, 4):
        for _ in range(15):
            a = random_bistochastic(n, rng)
            p = random_permutation(n, rng).matrix()
            q = random_permutation(n, rng).matrix()
            paq = BistochasticMatrix((p * a * q).rows)
            assert canonical_form(paq) == canonical_form(a)


def test_canonical_form_examples(ref):
    half = Permutation.from_cycles(3, (1, 2))
    a = BistochasticMatrix(
        (F(1, 2) * Permutation.identity(3).matrix() + F(1, 2) * half.matrix()).rows
    )
    assert canonical_form(a) == canonical_form(ref["IJ2"])
    assert canonical_form(ref["J3"]) == ref["J3"]


def test_canonical_form_validation():
    with pytest.raises(ValueError, match="capped"):
        canonical_form(BistochasticMatrix.uniform(7))


def test_enumerate_n2(ref):
    report = enumerate_erdos(2)
    assert report.complete
    assert len(report.classes) == 2
    got = {c.canonical.flatten() for c in report.classes}
    expected = {
        canonical_form(BistochasticMatrix.identity(2)).flatten(),
        canonical_form(BistochasticMatrix.uniform(2)).flatten(),
    }
    assert got == expected


def test_enumerate_n3_catalog(ref):
    report = enumerate_erdos(3)
    assert report.complete
    assert len(report.classes) == 6
    got = {c.canonical.flatten() for c in report.classes}
    expected = {
        canonical_form(ref[name]).flatten()
        for name in ("I3", "J3", "IJ2", "S", "T", "R")
    }
    assert got == expected
    assert report.sets_visited == 31
    assert report.rejected_dependent == 0
    assert report.rejected_negative == 0
    assert report.rejected_maxtr == 0


def _record(perms, ranks, x):
    """An accepted record as ``kernels.run_shard`` lists it, for weights x."""
    s = lcm(*(v.denominator for v in x))
    u = tuple(int(v * s) for v in x)
    a = BistochasticMatrix.combination(zip(x, [perms[r] for r in ranks]))
    return (tuple(ranks), u, s, [int(e * s) for e in a.flatten()], 1)


def _record_pipeline(stats, accepted, tables, ranks):
    """File the ``gram.pipeline`` verdict (``Fraction`` arithmetic) on one support.

    ``stats`` counts (visited, negative, maxtr); an accepted candidate goes
    to ``accepted`` as ``kernels.run_shard`` lists it, with weight 1.
    """
    res = pipeline([tables.perms[r] for r in ranks])
    stats[0] += 1
    if res.status == REJECT_NEGATIVE:
        stats[1] += 1
    elif res.status == REJECT_MAXTR:
        stats[2] += 1
    else:
        assert res.status == STATUS_OK, (ranks, res.status)
        accepted.append(_record(tables.perms, ranks, res.solution.x))


def test_engines_agree_n3():
    # the integer walk against the rational pipeline run on every support
    # containing the identity, all independent: every size at n = 3 (no
    # dependent extension exists there), and sizes one and two at n = 5
    for n, max_support in ((3, 5), (5, 2)):
        tables = get_tables(n)
        stats = [0, 0, 0]
        accepted = []
        for size in range(max_support):
            for rest in itertools.combinations(range(1, len(tables.perms)), size):
                _record_pipeline(stats, accepted, tables, (0,) + rest)
        classes = _build_classes(tables, accepted)
        report = enumerate_erdos(n, max_support=max_support)
        assert report.engine == "int-walk"
        assert report.complete
        assert _report_key(report) == (
            [c.canonical.flatten() for c in classes],
            stats[0],
            0,
            stats[1],
            stats[2],
            [c.sources for c in classes],
            [[p.rank() for p in c.support] for c in classes],
            [c.weights for c in classes],
        )


def test_build_classes_matches_rowscan_grouping():
    # the accepted candidates of one whole walk at n = 4, max_support = 5,
    # grouped once by _build_classes and once by the row-scan oracle on
    # each candidate matrix
    n = 4
    tables = get_tables(n)
    _, accepted, truncated = kernels.run_shard(tables, 5)
    assert not truncated
    expected: dict = {}
    for ranks, _, s, anum, weight in accepted:
        a = BistochasticMatrix(
            [[F(anum[i * n + j], s) for j in range(n)] for i in range(n)]
        )
        key = rowscan_canonical_flatten(a)
        rep = (len(ranks), ranks)
        sources, best = expected.get(key, (0, rep))
        expected[key] = (sources + weight, min(best, rep))
    classes = _build_classes(tables, accepted)
    assert len(classes) == len(expected) == 33
    assert {
        c.canonical.flatten(): (c.sources, tuple(p.rank() for p in c.support))
        for c in classes
    } == {key: (sources, rep[1]) for key, (sources, rep) in expected.items()}
    # the Gram path the walk's classes no longer run: the same weights,
    # value and class on every representative support
    for c in classes:
        res = pipeline(list(c.support))
        assert res.status == STATUS_OK
        assert res.solution.x == c.weights
        assert res.solution.common_value == c.common_value == c.frob_sq
        assert rowscan_canonical_flatten(res.matrix) == c.canonical.flatten()


def test_build_classes_rejects_corrupted_records():
    # each record fails exactly one of the three re-checks
    tables = get_tables(3)
    _, accepted, _ = kernels.run_shard(tables, 5)
    ranks, u, s, anum, weight = next(r for r in accepted if len(set(r[1])) > 1)
    i, j = next((i, j) for i in range(len(u)) for j in range(i) if u[i] != u[j])
    swapped = list(u)
    swapped[i], swapped[j] = u[j], u[i]
    with pytest.raises(RuntimeError, match="do not rebuild"):
        _build_classes(tables, [(ranks, tuple(swapped), s, anum, weight)])

    # all of S_3 at weight 1/6: a dependent support whose matrix, J_3, is Erdos
    everything = _record(tables.perms, range(6), [F(1, 6)] * 6)
    assert is_erdos(BistochasticMatrix.uniform(3))[0]
    with pytest.raises(RuntimeError, match="dependent"):
        _build_classes(tables, [everything])

    # a positive n = 4 candidate that the Gram path rejects on its maximal trace
    tables = get_tables(4)
    for rest in itertools.combinations(range(1, 24), 2):
        res = pipeline([tables.perms[r] for r in (0,) + rest])
        if res.status == REJECT_MAXTR and min(res.solution.x) > 0:
            break
    else:
        pytest.fail("no maxtr_exceeded support of size 3 at n = 4")
    bad = _record(tables.perms, (0,) + rest, res.solution.x)
    with pytest.raises(RuntimeError, match="Erdos re-check"):
        _build_classes(tables, [bad])


def test_enumeration_checks_each_class_once(monkeypatch):
    # one certified max_trace call per class, and no Gram pipeline or canonical_form
    calls = {"max_trace": 0, "pipeline": 0, "canonical_form": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def certified(a, method="auto"):
        assert method == "hungarian"
        return max_trace(a, method)

    monkeypatch.setattr(enumeration, "max_trace", counted("max_trace", certified))
    monkeypatch.setattr(gram, "pipeline", counted("pipeline", pipeline))
    monkeypatch.setattr(
        enumeration, "canonical_form", counted("canonical_form", canonical_form)
    )
    report = enumerate_erdos(4, max_support=6)
    assert len(report.classes) == 41
    assert calls == {"max_trace": 41, "pipeline": 0, "canonical_form": 0}


def test_value_only_paths_list_no_witnesses(monkeypatch):
    # the class re-check, delta and the half-identity family read only the
    # certified optimum; listing the witnesses of J_8 alone takes 8! matchings
    def refuse(*args):
        raise AssertionError("witnesses listed on a value-only path")

    monkeypatch.setattr(assignment, "_tight_matchings", refuse)
    assert len(enumerate_erdos(4, max_support=6).classes) == 41
    assert delta(BistochasticMatrix.uniform(8)) == 0
    assert len(half_identity_family(5)) == len(partitions(5))
    with pytest.raises(AssertionError, match="value-only"):
        is_erdos(BistochasticMatrix.uniform(3))


def test_class_invariants_and_counters():
    report = enumerate_erdos(3)
    accepted = report.sets_visited - report.rejected_negative - report.rejected_maxtr
    assert sum(c.sources for c in report.classes) == accepted
    for c in report.classes:
        verdict, cert = is_erdos(c.canonical)
        assert verdict
        assert cert.value == c.frob_sq == c.common_value
        assert frobenius_sq(c.canonical) == c.frob_sq
        rebuilt = sum(
            (w * p.matrix() for w, p in zip(c.weights, c.support)),
             0 * BistochasticMatrix.identity(3),
        )
        assert canonical_form(BistochasticMatrix(rebuilt.rows)) == c.canonical


def test_class_count_bounds():
    for n in (2, 3):
        report = enumerate_erdos(n)
        _, equiv = count_bound(n)
        assert len(partitions(n)) <= len(report.classes) <= equiv


def test_max_support_restriction():
    report = enumerate_erdos(3, max_support=2)
    # only the half-identity classes are reachable with two-element supports
    assert len(report.classes) == 3
    assert sorted(c.frob_sq for c in report.classes) == [F(3, 2), 2, 3]


def test_budget_truncation():
    t0 = time.perf_counter()
    report = enumerate_erdos(4, budget=0.05)
    assert time.perf_counter() - t0 < 0.05 + 1.0
    assert not report.complete
    for c in report.classes:
        assert is_erdos(c.canonical)[0]


def test_argument_validation():
    with pytest.raises(ValueError, match="2 <= n"):
        enumerate_erdos(1)
    with pytest.raises(ValueError, match="2 <= n"):
        enumerate_erdos(7)
    with pytest.raises(ValueError, match="max_support"):
        enumerate_erdos(3, max_support=6)
    with pytest.raises(TypeError, match="engine"):
        enumerate_erdos(3, engine="numpy")
    with pytest.raises(TypeError, match="workers"):
        enumerate_erdos(3, workers=1)
    for budget in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="budget"):
            enumerate_erdos(3, budget=budget)
    assert enumerate_erdos(3, budget=float("inf")).complete


def test_report_json_schema():
    report = enumerate_erdos(2)
    payload = report.to_json()
    assert set(payload) == {
        "classes",
        "class_count",
        "sets_visited",
        "rejected_dependent",
        "rejected_negative",
        "rejected_maxtr",
        "elapsed_seconds",
        "complete",
        "engine",
    }
    for entry in payload["classes"]:
        assert set(entry) == {"matrix", "support", "weights", "value", "sources"}
