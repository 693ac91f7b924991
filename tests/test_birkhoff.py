import random
from fractions import Fraction
from math import lcm

import pytest

from erdosmat import birkhoff
from erdosmat.birkhoff import (
    ConvexDecomposition,
    _Matching,
    decompose,
    reduce_affine,
    reduce_linear,
)
from erdosmat.gram import half_identity_family
from erdosmat.linalg import (
    BistochasticMatrix,
    _peels_in_order,
    affine_independent,
    linear_independent,
)
from erdosmat.perms import Permutation, all_permutations
from erdosmat.rational import format_rational
from erdosmat.sampling import random_bistochastic, random_permutation

from conftest import (
    oracle_greedy_replay,
    oracle_matchable,
    oracle_reduce,
    unpeeled_independent,
)

F = Fraction


def test_decompose_permutation_matrix():
    p = Permutation.from_cycles(4, (1, 2, 3))
    d = decompose(p.matrix())
    assert d.terms == ((F(1), p),)


def test_decompose_uniform(ref):
    d = decompose(ref["J3"])
    assert len(d) == 3
    assert all(c == F(1, 3) for c in d.weights)
    assert d.matrix() == ref["J3"]
    # deterministic greedy order: identity first, then the two 3-cycles
    assert d.support[0].is_identity()


def test_decompose_reference_and_random(ref):
    for name in ("R", "S", "T", "NS4"):
        d = decompose(ref[name])
        assert d.matrix() == ref[name]
    rng = random.Random(61)
    for n in (3, 4, 5):
        for _ in range(30):
            a = random_bistochastic(n, rng)
            d = decompose(a)
            assert d.matrix() == a
            assert len(d) <= (n - 1) ** 2 + 1
            assert sum(d.weights) == 1
            assert all(c > 0 for c in d.weights)


def test_decompose_is_deterministic():
    rng = random.Random(67)
    for _ in range(10):
        a = random_bistochastic(4, rng)
        assert decompose(a).terms == decompose(a).terms


def _check_matching(m, allowed) -> bool:
    """``m`` holds a perfect matching inside ``allowed`` exactly when one exists; whether it does."""
    n = len(allowed)
    assert m.cols == [sum(1 << i for i in range(n) if allowed[i][j]) for j in range(n)]
    assert (m.images is not None) == oracle_matchable(allowed)
    if m.images is None:
        return False
    assert sorted(m.images) == list(range(n))
    assert all(allowed[i][j] for j, i in enumerate(m.images))
    assert all(m.col_of[i] == j for j, i in enumerate(m.images))
    return True


def test_matching_is_perfect_exactly_when_one_exists():
    rng = random.Random(73)
    found = {True: 0, False: 0}
    for n in range(1, 8):
        for density in (0.2, 0.35, 0.5, 0.7, 0.9):
            for _ in range(40):
                allowed = [[rng.random() < density for _ in range(n)] for _ in range(n)]
                found[_check_matching(_Matching(allowed), allowed)] += 1
    # both grids with and without a perfect matching are covered
    assert min(found.values()) > 100


def test_warm_matching_stays_perfect_after_every_deletion():
    rng = random.Random(83)
    checks = {"repaired": 0, "lost": 0}
    for n in range(1, 9):
        for density in (0.4, 0.6, 0.8, 1.0):
            for _ in range(20):
                allowed = [[rng.random() < density for _ in range(n)] for _ in range(n)]
                m = _Matching(allowed)
                _check_matching(m, allowed)
                while True:
                    cells = [(i, j) for i in range(n) for j in range(n) if allowed[i][j]]
                    if not cells:
                        break
                    # half the time some cells of the matching itself, as
                    # the greedy loop deletes, else any allowed cells
                    if m.images is not None and rng.random() < 0.5:
                        cells = [(i, j) for j, i in enumerate(m.images)]
                    gone = rng.sample(cells, rng.randint(1, min(3, len(cells))))
                    had = m.images is not None
                    for i, j in gone:
                        allowed[i][j] = False
                    m.delete(gone)
                    if _check_matching(m, allowed):
                        checks["repaired"] += 1
                    else:
                        checks["lost"] += had
    assert checks["repaired"] > 1500 and checks["lost"] > 300


def test_greedy_rounds_run_one_search_per_freed_column(monkeypatch):
    rounds = []
    delete, augment = _Matching.delete, _Matching._augment
    searches = [0]

    def counting(self, *args):
        searches[0] += 1
        return augment(self, *args)

    def recording(self, cells):
        freed = {j for i, j in cells if self.images[j] == i}
        searches[0] = 0
        delete(self, cells)
        if self.images is not None:
            rounds.append((searches[0], len(freed)))

    monkeypatch.setattr(birkhoff._Matching, "_augment", counting)
    monkeypatch.setattr(birkhoff._Matching, "delete", recording)
    rng = random.Random(89)
    for n in (8, 9, 10, 11, 12):
        for _ in range(3):
            a = random_bistochastic(n, rng, max_terms=3 * n)
            d = decompose(a)
            oracle_greedy_replay(a, d.terms)
    assert len(rounds) > 100
    assert all(calls == freed for calls, freed in rounds)
    assert any(freed > 1 for _, freed in rounds)


def test_decompose_matches_oracle():
    rng = random.Random(79)
    matrices = [BistochasticMatrix.uniform(n) for n in range(1, 8)]
    for n in range(3, 7):
        matrices += half_identity_family(n)
    for n in range(1, 13):
        matrices += [random_bistochastic(n, rng, max_terms=3 * n) for _ in range(3)]
    # weights with large coprime denominators: 1/p for distinct large primes
    primes = (1_000_003, 999_983, 1_000_033, 998_244_353, 1_000_000_007)
    for n in (4, 6, 8):
        weights = [F(1, p) for p in primes]
        weights.append(1 - sum(weights))
        perms = [random_permutation(n, rng) for _ in weights]
        matrices.append(BistochasticMatrix.combination(zip(weights, perms)))
    for a in matrices:
        d = decompose(a)
        oracle_greedy_replay(a, d.terms)
        assert d.matrix() == a and len(d) <= (a.n - 1) ** 2 + 1
        assert _peels_in_order([{j * a.n + i for j, i in enumerate(p)} for p in d._images])
        assert reduce_linear(d) is d and decompose(a) == d


def test_reduce_affine_unchanged_when_independent(ref):
    d = decompose(ref["R"])
    assert reduce_affine(d) is d


def test_reduce_affine_shrinks_s4_square():
    i4 = Permutation.identity(4)
    p12 = Permutation.from_cycles(4, (1, 2))
    p34 = Permutation.from_cycles(4, (3, 4))
    both = Permutation.from_cycles(4, (1, 2), (3, 4))
    quarter = F(1, 4)
    d = ConvexDecomposition(
        [(quarter, i4), (quarter, p12), (quarter, p34), (quarter, both)]
    )
    assert not affine_independent(d.support)
    r = reduce_affine(d)
    # the only dependency is I - (12) - (34) + (12)(34) = 0 with equal
    # coefficient magnitudes, so the shrink zeroes both end terms at once:
    # (I + (12) + (34) + (12)(34))/4 = (12)/2 + (34)/2
    assert r.terms == ((F(1, 2), p12), (F(1, 2), p34))
    assert r.matrix() == d.matrix()
    assert affine_independent(r.support)
    assert sum(r.weights) == 1
    assert all(c > 0 for c in r.weights)
    assert reduce_affine(r) is r


def test_reduce_affine_random_bound():
    rng = random.Random(71)
    for n in (3, 4):
        for _ in range(20):
            a = random_bistochastic(n, rng, max_terms=3 * n)
            r = reduce_affine(decompose(a))
            assert r.matrix() == a
            assert affine_independent(r.support)
            assert len(r) <= (n - 1) ** 2 + 1


def test_reduce_linear_six_term_uniform():
    sixth = F(1, 6)
    d = ConvexDecomposition([(sixth, p) for p in all_permutations(3)])
    r = reduce_linear(d)
    assert len(r) <= 5
    assert linear_independent(r.support)
    assert r.matrix() == BistochasticMatrix.uniform(3)


def test_reduce_linear_reference(ref):
    for name in ("I3", "J3", "IJ2", "S", "T", "R", "NS4"):
        r = reduce_linear(decompose(ref[name]))
        assert linear_independent(r.support)
        assert r.matrix() == ref[name]
    d = decompose(ref["S"])
    assert reduce_linear(d) is d  # independent input comes back unchanged
    r = reduce_linear(ConvexDecomposition([(F(1, 6), p) for p in all_permutations(3)]))
    assert reduce_linear(r) is r


def test_validation_errors():
    p = Permutation.identity(2)
    q = Permutation.from_cycles(2, (1, 2))
    with pytest.raises(ValueError, match="not positive"):
        ConvexDecomposition([(0, p), (1, q)])
    with pytest.raises(ValueError, match="sum to"):
        ConvexDecomposition([(F(1, 2), p)])
    with pytest.raises(ValueError) as err:
        ConvexDecomposition([(F(1, 2), p), (F(1, 3), q)])
    assert str(err.value) == "coefficients sum to 5/6, expected 1"
    with pytest.raises(ValueError) as err:
        ConvexDecomposition([(F(1, 1_000_003), p), (F(1, 999_983), q)])
    assert str(err.value) == "coefficients sum to 1999986/999985999949, expected 1"
    with pytest.raises(ValueError) as err:
        ConvexDecomposition([(F(1, 2), p), (F(1, 2), q), (F(-1, 10**12 + 39), p)])
    assert str(err.value) == "coefficient -1/1000000000039 is not positive"
    with pytest.raises(ValueError, match="duplicate"):
        ConvexDecomposition([(F(1, 2), p), (F(1, 2), p)])
    with pytest.raises(ValueError, match="dimension"):
        ConvexDecomposition([(F(1, 2), p), (F(1, 2), Permutation.identity(3))])
    with pytest.raises(ValueError, match="at least one"):
        ConvexDecomposition([])
    with pytest.raises(ValueError, match=r"^term \(0, 1\) is not a Permutation$"):
        ConvexDecomposition([(1, (0, 1))])
    with pytest.raises(ValueError, match="is not a Permutation"):
        ConvexDecomposition([(F(1, 2), p), (F(1, 2), [1, 0])])


def test_to_json():
    p = Permutation.from_cycles(2, (1, 2))
    d = ConvexDecomposition([(F(1, 2), Permutation.identity(2)), (F(1, 2), p)])
    assert d.to_json() == [
        {"coef": "1/2", "perm": [1, 2]},
        {"coef": "1/2", "perm": [2, 1]},
    ]


def test_immutability():
    d = decompose(BistochasticMatrix.uniform(2))
    with pytest.raises(AttributeError):
        d.terms = ()


def _random_terms(rng, n, m, denominators):
    """m distinct permutations of S_n with positive weights summing to 1."""
    perms = set()
    while len(perms) < m:
        perms.add(random_permutation(n, rng))
    raw = [F(rng.randint(1, 50), rng.choice(denominators)) for _ in range(m)]
    total = sum(raw)
    return [(w / total, p) for w, p in zip(raw, sorted(perms))]


def test_integer_and_term_decompositions_agree():
    rng = random.Random(97)
    denominators = (1, 2, 6, 1_000_003, 999_983)
    built = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        m = rng.randint(1, min(6, len(all_permutations(n))))
        terms = _random_terms(rng, n, m, denominators)
        a = ConvexDecomposition(terms)
        # the same coefficients over a scale that is a multiple of theirs
        k = rng.randint(1, 12)
        scale = k * lcm(*(c.denominator for c, _ in terms))
        coefs = [c.numerator * (scale // c.denominator) for c, _ in terms]
        b = ConvexDecomposition._from_integers(scale, coefs, [p.images for _, p in terms])
        assert b._terms is None
        assert a == b and b == a and hash(a) == hash(b)
        assert b.to_json() == a.to_json() == [
            {"coef": format_rational(c), "perm": list(p.one_indexed())} for c, p in terms]
        assert b.matrix() == a.matrix() == BistochasticMatrix.combination(terms)
        assert b._terms is None  # none of the above built the Fraction terms
        assert len(b) == len(a) == m and b.n == a.n == n
        assert b.terms == a.terms == tuple(terms)
        assert b.weights == a.weights and b.support == a.support
        assert list(b) == list(a) and repr(b) == repr(a)
        built += 1
        # one coefficient moved to another term, or one permutation
        # changed, is a different decomposition
        changed = [p.images for _, p in terms]
        changed[-1] = changed[-1][1:] + changed[-1][:1]
        if n > 1 and len(set(changed)) == m:
            other = ConvexDecomposition._from_integers(scale, coefs, changed)
            assert other != a and other.to_json() != a.to_json()
        if m > 1:
            moved = [coefs[0] + 1, coefs[1] - 1] + coefs[2:]
            if moved[1] > 0:
                other = ConvexDecomposition._from_integers(
                    scale, moved, [p.images for _, p in terms])
                assert other != a and other.to_json() != a.to_json()
    assert built == 150


def test_decompose_builds_terms_only_when_read(ref):
    d = decompose(ref["R"])
    assert d._terms is None
    assert reduce_linear(d) is d and reduce_affine(d) is d
    assert d.matrix() == ref["R"] and len(d.to_json()) == len(d) == 3
    assert d._terms is None
    assert d == ConvexDecomposition(d.terms) and d._terms is not None
    oracle_greedy_replay(ref["R"], d.terms)


def test_integer_constructor_messages_match_term_constructor():
    p = Permutation.identity(2)
    q = Permutation.from_cycles(2, (1, 2))
    r = Permutation.identity(3)
    big, other = 1_000_003, 999_983
    scale = big * other
    cases = [
        # (terms, scale, integer coefficients, message)
        ([(F(1, big), p), (F(1, other), q)], scale, [other, big],
         "coefficients sum to 1999986/999985999949, expected 1"),
        ([(F(1, 2), p), (F(1, 3), q)], 6, [3, 2], "coefficients sum to 5/6, expected 1"),
        ([(F(1, 2), p), (F(-1, big), q)], 2 * big, [big, -2], f"coefficient -1/{big} is not positive"),
        ([(F(0), p), (F(1), q)], other, [0, other], "coefficient 0 is not positive"),
        ([(F(1, 2), q), (F(1, 2), q)], 2, [1, 1], "duplicate permutation (1 2)"),
        ([(F(big - 1, big), p), (F(1, big), q), (F(1, other), p)], scale,
         [(big - 1) * other, other, big], "duplicate permutation id"),
        ([], 1, [], "decomposition needs at least one term"),
        # several faults: each check covers every term before the next
        # one runs (dimension, positivity, duplicates, sum)
        ([(F(-1, 2), p), (F(3, 2), r)], 2, [-1, 3], "mixed dimensions: S_2 vs S_3"),
        ([(F(1, 2), p), (F(1, 2), r)], 2, [1, 1], "mixed dimensions: S_2 vs S_3"),
        ([(F(1, 2), p), (F(1, 2), p), (F(0), q)], 2, [1, 1, 0], "coefficient 0 is not positive"),
        ([(F(1, 2), q), (F(1, 3), q), (F(-1, 3), p)], 6, [3, 2, -2],
         "coefficient -1/3 is not positive"),
        ([(F(1, 2), q), (F(1, 3), q)], 6, [3, 2], "duplicate permutation (1 2)"),
        ([(F(1, 2), p), (F(1, 2), p), (F(0), q), (F(1, 3), r)], 6, [3, 3, 0, 2],
         "mixed dimensions: S_2 vs S_3"),
    ]
    for terms, s, coefs, message in cases:
        with pytest.raises(ValueError) as by_terms:
            ConvexDecomposition(terms)
        with pytest.raises(ValueError) as by_integers:
            ConvexDecomposition._from_integers(s, coefs, [t.images for _, t in terms])
        assert str(by_terms.value) == str(by_integers.value) == message


def _dependent_terms(rng, n):
    """Random convex terms on S_n whose support is linearly dependent, or None.

    Half the draws hold a square {g, g a, g b, g a b} for disjoint
    transpositions a, b, which is always dependent; the others are random
    sets of about (n - 1)^2 + 1 permutations, the largest independent size.
    """
    if n >= 4 and rng.random() < 0.5:
        g = random_permutation(n, rng)
        i, j, k, m = rng.sample(range(n), 4)
        a, b = Permutation.from_cycles(n, (i + 1, j + 1)), Permutation.from_cycles(n, (k + 1, m + 1))
        perms = {g, g * a, g * b, g * a * b}
        while len(perms) < rng.randint(4, 10):
            perms.add(random_permutation(n, rng))
    else:
        perms = set()
        size = min(len(all_permutations(n)), (n - 1) ** 2 + rng.randint(-1, 3))
        while len(perms) < size:
            perms.add(random_permutation(n, rng))
    perms = rng.sample(sorted(perms), len(perms))
    if linear_independent(perms):
        return None
    raw = [F(rng.randint(1, 50), rng.choice((1, 2, 6, 1_000_003))) for _ in perms]
    return [(w / sum(raw), p) for w, p in zip(raw, perms)]


def test_reduction_of_dependent_decompositions_matches_oracle():
    rng = random.Random(103)
    checked = dropped_several = 0
    for _ in range(230):
        terms = _dependent_terms(rng, rng.randint(3, 6))
        if terms is None:
            continue
        d = ConvexDecomposition(terms)
        r = reduce_linear(d)
        assert d._terms is None and r._terms is None
        assert set(r._images) < set(d._images)
        assert linear_independent(r.support) and unpeeled_independent(r.support)
        assert r.matrix() == d.matrix()
        assert reduce_affine(d) == r and reduce_linear(r) is r
        assert r.terms == oracle_reduce(terms)
        checked += 1
        dropped_several += len(d) - len(r) > 1
    assert checked >= 150 and dropped_several >= 30, (checked, dropped_several)
