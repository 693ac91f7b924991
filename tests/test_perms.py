import random
from fractions import Fraction

import pytest

from erdosmat.perms import (
    Permutation,
    agreement_count,
    all_permutations,
    conjugacy_class_reps,
    partitions,
)
from erdosmat.sampling import random_permutation

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


def test_compose_convention():
    s = Permutation.from_cycles(3, (1, 2))
    g = Permutation.from_cycles(3, (2, 3))
    rho = Permutation.from_cycles(3, (1, 2, 3))
    assert s * g == rho
    assert (s * g).matrix() == s.matrix() * g.matrix()


def test_compose_identity_and_inverse():
    rng = random.Random(3)
    for n in (2, 3, 5):
        e = Permutation.identity(n)
        for _ in range(20):
            p = random_permutation(n, rng)
            assert e * p == p
            assert p * e == p
            assert p * p.inverse() == e
            assert p.inverse() * p == e


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        Permutation.identity(3) * Permutation.identity(4)


def test_matrix_homomorphism():
    rng = random.Random(5)
    for _ in range(25):
        a = random_permutation(4, rng)
        b = random_permutation(4, rng)
        assert (a * b).matrix() == a.matrix() * b.matrix()


def test_agreement_examples():
    id3 = Permutation.identity(3)
    s = Permutation.from_cycles(3, (1, 2))
    assert agreement_count(s, s) == 3
    assert agreement_count(id3, s) == 1
    p12 = Permutation.from_cycles(4, (1, 2))
    p34 = Permutation.from_cycles(4, (3, 4))
    assert agreement_count(p12, p34) == 0
    with pytest.raises(ValueError, match="mismatch"):
        agreement_count(id3, p12)


def test_agreement_left_invariance_and_fixed_points():
    rng = random.Random(9)
    for _ in range(30):
        a = random_permutation(5, rng)
        b = random_permutation(5, rng)
        c = random_permutation(5, rng)
        assert agreement_count(a, b) == agreement_count(c * a, c * b)
        assert agreement_count(a, b) == (a.inverse() * b).fixed_points()


def test_agreement_is_frobenius_inner():
    from erdosmat.linalg import frobenius_inner

    rng = random.Random(10)
    for _ in range(10):
        a = random_permutation(4, rng)
        b = random_permutation(4, rng)
        assert frobenius_inner(a.matrix(), b.matrix()) == agreement_count(a, b)


def test_cycle_type():
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)
    assert Permutation.from_cycles(3, (1, 2, 3)).cycle_type() == (3,)
    assert Permutation.from_cycles(4, (1, 2), (3, 4)).cycle_type() == (2, 2)


def test_cycle_string():
    assert str(Permutation.identity(3)) == "id"
    assert str(Permutation.from_cycles(3, (1, 2))) == "(1 2)"
    assert str(Permutation.from_cycles(4, (1, 2), (3, 4))) == "(1 2)(3 4)"


def test_partitions_and_rep_counts():
    for n, count in PARTITION_COUNTS.items():
        assert len(partitions(n)) == count
        reps = conjugacy_class_reps(n)
        assert len(reps) == count
        assert len({r.cycle_type() for r in reps}) == count


def test_rep_layout():
    reps = {r.cycle_type(): r for r in conjugacy_class_reps(4)}
    assert reps[(2, 2)] == Permutation.from_cycles(4, (1, 2), (3, 4))
    assert reps[(4,)] == Permutation.from_cycles(4, (1, 2, 3, 4))
    assert conjugacy_class_reps(1) == [Permutation.identity(1)]


def test_all_permutations_order_and_rank():
    perms = all_permutations(3)
    assert len(perms) == 6
    assert perms[0].is_identity()
    assert [p.images for p in perms] == sorted(p.images for p in perms)
    for k, p in enumerate(perms):
        assert p.rank() == k
    assert len(all_permutations(4)) == 24


def test_all_permutations_cap():
    with pytest.raises(ValueError, match="cap"):
        all_permutations(9)
    with pytest.raises(ValueError):
        all_permutations(0)


def test_rank_larger_n():
    rng = random.Random(17)
    # rank stays consistent with lexicographic order beyond the cap
    ps = [random_permutation(10, rng) for _ in range(20)]
    ranked = sorted(ps, key=lambda p: p.rank())
    assert [p.images for p in ranked] == sorted(p.images for p in ps)


def test_matrix_trace_counts_fixed_points():
    rho = Permutation.from_cycles(3, (1, 2, 3))
    assert rho.matrix().trace() == 0
    assert Permutation.identity(4).matrix() == Permutation.identity(4).matrix().transpose()
    p = Permutation.from_cycles(4, (1, 2))
    assert p.matrix().trace() == 2


def test_matrix_is_bistochastic():
    rng = random.Random(21)
    for _ in range(10):
        p = random_permutation(5, rng)
        m = p.matrix()  # constructor validates row/column sums
        assert sorted(m.flatten()) == [0] * 20 + [1] * 5


def test_one_indexed_json_form():
    assert Permutation.from_cycles(3, (1, 2)).one_indexed() == (2, 1, 3)


def test_invalid_permutations():
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation([0, 0, 1])
    for images in ([0.9, 1.2], [Fraction(1, 2), 1], "10"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Permutation(images)
    with pytest.raises(ValueError, match="invalid cycle"):
        Permutation.from_cycles(3, (1, 4))
    with pytest.raises(ValueError, match="invalid cycle"):
        Permutation.from_cycles(3, (1, 1))


def test_immutable_and_hashable():
    p = Permutation.identity(3)
    with pytest.raises(AttributeError):
        p.images = (1, 0, 2)
    assert len({Permutation.identity(3), Permutation.identity(3)}) == 1
