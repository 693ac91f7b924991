import random
from fractions import Fraction
from math import factorial

import pytest

from erdosmat import assignment
from erdosmat.assignment import (
    _brute_max,
    delta,
    frobenius_sq,
    is_erdos,
    max_delta_matrix,
    max_trace,
)
from erdosmat.birkhoff import decompose
from erdosmat.linalg import BistochasticMatrix, Matrix, parse_matrix
from erdosmat.sampling import random_bistochastic, random_permutation

from conftest import direct_sum

F = Fraction


def test_maxtr_uniform_all_witnesses():
    for n in (2, 3, 4):
        cert = max_trace(BistochasticMatrix.uniform(n))
        assert cert.value == 1
        assert cert.complete
        assert len(cert.witnesses) == factorial(n)


def test_maxtr_reference_values(ref):
    cert = max_trace(ref["R"])
    assert cert.value == F(7, 5)
    assert any(w.is_identity() for w in cert.witnesses)
    assert max_trace(ref["S"]).value == F(5, 4)
    assert max_trace(ref["T"]).value == F(3, 2)
    assert max_trace(ref["NS4"]).value == F(4, 3)


def test_witnesses_attain_value(ref):
    for a in (ref["R"], ref["S"], ref["NS4"]):
        cert = max_trace(a)
        for w in cert.witnesses:
            assert sum(a[w(j)][j] for j in range(a.n)) == cert.value


def test_frobenius_examples(ref):
    assert frobenius_sq(BistochasticMatrix.identity(5)) == 5
    assert frobenius_sq(BistochasticMatrix.uniform(3)) == 1
    assert frobenius_sq(ref["R"]) == F(7, 5)


def test_hungarian_matches_brute():
    rng = random.Random(43)
    for n in (3, 4, 5, 6):
        for _ in range(60):
            a = random_bistochastic(n, rng)
            brute = max_trace(a, method="brute")
            hung = max_trace(a, method="hungarian")
            assert hung.value == brute.value
            assert not hung.complete
            assert len(hung.witnesses) == 1
            assert hung.witnesses[0] in brute.witnesses
            assert (hung.algorithm, brute.algorithm) == ("hungarian", "brute")


def _auto_matches_brute(a):
    auto = max_trace(a)
    brute = max_trace(a, method="brute")
    assert auto.value == brute.value
    assert auto.witnesses == brute.witnesses  # same permutations, same order
    assert auto.complete and auto.algorithm == "hungarian-tight"
    return auto


def test_auto_witnesses_equal_brute(ref):
    rng = random.Random(61)
    for n in range(2, 8):
        for _ in range(30 if n < 7 else 5):
            _auto_matches_brute(random_bistochastic(n, rng))
    for a in ref.values():
        _auto_matches_brute(a)
    for n in range(1, 7):
        assert len(_auto_matches_brute(BistochasticMatrix.uniform(n)).witnesses) == factorial(n)
    for n in (2, 5, 7):
        assert len(_auto_matches_brute(max_delta_matrix(n)).witnesses) == 1
    blocks = direct_sum(ref["R"], BistochasticMatrix.uniform(2), ref["T"])
    p = random_permutation(8, rng).matrix()
    q = random_permutation(8, rng).matrix()
    a = BistochasticMatrix((p * blocks * q).rows)
    assert is_erdos(a)[0]
    assert len(_auto_matches_brute(a).witnesses) == 3 * 2 * 2
    signed = Matrix(
        [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)] for _ in range(6)]
    )
    _auto_matches_brute(signed)
    assert not max_trace(signed, method="hungarian").complete


@pytest.mark.parametrize(
    "corrupt, message",
    [("infeasible", "infeasible"), ("loose", "differs"), ("repeat_row", "non-permutation")],
)
def test_dual_certificate_checked(monkeypatch, corrupt, message):
    kuhn_munkres = assignment._kuhn_munkres

    def broken(w):
        images, u, v = kuhn_munkres(w)
        if corrupt == "infeasible":  # the assigned edge of column 0 goes below its weight
            v[0] -= 1
        elif corrupt == "loose":  # still feasible, but the bound exceeds the assignment
            u[0] += 1
        else:
            images = [images[0]] * len(images)
        return images, u, v

    monkeypatch.setattr(assignment, "_kuhn_munkres", broken)
    a = max_delta_matrix(4)
    for method in ("auto", "hungarian"):
        with pytest.raises(ArithmeticError, match=message):
            max_trace(a, method=method)


def test_method_validation():
    j9 = BistochasticMatrix.uniform(9)
    with pytest.raises(ValueError, match="capped"):
        max_trace(j9, method="brute")
    assert max_trace(j9, method="auto").value == 1  # auto switches to hungarian
    with pytest.raises(ValueError, match="unknown method"):
        max_trace(j9, method="magic")
    for method in ("auto", "brute", "hungarian"):
        with pytest.raises(ValueError, match="^maximal trace requires a square matrix$"):
            max_trace(Matrix([[1, 2, 3], [4, 5, 6]]), method=method)


def test_delta_examples(ref):
    assert delta(ref["J3"]) == 0
    assert delta(BistochasticMatrix.identity(4)) == 0
    assert delta(max_delta_matrix(2)) == F(1, 4)
    half_mix = BistochasticMatrix(
        [[F(2, 3), F(1, 6), F(1, 6)],
         [F(1, 6), F(2, 3), F(1, 6)],
         [F(1, 6), F(1, 6), F(2, 3)]]
    )
    assert delta(half_mix) == F(1, 2)  # (I3 + J3)/2 misses equality by (n-1)/4


def test_max_delta_matrix_values():
    assert max_delta_matrix(1) == BistochasticMatrix([[1]])
    assert max_delta_matrix(2) == BistochasticMatrix(
        [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]
    )
    for n in range(2, 7):
        assert delta(max_delta_matrix(n)) == F(n - 1, 4)
    with pytest.raises(ValueError):
        max_delta_matrix(0)


def test_is_erdos_reference(ref):
    for name in ("I3", "J3", "IJ2", "S", "T", "R", "NS4"):
        verdict, cert = is_erdos(ref[name])
        assert verdict, name
        assert cert.value == frobenius_sq(ref[name])
    verdict, _ = is_erdos(max_delta_matrix(3))
    assert not verdict


def test_half_identity_is_erdos_random():
    rng = random.Random(47)
    for n in (3, 4, 5):
        for _ in range(5):
            p = random_permutation(n, rng)
            a = F(1, 2) * BistochasticMatrix.identity(n) + F(1, 2) * p.matrix()
            a = BistochasticMatrix(a.rows)
            verdict, cert = is_erdos(a)
            assert verdict
            assert cert.value == F(n + p.fixed_points(), 2)


def test_delta_equivalence_invariance():
    rng = random.Random(53)
    for _ in range(20):
        a = random_bistochastic(4, rng)
        p = random_permutation(4, rng).matrix()
        q = random_permutation(4, rng).matrix()
        paq = BistochasticMatrix((p * a * q).rows)
        assert delta(paq) == delta(a)


def test_delta_bounds_on_samples():
    rng = random.Random(59)
    for n in (3, 4, 5):
        for _ in range(50):
            d = delta(random_bistochastic(n, rng))
            assert 0 <= d <= F(n - 1, 4)


def test_decomposition_support_are_witnesses(ref):
    # positive-weight support permutations all attain the maximal trace
    for name in ("I3", "J3", "IJ2", "S", "T", "R", "NS4"):
        a = ref[name]
        cert = max_trace(a)
        for p in decompose(a).support:
            assert p in cert.witnesses


def test_numerator_consumers_match_fraction_oracles():
    """frobenius_sq and max_trace read numerators; check them against Fraction sums."""
    rng = random.Random(71)
    mats = []
    for n in range(1, 7):
        for _ in range(6):
            raw = [rng.randint(1, 300_000) for _ in range(rng.randint(1, 2 * n))]
            perms = [random_permutation(n, rng) for _ in raw]
            mats.append(BistochasticMatrix.combination(
                (F(w, sum(raw)), p) for w, p in zip(raw, perms)))
            big = rng.choice((4, 10**6))
            text = "\n".join(
                " ".join(f"{rng.randint(-big, big)}/{rng.randint(1, big)}" for _ in range(n))
                for _ in range(n))
            mats.append(parse_matrix(text))  # signed, not bistochastic
    for a in mats:
        frob = sum((e * e for row in a.rows for e in row), F(0))
        value, witnesses = _brute_max(a)
        assert frobenius_sq(a) == frob
        for method in ("auto", "hungarian", "brute"):
            assert max_trace(a, method).value == value
        assert max_trace(a).witnesses == witnesses
        assert delta(a) == value - frob
        assert is_erdos(a)[0] == (value == frob)
