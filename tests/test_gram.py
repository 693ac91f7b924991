import random
from fractions import Fraction

import pytest

from erdosmat.assignment import frobenius_sq
from erdosmat import gram
from erdosmat.gram import (
    assemble,
    build_gram,
    count_bound,
    half_identity_family,
    pipeline,
    solve_candidate,
)
from erdosmat.linalg import BistochasticMatrix, Matrix, det
from erdosmat.perms import Permutation, conjugacy_class_reps
from erdosmat.sampling import random_permutation

from conftest import gauss_jordan_solve

F = Fraction

I3 = Permutation.identity(3)
SIG = Permutation.from_cycles(3, (1, 2))
GAM = Permutation.from_cycles(3, (2, 3))
DEL = Permutation.from_cycles(3, (1, 3))
RHO = Permutation.from_cycles(3, (1, 2, 3))
RHO2 = RHO * RHO


def test_build_gram_examples():
    g = build_gram([I3, SIG, GAM])
    assert g.gram == ((3, 1, 1), (1, 3, 0), (1, 0, 3))
    assert g.independence == "linear"
    g = build_gram([I3, SIG, GAM, RHO])
    assert g.gram == ((3, 1, 1, 0), (1, 3, 0, 1), (1, 0, 3, 1), (0, 1, 1, 3))
    s4 = [Permutation.identity(4),
          Permutation.from_cycles(4, (1, 2)),
          Permutation.from_cycles(4, (2, 3)),
          Permutation.from_cycles(4, (3, 4))]
    g = build_gram(s4)
    assert g.gram == ((4, 2, 2, 2), (2, 4, 1, 0), (2, 1, 4, 1), (2, 0, 1, 4))


def test_build_gram_structure_random():
    rng = random.Random(73)
    for _ in range(15):
        perms = []
        seen = set()
        while len(perms) < 5:
            p = random_permutation(4, rng)
            if p not in seen:
                seen.add(p)
                perms.append(p)
        g = build_gram(perms)
        for i in range(5):
            assert g.gram[i][i] == 4
            for j in range(5):
                assert g.gram[i][j] == g.gram[j][i]


def test_build_gram_errors():
    for perms, message in (
        ([I3, SIG, I3], "duplicate permutation id"),
        ([I3, Permutation.identity(4)], "mixed dimensions: S_3 vs S_4"),
        ([(0, 1)], "term (0, 1) is not a Permutation"),
        ([], "need at least one permutation"),
    ):
        for build in (build_gram, pipeline):
            with pytest.raises(ValueError) as caught:
                build(perms)
            assert str(caught.value) == message


def test_gram_positive_definite_on_independent_sets():
    rng = random.Random(79)
    for _ in range(10):
        perms = []
        seen = set()
        while len(perms) < 4:
            p = random_permutation(4, rng)
            if p not in seen:
                seen.add(p)
                perms.append(p)
        g = build_gram(perms)
        if g.independence != "linear":
            continue
        m = Matrix(g.gram)
        for k in range(1, 5):
            lead = Matrix([row[:k] for row in m.rows[:k]])
            assert det(lead) > 0


def test_solve_candidate_dim3_cases():
    # one case per support size, exact solutions
    assert solve_candidate(build_gram([I3])).x == (F(1),)
    for p in (SIG, RHO):
        sol = solve_candidate(build_gram([I3, p]))
        assert sol.x == (F(1, 2), F(1, 2))
    sol = solve_candidate(build_gram([I3, SIG, GAM]))
    assert sol.x == (F(1, 5), F(2, 5), F(2, 5))
    assert sol.common_value == F(7, 5)
    assert sol.nonneg
    sol = solve_candidate(build_gram([I3, RHO, RHO2]))
    assert sol.x == (F(1, 3), F(1, 3), F(1, 3))
    sol = solve_candidate(build_gram([I3, SIG, GAM, DEL]))
    assert sol.x == (F(0), F(1, 3), F(1, 3), F(1, 3))
    assert sol.nonneg
    sol = solve_candidate(build_gram([I3, SIG, GAM, RHO]))
    assert sol.x == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    assert sol.common_value == F(5, 4)
    sol = solve_candidate(build_gram([I3, RHO, SIG, GAM, DEL]))
    assert sol.x == (F(0), F(0), F(1, 3), F(1, 3), F(1, 3))


def test_solve_candidate_negative_s4():
    s4 = [Permutation.identity(4),
          Permutation.from_cycles(4, (1, 2)),
          Permutation.from_cycles(4, (2, 3)),
          Permutation.from_cycles(4, (3, 4))]
    sol = solve_candidate(build_gram(s4))
    assert not sol.nonneg
    assert sol.x == (F(-1, 7), F(3, 7), F(2, 7), F(3, 7))


def test_solve_candidate_matches_gauss_jordan_oracle():
    rng = random.Random(73)
    signs = set()
    for n in (3, 4, 5):
        for _ in range(40):
            perms = {Permutation.identity(n)}
            while len(perms) < rng.randint(1, (n - 1) ** 2 + 1):
                perms.add(random_permutation(n, rng))
            g = build_gram(perms)
            if g.independence != "linear":
                continue
            (y,) = gauss_jordan_solve(g.gram, [[1] * g.m])
            x = tuple(v / sum(y) for v in y)
            common = sum((g.gram[i][j] * x[i] * x[j] for i in range(g.m) for j in range(g.m)),
                         F(0))
            sol = solve_candidate(g)
            assert sol.x == x and sol.common_value == common
            assert sol.nonneg == all(v >= 0 for v in x)
            signs.add(sol.nonneg)
    assert signs == {True, False}


def test_solve_candidate_checks_mx_constant(monkeypatch):
    solve_integer = gram.solve_integer

    def off_by_one(a, b):
        d, u = solve_integer(a, b)
        u[-1] += 1
        return d, u

    monkeypatch.setattr(gram, "solve_integer", off_by_one)
    with pytest.raises(RuntimeError, match="Mx is not constant"):
        solve_candidate(build_gram([I3, SIG, GAM]))


def test_solve_candidate_rejects_dependent():
    i4 = Permutation.identity(4)
    p12 = Permutation.from_cycles(4, (1, 2))
    p34 = Permutation.from_cycles(4, (3, 4))
    both = Permutation.from_cycles(4, (1, 2), (3, 4))
    g = build_gram([i4, p12, p34, both])
    assert g.independence == "dependent"
    with pytest.raises(ValueError, match="not linearly independent"):
        solve_candidate(g)


def test_assemble_reference(ref):
    g = build_gram([I3, SIG, GAM])
    a = assemble(g, solve_candidate(g))
    assert a == BistochasticMatrix(
        [[F(3, 5), F(2, 5), 0], [F(2, 5), F(1, 5), F(2, 5)], [0, F(2, 5), F(3, 5)]]
    )
    g = build_gram([I3, SIG, GAM, RHO])
    a = assemble(g, solve_candidate(g))
    # a row permutation of S (the matrix convention puts the 1 of p at
    # (p(j), j), so the assembled matrix differs from S by equivalence)
    assert a == BistochasticMatrix(
        [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 2), F(1, 4), F(1, 4)], [0, F(1, 2), F(1, 2)]]
    )
    from erdosmat.enumeration import canonical_form

    assert canonical_form(a) == canonical_form(ref["S"])
    g = build_gram([Permutation.identity(4)])
    assert assemble(g, solve_candidate(g)) == BistochasticMatrix.identity(4)


def test_assemble_rejects_negative():
    s4 = [Permutation.identity(4),
          Permutation.from_cycles(4, (1, 2)),
          Permutation.from_cycles(4, (2, 3)),
          Permutation.from_cycles(4, (3, 4))]
    g = build_gram(s4)
    with pytest.raises(ValueError, match="negative coordinate"):
        assemble(g, solve_candidate(g))


def test_common_value_equals_frobenius():
    rng = random.Random(83)
    for _ in range(20):
        perms = []
        seen = set()
        while len(perms) < rng.randint(1, 5):
            p = random_permutation(4, rng)
            if p not in seen:
                seen.add(p)
                perms.append(p)
        res = pipeline(perms)
        if res.status == "ok":
            assert frobenius_sq(res.matrix) == res.solution.common_value
            assert res.certificate.value == res.solution.common_value


def test_pipeline_statuses(ref):
    res = pipeline([I3, SIG, GAM])
    assert res.status == "ok" and res.accepted
    s4 = [Permutation.identity(4),
          Permutation.from_cycles(4, (1, 2)),
          Permutation.from_cycles(4, (2, 3)),
          Permutation.from_cycles(4, (3, 4))]
    assert pipeline(s4).status == "negative_weight"
    dep = [Permutation.identity(4),
           Permutation.from_cycles(4, (1, 2)),
           Permutation.from_cycles(4, (3, 4)),
           Permutation.from_cycles(4, (1, 2), (3, 4))]
    assert pipeline(dep).status == "dependent"
    # solved weights exist but another transversal beats the common value
    exceed = [Permutation.identity(4),
              Permutation.from_cycles(4, (2, 3, 4)),
              Permutation.from_cycles(4, (1, 2), (3, 4))]
    res = pipeline(exceed)
    assert res.status == "maxtr_exceeded"
    assert res.solution.x == (F(3, 8), F(1, 4), F(3, 8))
    assert res.matrix is None
    i2 = Permutation.identity(2)
    res = pipeline([i2, Permutation.from_cycles(2, (1, 2))])
    assert res.status == "ok"
    assert res.matrix == BistochasticMatrix.uniform(2)


def test_uniqueness_under_reordering():
    rng = random.Random(89)
    for _ in range(15):
        perms = []
        seen = set()
        while len(perms) < 4:
            p = random_permutation(4, rng)
            if p not in seen:
                seen.add(p)
                perms.append(p)
        g = build_gram(perms)
        if g.independence != "linear":
            continue
        x = solve_candidate(g).x
        order = list(range(4))
        rng.shuffle(order)
        g2 = build_gram([perms[i] for i in order])
        x2 = solve_candidate(g2).x
        assert tuple(x2[order.index(k)] for k in range(4)) == x


def test_zero_entry_extension_structure():
    # solving on a maximal independent subset and extending by zero
    # solves the full singular system M x = <Mx, x> 1
    i4 = Permutation.identity(4)
    p12 = Permutation.from_cycles(4, (1, 2))
    p34 = Permutation.from_cycles(4, (3, 4))
    both = Permutation.from_cycles(4, (1, 2), (3, 4))
    sub = build_gram([i4, p12, p34])
    assert sub.independence == "linear"
    y = solve_candidate(sub)
    assert y.x == (F(0), F(1, 2), F(1, 2))
    full = build_gram([i4, p12, p34, both])
    x_ext = tuple(y.x) + (F(0),)
    mx = [sum(full.gram[i][j] * x_ext[j] for j in range(4)) for i in range(4)]
    assert all(v == y.common_value for v in mx)
    assert sum(x_ext) == 1


def test_half_identity_family(ref):
    fam3 = half_identity_family(3)
    assert len(fam3) == 3
    assert sorted(frobenius_sq(a) for a in fam3) == [F(3, 2), 2, 3]
    fam4 = half_identity_family(4)
    assert len(fam4) == 5
    by_type = dict(zip((p.cycle_type() for p in conjugacy_class_reps(4)), fam4))
    assert frobenius_sq(by_type[(4,)]) == 2  # (n + d)/2 with d = 0
    assert half_identity_family(1) == [BistochasticMatrix.identity(1)]
    for n in (2, 5):
        fam = half_identity_family(n)
        reps = conjugacy_class_reps(n)
        for p, a in zip(reps, fam):
            assert frobenius_sq(a) == F(n + p.fixed_points(), 2)


def test_count_bound():
    assert count_bound(3) == (62, 31)
    assert count_bound(2) == (3, 2)
    total4, equiv4 = count_bound(4)
    assert total4 == sum(
        __import__("math").comb(24, j) for j in range(1, 11)
    )
    assert equiv4 == sum(__import__("math").comb(23, j) for j in range(0, 10))
    with pytest.raises(ValueError):
        count_bound(1)
