import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from erdosmat.birkhoff import decompose
from erdosmat.linalg import (
    BistochasticMatrix,
    Matrix,
    MatrixParseError,
    NotBistochasticError,
    SingularMatrixError,
    _forward_eliminate,
    _dependency,
    _exact_div,
    _independent,
    _peel,
    _peels_in_order,
    affine_independent,
    det,
    format_matrix,
    frobenius_inner,
    inverse,
    kernel_vector,
    linear_independent,
    parse_matrix,
    rank,
    solve,
    solve_integer,
)
from erdosmat.perms import Permutation, all_permutations
from erdosmat.rational import format_rational, parse_ratio, parse_rational
from erdosmat.sampling import random_bistochastic, random_permutation

from conftest import gauss_jordan_solve, naive_rank, unpeeled_independent

F = Fraction

# Gram matrix of {id, (12), (23), (34)} in S4: known exact inverse
GRAM_S4 = Matrix([[4, 2, 2, 2], [2, 4, 1, 0], [2, 1, 4, 1], [2, 0, 1, 4]])


def _random_matrix(rng, nr, nc, bound=9):
    return Matrix(
        [
            [F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(nc)]
            for _ in range(nr)
        ]
    )


def test_rank_examples():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix([[1, 1], [1, 1]])) == 1
    flat = Matrix([list(p.matrix().flatten()) for p in all_permutations(3)])
    assert rank(flat) == 5
    assert naive_rank(flat.rows) == 5


def test_rank_matches_oracle_and_transpose():
    rng = random.Random(23)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=4)
        r = rank(m)
        assert r == naive_rank(m.rows)
        assert r == rank(m.transpose())


def test_solve_identity_and_gram():
    assert solve(Matrix.identity(3), [3, F(1, 2), -1]) == (3, F(1, 2), -1)
    m = Matrix([[3, 1, 1], [1, 3, 0], [1, 0, 3]])
    y = solve(m, [1, 1, 1])
    assert y == (F(1, 7), F(2, 7), F(2, 7))
    s = sum(y)
    assert tuple(v / s for v in y) == (F(1, 5), F(2, 5), F(2, 5))


def test_solve_s4_gram():
    y = solve(GRAM_S4, [1, 1, 1, 1])
    assert y[0] == F(-1, 12)
    assert y == (F(-1, 12), F(1, 4), F(1, 6), F(1, 4))


def test_solve_errors_are_distinct():
    with pytest.raises(SingularMatrixError):
        solve(Matrix([[1, 1], [1, 1]]), [1, 2])
    with pytest.raises(ValueError, match="right-hand side"):
        solve(Matrix.identity(2), [1, 2, 3])
    with pytest.raises(ValueError, match="square"):
        solve(Matrix([[1, 2, 3]]), [1])
    wide = Matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match=r"^inverse requires a square matrix, got \(2, 3\)$"):
        inverse(wide)
    with pytest.raises(ValueError, match="^determinant requires a square matrix$"):
        det(wide)
    with pytest.raises(ValueError, match="^trace requires a square matrix$"):
        wide.trace()


def test_inverse_s4_gram_bit_exact():
    inv = inverse(GRAM_S4)
    expected = Matrix(
        [
            [F(14, 24), F(-6, 24), F(-4, 24), F(-6, 24)],
            [F(-6, 24), F(9, 24), F(0, 24), F(3, 24)],
            [F(-4, 24), F(0, 24), F(8, 24), F(0, 24)],
            [F(-6, 24), F(3, 24), F(0, 24), F(9, 24)],
        ]
    )
    assert inv == expected
    assert GRAM_S4 * inv == Matrix.identity(4)


def test_inverse_round_trip_random():
    rng = random.Random(29)
    done = 0
    while done < 10:
        m = _random_matrix(rng, 5, 5, bound=6)
        if det(m) == 0:
            continue
        assert inverse(inverse(m)) == m
        assert m * inverse(m) == Matrix.identity(5)
        done += 1
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_solve_multiply_back_up_to_12():
    rng = random.Random(31)
    for n in (2, 4, 8, 12):
        while True:
            m = _random_matrix(rng, n, n, bound=5)
            if det(m) != 0:
                break
        b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        x = solve(m, b)
        back = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert back == b


def test_det():
    assert det(Matrix.identity(4)) == 1
    assert det(Matrix([[0, 1], [1, 0]])) == -1
    assert det(Matrix([[F(1, 2), 0], [7, F(2, 3)]])) == F(1, 3)
    assert det(GRAM_S4) == 96  # cofactor expansion: 4*56 - 2*24 + 2*(-16) - 2*24
    assert det(Matrix([[1, 2], [2, 4]])) == 0


def test_linear_independent_examples():
    i3 = Permutation.identity(3)
    s = Permutation.from_cycles(3, (1, 2))
    g = Permutation.from_cycles(3, (2, 3))
    assert linear_independent([i3, s, g])
    assert linear_independent([s])
    assert not linear_independent(all_permutations(3))
    assert linear_independent([])


def test_affine_independent_examples():
    i3 = Permutation.identity(3)
    s = Permutation.from_cycles(3, (1, 2))
    assert affine_independent([i3, s])
    i4 = Permutation.identity(4)
    p12 = Permutation.from_cycles(4, (1, 2))
    p34 = Permutation.from_cycles(4, (3, 4))
    both = Permutation.from_cycles(4, (1, 2), (3, 4))
    assert not affine_independent([i4, p12, p34, both])
    assert not linear_independent([i4, p12, p34, both])


def test_linear_implies_affine():
    rng = random.Random(37)
    for _ in range(30):
        k = rng.randint(1, 6)
        sample = []
        seen = set()
        while len(sample) < k:
            images = list(range(4))
            rng.shuffle(images)
            p = Permutation(images)
            if p not in seen:
                seen.add(p)
                sample.append(p)
        if linear_independent(sample):
            assert affine_independent(sample)


def _s4_square():
    return [
        Permutation.identity(4),
        Permutation.from_cycles(4, (1, 2)),
        Permutation.from_cycles(4, (3, 4)),
        Permutation.from_cycles(4, (1, 2), (3, 4)),
    ]


def test_peeled_independence_matches_unpeeled_oracle():
    rng = random.Random(41)
    square_plus = _s4_square() + [Permutation.from_cycles(4, (1, 3))]
    cases = [all_permutations(3), _s4_square(), square_plus]
    for n in range(2, 7):
        group = all_permutations(n)
        for _ in range(60):
            cases.append(rng.sample(group, rng.randint(1, min(len(group), (n - 1) ** 2 + 3))))
    outcomes = {}
    for perms in cases:
        for order in (perms, perms[::-1]):
            lin = linear_independent(order)
            aff = affine_independent(order)
            assert lin == unpeeled_independent(order)
            assert aff == unpeeled_independent(order, affine=True)
            # a dependency exactly when dependent: nonzero, zero-sum, annihilating
            images = [p.images for p in order]
            b = _dependency(images)
            assert (b is None) == lin
            if b is not None:
                zero = Matrix([[0] * order[0].n] * order[0].n)
                assert any(b) and sum(b) == 0
                assert sum((c * p.matrix() for c, p in zip(b, order)), zero) == zero
            key = (order[0].n, lin, aff)
            outcomes[key] = outcomes.get(key, 0) + 1
    # both verdicts occur at every n from 3 on, so neither side can pass
    # by always agreeing on one
    assert {(lin, aff) for _, lin, aff in outcomes} == {(True, True), (False, False)}
    assert all(outcomes.get((n, False, False), 0) >= 5 for n in range(3, 7)), outcomes
    assert not linear_independent(all_permutations(3))
    assert not affine_independent(_s4_square())
    # all of S_3 and the S_4 square keep their whole set as the core
    assert _peel([p.images for p in all_permutations(3)]) == list(range(6))
    assert _peel([p.images for p in _s4_square()]) == [0, 1, 2, 3]
    # (13) is alone on cell (1, 3): it peels off, leaving the dependent square
    assert _peel([p.images for p in square_plus]) == [0, 1, 2, 3]
    assert not linear_independent(square_plus)


def test_independence_edge_cases():
    assert linear_independent([]) and affine_independent([])
    assert unpeeled_independent([]) and unpeeled_independent([], affine=True)
    mixed = [Permutation.identity(3), Permutation.identity(4)]

    def halves(perms):
        return BistochasticMatrix.combination((F(1, 2), p) for p in perms)

    for test in (linear_independent, affine_independent, halves):
        with pytest.raises(ValueError, match="^mixed dimensions: S_3 vs S_4$"):
            test(mixed)
        with pytest.raises(ValueError, match="^mixed dimensions: S_4 vs S_3$"):
            test(mixed[::-1])
        with pytest.raises(ValueError, match=r"^term \(0, 1\) is not a Permutation$"):
            test([(0, 1)])
    with pytest.raises(ValueError, match="^combination needs at least one term$"):
        BistochasticMatrix.combination([])


def test_greedy_decomposition_peels_to_empty_core(ref):
    matrices = list(ref.values())
    rng = random.Random(43)
    for n in range(3, 11):
        matrices += [random_bistochastic(n, rng, max_terms=3 * n) for _ in range(4)]
    for a in matrices:
        support = list(decompose(a).support)
        assert _peel([p.images for p in support]) == []
        assert unpeeled_independent(support, affine=True)


def test_input_order_peel_matches_unpeeled_oracle():
    rng = random.Random(47)
    cases = [all_permutations(3), _s4_square(), _s4_square() + [Permutation.from_cycles(4, (1, 3))]]
    # a repeated permutation is a dependency, whatever else is in the set
    p, q = Permutation.from_cycles(4, (1, 2)), Permutation.from_cycles(4, (2, 3, 4))
    cases += [[p, p], [q, p, p], [p, q, p], [p, p, q]]
    for n in range(2, 7):
        group = all_permutations(n) if n < 6 else None
        for _ in range(40):
            m = rng.randint(1, (n - 1) ** 2 + 3)
            if group is not None and rng.random() < 0.5:
                perms = rng.sample(group, min(m, len(group)))
            else:
                perms = list({random_permutation(n, rng) for _ in range(m)})
            cases.append(perms)
        for _ in range(15):
            # greedy output peels in input order; reversed or shuffled it
            # often peels only in another order
            support = list(decompose(random_bistochastic(n, rng, max_terms=3 * n)).support)
            cases.append(support)
            cases.append(support[::-1])
            cases.append(rng.sample(support, len(support)))
    seen = {"in order": 0, "another order": 0, "dependent": 0}
    for perms in cases:
        images = [p.images for p in perms]
        n = len(images[0])
        cells = [{j * n + i for j, i in enumerate(p)} for p in images]
        in_order = _peels_in_order(cells)
        # every term has a cell that no later term has
        assert in_order == all(
            cells[k] - set().union(*cells[k + 1:]) for k in range(len(cells)))
        lin = unpeeled_independent(perms)
        assert lin == unpeeled_independent(perms, affine=True)
        assert _independent(images) == lin
        if in_order:
            assert lin and _peel(images) == []
            seen["in order"] += 1
        elif _peel(images) == []:
            assert lin
            seen["another order"] += 1
        elif not lin:
            seen["dependent"] += 1
    assert min(seen.values()) >= 20, seen


def test_kernel_vector():
    i4 = Permutation.identity(4)
    p12 = Permutation.from_cycles(4, (1, 2))
    p34 = Permutation.from_cycles(4, (3, 4))
    both = Permutation.from_cycles(4, (1, 2), (3, 4))
    rows = [list(p.matrix().flatten()) for p in (i4, p12, p34, both)]
    beta = kernel_vector(Matrix(rows).transpose())
    assert beta is not None and any(beta)
    assert sum(beta) == 0
    combined = [
        sum(beta[k] * rows[k][j] for k in range(4)) for j in range(16)
    ]
    assert all(v == 0 for v in combined)
    assert kernel_vector(Matrix.identity(3)) is None


def test_frobenius_inner():
    p = Permutation.from_cycles(4, (1, 2, 3, 4)).matrix()
    assert frobenius_inner(p, p) == 4
    j3 = BistochasticMatrix.uniform(3)
    assert frobenius_inner(j3, j3) == 1
    with pytest.raises(ValueError, match="shape"):
        frobenius_inner(j3, p)


def test_bistochastic_validation():
    with pytest.raises(NotBistochasticError, match="row 2 sums to 9/10"):
        BistochasticMatrix([[F(1, 2), F(1, 2)], [F(2, 5), F(1, 2)]])
    with pytest.raises(NotBistochasticError, match="column 1"):
        BistochasticMatrix([[F(2, 5), F(3, 5)], [F(1, 2), F(1, 2)]])
    with pytest.raises(NotBistochasticError, match="negative entry"):
        BistochasticMatrix([[F(-1, 2), F(3, 2)], [F(3, 2), F(-1, 2)]])
    with pytest.raises(NotBistochasticError, match="not square"):
        BistochasticMatrix([[1, 0]])


def _oracle_bistochastic_error(rows):
    """The first bistochastic error message, from Fraction sums (oracle)."""
    n = len(rows)
    if len(rows[0]) != n:
        return f"matrix is {n}x{len(rows[0])}, not square"
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if e < 0:
                return f"negative entry {format_rational(e)} at row {i + 1}, column {j + 1}"
        total = sum(row, F(0))
        if total != 1:
            return f"row {i + 1} sums to {format_rational(total)}, expected 1"
    for j in range(n):
        total = sum((row[j] for row in rows), F(0))
        if total != 1:
            return f"column {j + 1} sums to {format_rational(total)}, expected 1"
    return None


def _bistochastic_error(rows):
    try:
        BistochasticMatrix(rows)
    except NotBistochasticError as exc:
        return str(exc)
    return None


def test_bistochastic_error_messages_word_for_word():
    p, q = 1_000_003, 999_983
    cases = {
        "row 2 sums to 9/10, expected 1": [[F(1, 2), F(1, 2)], [F(2, 5), F(1, 2)]],
        "column 1 sums to 9/10, expected 1": [[F(2, 5), F(3, 5)], [F(1, 2), F(1, 2)]],
        "negative entry -1/2 at row 1, column 1": [
            [F(-1, 2), F(3, 2)], [F(3, 2), F(-1, 2)]],
        "matrix is 1x2, not square": [[1, 0]],
        # large coprime denominators: the scale is their product
        f"row 1 sums to {p + q}/{p * q}, expected 1": [[F(1, p), F(1, q)], [1, 0]],
        f"negative entry -1/{q} at row 2, column 2": [
            [F(1, p), 1 - F(1, p)], [1 - F(1, p) + F(1, q), F(-1, q)]],
        f"column 1 sums to {p * q + q - p}/{p * q}, expected 1": [
            [F(1, p), 1 - F(1, p)], [1 - F(1, q), F(1, q)]],
    }
    for message, rows in cases.items():
        assert _bistochastic_error(rows) == message
        assert _oracle_bistochastic_error(rows) == message


def test_bistochastic_errors_match_fraction_oracle():
    rng = random.Random(97)
    primes = (1_000_003, 999_983, 1_000_033, 998_244_353, 1_000_000_007)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [list(row) for row in random_bistochastic(n, rng)]
        for _ in range(rng.randint(0, 2)):
            # a shift of one entry, or one moved within its row (which
            # keeps the row sums and breaks two columns)
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            x = rng.choice((-1, 1)) * F(rng.randint(1, 3), rng.choice(primes))
            rows[i][j] += x
            if rng.random() < 0.5:
                rows[i][k] -= x
        message = _oracle_bistochastic_error(rows)
        assert _bistochastic_error(rows) == message
        seen.add(message.split()[0] if message else None)
    assert seen == {None, "negative", "row", "column"}


def test_matrix_basics():
    m = Matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m[1][0] == 3
    assert m.transpose().rows == ((1, 3), (2, 4))
    assert (m + m) == 2 * m
    assert m * Matrix.identity(2) == m
    with pytest.raises(AttributeError):
        m._rows = ()
    with pytest.raises(TypeError):
        Matrix([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="row 1 has"):
        Matrix([[1, 2], [3]])
    assert len({m, Matrix([[1, 2], [3, 4]])}) == 1


def test_parse_format_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert parse_matrix(format_matrix(m)) == m


def test_parse_comments_and_blanks():
    text = "# header comment\n\n1/2 1/2\n# interior\n1/2 1/2\n\n"
    m = parse_matrix(text, bistochastic=True)
    assert isinstance(m, BistochasticMatrix)
    assert m.n == 2


def test_parse_errors_carry_location():
    with pytest.raises(MatrixParseError, match="line 2, entry 2"):
        parse_matrix("1 2\n3 x\n")
    with pytest.raises(MatrixParseError, match="line 3: 3 entries, expected 2"):
        parse_matrix("1 2\n3 4\n5 6 7\n")
    with pytest.raises(MatrixParseError, match="no matrix rows"):
        parse_matrix("# nothing\n")


def test_numerator_form_is_canonical():
    a = Matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    b = Matrix._from_numerators(12, [[6, 6], [6, 6]])
    assert a == b and hash(a) == hash(b)
    assert (b.scale, b.numerators) == (2, ((1, 1), (1, 1)))
    c = BistochasticMatrix._from_numerators(12, [[6, 6], [6, 6]])
    assert c == a and hash(c) == hash(a) and c == BistochasticMatrix.uniform(2)
    assert b.rows == a.rows
    z = Matrix._from_numerators(7, [[0, 0]])
    assert (z.scale, z.numerators) == (1, ((0, 0),)) and z == Matrix([[0, 0]])
    m = Matrix._from_numerators(6, [[-4, 2]])
    assert (m.scale, m.numerators) == (3, ((-2, 1),))
    assert m.rows == ((F(-2, 3), F(1, 3)),)
    assert m != Matrix([[F(-2, 3)], [F(1, 3)]])  # same entries, other shape


def test_rows_are_derived_on_first_use():
    m = parse_matrix("1/2 1/3\n-1/6 5\n")
    assert m._rows is None
    assert m.shape == (2, 2) and m.nrows == 2 and m.ncols == 2
    assert m.transpose() == Matrix([[F(1, 2), F(-1, 6)], [F(1, 3), 5]])
    assert m.trace() == F(11, 2)
    assert m._rows is None
    a = parse_matrix("1/3 2/3\n2/3 1/3\n", bistochastic=True)
    frobenius_inner(a, a)
    assert a._rows is None
    assert m[1] == (F(-1, 6), F(5))
    assert m._rows == ((F(1, 2), F(1, 3)), (F(-1, 6), F(5)))
    assert m.rows is m.rows  # built once, then kept


def test_derived_rows_equal_parsed_fractions():
    rng = random.Random(59)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        big = rng.choice((9, 10**6))
        pairs = [
            [(rng.randint(-big, big), rng.randint(1, big)) for _ in range(nc)]
            for _ in range(nr)
        ]
        text = "\n".join(" ".join(f"{p}/{q}" for p, q in row) for row in pairs)
        expected = tuple(tuple(F(p, q) for p, q in row) for row in pairs)
        m = parse_matrix(text)
        assert m.scale == lcm(*(e.denominator for row in expected for e in row))
        assert gcd(m.scale, *(v for row in m.numerators for v in row)) == 1
        assert m.rows == expected
        assert list(m) == list(expected) and m.flatten() == sum(expected, ())
        built = Matrix(expected)
        assert m == built and hash(m) == hash(built)
        assert (built.scale, built.numerators) == (m.scale, m.numerators)
    for n in range(1, 7):
        for _ in range(10):
            raw = [rng.randint(1, 200_000) for _ in range(rng.randint(1, 2 * n))]
            perms = [Permutation(rng.sample(range(n), n)) for _ in raw]
            terms = [(F(w, sum(raw)), p) for w, p in zip(raw, perms)]
            expected = [[F(0)] * n for _ in range(n)]
            for c, p in terms:
                for j, i in enumerate(p.images):
                    expected[i][j] += c
            a = parse_matrix(format_matrix(Matrix(expected)), bistochastic=True)
            assert a.rows == tuple(map(tuple, expected))
            assert a == BistochasticMatrix.combination(terms) == BistochasticMatrix(expected)


def test_integer_arithmetic_matches_fractions():
    rng = random.Random(61)
    for _ in range(60):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_matrix(rng, n, k, bound=rng.choice((3, 10**6)))
        b = _random_matrix(rng, n, k, bound=9)
        c = _random_matrix(rng, k, rng.randint(1, 4), bound=9)
        s = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert (a + b).rows == tuple(
            tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.rows, b.rows))
        assert (a - b).rows == tuple(
            tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(a.rows, b.rows))
        assert (s * a).rows == (a * s).rows == tuple(tuple(s * x for x in r) for r in a.rows)
        assert (a * c).rows == tuple(
            tuple(sum((x * y for x, y in zip(r, col)), F(0)) for col in zip(*c.rows))
            for r in a.rows)
        assert a.transpose().rows == tuple(zip(*a.rows))
        assert frobenius_inner(a, b) == sum(
            (x * y for r1, r2 in zip(a.rows, b.rows) for x, y in zip(r1, r2)), F(0))
        if n == k:
            assert a.trace() == sum((a.rows[i][i] for i in range(n)), F(0))
            assert det(a) == det(Matrix(a.rows))


def _error(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return None


def test_parse_and_shape_error_messages_word_for_word():
    parse_errors = {
        "1 2\n3 x\n": "line 2, entry 2: malformed rational literal 'x'",
        "1 2\n3 1/0\n": "line 2, entry 2: zero denominator in rational literal '1/0'",
        "1/2 1/２\n1/2 1/2\n": "line 1, entry 2: malformed rational literal '1/２'",
        "٣/٤ 1/4\n": "line 1, entry 1: malformed rational literal '٣/٤'",
        "1 2\n3 4\n5 6 7\n": "line 3: 3 entries, expected 2",
        "# a\n1 2 3\n\n4\n": "line 4: 1 entries, expected 3",
        "# nothing\n": "no matrix rows found in input",
        "": "no matrix rows found in input",
    }
    for text, message in parse_errors.items():
        for bistochastic in (False, True):
            assert _error(parse_matrix, text, bistochastic) == ("MatrixParseError", message)
    bistochastic_errors = {
        "1/2 1/2\n2/5 1/2\n": "row 2 sums to 9/10, expected 1",
        "2/5 3/5\n1/2 1/2\n": "column 1 sums to 9/10, expected 1",
        "-1/2 3/2\n3/2 -1/2\n": "negative entry -1/2 at row 1, column 1",
        "1 0\n": "matrix is 1x2, not square",
        "1/3 2/3\n1/3 -2/6\n": "negative entry -1/3 at row 2, column 2",
        "1/1000003 999999/1000003 3\n": "matrix is 1x3, not square",
    }
    for text, message in bistochastic_errors.items():
        assert _error(parse_matrix, text, True) == ("NotBistochasticError", message)
        assert _error(parse_matrix, text) is None
    assert _error(parse_matrix, "2/4 1/2\n3/6 -0/7\n1/2 2/4\n") is None
    assert _error(Matrix, [[1, 2], [3]]) == ("ValueError", "row 1 has 1 entries, expected 2")
    for empty in ([], [[]]):
        assert _error(Matrix, empty) == (
            "ValueError", "matrix must have at least one row and one column")


def test_parse_reads_unreduced_literals_like_parse_ratio():
    rng = random.Random(107)
    bistochastic = 0
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        literals = []
        for _ in range(nr):
            row = []
            for _ in range(nc):
                p, q = rng.randint(-30, 30), rng.choice((1, 2, 6, 10, 999_983, 1_000_003))
                k = rng.choice((1, 1, 2, 3, 7))  # unreduced literals too
                text = f"{p * k}/{q * k}" if rng.random() < 0.8 or q != 1 else str(p)
                if rng.random() < 0.1:
                    text = text.replace("-", "-0")  # a leading zero
                row.append(text)
            literals.append(row)
        text = "\n".join(" ".join(row) for row in literals)
        expected = Matrix([[parse_rational(t) for t in row] for row in literals])
        got = parse_matrix(text)
        assert got == expected and got.scale == expected.scale
        assert got.numerators == expected.numerators
    for _ in range(100):
        a = random_bistochastic(rng.randint(1, 7), rng)
        k = rng.randint(2, 9)
        text = "\n".join(
            " ".join(f"{e.numerator * k}/{e.denominator * k}" for e in row) for row in a)
        assert parse_matrix(text, bistochastic=True) == a
        bistochastic += 1
    assert bistochastic == 100


def test_parse_errors_are_worded_by_the_token_path():
    long = "7" * 5000
    cases = {
        "1 2\n3 0/00\n": "line 2, entry 2: zero denominator in rational literal '0/00'",
        "1/0 x\n": "line 1, entry 1: zero denominator in rational literal '1/0'",
        "1/0 1\n1 1\n": "line 1, entry 1: zero denominator in rational literal '1/0'",
        "x 1/0\n": "line 1, entry 1: malformed rational literal 'x'",
        "1 2 3\n4 5\n6 1/0\n": "line 3, entry 2: zero denominator in rational literal '1/0'",
        "1 2 3\n4 5\n": "line 2: 2 entries, expected 3",
        "1 2\n1/2 ６\n": "line 2, entry 2: malformed rational literal '６'",
    }
    for text, message in cases.items():
        for bistochastic in (False, True):
            assert _error(parse_matrix, text, bistochastic) == ("MatrixParseError", message)
    for text in (f"1 {long}\n", f"1 1/{long}\n"):
        kind, message = _error(parse_matrix, text)
        assert kind == "MatrixParseError"
        with pytest.raises(ValueError) as err:
            parse_ratio(text.split()[1])
        assert message == f"line 1, entry 2: {err.value}"


def test_numerator_constructor_errors_match_fraction_oracle():
    rng = random.Random(101)
    primes = (1_000_003, 999_983, 998_244_353)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [list(row) for row in random_bistochastic(n, rng)]
        for _ in range(rng.randint(0, 2)):
            # a shift of one entry, or one moved within its row
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            x = rng.choice((-1, 1)) * F(rng.randint(1, 3), rng.choice(primes))
            rows[i][j] += x
            if rng.random() < 0.5:
                rows[i][k] -= x
        message = _oracle_bistochastic_error(rows)
        scale = lcm(*(e.denominator for row in rows for e in row)) * rng.randint(1, 5)
        nums = [[int(e * scale) for e in row] for row in rows]
        got = _error(BistochasticMatrix._from_numerators, scale, nums)
        assert got == (("NotBistochasticError", message) if message else None)
        text = format_matrix(Matrix(rows))
        assert _error(parse_matrix, text, True) == got
        seen.add(message.split()[0] if message else None)
    assert seen == {None, "negative", "row", "column"}


def _checked_solve_integer(a, b):
    d, u = solve_integer(a, b)
    assert d > 0
    assert all(sum(x * y for x, y in zip(row, u)) == d * v for row, v in zip(a, b))
    return d, u


def test_integer_back_substitution_matches_gauss_jordan_oracle():
    # every fifth draw replaces a row by a combination of the others, so
    # singular systems come up whatever the seeded stream gives
    rng = random.Random(67)
    outcomes = {"square": 0, "singular": 0}
    for draw in range(200):
        n = rng.randint(1, 7)
        m = _random_matrix(rng, n, n, bound=rng.choice((1, 2, 9, 10**6)))
        if draw % 5 == 0:
            rows = [list(row) for row in m.rows]
            dep = rng.randrange(n)
            others = rows[:dep] + rows[dep + 1:]
            coeffs = [rng.randint(-3, 3) for _ in others]
            rows[dep] = [sum((c * row[j] for c, row in zip(coeffs, others)), F(0)) for j in range(n)]
            m = Matrix(rows)
        b = [F(rng.randint(-9, 9), rng.randint(1, rng.choice((9, 10**6)))) for _ in range(n)]
        unit = [[int(i == k) for i in range(n)] for k in range(n)]
        expected = gauss_jordan_solve(m.rows, [b] + unit)
        assert expected is None or draw % 5, draw
        if expected is None:
            outcomes["singular"] += 1
            with pytest.raises(SingularMatrixError):
                solve(m, b)
            with pytest.raises(SingularMatrixError):
                inverse(m)
        else:
            outcomes["square"] += 1
            assert solve(m, b) == expected[0]
            assert inverse(m).rows == tuple(zip(*expected[1:]))
            ints = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-50, 50) for _ in range(n)]
            oracle = gauss_jordan_solve(ints, [rhs])
            if oracle is not None:
                d, u = _checked_solve_integer(ints, rhs)
                assert tuple(F(v, d) for v in u) == oracle[0]
                assert d == abs(det(Matrix(ints)))
    assert min(outcomes.values()) >= 10, outcomes


def test_kernel_vector_matches_gauss_jordan_oracle():
    # the first column in the span of the ones before it is set to 1,
    # every later column to 0
    rng = random.Random(89)
    outcomes = {"kernel": 0, "first-column": 0, "trivial": 0}
    for _ in range(150):
        nr = rng.randint(1, 5)
        m = _random_matrix(rng, nr, nr + rng.randint(-1, 2) or 1,
                           bound=rng.choice((1, 1, 2, 10**6)))
        cols = list(zip(*m.rows))
        expected = None
        for f in range(m.ncols):
            y = gauss_jordan_solve([c[:f] for c in m.rows], [cols[f]])
            if y is not None:
                expected = tuple(-v for v in y[0]) + (1,) + (0,) * (m.ncols - f - 1)
                outcomes["first-column" if f == 0 else "kernel"] += 1
                break
        else:
            outcomes["trivial"] += 1
        assert kernel_vector(m) == expected
    assert min(outcomes.values()) >= 5, outcomes


def test_integer_back_substitution_checks_exact_division(monkeypatch):
    import erdosmat.linalg as linalg

    def broken(rows):
        pivots, swaps = _forward_eliminate(rows)
        rows[0][-1] += 1  # the top right-hand side no longer matches Cramer's rule
        return pivots, swaps

    monkeypatch.setattr(linalg, "_forward_eliminate", broken)
    with pytest.raises(ArithmeticError, match="non-exact division"):
        solve_integer([[2, 1], [1, 3]], [1, 1])


def test_inexact_division_raises():
    assert _exact_div([4, -6, 0], 2) == [2, -3, 0]
    assert _exact_div([4, -6], -2) == [-2, 3]
    for nums, d in (([3, 4], 2), ([1, -1], 2), ([5, 1], -3)):
        with pytest.raises(ArithmeticError, match="non-exact"):
            _exact_div(nums, d)
