"""Shared fixtures: reference matrices and independent oracle helpers.

The oracles here (plain Gaussian and Gauss-Jordan elimination,
brute-force and row-scan canonical minimization, the unpeeled
independence test, a from-scratch matchability test, and replays of
greedy and bottleneck greedy decompositions over Fractions) are
deliberately separate implementations from the library paths they
check.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from erdosmat import BistochasticMatrix
from erdosmat.linalg import Matrix, _forward_eliminate, kernel_vector


F = Fraction


@pytest.fixture(scope="session")
def ref():
    """The known 3x3 Erdos matrices plus friends, by name."""
    h = F(1, 2)
    q = F(1, 4)
    f5 = F(1, 5)
    return {
        "I3": BistochasticMatrix.identity(3),
        "J3": BistochasticMatrix.uniform(3),
        "IJ2": BistochasticMatrix([[1, 0, 0], [0, h, h], [0, h, h]]),
        "S": BistochasticMatrix([[0, h, h], [h, q, q], [h, q, q]]),
        "T": BistochasticMatrix([[0, h, h], [h, 0, h], [h, h, 0]]),
        "R": BistochasticMatrix(
            [[3 * f5, 0, 2 * f5], [0, 3 * f5, 2 * f5], [2 * f5, 2 * f5, f5]]
        ),
        # the 4x4 Erdos matrix not equivalent to any symmetric matrix
        "NS4": BistochasticMatrix(
            [
                [F(3, 6), F(3, 6), 0, 0],
                [F(1, 6), F(1, 6), F(2, 6), F(2, 6)],
                [F(1, 6), F(1, 6), F(2, 6), F(2, 6)],
                [F(1, 6), F(1, 6), F(2, 6), F(2, 6)],
            ]
        ),
    }


def naive_rank(rows) -> int:
    """Textbook rational Gaussian elimination (independent of Bareiss)."""
    rows = [[F(e) for e in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def gauss_jordan_solve(a_rows, rhs):
    """Solutions of a x = b for each column b of ``rhs``, by Gauss-Jordan over Fractions.

    None when the columns of a are dependent or some b is inconsistent
    (oracle, independent of Bareiss and its integer back substitution).
    """
    nr, nc = len(a_rows), len(a_rows[0])
    rows = [[F(e) for e in a_rows[i]] + [F(b[i]) for b in rhs] for i in range(nr)]
    for c in range(nc):
        piv = next((i for i in range(c, nr) if rows[i][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        pv = rows[c][c]
        rows[c] = [e / pv for e in rows[c]]
        for i in range(nr):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    if any(e != 0 for row in rows[nc:] for e in row):
        return None
    return [tuple(rows[i][nc + k] for i in range(nc)) for k in range(len(rhs))]


def brute_canonical_flatten(a):
    """Minimum flattening of PAQ by scanning all (n!)^2 pairs (oracle)."""
    n = a.nrows
    best = None
    for rp in permutations(range(n)):
        for cp in permutations(range(n)):
            flat = tuple(a[i][j] for i in rp for j in cp)
            if best is None or flat < best:
                best = flat
    return best


def rowscan_canonical_flatten(a):
    """Minimum flattening of PAQ over all n! row orders, columns sorted (oracle).

    For a fixed row order the least column order sorts the columns as
    vectors, so n! sorts replace the (n!)^2 scan.
    """
    n = a.nrows
    values = sorted(set(a.flatten()))
    code = {v: k for k, v in enumerate(values)}
    coded = [[code[e] for e in row] for row in a]
    best_key = None
    best = None
    for rp in permutations(range(n)):
        colkeys = [tuple(coded[r][c] for r in rp) for c in range(n)]
        cols = sorted(range(n), key=colkeys.__getitem__)
        key = tuple(coded[r][c] for r in rp for c in cols)
        if best_key is None or key < best_key:
            best_key = key
            best = tuple(a[r][c] for r in rp for c in cols)
    return best


def direct_sum(*blocks):
    """The block-diagonal matrix with the given bistochastic blocks."""
    n = sum(b.n for b in blocks)
    rows = [[F(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.n):
            rows[at + i][at:at + b.n] = b[i]
        at += b.n
    return BistochasticMatrix(rows)


def unpeeled_independent(perms, affine: bool = False) -> bool:
    """Independence by Bareiss elimination of every flattening (oracle).

    With ``affine`` each flattening gets a constant coordinate 1.
    """
    perms = list(perms)
    if not perms:
        return True
    n = perms[0].n
    rows = []
    for p in perms:
        if p.n != n:
            raise ValueError(f"mixed dimensions: S_{n} vs S_{p.n}")
        row = [0] * (n * n)
        for j, i in enumerate(p.images):
            row[i * n + j] = 1
        rows.append(row + [1] if affine else row)
    pivots, _ = _forward_eliminate(rows)
    return len(pivots) == len(perms)


def oracle_reduce(terms) -> tuple:
    """Exchange steps on ``(Fraction, Permutation)`` terms down to an independent support (oracle).

    Each round takes the kernel vector of the support's flattenings with
    a row of ones appended (a zero-sum dependency), over the whole
    support with no peeling, and moves the weights in ``Fraction``s.
    """
    terms = list(terms)
    while not unpeeled_independent([p for _, p in terms], affine=True):
        n = terms[0][1].n
        rows = [[0] * len(terms) for _ in range(n * n)] + [[1] * len(terms)]
        for k, (_, p) in enumerate(terms):
            for j, i in enumerate(p.images):
                rows[i * n + j][k] = 1
        beta = kernel_vector(Matrix(rows))
        alpha, i0 = min((c / abs(b), i) for i, (b, (c, _)) in enumerate(zip(beta, terms)) if b)
        if beta[i0] > 0:
            beta = [-b for b in beta]
        terms = [(c + alpha * b, p) for b, (c, p) in zip(beta, terms) if c + alpha * b > 0]
    return tuple(terms)


def oracle_matchable(allowed) -> bool:
    """Whether the 0/1 grid has a perfect matching, by Kuhn's depth-first search (oracle)."""
    n = len(allowed)
    match_row = {}

    def try_col(j, seen):
        for i in range(n):
            if i in seen or not allowed[i][j]:
                continue
            seen.add(i)
            if i not in match_row or try_col(match_row[i], seen):
                match_row[i] = j
                return True
        return False

    return all(try_col(j, set()) for j in range(n))


def oracle_greedy_replay(a, terms) -> None:
    """Replay greedy Birkhoff terms (coef, Permutation) on a Fraction residual (oracle).

    Each term must lie inside the residual's positive support and take
    the least residual entry along it as its coefficient, and the
    residual must end at zero.  Any choice of permutation passes.
    """
    residual = [list(row) for row in a]
    for coef, p in terms:
        along = [residual[i][j] for j, i in enumerate(p.images)]
        assert min(along) > 0, "term leaves the positive support"
        assert coef == min(along), "coefficient is not the least entry along the term"
        for j, i in enumerate(p.images):
            residual[i][j] -= coef
    assert all(e == 0 for row in residual for e in row), "nonzero residual"


def oracle_bottleneck(residual):
    """``max_sigma min_j residual[sigma(j)][j]`` of a nonzero scaled bistochastic residual (oracle).

    Up to n = 12, the largest positive value v whose cells ``>= v`` hold
    a perfect matching, by binary search over the distinct values with
    ``oracle_matchable``; for n <= 7 also by brute force over all n!
    permutations, which must agree.
    """
    n = len(residual)
    assert n <= 12
    values = sorted({e for row in residual for e in row if e > 0})

    def holds(v):
        return oracle_matchable([[e >= v for e in row] for row in residual])

    assert holds(values[0]), "the positive support holds no perfect matching"
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(values[mid]):
            lo = mid
        else:
            hi = mid - 1
    if n <= 7:
        brute = max(min(residual[i][j] for j, i in enumerate(p)) for p in permutations(range(n)))
        assert brute == values[lo], "binary search and brute force disagree"
    return values[lo]


def oracle_bottleneck_replay(a, terms) -> None:
    """Replay bottleneck greedy terms (coef, Permutation) on a Fraction residual (oracle).

    Each coefficient must equal the residual's bottleneck value
    (``oracle_bottleneck``) and the least residual entry along its term,
    and the residual must end at zero.
    """
    residual = [list(row) for row in a]
    for coef, p in terms:
        assert coef == oracle_bottleneck(residual), "coefficient is not the bottleneck value"
        assert coef == min(residual[i][j] for j, i in enumerate(p.images)), \
            "coefficient is not the least entry along the term"
        for j, i in enumerate(p.images):
            residual[i][j] -= coef
    assert all(e == 0 for row in residual for e in row), "nonzero residual"
