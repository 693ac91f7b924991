"""Shared fixtures: reference matrices and independent oracle helpers.

The oracles here (plain Gaussian elimination, brute-force and row-scan
canonical minimization) are deliberately separate implementations from
the library paths they check.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from erdosmat import BistochasticMatrix


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
