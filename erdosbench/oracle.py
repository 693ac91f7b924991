"""Independent exact checks of erdosmat's outputs, in plain Python.

Nothing here imports erdosmat.  Every routine recomputes from first
principles what the program claims: maximal traces by brute force over
S_n or by an integer Hungarian method, canonical forms by brute force
over all (P, Q) pairs, Gram candidates by Gaussian elimination over
``Fraction``, and linear independence by elimination modulo a prime with
an exact fallback.  Matrices are lists of rows of ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm

import numpy as np

# -- matrices --------------------------------------------------------------


def parse_rows(rows) -> list:
    """Rows of rational literals (``"p"`` or ``"p/q"``) as Fractions."""
    return [[Fraction(e) for e in row] for row in rows]


def format_rows(a) -> list:
    return [[_literal(e) for e in row] for row in a]


def _literal(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def uniform(n: int) -> list:
    return [[Fraction(1, n)] * n for _ in range(n)]


def combine(weights, perms) -> list:
    """sum_k weights[k] * P_k for permutations given by their images."""
    n = len(perms[0])
    a = [[Fraction(0)] * n for _ in range(n)]
    for w, images in zip(weights, perms):
        for j, i in enumerate(images):
            a[i][j] += w
    return a


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def permute(a, rows, cols) -> list:
    """The matrix whose (i, j) entry is a[rows[i]][cols[j]]."""
    return [[a[r][c] for c in cols] for r in rows]


def direct_sum(blocks) -> list:
    n = sum(len(b) for b in blocks)
    a = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, e in enumerate(row):
                a[off + i][off + j] = e
        off += len(b)
    return a


def is_bistochastic(a) -> bool:
    n = len(a)
    return (
        all(len(row) == n for row in a)
        and all(e >= 0 for row in a for e in row)
        and all(sum(row) == 1 for row in a)
        and all(sum(a[i][j] for i in range(n)) == 1 for j in range(n))
    )


def scaled(a):
    """(s, U): the least s with U = s * a an integer matrix."""
    s = lcm(*(e.denominator for row in a for e in row))
    return s, [[int(e * s) for e in row] for row in a]


def frob_sq(a) -> Fraction:
    return sum((e * e for row in a for e in row), Fraction(0))


def inner(a, images) -> Fraction:
    """<A, P> for the permutation with the given images."""
    return sum((a[i][j] for j, i in enumerate(images)), Fraction(0))


# -- the maximal trace -----------------------------------------------------


@lru_cache(maxsize=None)
def _perm_list(n: int) -> tuple:
    return tuple(permutations(range(n)))


def brute_max_trace(a):
    """(value, witnesses) over all of S_n, in integers.

    Witnesses are image tuples p with sum_j a[p[j]][j] maximal, listed in
    lexicographic order.
    """
    n = len(a)
    s, u = scaled(a)
    cols = list(zip(*u))  # cols[j][i] = u[i][j]
    best = None
    witnesses = []
    for p in _perm_list(n):
        v = 0
        for j in range(n):
            v += cols[j][p[j]]
        if best is None or v > best:
            best = v
            witnesses = [p]
        elif v == best:
            witnesses.append(p)
    return Fraction(best, s), witnesses


def hungarian_max_trace(a) -> Fraction:
    """Maximal trace by the O(n^3) Hungarian method on the scaled matrix."""
    n = len(a)
    s, u = scaled(a)
    inf = float("inf")
    pot_r = [0] * (n + 1)
    pot_c = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row (1-based) assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = -u[i0 - 1][j - 1] - pot_r[i0] - pot_c[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    pot_r[match[j]] += delta
                    pot_c[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    total = sum(u[match[j] - 1][j - 1] for j in range(1, n + 1))
    return Fraction(total, s)


def max_trace(a) -> Fraction:
    return brute_max_trace(a)[0] if len(a) <= 8 else hungarian_max_trace(a)


# -- canonical forms -------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple:
    """Row-major flat indices of PAQ for every pair (P, Q) of S_n x S_n."""
    perms = _perm_list(n)
    return tuple(
        tuple(p[i] * n + q[j] for i in range(n) for j in range(n))
        for p in perms
        for q in perms
    )


def brute_canonical(a) -> tuple:
    """The least row-major flattening of PAQ over all (n!)^2 pairs (P, Q)."""
    flat = [e for row in a for e in row]
    get = flat.__getitem__
    return min(tuple(map(get, idx)) for idx in _pair_indices(len(a)))


def sorted_column_canonical(a) -> tuple:
    """The same canonical form, as a minimum over row orders alone.

    For a fixed row order the least flattening sorts the columns as
    vectors, so n! row orders suffice.  Row-major flattenings of equal
    length compare as their tuples of rows do.  Used to group the many raw
    candidates of a recomputation; ``brute_canonical`` cross-checks it
    on every class.
    """
    best = min(
        tuple(zip(*sorted(zip(*[a[i] for i in p]))))
        for p in _perm_list(len(a))
    )
    return tuple(e for row in best for e in row)


# -- families of Erdos matrices --------------------------------------------


def partitions(n: int, largest: int | None = None) -> list:
    """Integer partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    out = []
    for part in range(min(n, largest), 0, -1):
        out.extend((part,) + rest for rest in partitions(n - part, part))
    return out


def cycle_type_perm(parts) -> tuple:
    """Images of a permutation with the given cycle lengths, laid out in order."""
    images = []
    start = 0
    for length in parts:
        images.extend(start + (k + 1) % length for k in range(length))
        start += length
    return tuple(images)


def half_identity(images) -> list:
    """(I + P) / 2."""
    return combine([Fraction(1, 2)] * 2, [tuple(range(len(images))), tuple(images)])


def half_identity_family(n: int) -> list:
    """(I + P)/2 for one P per cycle type of S_n (P = I gives I_n)."""
    return [half_identity(cycle_type_perm(parts)) for parts in partitions(n)]


def gap_maximizer(n: int) -> list:
    """I/2 + J/2, whose gap (n - 1)/4 is the largest in dimension n."""
    off = Fraction(1, 2 * n)
    return [[off + (Fraction(1, 2) if i == j else 0) for j in range(n)] for i in range(n)]


_F = Fraction
# The six n = 3 classes of Bouthat, Mashreghi and Morneau-Guerin (2024).
N3_CLASSES = (
    identity(3),
    uniform(3),
    [[_F(1), _F(0), _F(0)], [_F(0), _F(1, 2), _F(1, 2)], [_F(0), _F(1, 2), _F(1, 2)]],
    [[_F(0), _F(1, 2), _F(1, 2)], [_F(1, 2), _F(0), _F(1, 2)], [_F(1, 2), _F(1, 2), _F(0)]],
    [[_F(0), _F(1, 2), _F(1, 2)], [_F(1, 2), _F(1, 4), _F(1, 4)], [_F(1, 2), _F(1, 4), _F(1, 4)]],
    [[_F(3, 5), _F(0), _F(2, 5)], [_F(0), _F(3, 5), _F(2, 5)], [_F(2, 5), _F(2, 5), _F(1, 5)]],
)
N2_CLASSES = (identity(2), uniform(2))


# -- Gram candidates and the reference walk --------------------------------


def gram_weights(perms):
    """Integer weights u and scale s with x = u / s the Gram candidate, or None.

    M[i][j] is the agreement count of perms i and j, the Gram matrix of
    their permutation matrices, so M is singular exactly when they are
    linearly dependent (then None).  Otherwise x = M^-1 1 / <1, M^-1 1>.
    Fraction-free Gauss-Jordan elimination (Bareiss) on [M | 1] leaves
    d on the diagonal and d * M^-1 1 in the last column, all integers.
    """
    k = len(perms)
    a = [[sum(x == y for x, y in zip(p, q)) for q in perms] + [1] for p in perms]
    prev = 1
    for c in range(k):
        p = next((r for r in range(c, k) if a[r][c]), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        pc, pv = a[c], a[c][c]
        for r in range(k):
            if r != c:
                row, f = a[r], a[r][c]
                for j in range(k + 1):
                    q, rem = divmod(pv * row[j] - f * pc[j], prev)
                    if rem:
                        raise ArithmeticError("non-exact division in Bareiss elimination")
                    row[j] = q
        prev = pv
    y = [a[r][k] for r in range(k)]  # d * M^-1 1, with d = a[r][r] for every r
    s = sum(y)
    if s < 0:
        y, s = [-v for v in y], -s
    g = gcd(s, *y)
    return [v // g for v in y], s // g


def gram_walk(n: int, max_support: int) -> dict:
    """Every Erdos candidate on linearly independent supports containing I.

    Depth-first over supports {I, p_1 < p_2 < ...} in lexicographic order
    of S_n, extending only while independent.  Each candidate is tested
    in integers: with x = u / s, A = U / s is Erdos exactly when
    s * max_P <U, P> equals sum(U^2).  Returns {"visited": supports
    visited, "accepted": accepted candidates, "raw": set of distinct
    accepted matrices as reduced (s, flat U) keys}.
    """
    perms = _perm_list(n)
    cells = [tuple(p[j] * n + j for j in range(n)) for p in perms]
    out = {"visited": 0, "accepted": 0, "raw": set()}

    def visit(support, weights):
        out["visited"] += 1
        u, s = weights
        if all(v >= 0 for v in u):
            flat = [0] * (n * n)
            for w, r in zip(u, support):
                for c in cells[r]:
                    flat[c] += w
            best = max(sum(map(flat.__getitem__, cell)) for cell in cells)
            if s * best == sum(v * v for v in flat):
                out["accepted"] += 1
                g = gcd(s, *flat)
                out["raw"].add((s // g, tuple(v // g for v in flat)))
        if len(support) < max_support:
            for r in range(support[-1] + 1, len(perms)):
                child = support + [r]
                weights = gram_weights([perms[i] for i in child])
                if weights is not None:
                    visit(child, weights)

    visit([0], gram_weights([perms[0]]))
    return out


def class_key(a) -> tuple:
    """(s, canonical form of s * a): equal exactly for equivalent matrices."""
    s, u = scaled(a)
    return s, sorted_column_canonical(u)


def brute_class_key(a) -> tuple:
    s, u = scaled(a)
    return s, brute_canonical(u)


def key_matrix(key) -> list:
    """The Fraction matrix of a (s, flat U) key."""
    s, flat = key
    n = int(round(len(flat) ** 0.5))
    return [[Fraction(v, s) for v in flat[i * n:(i + 1) * n]] for i in range(n)]


# -- linear independence of permutation supports ---------------------------

_PRIME = 2_147_483_629  # below 2**31, so products fit in 63 bits


def perms_independent(perms) -> bool:
    """Whether the permutation matrices are linearly independent over Q.

    Full rank modulo a prime certifies independence over Q (an integer
    dependency with coprime coefficients survives reduction mod p).  A
    rank drop modulo p is confirmed exactly, by a singular Gram matrix.
    """
    n = len(perms[0])
    rows = [[int(p[j] == i) for i in range(n) for j in range(n)] for p in perms]
    return _rank_mod_p(rows) == len(rows) or gram_weights(perms) is not None


def _rank_mod_p(rows) -> int:
    m = np.array(rows, dtype=np.int64) % _PRIME
    rank = 0
    for c in range(m.shape[1]):
        nz = np.flatnonzero(m[rank:, c])
        if nz.size == 0:
            continue
        p = rank + int(nz[0])
        m[[rank, p]] = m[[p, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), -1, _PRIME) % _PRIME
        below = m[rank + 1:, c].copy()
        m[rank + 1:] = (m[rank + 1:] - below[:, None] * m[rank]) % _PRIME
        rank += 1
        if rank == m.shape[0]:
            break
    return rank
