"""Birkhoff-von Neumann decomposition and support reduction.

``decompose`` writes a bistochastic matrix as an exact convex
combination of permutation matrices with the classical greedy loop:
find a permutation inside the positive support, subtract the minimal
entry along it, repeat.  ``reduce_affine`` shrinks a decomposition to an
affinely independent support (Caratheodory-style exchange steps) and
``reduce_linear`` to a linearly independent one.  For permutation
matrices the two notions coincide, because every permutation matrix has
entry sum n, forcing any annihilating coefficient vector to sum to zero.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import BistochasticMatrix, Matrix, affine_independent, kernel_vector
from .perms import Permutation
from .rational import as_rational, format_rational


class ConvexDecomposition:
    """A convex combination of distinct permutation matrices.

    Coefficients are positive exact rationals summing to one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple((as_rational(c), p) for c, p in terms)
        if not terms:
            raise ValueError("decomposition needs at least one term")
        n = terms[0][1].n
        seen = set()
        total = Fraction(0)
        for c, p in terms:
            if not isinstance(p, Permutation) or p.n != n:
                raise ValueError("terms must share one permutation dimension")
            if c <= 0:
                raise ValueError(f"coefficient {format_rational(c)} is not positive")
            if p in seen:
                raise ValueError(f"duplicate permutation {p}")
            seen.add(p)
            total += c
        if total != 1:
            raise ValueError(f"coefficients sum to {format_rational(total)}, expected 1")
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("ConvexDecomposition is immutable")

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexDecomposition) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        body = ", ".join(f"{format_rational(c)}*{p}" for c, p in self.terms)
        return f"ConvexDecomposition({body})"

    @property
    def n(self) -> int:
        return self.terms[0][1].n

    @property
    def support(self) -> tuple:
        return tuple(p for _, p in self.terms)

    @property
    def weights(self) -> tuple:
        return tuple(c for c, _ in self.terms)

    def matrix(self) -> BistochasticMatrix:
        """Exact reconstruction of the combined matrix."""
        return BistochasticMatrix.combination(self.terms)

    def to_json(self) -> list:
        return [
            {"coef": format_rational(c), "perm": list(p.one_indexed())}
            for c, p in self.terms
        ]


def decompose(a: BistochasticMatrix) -> ConvexDecomposition:
    """Greedy Birkhoff decomposition of a bistochastic matrix.

    Deterministic: each round extracts the lexicographically smallest
    permutation available in the positive support, so the output is
    reproducible.  A permutation matrix decomposes as itself; every round
    zeroes at least one entry, so there are at most (n-1)^2 + 1 terms.
    """
    n = a.n
    residual = [list(row) for row in a]
    remaining = Fraction(1)
    terms = []
    while remaining > 0:
        allowed = [[residual[i][j] > 0 for j in range(n)] for i in range(n)]
        images = _lex_min_matching(allowed)
        if images is None:
            raise RuntimeError("no perfect matching in the positive support")
        coef = min(residual[images[j]][j] for j in range(n))
        for j in range(n):
            residual[images[j]][j] -= coef
        remaining -= coef
        terms.append((coef, Permutation(images)))
    if any(e != 0 for row in residual for e in row):
        raise RuntimeError("decomposition left a nonzero residual")
    return ConvexDecomposition(terms)


def reduce_affine(d: ConvexDecomposition) -> ConvexDecomposition:
    """Shrink to an affinely independent support, reconstructing the same matrix.

    Repeatedly finds a zero-sum annihilating coefficient vector b for the
    support, moves the weights as far along b as nonnegativity allows
    (t = min c_i/|b_i|), drops the zeroed terms and repeats.  Already
    affinely independent input is returned unchanged.
    """
    terms = list(d.terms)
    while True:
        support = [p for _, p in terms]
        if affine_independent(support):
            return d if len(terms) == len(d.terms) else ConvexDecomposition(terms)
        beta = _affine_dependency(support)
        alpha, i0 = min(
            (c / abs(b), i) for i, (b, (c, _)) in enumerate(zip(beta, terms)) if b != 0
        )
        if beta[i0] > 0:
            beta = [-b for b in beta]
        terms = [
            (c + alpha * b, p) for b, (c, p) in zip(beta, terms) if c + alpha * b > 0
        ]


def reduce_linear(d: ConvexDecomposition) -> ConvexDecomposition:
    """Shrink to a linearly independent support, reconstructing the same matrix.

    This is ``reduce_affine``: an affinely independent set of permutation
    matrices is linearly independent.  If sum b_i P_i = 0, summing all
    entries gives n * sum b_i = 0, because every permutation matrix has
    entry sum n; so b is a zero-sum dependency, and affine independence
    forces b = 0.
    """
    return reduce_affine(d)


def _affine_dependency(support):
    """A nonzero coefficient vector with zero sum annihilating the support."""
    n = support[0].n
    rows = [[Fraction(0)] * len(support) for _ in range(n * n + 1)]
    for k, p in enumerate(support):
        for j, i in enumerate(p.images):
            rows[i * n + j][k] = Fraction(1)
        rows[n * n][k] = Fraction(1)
    beta = kernel_vector(Matrix(rows))
    if beta is None:
        raise RuntimeError("affinely dependent support has no dependency vector")
    return list(beta)


def _lex_min_matching(allowed):
    """Lexicographically smallest perfect matching images[j] = row of column j."""
    n = len(allowed)
    images = []
    used_rows = set()
    for j in range(n):
        for i in range(n):
            if i in used_rows or not allowed[i][j]:
                continue
            if _matchable(allowed, used_rows | {i}, j + 1):
                images.append(i)
                used_rows.add(i)
                break
        else:
            return None
    return images


def _matchable(allowed, used_rows, start_col) -> bool:
    """Whether columns start_col.. can all be matched to distinct unused rows."""
    n = len(allowed)
    match_row = {}

    def try_col(j, seen):
        for i in range(n):
            if i in used_rows or i in seen or not allowed[i][j]:
                continue
            seen.add(i)
            if i not in match_row or try_col(match_row[i], seen):
                match_row[i] = j
                return True
        return False

    for j in range(start_col, n):
        if not try_col(j, set()):
            return False
    return True
