"""Birkhoff-von Neumann decomposition and support reduction.

``decompose`` writes a bistochastic matrix as an exact convex
combination of permutation matrices with the classical greedy loop:
find a permutation inside the positive support, subtract the minimal
entry along it, repeat.  The loop runs on integers, the matrix scaled
once by the least common multiple of its denominators, and takes the
lexicographically least permutation of the support from one Kuhn
matching repaired column by column with single augmenting paths.
``reduce_affine`` shrinks a decomposition to an
affinely independent support (Caratheodory-style exchange steps) and
``reduce_linear`` to a linearly independent one.  For permutation
matrices the two notions coincide, because every permutation matrix has
entry sum n, forcing any annihilating coefficient vector to sum to zero.

Greedy output is always independent: each round zeroes an entry that no
later round uses, so every term is alone on the entry it zeroed, and
``linalg.affine_independent`` proves that by peeling alone, with no
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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

    The work is in integers: A is scaled once by the least common
    multiple of its denominators, the residual stays an integer matrix,
    and a round updates the positive-support grid only at the n cells it
    subtracts from.  Coefficients are emitted as ``Fraction(c, scale)``.
    Each round's permutation comes from ``_lex_min_matching``: one Kuhn
    matching, then one augmenting-path search per row tried, rather than
    a full matching from scratch per row tried.
    """
    n = a.n
    scale = lcm(*(e.denominator for row in a for e in row))
    residual = [[e.numerator * (scale // e.denominator) for e in row] for row in a]
    allowed = [[e > 0 for e in row] for row in residual]
    remaining = scale
    terms = []
    while remaining > 0:
        images = _lex_min_matching(allowed)
        if images is None:
            raise RuntimeError("no perfect matching in the positive support")
        coef = min(residual[images[j]][j] for j in range(n))
        for j, i in enumerate(images):
            residual[i][j] -= coef
            allowed[i][j] = residual[i][j] > 0
        remaining -= coef
        terms.append((Fraction(coef, scale), Permutation._unchecked(images)))
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
    """Lexicographically smallest perfect matching images[j] = row of column j.

    ``allowed[i][j]`` says whether row i may serve column j; None when no
    perfect matching exists.  Kuhn's augmenting paths build one perfect
    matching.  Then, column by column, rows are tried in ascending order:
    the current partner is kept, or a smaller free row i is forced onto
    column j, which displaces the column i served.  Columns before j are
    fixed, so the displaced column has exactly one place to go, the row
    column j gave up, and one augmenting-path search among the later
    columns decides whether i can stay.  By Berge's theorem that search
    succeeds exactly when the later columns can still all be matched.
    """
    n = len(allowed)
    rows_of = [[i for i in range(n) if allowed[i][j]] for j in range(n)]
    images = [None] * n
    col_of = [None] * n

    def augment(j, first, seen) -> bool:
        """Match column j, re-matching only columns >= first along the way."""
        for i in rows_of[j]:
            if seen[i]:
                continue
            seen[i] = True
            c = col_of[i]
            if c is None or (c >= first and augment(c, first, seen)):
                images[j] = i
                col_of[i] = j
                return True
        return False

    for j in range(n):
        if not augment(j, 0, [False] * n):
            return None
    for j in range(n):
        for i in rows_of[j]:
            c = col_of[i]
            if c == j:
                break
            if c < j:
                continue
            r = images[j]
            col_of[r] = None
            images[j] = i
            col_of[i] = j
            if augment(c, j + 1, [False] * n):
                break
            images[c] = i
            col_of[i] = c
            images[j] = r
            col_of[r] = j
    return images
