"""Birkhoff-von Neumann decomposition and support reduction.

``decompose`` writes a bistochastic matrix as an exact convex
combination of permutation matrices with the bottleneck greedy loop:
take the perfect matching of the positive support whose least entry is
largest, subtract that entry along it, repeat (the greedy variant that
Dufosse and Ucar, Linear Algebra Appl. 497 (2016), study for short
decompositions).  The loop runs on the matrix's integer numerators over
the least common multiple of its denominators.  The residual only
falls, so the bottleneck value t only falls from round to round: one
matching, built by augmenting paths, is carried across rounds together
with the cells of value at least t, and the cells below t wait in a
heap until a failed search takes the next group of equal value.  Each
round still zeroes a cell, which bounds the number of terms, and when
A is Erdos every permutation of any Birkhoff decomposition attains the
maximal trace (Marcus-Ree equality), so the terms are witnesses.  The
result is a ``ConvexDecomposition`` held the same way, as integer
coefficients over that scale and image tuples, from which ``to_json``
and ``matrix`` read directly; its ``(Fraction, Permutation)`` terms are
built only when read.
``reduce_linear`` shrinks a decomposition to a linearly independent
support by Caratheodory-style exchange steps on the integer
coefficients, one elimination per round.  ``reduce_affine`` is the same
function: every permutation matrix has entry sum n, forcing any
annihilating coefficient vector to sum to zero.

Greedy output is always independent: each round zeroes an entry that no
later round uses, so every term is alone on the entry it zeroed, and
``linalg`` proves that by peeling alone, in input order, with no
elimination.  Which matching a round takes does not matter for that.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .linalg import BistochasticMatrix, _common_denominator, _dependency, _distinct
from .linalg import _image_tuples, _one_dimension, _permutation_sum
from .perms import Permutation
from .rational import as_rational, format_ratio, format_rational


class ConvexDecomposition:
    """A convex combination of distinct permutation matrices.

    Coefficients are positive exact rationals summing to one.  They are
    held as positive integer numerators over one common ``scale`` (their
    least common denominator), with each permutation as its image tuple;
    equal decompositions have equal integers, and compare and hash on
    them.  ``to_json`` and ``matrix`` read the integers too, while the
    ``(Fraction, Permutation)`` ``terms`` are built on first use and kept,
    as ``linalg.Matrix`` does with its rows.
    """

    __slots__ = ("_scale", "_coefs", "_images", "_terms")

    def __init__(self, terms):
        terms = [(as_rational(c), p) for c, p in terms]
        images = _image_tuples([p for _, p in terms])
        scale, coefs = _common_denominator([c for c, _ in terms])
        self._init(scale, tuple(coefs), tuple(images))

    @classmethod
    def _from_integers(cls, scale: int, coefs, images):
        """The decomposition with terms ``(coefs[k] / scale, images[k])``, for ``scale > 0``."""
        images = tuple(images)
        _one_dimension(images)
        d = object.__new__(cls)
        d._init(scale, tuple(coefs), images)
        return d

    def _init(self, scale: int, coefs: tuple, images: tuple) -> None:
        """Check the terms on the integers and set the fields, reduced by their gcd.

        Both constructors have checked that the images share one
        dimension.  Each check covers every term before the next:
        positivity, distinctness, the sum.  A ``Fraction`` is built only
        for an error message.
        """
        if not coefs:
            raise ValueError("decomposition needs at least one term")
        if min(coefs) <= 0:
            c = next(c for c in coefs if c <= 0)
            raise ValueError(f"coefficient {format_rational(Fraction(c, scale))} is not positive")
        _distinct(images)
        total = sum(coefs)
        if total != scale:
            raise ValueError(
                f"coefficients sum to {format_rational(Fraction(total, scale))}, expected 1"
            )
        g = gcd(scale, *coefs)
        if g != 1:
            scale //= g
            coefs = tuple(c // g for c in coefs)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_coefs", coefs)
        object.__setattr__(self, "_images", images)
        object.__setattr__(self, "_terms", None)

    def __setattr__(self, name, value):
        raise AttributeError("ConvexDecomposition is immutable")

    @property
    def terms(self) -> tuple:
        """The ``(Fraction, Permutation)`` pairs, built on first use."""
        terms = self._terms
        if terms is None:
            s = self._scale
            terms = tuple(
                (Fraction(c, s), Permutation._unchecked(p))
                for c, p in zip(self._coefs, self._images)
            )
            object.__setattr__(self, "_terms", terms)
        return terms

    def __len__(self) -> int:
        return len(self._coefs)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConvexDecomposition)
            and self._scale == other._scale
            and self._coefs == other._coefs
            and self._images == other._images
        )

    def __hash__(self) -> int:
        return hash((self._scale, self._coefs, self._images))

    def __repr__(self) -> str:
        body = ", ".join(f"{format_rational(c)}*{p}" for c, p in self.terms)
        return f"ConvexDecomposition({body})"

    @property
    def n(self) -> int:
        return len(self._images[0])

    @property
    def support(self) -> tuple:
        return tuple(p for _, p in self.terms)

    @property
    def weights(self) -> tuple:
        return tuple(c for c, _ in self.terms)

    def matrix(self) -> BistochasticMatrix:
        """Exact reconstruction of the combined matrix, summed on the integers."""
        return BistochasticMatrix._from_numerators(
            self._scale, _permutation_sum(self._coefs, self._images))

    def to_json(self) -> list:
        s = self._scale
        return [{"coef": format_ratio(c, s), "perm": [i + 1 for i in p]}
                for c, p in zip(self._coefs, self._images)]


def decompose(a: BistochasticMatrix) -> ConvexDecomposition:
    """Bottleneck greedy Birkhoff decomposition of a bistochastic matrix.

    Each round takes a bottleneck perfect matching of the residual's
    positive support, one whose least entry t is largest, and subtracts
    t along it.  Deterministic: cells of equal value are admitted
    together and free columns are matched in ascending order, so J_n
    starts with the identity.  A permutation matrix decomposes as
    itself; every round zeroes at least one entry, which no later round
    uses, so there are at most (n-1)^2 + 1 terms and they peel in order.

    The work is in integers: the residual starts as A's numerators over
    its scale, the least common multiple of its denominators, and stays
    an integer matrix; each round's coefficient is an integer over that
    scale and its permutation an image tuple, which is how the returned
    ``ConvexDecomposition`` stores them.
    One ``_Matching`` serves every round.  It holds the cells of residual
    at least t; the other positive cells wait in its ``pending`` heap.
    The residual only falls, so the bottleneck of the next round is at
    most t.  A round deletes the matched cells that fell below t (those
    still positive go back on the heap) and re-matches their columns; a
    search that fails admits the next group of equal-valued cells, lowers
    t to their value and runs again from the same column.  When every
    column is matched again, the matching's least entry is at least t and
    the bottleneck at most t: the round's coefficient is exactly t.
    """
    n = a.n
    scale = a.scale
    residual = [list(row) for row in a.numerators]
    matching = _Matching(n, (
        (-e, i, j) for i, row in enumerate(residual) for j, e in enumerate(row) if e > 0))
    pending = matching.pending
    remaining = scale
    coefs = []
    perms = []
    while remaining > 0:
        images = matching.images
        if images is None:
            raise RuntimeError("no perfect matching in the positive support")
        t = matching.threshold
        below = []
        for j, i in enumerate(images):
            row = residual[i]
            e = row[j] - t
            row[j] = e
            if e < t:
                below.append((i, j))
                if e:
                    heappush(pending, (-e, i, j))
        remaining -= t
        coefs.append(t)
        perms.append(tuple(images))
        matching.delete(below)
    if any(e != 0 for row in residual for e in row):
        raise RuntimeError("decomposition left a nonzero residual")
    return ConvexDecomposition._from_integers(scale, coefs, perms)


def reduce_linear(d: ConvexDecomposition) -> ConvexDecomposition:
    """Shrink to a linearly independent support, reconstructing the same matrix.

    Each round takes one integer dependency b of the support
    (``linalg._dependency``) and, with i0 the first index minimizing
    ``c_i / |b_i|`` over ``b_i != 0``, moves each c_k to
    ``c_k - c_i0 b_k / b_i0``: the matrix is unchanged, the weights stay
    nonnegative and sum to one (b sums to zero, see ``reduce_affine``),
    and c_i0 is zeroed.  On the integers that is ``c_k b_i0 - c_i0 b_k``
    over the scale times b_i0, made positive and reduced by the gcd.
    Zeroed terms are dropped until no dependency is left; independent
    input, such as every greedy decomposition, comes back unchanged.
    No ``terms`` are built.
    """
    beta = _dependency(d._images)
    if beta is None:
        return d
    scale, coefs, images = d._scale, d._coefs, d._images
    while beta is not None:
        i0 = None
        for i, b in enumerate(beta):
            if b and (i0 is None or coefs[i] * abs(beta[i0]) < coefs[i0] * abs(b)):
                i0 = i
        m, t = beta[i0], coefs[i0]
        if m < 0:
            m, t = -m, -t
        moved = [c * m - t * b for c, b in zip(coefs, beta)]
        images = [p for c, p in zip(moved, images) if c]
        coefs = [c for c in moved if c]
        g = gcd(scale * m, *coefs)
        scale = scale * m // g
        coefs = [c // g for c in coefs]
        beta = _dependency(images)
    return ConvexDecomposition._from_integers(scale, coefs, images)


def reduce_affine(d: ConvexDecomposition) -> ConvexDecomposition:
    """Shrink to an affinely independent support: this is ``reduce_linear``.

    For permutation matrices the two notions coincide.  If
    ``sum b_i P_i = 0``, summing all entries gives ``n sum b_i = 0``,
    because every permutation matrix has entry sum n; so every linear
    dependency is a zero-sum one, and an affinely independent set is
    linearly independent.
    """
    return reduce_linear(d)


class _Matching:
    """A perfect matching of the admitted cells, kept under deletions and admissions.

    ``cols[j]`` has bit i set when row i may serve column j.  ``images[j]``
    is the row of column j, ``col_of[i]`` the column of row i, and
    ``free_rows`` has bit i set while row i is unmatched; ``images`` is
    None once no perfect matching is left.

    ``pending`` is a heap of cells ``(-value, i, j)`` not yet admitted;
    its owner may push onto it between calls.  ``threshold`` is the value
    of the group last admitted from it (None before any), so for
    ``decompose`` the admitted cells are those of residual at least
    ``threshold``.

    Built with no cell admitted, matching each column in turn (Kuhn).
    ``delete`` unmatches the columns whose cells it removes and re-matches
    each, in ascending order, with one search through every column.  A
    search that fails proves that the admitted cells hold no perfect
    matching: every row it reached is matched to another column it
    reached (Hall).  It then admits the pending cells of the largest
    value, one group of equal value, and searches from the same column
    again; with nothing pending, ``images`` becomes None.  Only a cell
    joining a column the failed search reached to a row it did not reach
    can extend it, so a retry after a group with no such cell fails the
    same way and leaves everything as it was: it costs one search that
    stops where the last one did, and the groups are admitted in the same
    order as if the retry had waited for a joining cell.
    """

    __slots__ = ("cols", "images", "col_of", "free_rows", "pending", "threshold")

    def __init__(self, n: int, pending):
        self.cols = [0] * n
        self.images = [None] * n
        self.col_of = [None] * n
        self.free_rows = (1 << n) - 1
        self.pending = list(pending)
        heapify(self.pending)
        self.threshold = None
        self._match(range(n))

    def delete(self, cells) -> None:
        """Disallow each cell (i, j) of ``cells`` and re-match the columns that lost their row."""
        cols, images, col_of = self.cols, self.images, self.col_of
        freed = []
        for i, j in cells:
            cols[j] &= ~(1 << i)
            if images is not None and images[j] == i:
                images[j] = col_of[i] = None
                self.free_rows |= 1 << i
                freed.append(j)
        if images is not None:
            freed.sort()
            self._match(freed)

    def _match(self, free) -> None:
        """Match each free column in turn, admitting a pending group after each failed search."""
        cols, pending = self.cols, self.pending
        for c in free:
            while not self._augment(c):
                if not pending:
                    self.images = None
                    return
                key = pending[0][0]
                while pending and pending[0][0] == key:
                    _, i, j = heappop(pending)
                    cols[j] |= 1 << i
                self.threshold = -key

    def _augment(self, c0: int) -> bool:
        """Match the free column c0 along an augmenting path; whether one exists.

        A breadth-first search over alternating paths from c0; when one
        reaches a free row, every column on it moves to the row it
        reached and c0 is matched.  When no such path exists nothing
        changes.
        """
        cols, images, col_of = self.cols, self.images, self.col_of
        hit = cols[c0] & self.free_rows
        if hit:
            # the breadth-first search would stop at this row too
            low = hit & -hit
            self.free_rows ^= low
            i = low.bit_length() - 1
            images[c0] = i
            col_of[i] = c0
            return True
        seen = 0
        via = {}  # matched row -> the column that reached it
        queue = [c0]
        for c in queue:
            hit = cols[c] & ~seen
            seen |= hit
            while hit:
                low = hit & -hit
                hit ^= low
                i = low.bit_length() - 1
                d = col_of[i]
                if d is None:
                    self.free_rows ^= low
                    while True:
                        images[c], i = i, images[c]
                        col_of[images[c]] = c
                        if c == c0:
                            return True
                        c = via[i]
                via[i] = c
                queue.append(d)
        return False
