"""Permutations of {0, ..., n-1} and their matrix interface.

One-line notation is 0-indexed internally and 1-indexed in display and
JSON, matching the usual cycle notation (12), (123) in rendering.
A permutation ``p`` corresponds to the 0/1 matrix with a one in row
``p(j)`` of column ``j`` (left multiplication), so the matrix of a
composition is the product of the matrices and the trace counts fixed
points.
"""

from __future__ import annotations

import itertools
import math
import operator

FULL_ENUMERATION_CAP = 8


class Permutation:
    """An element of S_n in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(map(operator.index, images))
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _unchecked(cls, images) -> "Permutation":
        """Wrap images known to be a permutation of 0..n-1, without the check.

        For callers whose images come from a matching they built themselves.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "images", tuple(images))
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, *cycles) -> "Permutation":
        """Build a permutation from 1-indexed cycles, e.g. ``(1, 2)``."""
        images = list(range(n))
        for cycle in cycles:
            pts = [p - 1 for p in cycle]
            if any(p < 0 or p >= n for p in pts) or len(set(pts)) != len(pts):
                raise ValueError(f"invalid cycle {cycle} for S_{n}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: ``(a * b)(i) = a(b(i))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: S_{self.n} vs S_{other.n}")
        return Permutation(self.images[j] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(inv)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return self.cycle_string()

    def one_indexed(self) -> tuple:
        """JSON form: the 1-indexed image list, e.g. ``[2, 1, 3]``."""
        return tuple(v + 1 for v in self.images)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def fixed_points(self) -> int:
        return sum(1 for i, v in enumerate(self.images) if v == i)

    def cycles(self) -> tuple:
        """Non-trivial cycles, 1-indexed, each starting at its smallest point."""
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def cycle_type(self) -> tuple:
        """Multiset of cycle lengths (fixed points included), sorted non-increasing."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.n - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def rank(self) -> int:
        """Index of the one-line notation in lexicographic order on S_n."""
        r = 0
        seen = 0
        n = self.n
        for i, v in enumerate(self.images):
            smaller = v - bin(seen & ((1 << v) - 1)).count("1")
            r += smaller * math.factorial(n - 1 - i)
            seen |= 1 << v
        return r

    def matrix(self):
        """The 0/1 permutation matrix with entry 1 at (p(j), j)."""
        from .linalg import BistochasticMatrix, _permutation_sum

        return BistochasticMatrix._from_numerators(1, _permutation_sum((1,), (self.images,)))


def agreement_count(a: Permutation, b: Permutation) -> int:
    """Number of points where two permutations agree.

    Equals the Frobenius inner product of their matrices and the number
    of fixed points of ``a.inverse() * b``.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: S_{a.n} vs S_{b.n}")
    return sum(1 for x, y in zip(a.images, b.images) if x == y)


def all_permutations(n: int) -> list:
    """All of S_n in lexicographic order of one-line notation.

    The position of a permutation in this list is its ``rank()``; the
    identity always comes first.  Capped because the list has n! entries.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > FULL_ENUMERATION_CAP:
        raise ValueError(f"full enumeration of S_{n} exceeds the cap of {FULL_ENUMERATION_CAP}")
    return [Permutation(p) for p in itertools.permutations(range(n))]


def partitions(n: int) -> list:
    """Integer partitions of n as non-increasing tuples, in descending lex order."""
    out = []
    _partitions_into(n, n, (), out)
    return out


def _partitions_into(remaining: int, largest: int, prefix: tuple, out: list) -> None:
    """Append to ``out`` each partition of ``remaining`` into parts of at
    most ``largest``, after ``prefix``.  A module-level recursion rather
    than a closure calling itself, so a call leaves no reference cycle."""
    if remaining == 0:
        out.append(prefix)
        return
    for part in range(min(largest, remaining), 0, -1):
        _partitions_into(remaining - part, part, prefix + (part,), out)


def conjugacy_class_reps(n: int) -> list:
    """One canonical representative per cycle type of S_n.

    The representative lays its cycles out left to right, longest first,
    on the smallest available points, so the class of cycle type (2, 2)
    in S_4 is represented by (1 2)(3 4).  The number of representatives
    is the partition count p(n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    reps = []
    for parts in partitions(n):
        images = list(range(n))
        next_pt = 0
        for length in parts:
            pts = list(range(next_pt, next_pt + length))
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
            next_pt += length
        reps.append(Permutation(images))
    return reps
