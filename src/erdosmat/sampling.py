"""Random exact bistochastic matrices for property tests and benchmarks.

Samples are convex combinations of uniformly chosen permutation matrices
with bounded-denominator rational simplex weights, so every sample is an
exact rational point of the Birkhoff polytope (no Sinkhorn, no floats).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import BistochasticMatrix
from .perms import Permutation


def random_permutation(n: int, rng) -> Permutation:
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def random_bistochastic(
    n: int, rng, max_terms: int | None = None, weight_bound: int = 20
) -> BistochasticMatrix:
    """A random convex combination of permutation matrices.

    ``rng`` is a ``random.Random``; the number of terms is uniform in
    1..max_terms (default 2n) and the weights are integers in
    1..weight_bound normalized by their sum.
    """
    k = rng.randint(1, max_terms if max_terms is not None else 2 * n)
    raw = [rng.randint(1, weight_bound) for _ in range(k)]
    total = sum(raw)
    perms = [random_permutation(n, rng) for _ in raw]
    return BistochasticMatrix.combination(
        (Fraction(w, total), p) for w, p in zip(raw, perms)
    )
