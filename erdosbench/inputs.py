"""Seeded inputs for the verify and decompose workloads.

The make-up of every workload is fixed (how many matrices of each kind
and size); the seed only draws their contents.  That keeps the work of a
round nearly constant across seeds while the inputs differ.  Inputs are
generated here, not by the package, so they stay the same when the
package changes.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle

# verify: (n, kind, count).  Each Erdos base matrix except J_n is given
# twice, with independently drawn row and column permutations.  The four
# n = 6 and four n = 8 inputs bracket the twelve n = 7 ones, so the median
# operation is a size-7 verification.
VERIFY_PLAN = (
    (6, "erdos-uniform", 1),
    (6, "erdos-half", 1),
    (6, "random", 1),
    (7, "erdos-identity", 1),
    (7, "erdos-sum", 2),
    (7, "erdos-half", 1),
    (7, "gap-max", 1),
    (7, "random", 3),
    (8, "erdos-sum", 1),
    (8, "gap-max", 1),
    (8, "random", 1),
)

# decompose: (n, kind, count); "random" sums 3n distinct permutations.  As
# many operations lie below the n = 10 group as above it, so the median
# operation is a size-10 decomposition.
DECOMPOSE_PLAN = (
    (8, "erdos-sum", 1),
    (9, "erdos-sum", 1),
    (10, "erdos-sum", 1),
    (11, "erdos-sum", 1),
    (12, "erdos-sum", 1),
    (8, "random", 2),
    (9, "random", 2),
    (10, "random", 10),
    (11, "random", 4),
    (12, "random", 5),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled(rng, n: int) -> list:
    p = list(range(n))
    rng.shuffle(p)
    return p


def random_combination(rng, n: int, terms: int) -> list:
    """A convex combination of distinct random permutations, weights 1..20."""
    perms = set()
    while len(perms) < terms:
        perms.add(tuple(_shuffled(rng, n)))
    perms = sorted(perms)
    raw = [rng.randint(1, 20) for _ in perms]
    total = sum(raw)
    return oracle.combine([Fraction(w, total) for w in raw], perms)


def erdos_block(rng, k: int) -> list:
    """A k x k Erdos matrix: I_k, J_k, (I + P)/2, or an n = 3 class."""
    choices = ["identity", "uniform", "half"] + (["n3"] if k == 3 else [])
    kind = rng.choice(choices)
    if kind == "identity":
        return oracle.identity(k)
    if kind == "uniform":
        return oracle.uniform(k)
    if kind == "half":
        return oracle.half_identity(oracle.cycle_type_perm(rng.choice(oracle.partitions(k))))
    return rng.choice(oracle.N3_CLASSES)


def erdos_sum(rng, n: int, largest: int = 4) -> list:
    """A direct sum of Erdos blocks of sizes 1..largest filling n."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(largest, n - sum(sizes))))
    return oracle.direct_sum([erdos_block(rng, k) for k in sizes])


def _base(rng, n: int, kind: str) -> list:
    if kind == "erdos-sum":
        return erdos_sum(rng, n)
    if kind == "erdos-half":
        parts = rng.choice([p for p in oracle.partitions(n) if p != (1,) * n])
        return oracle.half_identity(oracle.cycle_type_perm(parts))
    if kind == "erdos-identity":
        return oracle.identity(n)
    if kind == "erdos-uniform":
        return oracle.uniform(n)
    if kind == "gap-max":
        return oracle.gap_maximizer(n)
    if kind == "random":
        return random_combination(rng, n, 2 * n)
    raise ValueError(f"unknown input kind {kind!r}")


def verify_inputs(seed: int) -> list:
    """[{"name", "n", "kind", "erdos", "matrix"}] for the verify workload.

    ``erdos`` is True for inputs Erdos by construction.
    """
    rng = _rng("verify", seed)
    out = []
    for n, kind, count in VERIFY_PLAN:
        for _ in range(count):
            base = _base(rng, n, kind)
            copies = 2 if kind.startswith("erdos") and kind != "erdos-uniform" else 1
            for _ in range(copies):
                out.append({
                    "name": f"v{len(out):02d}-n{n}-{kind}",
                    "n": n,
                    "kind": kind,
                    "erdos": kind.startswith("erdos"),
                    "matrix": oracle.permute(base, _shuffled(rng, n), _shuffled(rng, n)),
                })
    return out


def decompose_inputs(seed: int) -> list:
    """[{"name", "n", "kind", "erdos", "matrix"}] for the decompose workload."""
    rng = _rng("decompose", seed)
    out = []
    for n, kind, count in DECOMPOSE_PLAN:
        for _ in range(count):
            if kind == "random":
                a = random_combination(rng, n, 3 * n)
            else:
                a = oracle.permute(erdos_sum(rng, n, largest=5),
                                   _shuffled(rng, n), _shuffled(rng, n))
            out.append({
                "name": f"d{len(out):02d}-n{n}-{kind}",
                "n": n,
                "kind": kind,
                "erdos": kind.startswith("erdos"),
                "matrix": a,
            })
    return out


def matrix_text(a) -> str:
    """The package's matrix file format: one row per line of rational literals."""
    return "\n".join(" ".join(row) for row in oracle.format_rows(a)) + "\n"
