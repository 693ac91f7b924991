"""Gram systems of permutation collections and the candidate pipeline.

For a linearly independent collection P_1..P_m of permutation matrices,
the Gram matrix M with M[i][j] = <P_i, P_j>_F (the agreement count of
the two permutations) is positive definite.  The unique candidate weight
vector is x = M^-1 1 / <1, M^-1 1>; when x is nonnegative, A = sum x_i P_i
is bistochastic, and A is an Erdos matrix exactly when its maximal trace
over all of S_n equals the common value <Mx, x>.  The final maximal-trace
check is not redundant: x only guarantees equal inner products against
the chosen P_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import eq, mul

from .assignment import MaxTraceCertificate, is_erdos
from .linalg import BistochasticMatrix, _distinct, _image_tuples, _independent, solve_integer
from .perms import Permutation, conjugacy_class_reps
from .rational import format_rational

INDEP_LINEAR = "linear"
INDEP_DEPENDENT = "dependent"

STATUS_OK = "ok"
REJECT_DEPENDENT = "dependent"
REJECT_NEGATIVE = "negative_weight"
REJECT_MAXTR = "maxtr_exceeded"


@dataclass(frozen=True)
class GramSystem:
    """A distinct permutation collection with its integer Gram matrix."""

    perms: tuple
    gram: tuple
    independence: str

    @property
    def m(self) -> int:
        return len(self.perms)

    @property
    def n(self) -> int:
        return self.perms[0].n


@dataclass(frozen=True)
class CandidateSolution:
    """Solution of M x = <Mx, x> 1 with coordinates summing to one."""

    x: tuple
    common_value: Fraction
    nonneg: bool


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of the candidate pipeline on one permutation collection.

    ``status`` is ``ok`` or one of the machine-readable rejection reasons
    ``dependent`` / ``negative_weight`` / ``maxtr_exceeded``; rejections
    are normal pruned outcomes, not errors.  ``matrix`` and
    ``certificate`` are set only when the status is ``ok``.
    """

    status: str
    gram: GramSystem
    solution: CandidateSolution | None
    matrix: BistochasticMatrix | None
    certificate: MaxTraceCertificate | None

    @property
    def accepted(self) -> bool:
        return self.status == STATUS_OK


def build_gram(perms) -> GramSystem:
    """Gram matrix of a collection plus its independence classification.

    The collection is checked once, through its image tuples, and both
    the agreement counts and the independence test read those tuples.
    Linear and affine independence coincide for permutation matrices (see
    ``birkhoff.reduce_linear``), so one elimination classifies the set.
    """
    perms = tuple(perms)
    images = _image_tuples(perms)
    if not images:
        raise ValueError("need at least one permutation")
    _distinct(images)
    gram = tuple(tuple(sum(map(eq, a, b)) for b in images) for a in images)
    independence = INDEP_LINEAR if _independent(images) else INDEP_DEPENDENT
    return GramSystem(perms, gram, independence)


def solve_candidate(g: GramSystem) -> CandidateSolution:
    """The unique normalized solution of M x = <Mx, x> 1 for an independent set.

    M u = d 1 is solved in integers (``linalg.solve_integer``, d > 0), so
    x = u / sum(u) and <Mx, x> = d / sum(u); ``M u == d 1`` is checked on
    the integers before any ``Fraction`` is built.
    """
    if g.independence != INDEP_LINEAR:
        raise ValueError("collection is not linearly independent")
    gram_rows = g.gram
    d, u = solve_integer(gram_rows, [1] * len(gram_rows))
    if any(sum(map(mul, row, u)) != d for row in gram_rows):
        raise RuntimeError("internal consistency fault: Mx is not constant")
    s = sum(u)
    if s <= 0:
        raise RuntimeError("Gram system of an independent set must be positive definite")
    x = tuple(Fraction(v, s) for v in u)
    return CandidateSolution(x, Fraction(d, s), all(v >= 0 for v in u))


def assemble(g: GramSystem, sol: CandidateSolution) -> BistochasticMatrix:
    """The bistochastic matrix sum x_i P_i of a nonnegative candidate."""
    if not sol.nonneg:
        bad = next(v for v in sol.x if v < 0)
        raise ValueError(f"negative coordinate {format_rational(bad)} in candidate")
    return BistochasticMatrix.combination(zip(sol.x, g.perms))


def pipeline(perms) -> PipelineResult:
    """Run a collection through solve, assembly and the Erdos verdict."""
    g = build_gram(perms)
    if g.independence != INDEP_LINEAR:
        return PipelineResult(REJECT_DEPENDENT, g, None, None, None)
    sol = solve_candidate(g)
    if not sol.nonneg:
        return PipelineResult(REJECT_NEGATIVE, g, sol, None, None)
    a = assemble(g, sol)
    verdict, cert = is_erdos(a)
    if not verdict:
        return PipelineResult(REJECT_MAXTR, g, sol, None, None)
    return PipelineResult(STATUS_OK, g, sol, a, cert)


def half_identity_family(n: int) -> list:
    """The Erdos matrices (I_n + P)/2, one per conjugacy class of S_n.

    Two such matrices are equivalent exactly when the permutations are
    conjugate, so conjugacy class representatives give p(n) pairwise
    non-equivalent matrices.  Each is verified on construction; the
    squared norm is (n + d)/2 with d the number of fixed points of P.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    half = Fraction(1, 2)
    out = []
    identity = Permutation.identity(n)
    for p in conjugacy_class_reps(n):
        a = BistochasticMatrix.combination([(half, identity), (half, p)])
        verdict, cert = is_erdos(a)
        expected = Fraction(n + p.fixed_points(), 2)
        if not verdict or cert.value != expected:
            raise RuntimeError(f"half-identity matrix for {p} failed verification")
        out.append(a)
    return out


def count_bound(n: int) -> tuple:
    """Exact binomial-sum bounds on the number of Erdos matrices in dimension n.

    Returns (total_bound, equivalence_bound): the count of all Erdos
    matrices is at most sum_{j=1}^{(n-1)^2+1} C(n!, j), and the count up
    to equivalence at most sum_{j=0}^{(n-1)^2} C(n!-1, j).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    d = (n - 1) ** 2
    fact = factorial(n)
    total = sum(comb(fact, j) for j in range(1, d + 2))
    equivalence = sum(comb(fact - 1, j) for j in range(0, d + 1))
    return total, equivalence
