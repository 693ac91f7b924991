"""Exact maximal trace over permutations and the Marcus-Ree gap.

The maximal trace of a square matrix A is the largest Frobenius inner
product <A, P> over permutation matrices P, an assignment-problem
optimum.  For bistochastic A it dominates the squared Frobenius norm
(Marcus-Ree); the matrices attaining equality are the Erdos matrices.

Witnesses are reported as the permutations whose matrices attain the
value, i.e. p with sum_j A[p(j), j] equal to the maximal trace.

Both sides of the comparison are read off the matrix's integer
numerators W over its scale s, the least common multiple of its
denominators, with one ``Fraction`` per result.  The squared Frobenius
norm is sum W_ij^2 / s^2.  The maximal trace comes from one exact
integer routine: Kuhn-Munkres runs on W over Python ints and returns
an optimal assignment and dual potentials u (rows) and v (columns).
Before the result is used the dual certificate is checked: u_i + v_j >=
W_ij for every i, j, and sum(u) + sum(v) equals the assignment's value.
By weak duality no permutation then exceeds that value, so the answer is
proven rather than trusted; a failed check raises ``ArithmeticError``.

By complementary slackness a permutation attains the maximal trace
exactly when every one of its edges is tight (u_i + v_j = W_ij), so the
complete witness set is the set of perfect matchings of the tight-edge
subgraph.  They are listed by a depth-first search over columns 0..n-1,
trying rows in ascending order, which yields the witnesses in
lexicographic order of their one-line images, the order of the
brute-force scan over S_n.  Full listing stops at n = ``BRUTE_CAP``
(8), where the witness count is at most 8! = 40,320; beyond it one
witness is returned.  Both searches yield permutations by construction
(``_certify`` checks the Kuhn-Munkres one), so witnesses are wrapped as
``Permutation`` without re-validating each one.  The brute-force scan
over Fractions is kept as the independent oracle the tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .linalg import BistochasticMatrix, Matrix
from .perms import Permutation

BRUTE_CAP = 8


@dataclass(frozen=True)
class MaxTraceCertificate:
    """Maximal trace value plus witnessing permutations.

    ``complete`` is True when every witness is listed.  ``algorithm``
    names what ran: ``brute`` (the scan over S_n), ``hungarian`` (the
    certified Kuhn-Munkres optimum, one witness) or ``hungarian-tight``
    (the same, plus every perfect matching of its tight edges).
    """

    value: Fraction
    witnesses: tuple
    complete: bool
    algorithm: str

    @property
    def witness(self) -> Permutation:
        return self.witnesses[0]


def frobenius_sq(a: Matrix) -> Fraction:
    """Exact sum of squared entries: one integer sum over ``scale**2``."""
    return Fraction(sum(v * v for row in a.numerators for v in row), a.scale ** 2)


def max_trace(a: Matrix, method: str = "auto") -> MaxTraceCertificate:
    """Exact maximal trace of a square matrix.

    method: ``brute`` (all n! permutations over Fractions, every witness,
    n <= 8), ``hungarian`` (certified integer Kuhn-Munkres, one witness),
    or ``auto`` (the same certified optimum, with every witness listed
    from the tight edges of its dual up to n = 8 and one witness beyond).
    Complete witness lists are in lexicographic order of their images,
    identical for ``auto`` and ``brute``.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError("maximal trace requires a square matrix")
    if method == "brute":
        if n > BRUTE_CAP:
            raise ValueError(
                f"brute-force maximal trace is capped at n={BRUTE_CAP}, got {n}"
            )
        value, witnesses = _brute_max(a)
        return MaxTraceCertificate(value, witnesses, True, "brute")
    if method not in ("auto", "hungarian"):
        raise ValueError(f"unknown method {method!r}")
    w = a.numerators
    images, u, v = _kuhn_munkres(w)
    value = Fraction(_certify(w, images, u, v), a.scale)
    if method == "auto" and n <= BRUTE_CAP:
        witnesses = tuple(map(Permutation._unchecked, _tight_matchings(w, u, v)))
        return MaxTraceCertificate(value, witnesses, True, "hungarian-tight")
    return MaxTraceCertificate(value, (Permutation._unchecked(images),), False, "hungarian")


def delta(a: Matrix) -> Fraction:
    """The Marcus-Ree gap maxTr(A) - ||A||_F^2; zero exactly on Erdos matrices.

    It reads only the certified Kuhn-Munkres value and lists no witness.
    """
    return max_trace(a, method="hungarian").value - frobenius_sq(a)


def is_erdos(a: Matrix):
    """Whether the maximal trace equals the squared Frobenius norm exactly.

    Returns (verdict, certificate).
    """
    cert = max_trace(a)
    return cert.value == frobenius_sq(a), cert


def max_delta_matrix(n: int) -> BistochasticMatrix:
    """The unique (up to equivalence) maximizer of the gap: 1/2 I_n + 1/2 J_n.

    Its gap is (n - 1)/4, the largest possible in dimension n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return BistochasticMatrix._from_numerators(
        2 * n, [[n + 1 if i == j else 1 for j in range(n)] for i in range(n)]
    )


def _brute_max(a: Matrix):
    """(value, witnesses) by scanning S_n in lexicographic order, over Fractions."""
    n = a.nrows
    cols = [tuple(a[i][j] for i in range(n)) for j in range(n)]
    best = None
    found = []
    for images in permutations(range(n)):
        v = sum(map(tuple.__getitem__, cols, images), Fraction(0))
        if best is None or v > best:
            best = v
            found = [images]
        elif v == best:
            found.append(images)
    return best, tuple(Permutation(p) for p in found)


def _kuhn_munkres(w):
    """Max-weight assignment of the integer matrix ``w`` with its dual.

    Returns (images, u, v): images[j] is the row assigned to column j, and
    the potentials satisfy u[i] + v[j] >= w[i][j] with equality on the
    assignment.  Shortest-augmenting-path formulation on the costs -w,
    over Python ints; None plays the role of infinity.
    """
    n = len(w)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = w[i0 - 1]
            best = None
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = -row[j - 1] - u[i0] - v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if best is None or minv[j] < best:
                    best = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += best
                    v[j] -= best
                elif minv[j] is not None:
                    minv[j] -= best
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    images = [p[j] - 1 for j in range(1, n + 1)]
    return images, [-x for x in u[1:]], [-x for x in v[1:]]


def _certify(w, images, u, v) -> int:
    """The assignment's value, once the dual certificate proves it maximal.

    Raises ArithmeticError unless ``images`` is a permutation, every
    u[i] + v[j] >= w[i][j], and sum(u) + sum(v) equals the value of
    ``images``; together these exclude any permutation of larger value.
    """
    n = len(w)
    if sorted(images) != list(range(n)):
        raise ArithmeticError(f"Kuhn-Munkres returned a non-permutation {images}")
    for i in range(n):
        ui = u[i]
        row = w[i]
        for j in range(n):
            if ui + v[j] < row[j]:
                raise ArithmeticError(f"dual potentials infeasible at ({i}, {j})")
    total = sum(w[images[j]][j] for j in range(n))
    if sum(u) + sum(v) != total:
        raise ArithmeticError(
            f"dual objective {sum(u) + sum(v)} differs from assignment value {total}"
        )
    return total


def _tight_matchings(w, u, v) -> list:
    """Every perfect matching of the tight edges u[i] + v[j] == w[i][j].

    Column by column with rows tried in ascending order, so the image
    tuples come out in lexicographic order.  The completions of columns
    j.. depend only on j and the set of rows the earlier columns took, so
    ``_completions`` builds each such list once and shares it.
    """
    n = len(w)
    tight = [[i for i in range(n) if u[i] + v[j] == w[i][j]] for j in range(n)]
    return _completions(tight, 0, 0, {})


def _completions(tight, j, used: int, memo: dict) -> list:
    """The image tuples of columns j.. by tight edges, avoiding the rows in ``used``.

    ``used`` is a bitmask of rows and ``memo`` maps ``(j, used)`` to the
    list already built.  A module-level recursion rather than a closure
    calling itself, so a call leaves no reference cycle for the collector.
    """
    key = (j, used)
    found = memo.get(key)
    if found is None:
        if j == len(tight):
            found = [()]
        else:
            found = []
            for i in tight[j]:
                bit = 1 << i
                if not used & bit:
                    head = (i,)
                    for rest in _completions(tight, j + 1, used | bit, memo):
                        found.append(head + rest)
        memo[key] = found
    return found
