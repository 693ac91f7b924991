"""Exact rational matrices and fraction-free linear algebra.

Rank, solve and inverse run Bareiss-style fraction-free elimination on
integer-scaled rows (exact divisions, entries stay determinant-bounded),
followed by a rational back-substitution pass.  Singularity is detected
by a pivot search finding only zeros, never by tolerance.

Independence of permutation matrices is decided the same way after a
peeling pass: a permutation that is the only one with a 1 in some cell
has a zero coefficient in every dependency, so it is set aside and only
the remaining core is eliminated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rational import as_rational, format_rational


class SingularMatrixError(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


class MatrixParseError(ValueError):
    """Raised when matrix text input is malformed."""


class NotBistochasticError(ValueError):
    """Raised when a matrix fails the bistochastic checks."""


class Matrix:
    """Immutable matrix with exact rational entries."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        data = tuple(tuple(as_rational(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        for i, row in enumerate(data):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        object.__setattr__(self, "_rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def __getitem__(self, i: int) -> tuple:
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(e) for e in row) for row in self._rows)
        return f"{type(self).__name__}([{body}])"

    def flatten(self) -> tuple:
        return tuple(e for row in self._rows for e in row)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self._rows)))

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace requires a square matrix")
        return sum((self._rows[i][i] for i in range(self.nrows)), Fraction(0))

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self, other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
            cols = list(zip(*other._rows))
            return Matrix(
                [[_dot(row, col) for col in cols] for row in self._rows]
            )
        try:
            s = as_rational(other)
        except TypeError:
            return NotImplemented
        return Matrix([[s * e for e in row] for row in self._rows])

    def __rmul__(self, other):
        try:
            s = as_rational(other)
        except TypeError:
            return NotImplemented
        return self * s


class BistochasticMatrix(Matrix):
    """Square nonnegative matrix whose rows and columns each sum to 1.

    The checks run on the integer numerators of the entries over their
    least common denominator.
    """

    def __init__(self, rows):
        super().__init__(rows)
        n = self.nrows
        if self.ncols != n:
            raise NotBistochasticError(f"matrix is {n}x{self.ncols}, not square")
        # a Fraction is built only for an error message
        scale = lcm(*(e.denominator for row in self._rows for e in row))
        nums = [[e.numerator * (scale // e.denominator) for e in row] for row in self._rows]
        for i, row in enumerate(nums):
            if min(row) < 0:
                j = next(j for j, e in enumerate(row) if e < 0)
                raise NotBistochasticError(
                    f"negative entry {format_rational(self._rows[i][j])} "
                    f"at row {i + 1}, column {j + 1}"
                )
            total = sum(row)
            if total != scale:
                total = format_rational(Fraction(total, scale))
                raise NotBistochasticError(f"row {i + 1} sums to {total}, expected 1")
        for j, col in enumerate(zip(*nums)):
            total = sum(col)
            if total != scale:
                total = format_rational(Fraction(total, scale))
                raise NotBistochasticError(f"column {j + 1} sums to {total}, expected 1")

    @property
    def n(self) -> int:
        return self.nrows

    @staticmethod
    def identity(n: int) -> "BistochasticMatrix":
        return BistochasticMatrix([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def uniform(n: int) -> "BistochasticMatrix":
        """J_n, the matrix all of whose entries are 1/n."""
        e = Fraction(1, n)
        return BistochasticMatrix([[e] * n for _ in range(n)])

    @staticmethod
    def combination(terms) -> "BistochasticMatrix":
        """sum c_i P_i over ``(c, P)`` terms, each P a ``Permutation`` of one size.

        Summed in integers over the least common denominator of the c_i.
        """
        terms = [(as_rational(c), p) for c, p in terms]
        n = terms[0][1].n
        scale = lcm(*(c.denominator for c, _ in terms))
        nums = [[0] * n for _ in range(n)]
        for c, p in terms:
            k = c.numerator * (scale // c.denominator)
            for j, i in enumerate(p.images):
                nums[i][j] += k
        return BistochasticMatrix([[Fraction(e, scale) for e in row] for row in nums])


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _integer_rows(m: Matrix):
    """Per-row denominator clearing; returns (int rows, row scale factors)."""
    out = []
    scales = []
    for row in m:
        s = lcm(*(e.denominator for e in row))
        out.append([int(e * s) for e in row])
        scales.append(s)
    return out, scales


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q


def _forward_eliminate(rows):
    """Bareiss fraction-free forward elimination on integer rows, in place.

    Returns (pivots, swaps): pivot positions (row, col) in elimination
    order, and the number of row swaps performed.
    """
    nr = len(rows)
    nc = len(rows[0])
    pivots = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            swaps += 1
        pivot_row = rows[r]
        pv = pivot_row[c]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[c]
            new = [0] * nc
            for j in range(c, nc):
                new[j] = _exact_div(pv * row[j] - f * pivot_row[j], prev)
            rows[i] = new
        prev = pv
        pivots.append((r, c))
        r += 1
    return pivots, swaps


def rank(m: Matrix) -> int:
    """Rank over the rationals, computed exactly."""
    rows, _ = _integer_rows(m)
    pivots, _ = _forward_eliminate(rows)
    return len(pivots)


def det(m: Matrix) -> Fraction:
    """Exact determinant."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError("determinant requires a square matrix")
    rows, scales = _integer_rows(m)
    pivots, swaps = _forward_eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    r, c = pivots[-1]
    value = Fraction(rows[r][c])
    if swaps % 2:
        value = -value
    for s in scales:
        value /= s
    return value


def _back_substitute(rows, n, rhs_col):
    """Solve the upper-triangular integer system for one augmented column."""
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(rows[i][rhs_col])
        for j in range(i + 1, n):
            s -= rows[i][j] * x[j]
        x[i] = s / rows[i][i]
    return x


def solve(m: Matrix, rhs) -> tuple:
    """Exact solution of a square nonsingular system m x = rhs."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError(f"solve requires a square matrix, got {m.shape}")
    b = [as_rational(e) for e in rhs]
    if len(b) != n:
        raise ValueError(f"right-hand side has {len(b)} entries, expected {n}")
    aug = Matrix([list(row) + [b[i]] for i, row in enumerate(m)])
    rows, _ = _integer_rows(aug)
    pivots, _ = _forward_eliminate(rows)
    if len(pivots) < n or any(c >= n for _, c in pivots):
        raise SingularMatrixError("matrix is singular")
    return tuple(_back_substitute(rows, n, n))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; m * inverse(m) is the identity exactly."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError(f"inverse requires a square matrix, got {m.shape}")
    aug = Matrix([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    rows, _ = _integer_rows(aug)
    pivots, _ = _forward_eliminate(rows)
    if len(pivots) < n or any(c >= n for _, c in pivots):
        raise SingularMatrixError("matrix is singular")
    cols = [_back_substitute(rows, n, n + k) for k in range(n)]
    return Matrix(list(zip(*cols)))


def solve_tall(m: Matrix, rhs) -> tuple:
    """Exact solution of a consistent full-column-rank system m x = rhs.

    The matrix may have more rows than columns; raises ValueError when
    the system is inconsistent or the columns are dependent.
    """
    nr, nc = m.shape
    b = [as_rational(e) for e in rhs]
    if len(b) != nr:
        raise ValueError(f"right-hand side has {len(b)} entries, expected {nr}")
    aug = Matrix([list(row) + [b[i]] for i, row in enumerate(m)])
    rows, _ = _integer_rows(aug)
    pivots, _ = _forward_eliminate(rows)
    if any(c >= nc for _, c in pivots):
        raise ValueError("system is inconsistent")
    if len(pivots) < nc:
        raise ValueError("matrix does not have full column rank")
    return tuple(_back_substitute(rows, nc, nc))


def kernel_vector(m: Matrix):
    """One exact nonzero kernel vector of m, or None if the kernel is trivial.

    Deterministic: the first free column (in order) is set to 1.
    """
    rows, _ = _integer_rows(m)
    pivots, _ = _forward_eliminate(rows)
    nc = m.ncols
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(nc) if c not in pivot_cols]
    if not free:
        return None
    x = [Fraction(0)] * nc
    x[free[0]] = Fraction(1)
    for r, c in reversed(pivots):
        s = Fraction(0)
        for j in range(c + 1, nc):
            s += rows[r][j] * x[j]
        x[c] = -s / rows[r][c]
    return tuple(x)


def frobenius_inner(a: Matrix, b: Matrix) -> Fraction:
    """Exact Frobenius inner product, the sum of entrywise products."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return sum((x * y for r1, r2 in zip(a, b) for x, y in zip(r1, r2)), Fraction(0))


def _peel(perms) -> list:
    """Indices of the permutations left once private entries are peeled off.

    Repeatedly removes a permutation that is the only remaining one with
    a 1 in some cell, until none is; the indices of the rest (the core)
    come back in input order.  Each cell keeps the set of remaining
    permutations through it, so the whole peel costs O(m n).
    """
    n = perms[0].n
    through = [set() for _ in range(n * n)]
    cells = []
    for k, p in enumerate(perms):
        if p.n != n:
            raise ValueError(f"mixed dimensions: S_{n} vs S_{p.n}")
        mine = [i * n + j for j, i in enumerate(p.images)]
        cells.append(mine)
        for c in mine:
            through[c].add(k)
    alive = [True] * len(perms)
    lonely = [c for c, ks in enumerate(through) if len(ks) == 1]
    while lonely:
        ks = through[lonely.pop()]
        if len(ks) != 1:
            continue
        k = ks.pop()
        alive[k] = False
        for c in cells[k]:
            ks = through[c]
            ks.discard(k)
            if len(ks) == 1:
                lonely.append(c)
    return [k for k, a in enumerate(alive) if a]


def _independent(perms, extra) -> bool:
    """Whether the flattenings, each followed by ``extra`` if given, are independent.

    Peeling keeps the answer: if a permutation is the only one with a 1 in
    some cell, that cell's equation alone forces its coefficient to zero in
    any annihilating vector, so the set is independent exactly when the
    rest is.  Bareiss elimination then runs on the core only.
    """
    perms = list(perms)
    if not perms:
        return True
    core = _peel(perms)
    if not core:
        return True
    n = perms[0].n
    rows = []
    for k in core:
        row = [0] * (n * n)
        for j, i in enumerate(perms[k].images):
            row[i * n + j] = 1
        if extra is not None:
            row.append(extra)
        rows.append(row)
    pivots, _ = _forward_eliminate(rows)
    return len(pivots) == len(rows)


def linear_independent(perms) -> bool:
    """True when the flattened permutation matrices are linearly independent.

    Decided on the core left by ``_peel``: a permutation alone on a cell
    has a zero coefficient in every dependency, so removing it changes
    nothing.  Greedy ``birkhoff.decompose`` output peels to nothing,
    since each of its terms is alone on the entry it zeroed.
    """
    return _independent(perms, None)


def affine_independent(perms) -> bool:
    """True when no nonzero zero-sum coefficient vector annihilates the set.

    Equivalent to linear independence of the flattenings augmented with a
    constant coordinate 1.  The peeling argument of ``linear_independent``
    holds unchanged, since it reads only the cell coordinates, so the
    augmented elimination runs on the peeled core alone.
    """
    return _independent(perms, 1)


def parse_matrix(text: str, bistochastic: bool = False) -> Matrix:
    """Parse the shared matrix text format.

    One row per line, entries as rational literals separated by
    whitespace; ``#`` begins a comment line and blank lines are ignored.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries = []
        for col, token in enumerate(line.split(), start=1):
            try:
                entries.append(as_rational(token))
            except ValueError as exc:
                raise MatrixParseError(f"line {lineno}, entry {col}: {exc}") from exc
        rows.append((lineno, entries))
    if not rows:
        raise MatrixParseError("no matrix rows found in input")
    width = len(rows[0][1])
    for lineno, entries in rows:
        if len(entries) != width:
            raise MatrixParseError(
                f"line {lineno}: {len(entries)} entries, expected {width}"
            )
    data = [entries for _, entries in rows]
    return BistochasticMatrix(data) if bistochastic else Matrix(data)


def format_matrix(m: Matrix) -> str:
    """Render a matrix in the shared text format (re-parses identically)."""
    cells = [[format_rational(e) for e in row] for row in m]
    widths = [max(len(cells[i][j]) for i in range(m.nrows)) for j in range(m.ncols)]
    return "\n".join(
        " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )
