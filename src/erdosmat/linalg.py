"""Exact rational matrices and fraction-free linear algebra.

A ``Matrix`` holds its entries as integer numerators over one positive
scale, the least common multiple of their denominators; equal matrices
have equal numerators, and ``Fraction`` rows are built only when read.
Parsing, the bistochastic checks, arithmetic and every consumer in the
package (maximal trace, norms, decomposition, canonical forms) work on
the numerators.

Rank, determinant and kernel vectors run Bareiss-style fraction-free
elimination (``_forward_eliminate``) on integer rows; exact divisions
keep entries determinant-bounded.  Every square solve (``solve_integer``,
``solve``, ``inverse``) is one ``_solve_columns`` call: one elimination
of ``[a | columns]``, then an integer back substitution per column over
the last pivot d, the determinant, so d times the solution is an integer
vector (Cramer), every division is checked exact, and one ``Fraction``
is built per output coordinate.  Singularity is detected by a pivot
search finding only zeros, never by tolerance.  The one
checked division, ``_exact_div``, also serves the enumeration walk's
bordered Gram adjugate (``kernels._extend`` and
``kernels._bordered_adjugate``).

Independence of permutation matrices is decided the same way after a
peeling pass: a permutation that is the only one with a 1 in some cell
has a zero coefficient in every dependency, so it is set aside and only
the remaining core is eliminated, once, by ``_dependency``.  Linear and
affine independence are that one test, since every permutation matrix
has entry sum n.  Every ``sum c_k P_k`` is assembled on integers by
``_permutation_sum``.  A collection of permutations is checked by
``_image_tuples`` (type and dimension) and ``_distinct``, whose messages
every caller shares.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .perms import Permutation
from .rational import _RATIONAL_RE, as_rational, format_rational, parse_ratio


class SingularMatrixError(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


class MatrixParseError(ValueError):
    """Raised when matrix text input is malformed."""


class NotBistochasticError(ValueError):
    """Raised when a matrix fails the bistochastic checks."""


class Matrix:
    """Immutable matrix with exact rational entries.

    It holds the entries as integer numerators over one positive
    ``scale``, the least common multiple of their denominators, so equal
    matrices have equal numerators and compare and hash on them.  The
    ``Fraction`` rows are built on first use and kept.
    """

    __slots__ = ("_scale", "_nums", "_rows")

    def __init__(self, rows):
        data = tuple(tuple(as_rational(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        for i, row in enumerate(data):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        scale, flat = _common_denominator([e for row in data for e in row])
        nums = tuple(tuple(flat[k:k + width]) for k in range(0, len(flat), width))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_rows", data)
        self._validate()

    @classmethod
    def _from_numerators(cls, scale: int, nums):
        """The matrix with entries ``nums[i][j] / scale``, for ``scale > 0``.

        Reduces by the gcd of the scale and every numerator, which makes
        the scale the least common multiple of the entries' denominators.
        """
        nums = tuple(map(tuple, nums))
        g = gcd(scale, *(v for row in nums for v in row))
        if g != 1:
            scale //= g
            nums = tuple(tuple(v // g for v in row) for row in nums)
        m = object.__new__(cls)
        object.__setattr__(m, "_scale", scale)
        object.__setattr__(m, "_nums", nums)
        object.__setattr__(m, "_rows", None)
        m._validate()
        return m

    def _validate(self) -> None:
        """Subclass checks, run on the numerators by both constructors."""

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._from_numerators(1, _identity_rows(n))

    @property
    def scale(self) -> int:
        """The least common multiple of the entries' denominators."""
        return self._scale

    @property
    def numerators(self) -> tuple:
        """Integer rows: entry (i, j) is ``numerators[i][j] / scale``."""
        return self._nums

    @property
    def rows(self) -> tuple:
        rows = self._rows
        if rows is None:
            s = self._scale
            rows = tuple(tuple(Fraction(v, s) for v in row) for row in self._nums)
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def nrows(self) -> int:
        return len(self._nums)

    @property
    def ncols(self) -> int:
        return len(self._nums[0])

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self._scale == other._scale
            and self._nums == other._nums
        )

    def __hash__(self) -> int:
        return hash((self._scale, self._nums))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(e) for e in row) for row in self.rows)
        return f"{type(self).__name__}([{body}])"

    def flatten(self) -> tuple:
        return tuple(e for row in self.rows for e in row)

    def transpose(self) -> "Matrix":
        return Matrix._from_numerators(self._scale, zip(*self._nums))

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace requires a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self._nums)), self._scale)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        scale = lcm(self._scale, other._scale)
        a, b = scale // self._scale, scale // other._scale
        return Matrix._from_numerators(
            scale,
            [[a * x + b * y for x, y in zip(r1, r2)] for r1, r2 in zip(self._nums, other._nums)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
            cols = list(zip(*other._nums))
            return Matrix._from_numerators(
                self._scale * other._scale,
                [[sum(map(mul, row, col)) for col in cols] for row in self._nums],
            )
        try:
            s = as_rational(other)
        except TypeError:
            return NotImplemented
        return Matrix._from_numerators(
            self._scale * s.denominator,
            [[s.numerator * v for v in row] for row in self._nums],
        )

    def __rmul__(self, other):
        try:
            s = as_rational(other)
        except TypeError:
            return NotImplemented
        return self * s


class BistochasticMatrix(Matrix):
    """Square nonnegative matrix whose rows and columns each sum to 1.

    The checks run on the integer numerators, each row and column
    summing to the scale.
    """

    def _validate(self) -> None:
        # a Fraction is built only for an error message
        nums = self._nums
        scale = self._scale
        n = len(nums)
        if len(nums[0]) != n:
            raise NotBistochasticError(f"matrix is {n}x{len(nums[0])}, not square")
        for i, row in enumerate(nums):
            if min(row) < 0:
                j = next(j for j, e in enumerate(row) if e < 0)
                raise NotBistochasticError(
                    f"negative entry {format_rational(Fraction(row[j], scale))} "
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
        return BistochasticMatrix._from_numerators(1, _identity_rows(n))

    @staticmethod
    def uniform(n: int) -> "BistochasticMatrix":
        """J_n, the matrix all of whose entries are 1/n."""
        return BistochasticMatrix._from_numerators(n, [[1] * n for _ in range(n)])

    @staticmethod
    def combination(terms) -> "BistochasticMatrix":
        """sum c_i P_i over ``(c, P)`` terms, each P a ``Permutation`` of one size.

        Summed in integers over the least common denominator of the c_i.
        """
        terms = list(terms)
        if not terms:
            raise ValueError("combination needs at least one term")
        scale, coefs = _common_denominator([as_rational(c) for c, _ in terms])
        images = _image_tuples([p for _, p in terms])
        return BistochasticMatrix._from_numerators(scale, _permutation_sum(coefs, images))


def _common_denominator(values) -> tuple:
    """(scale, nums): the rationals ``values`` as integers over their least common denominator."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _permutation_sum(coefs, images) -> list:
    """Integer rows of ``sum_k coefs[k] P_k``, P_k with its ones at (images[k][j], j).

    ``images`` holds at least one image tuple, all of one length.
    """
    n = len(images[0])
    nums = [[0] * n for _ in range(n)]
    for c, p in zip(coefs, images):
        for j, i in enumerate(p):
            nums[i][j] += c
    return nums


def _identity_rows(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _exact_div(nums: list, d: int) -> list:
    """``[x // d for x in nums]``, raising unless every division is exact.

    Floor-division remainders all share the sign of ``d``, so they are
    all zero exactly when their sum is.
    """
    if d == 1:
        return nums
    q = [x // d for x in nums]
    if sum(nums) != d * sum(q):
        raise ArithmeticError("non-exact division in fraction-free elimination")
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
        tail = pivot_row[c:]
        for row in rows[r + 1:]:
            f = row[c]
            row[c:] = _exact_div([pv * x - f * y for x, y in zip(row[c:], tail)], prev)
        prev = pv
        pivots.append((r, c))
        r += 1
    return pivots, swaps


def rank(m: Matrix) -> int:
    """Rank over the rationals, computed exactly."""
    pivots, _ = _forward_eliminate([list(row) for row in m.numerators])
    return len(pivots)


def det(m: Matrix) -> Fraction:
    """Exact determinant."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError("determinant requires a square matrix")
    rows = [list(row) for row in m.numerators]
    pivots, swaps = _forward_eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    r, c = pivots[-1]
    value = -rows[r][c] if swaps % 2 else rows[r][c]
    return Fraction(value, m.scale ** n)


def _back_substitute(rows, n: int, rhs_col: int) -> tuple:
    """Integer back substitution on Bareiss-eliminated rows: (d, u) with solution u / d.

    Rows 0..n-1 have their pivots at (i, i), and column ``rhs_col`` holds
    the right-hand side b.  The last pivot d is the determinant of the
    (row-permuted) system, so by Cramer's rule d times the solution is an
    integer vector u, and
    u[i] = (d b[i] - sum_{i < j < n} rows[i][j] u[j]) / rows[i][i] divides
    exactly (checked; the last, d b[-1] / d, needs no division).  d is
    made positive.
    """
    d = rows[n - 1][n - 1]
    u = [0] * n
    u[-1] = rows[n - 1][rhs_col]
    for i in range(n - 2, -1, -1):
        row = rows[i]
        u[i], = _exact_div([d * row[rhs_col] - sum(map(mul, row[i + 1:n], u[i + 1:]))], row[i])
    if d < 0:
        return -d, [-v for v in u]
    return d, u


def _solve_columns(a, columns) -> tuple:
    """(d, us): ``a x = b`` solved as x = u / d for each integer vector b in ``columns``.

    ``a`` is a square list of integer rows.  One Bareiss elimination of
    ``[a | columns]`` serves every column, each is back-substituted by
    ``_back_substitute``, and all share the last pivot d, made positive.
    Raises ``SingularMatrixError`` unless the pivots are (i, i) for i < n.
    """
    n = len(a)
    rows = [list(row) + list(extra) for row, extra in zip(a, zip(*columns))]
    pivots, _ = _forward_eliminate(rows)
    if len(pivots) < n or any(c >= n for _, c in pivots):
        raise SingularMatrixError("matrix is singular")
    solved = [_back_substitute(rows, n, n + k) for k in range(len(columns))]
    return solved[0][0], [u for _, u in solved]


def solve_integer(a, b) -> tuple:
    """(d, u) with u / d the solution of the square integer system a x = b, d > 0.

    ``a`` is a nonsingular list of integer rows and ``b`` an integer
    vector; ``_solve_columns`` eliminates ``[a | b]`` with no ``Fraction``.
    """
    d, (u,) = _solve_columns(a, [b])
    return d, u


def solve(m: Matrix, rhs) -> tuple:
    """Exact solution of a square nonsingular system m x = rhs.

    For m = N / s and rhs = c / L, ``solve_integer`` solves N (L x) = s c.
    """
    n = m.nrows
    if m.ncols != n:
        raise ValueError(f"solve requires a square matrix, got {m.shape}")
    b = [as_rational(e) for e in rhs]
    if len(b) != n:
        raise ValueError(f"right-hand side has {len(b)} entries, expected {n}")
    lcd, c = _common_denominator(b)
    d, u = solve_integer(m.numerators, [m.scale * v for v in c])
    return tuple(Fraction(v, d * lcd) for v in u)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; m * inverse(m) is the identity exactly.

    For m = N / s, one ``_solve_columns`` call solves N X = s I.
    """
    n = m.nrows
    if m.ncols != n:
        raise ValueError(f"inverse requires a square matrix, got {m.shape}")
    s = m.scale
    d, cols = _solve_columns(m.numerators, [[s * v for v in row] for row in _identity_rows(n)])
    return Matrix._from_numerators(d, zip(*cols))


def kernel_vector(m: Matrix):
    """One exact nonzero kernel vector of m, or None if the kernel is trivial.

    Deterministic: the first free column (in order) is set to 1.
    """
    x = _integer_kernel_vector([list(row) for row in m.numerators], m.ncols)
    if x is None:
        return None
    d = next(v for v in reversed(x) if v)  # the first free column's entry
    return tuple(Fraction(v, d) for v in x)


def _integer_kernel_vector(rows, nc: int):
    """d > 0 times ``kernel_vector`` of the integer rows, or None; eliminates in place.

    The columns before the first free column f are the pivots (i, i), and
    those after it solve to 0, so x[:f] solves the leading f x f system
    against -column f, and d is its last pivot, put at f.
    """
    pivots, _ = _forward_eliminate(rows)
    pivot_cols = {c for _, c in pivots}
    f = next((c for c in range(nc) if c not in pivot_cols), None)
    if f is None:
        return None
    x = [0] * nc
    x[f] = 1
    if f:
        x[f], u = _back_substitute(rows, f, f)
        x[:f] = (-v for v in u)
    return x


def frobenius_inner(a: Matrix, b: Matrix) -> Fraction:
    """Exact Frobenius inner product, the sum of entrywise products."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    total = sum(sum(map(mul, r1, r2)) for r1, r2 in zip(a.numerators, b.numerators))
    return Fraction(total, a.scale * b.scale)


def _peel(images) -> list:
    """Indices of the permutations left once private entries are peeled off.

    ``images`` holds the permutations' image tuples, of one length n.
    Repeatedly removes a permutation that is the only remaining one with
    a 1 in some cell, until none is; the indices of the rest (the core)
    come back in input order.  Peeling in input order is tried first:
    when every permutation holds a cell that no later one uses, all of
    them peel off, and the test is one subset check and one union per
    permutation, on sets of cell numbers.  Greedy Birkhoff output always
    passes it.  Otherwise each cell keeps the set of remaining
    permutations through it, so the whole peel costs O(m n).
    """
    n = len(images[0])
    offsets = range(0, n * n, n)
    # cell (i, j) is numbered j * n + i
    cells = [set(map(add, p, offsets)) for p in images]
    if _peels_in_order(cells):
        return []
    through = [set() for _ in range(n * n)]
    for k, mine in enumerate(cells):
        for c in mine:
            through[c].add(k)
    alive = [True] * len(images)
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


def _peels_in_order(cells) -> bool:
    """Whether each cell set holds a cell that none of the later ones holds."""
    later = set()
    for mine in reversed(cells):
        if mine <= later:
            return False
        later |= mine
    return True


def _independent(images) -> bool:
    """Whether the permutation matrices with these image tuples are linearly independent."""
    return not images or _dependency(images) is None


def _dependency(images):
    """Integers b, not all zero, with ``sum_k b_k P_k = 0``; None when there are none.

    ``images`` holds image tuples of one length.  Peeling keeps the
    answer: a permutation alone on some cell has coefficient 0 in every
    dependency, as that cell's equation alone forces, so it gets 0 here and
    only the core is eliminated.  The core's entries are
    ``_integer_kernel_vector`` of its incidence system, one column per
    permutation: the dependency ending at the first permutation in the
    span of those before it.  No peeled permutation is in such a span, so
    this is the whole support's kernel vector, up to a positive factor.
    """
    core = _peel(images)
    if not core:
        return None
    n = len(images[0])
    rows = [[0] * len(core) for _ in range(n * n)]
    for k, c in enumerate(core):
        for j, i in enumerate(images[c]):
            rows[i * n + j][k] = 1
    x = _integer_kernel_vector(rows, len(core))
    if x is None:
        return None
    b = [0] * len(images)
    for k, v in zip(core, x):
        b[k] = v
    return b


def _image_tuples(perms) -> list:
    """The image tuples of ``perms``, which must be ``Permutation``s of one dimension."""
    images = []
    for p in perms:
        if not isinstance(p, Permutation):
            raise ValueError(f"term {p!r} is not a Permutation")
        images.append(p.images)
    _one_dimension(images)
    return images


def _one_dimension(images) -> None:
    """Raise ``ValueError`` unless the image tuples all have the length of the first."""
    for p in images:
        if len(p) != len(images[0]):
            raise ValueError(f"mixed dimensions: S_{len(images[0])} vs S_{len(p)}")


def _distinct(images) -> None:
    """Raise ``ValueError``, naming the first repeat, unless the image tuples are distinct."""
    seen = set()
    for p in images:
        if p in seen:
            raise ValueError(f"duplicate permutation {Permutation._unchecked(p)}")
        seen.add(p)


def linear_independent(perms) -> bool:
    """True when the flattened permutation matrices are linearly independent.

    Decided by ``_dependency`` on the core left by ``_peel``.  Greedy
    ``birkhoff.decompose`` output peels to nothing, since each of its
    terms is alone on the entry it zeroed.
    """
    return _independent(_image_tuples(perms))


def affine_independent(perms) -> bool:
    """True when no nonzero zero-sum coefficient vector annihilates the set.

    For permutation matrices this is linear independence, decided by the
    same test: every permutation matrix has entry sum n, so summing the
    entries of ``sum b_k P_k = 0`` gives ``n sum b_k = 0``, and every
    linear dependency already sums to zero.
    """
    return _independent(_image_tuples(perms))


def parse_matrix(text: str, bistochastic: bool = False) -> Matrix:
    """Parse the shared matrix text format.

    One row per line, entries as rational literals separated by
    whitespace; ``#`` begins a comment line and blank lines are ignored.
    Each line's tokens are matched against the literal grammar in one
    pass and read as ``(p, q)`` pairs, not reduced: the matrix is built
    from the numerators over the least common multiple of the q, and
    ``Matrix._from_numerators`` divides out their common gcd, which
    leaves the least common multiple of the reduced denominators.  A line
    with a bad token is read again token by token through
    ``rational.parse_ratio``, only to word the error.
    """
    fullmatch = _RATIONAL_RE.fullmatch
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        matches = list(map(fullmatch, tokens))
        if None in matches:
            _parse_error(lineno, tokens)
        try:
            ps = [int(m[1]) for m in matches]
            qs = [int(m[2] or 1) for m in matches]
        except ValueError:  # a literal with more digits than int() converts
            _parse_error(lineno, tokens)
        if 0 in qs:
            _parse_error(lineno, tokens)
        rows.append((lineno, ps, qs))
    if not rows:
        raise MatrixParseError("no matrix rows found in input")
    width = len(rows[0][1])
    for lineno, ps, _ in rows:
        if len(ps) != width:
            raise MatrixParseError(f"line {lineno}: {len(ps)} entries, expected {width}")
    scale = lcm(*{q for _, _, qs in rows for q in qs})
    nums = [[p * (scale // q) for p, q in zip(ps, qs)] for _, ps, qs in rows]
    return (BistochasticMatrix if bistochastic else Matrix)._from_numerators(scale, nums)


def _parse_error(lineno: int, tokens) -> None:
    """Raise the ``MatrixParseError`` for the first bad token of a line."""
    for col, token in enumerate(tokens, start=1):
        try:
            parse_ratio(token)
        except ValueError as exc:
            raise MatrixParseError(f"line {lineno}, entry {col}: {exc}") from exc
    raise AssertionError(f"line {lineno} has no bad token")


def format_matrix(m: Matrix) -> str:
    """Render a matrix in the shared text format (re-parses identically)."""
    cells = [[format_rational(e) for e in row] for row in m]
    widths = [max(len(cells[i][j]) for i in range(m.nrows)) for j in range(m.ncols)]
    return "\n".join(
        " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )
