"""Exact Gaussian elimination over any field handle.

A field handle is any object exposing ``zero``, ``one``, ``coerce``,
``to_text`` and ``from_text`` (see :mod:`gabrec.exact_algebra`); entries
only need the arithmetic operators.  :class:`Matrix` is an immutable
container; the products recovery needs live with the code
(``gabrec.gabidulin``).  Elimination keeps every intermediate value exact,
so reduced forms, ranks and kernels are never approximate.

There are two eliminations.  ``rref`` is Gauss-Jordan with one inverse per
pivot, each pivot row scaled before it clears its column; ``rank``,
``right_kernel`` and the code construction use it.  ``first_kernel_vector``
eliminates forward by cross-multiplying rows, with no division, and
inverts each pivot once in the back substitution; the decoder uses it for
its small per-record kernel, where ``rref``'s scaled rows make every later
pivot a tall fraction.  Both give the same kernel vector, bit for bit.

``format_matrix`` writes a "rows cols" header and then the entries row by
row, whitespace-separated.  ``_read_matrix_text`` reads that layout back as
rows of tokens, which the command line's ``approx`` reads as decimal or
complex numbers.

``_dot`` is the package's one sum of products.  It skips zero factors and
a factor that is ``field.one`` itself, the pivot both eliminations set.  It
stays out of ``__all__``, whose functions the benchmark's tracer wraps.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Matrix",
    "rref",
    "rank",
    "right_kernel",
    "first_kernel_vector",
    "format_matrix",
]


class Matrix:
    """Immutable dense matrix over a single declared field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows: Iterable[Iterable], cols: int | None = None):
        entries = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        if entries:
            width = len(entries[0])
            if cols not in (None, width) or any(len(row) != width for row in entries):
                raise ValueError("ragged rows")
            cols = width
        elif cols is None or cols < 0:
            raise ValueError("empty matrix needs a column count >= 0")
        self.field = field
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], cols=n)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.entries, self.cols))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def rref(matrix: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form; returns (R, rank, pivot column indices).

    Pivots take the first nonzero entry in column order, so the result is
    deterministic for a given input.
    """
    rows = [list(row) for row in matrix.entries]
    zero, one = matrix.field.zero, matrix.field.one
    pivots: list[int] = []
    r = 0
    for col in range(matrix.cols):
        pivot_row = next((i for i in range(r, matrix.rows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # the pivot row is zero left of col, so only columns col onwards change;
        # the pivot column becomes exactly one and zero without arithmetic
        inv = _invert(rows[r][col])
        pivot = rows[r][col + 1 :] = [v * inv for v in rows[r][col + 1 :]]
        rows[r][col] = one
        for i, row in enumerate(rows):
            if i != r and row[col]:
                factor = row[col]
                row[col + 1 :] = [a - factor * b for a, b in zip(row[col + 1 :], pivot)]
                row[col] = zero
        pivots.append(col)
        r += 1
        if r == matrix.rows:
            break
    reduced = Matrix(matrix.field, rows, cols=matrix.cols)
    return reduced, len(pivots), pivots


def _invert(value):
    if hasattr(value, "inverse"):
        return value.inverse()
    return 1 / value


def rank(matrix: Matrix) -> int:
    return rref(matrix)[1]


def right_kernel(matrix: Matrix) -> Matrix:
    """Basis of {v : M v^T = 0}, one vector per row; 0 rows for full column rank."""
    reduced, rk, pivots = rref(matrix)
    free = [j for j in range(matrix.cols) if j not in pivots]
    z, o = matrix.field.zero, matrix.field.one
    basis = []
    for f in free:
        vec = [z] * matrix.cols
        vec[f] = o
        for i, p in enumerate(pivots):
            vec[p] = -reduced.entries[i][f]
        basis.append(vec)
    return Matrix(matrix.field, basis, cols=matrix.cols)


def first_kernel_vector(matrix: Matrix) -> tuple | None:
    """The first row of ``right_kernel(matrix)``, or None at full column rank.

    Forward elimination without division, then one inverse per pivot.  The
    pivot row is chosen as ``rref`` chooses it, and each lower row becomes
    p * row - a * pivot_row, with p the pivot and a the row's entry in the
    pivot column.  Elimination stops at the first column f without a pivot.
    Back substitution sets v_f = ``field.one`` (that object) and, for
    i = f-1 down to 0, v_i = -(R_if + sum_(i<c<f) R_ic v_c) / R_ii.

    The vector equals the one ``rref`` gives, bit for bit.  Column j is a
    pivot exactly when it is not a combination of columns 0..j-1, and row
    operations keep every linear relation among the columns, so f is also
    the first free column of ``rref``.  Columns 0..f-1 are independent, so
    exactly one kernel vector has support in 0..f and v_f = 1;
    ``right_kernel`` builds that same vector from the reduced form.
    Elements are canonical, so equal values are equal bits.

    ``rref`` inverts each pivot and scales its row before eliminating.  In
    a number field a quotient carries the norm of its divisor in its
    denominator, so every later pivot is a tall fraction: on the decoder's
    key matrix over Q(zeta_7) with 2^64-height factors the second pivot
    reached 901/773 bits from inputs of at most 131.  Here no entry is
    divided until the back substitution, and the decoder's matrix has at
    most t+1 rows, so cross-multiplying stays cheap.  ``right_kernel``
    keeps ``rref``, because its other users lose by this elimination: on
    the generator of a Q(zeta_11) code, whose reduced entries stay at 2
    bits, it took 1.99 ms against 1.27 ms (``build_code`` +19%), and the
    tests' reference decoders solve n-row systems, where entries grow as
    2^(n-1) without division.  One batched inverse of the product of the
    pivots, in place of one inverse per pivot, saved less on the Q(zeta_7)
    recovery (-28% against -36%) and slowed the kummer:4 one by 7%.
    """
    rows = [list(row) for row in matrix.entries]
    field = matrix.field
    # every column before the first free one pivots, on the row of its own index
    for f in range(matrix.cols):
        pivot_row = next((i for i in range(f, matrix.rows) if rows[i][f]), None)
        if pivot_row is None:
            break
        rows[f], rows[pivot_row] = rows[pivot_row], rows[f]
        pivot = rows[f]
        p = pivot[f]
        for row in rows[f + 1 :]:
            a = row[f]
            if a:  # entries left of f + 1 are never read again
                row[f + 1 :] = [p * x - a * y for x, y in zip(row[f + 1 :], pivot[f + 1 :])]
    else:
        return None
    v = [field.zero] * matrix.cols
    v[f] = field.one
    for i in range(f - 1, -1, -1):
        row = rows[i]
        total = _dot(field, ((v[c], row[c]) for c in range(i + 1, f + 1)))
        v[i] = -(total * _invert(row[i]))
    return tuple(v)


def _dot(field, pairs):
    """Sum of a * b over the pairs, skipping zero factors; a = field.one multiplies nothing.

    The ones are the pivots that ``rref`` and ``first_kernel_vector`` set to
    ``field.one`` itself, so an identity test finds them.
    """
    one, total = field.one, None
    for a, b in pairs:
        if a and b:
            term = b if a is one else a * b
            total = term if total is None else total + term
    return field.zero if total is None else total


def format_matrix(matrix: Matrix) -> str:
    """Text form: a "rows cols" header, then one whitespace-separated row per line."""
    lines = [f"{matrix.rows} {matrix.cols}"]
    for row in matrix.entries:
        lines.append(" ".join(matrix.field.to_text(v) for v in row))
    return "\n".join(lines) + "\n"


def _read_matrix_text(text: str) -> tuple[int, list[list[str]]]:
    """The column count and the rows of entry tokens of the text form, header checked."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs a 'rows cols' header")
    if not (tokens[0].isdecimal() and tokens[1].isdecimal()):
        raise ValueError(f"bad matrix header {tokens[:2]!r}: need two counts >= 0")
    nrows, ncols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != nrows * ncols:
        raise ValueError(f"expected {nrows * ncols} entries, found {len(body)}")
    return ncols, [body[i * ncols : (i + 1) * ncols] for i in range(nrows)]
