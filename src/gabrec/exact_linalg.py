"""Exact Gaussian elimination over any field handle.

A field handle is any object exposing ``zero``, ``one``, ``coerce``,
``to_text`` and ``from_text`` (see :mod:`gabrec.exact_algebra`); entries
only need the arithmetic operators.  Elimination keeps every intermediate
value exact, so ranks, kernels and solutions are never approximate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["Matrix", "rref", "rank", "right_kernel", "solve", "format_matrix", "parse_matrix"]


class Matrix:
    """Immutable dense matrix over a single declared field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows: Iterable[Iterable], cols: int | None = None):
        entries = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        if entries:
            cols = len(entries[0])
            if any(len(row) != cols for row in entries):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.field = field
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], cols=n)

    def __getitem__(self, key) -> object:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        z = self.field.zero
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for l in range(self.cols):
                    acc = acc + self.entries[i][l] * other.entries[l][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out, cols=other.cols)

    def mul_vec(self, vec: Sequence) -> list:
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match {self.cols} columns")
        z = self.field.zero
        out = []
        for i in range(self.rows):
            acc = z
            for j, v in enumerate(vec):
                acc = acc + self.entries[i][j] * v
            out.append(acc)
        return out

    def scale(self, factor) -> "Matrix":
        factor = self.field.coerce(factor)
        return Matrix(
            self.field,
            [[factor * v for v in row] for row in self.entries],
            cols=self.cols,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return Matrix(
            self.field,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + other.scale(-self.field.one)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

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
    pivots: list[int] = []
    r = 0
    for col in range(matrix.cols):
        pivot_row = next((i for i in range(r, matrix.rows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _invert(rows[r][col])
        rows[r] = [v * inv for v in rows[r]]
        for i in range(matrix.rows):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
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


def solve(matrix: Matrix, rhs: Sequence) -> list | None:
    """A particular solution of M x = rhs with free variables pinned to zero.

    Returns None when the system is inconsistent.
    """
    rhs = [matrix.field.coerce(v) for v in rhs]
    if len(rhs) != matrix.rows:
        raise ValueError(f"right-hand side length {len(rhs)} does not match {matrix.rows} rows")
    augmented = Matrix(
        matrix.field,
        [list(row) + [rhs[i]] for i, row in enumerate(matrix.entries)],
        cols=matrix.cols + 1,
    )
    reduced, _, pivots = rref(augmented)
    if matrix.cols in pivots:
        return None
    z = matrix.field.zero
    x = [z] * matrix.cols
    for i, p in enumerate(pivots):
        x[p] = reduced.entries[i][matrix.cols]
    return x


def format_matrix(matrix: Matrix) -> str:
    """Text form: a "rows cols" header, then one whitespace-separated row per line."""
    lines = [f"{matrix.rows} {matrix.cols}"]
    for row in matrix.entries:
        lines.append(" ".join(matrix.field.to_text(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(field, text: str) -> Matrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs a 'rows cols' header")
    try:
        nrows, ncols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(f"bad matrix header {tokens[:2]!r}") from None
    body = tokens[2:]
    if len(body) != nrows * ncols:
        raise ValueError(f"expected {nrows * ncols} entries, found {len(body)}")
    rows = [
        [field.from_text(body[i * ncols + j]) for j in range(ncols)]
        for i in range(nrows)
    ]
    return Matrix(field, rows, cols=ncols)
