"""Exact Gaussian elimination over any field handle.

A field handle is any object exposing ``zero``, ``one``, ``coerce``,
``to_text``, ``from_text`` and ``_sum_products`` (see
:mod:`gabrec.exact_algebra`); entries only need the arithmetic operators.
:class:`Matrix` is an immutable container; the products recovery needs
live with the code (``gabrec.gabidulin``).  Elimination keeps every
intermediate value exact, so reduced forms, ranks and kernels are never
approximate.

There are two eliminations.  ``rref`` is Gauss-Jordan with one inverse per
pivot, each pivot row scaled before it clears its column; ``rank``,
``right_kernel`` and the code construction use it.  ``first_kernel_vector``
is Bareiss's fraction-free elimination, whose pivots are minors of the
matrix and grow linearly in height, and returns the first kernel vector at
Cramer scale: each entry is a minor.  It inverts only the pivots that a
later entry is divided by, all but the last two.  The decoder uses it for
its per-record kernel, where ``rref``'s scaled rows make every later pivot
a tall fraction.  Its vector divided by its last nonzero entry is the
first of ``right_kernel``, bit for bit.

``format_matrix`` writes a "rows cols" header and then the entries row by
row, whitespace-separated.  ``_read_matrix_text`` reads that layout back as
rows of tokens, which the command line's ``approx`` reads as decimal or
complex numbers.

``_dot`` is the package's one sum of products of elements: the decoder's
numerator table and each coefficient that its left division reads,
``encode``, the forward elimination and back substitution of
``first_kernel_vector``, ``SkewPoly.evaluate`` (the decoder's S v) and
each coefficient of ``SkewPoly.__mul__`` all call it.  The decoder's sums
c_e of a per-code vector against the twisted syndrome go through a per-code
integer table instead (``Tower._table_sums``), and the syndrome H word
through ``gabidulin._syndrome_nums`` on the word's numerators, each with
the same canonical result.  It drops the pairs with a zero factor.  Two products or more go to the
handle's ``_sum_products``, which works on numerators: every convolution
lands in one buffer over the lcm of the products' denominators, which
reduces once and ends in one gcd; over QQ it is a plain ``Fraction`` sum.
The sum is canonical, so it equals the term-by-term sum bit for bit.  Its
products never pass through the elements' ``__mul__``.  ``_dot`` stays out
of ``__all__``, whose functions the benchmark's tracer wraps.
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
        # the pivot column becomes exactly one and zero without arithmetic, and
        # a row's factor is negated once, so each entry is a product and a sum
        inv = _invert(rows[r][col])
        pivot = rows[r][col + 1 :] = [v * inv for v in rows[r][col + 1 :]]
        rows[r][col] = one
        for i, row in enumerate(rows):
            if i != r and row[col]:
                factor = -row[col]
                row[col + 1 :] = [a + factor * b for a, b in zip(row[col + 1 :], pivot)]
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
    """The first kernel vector of ``matrix`` at Cramer scale, or None at full column rank.

    Forward elimination is Bareiss's (Math. Comp. 1968).  The pivot row is
    chosen as ``rref`` chooses it.  At step k, with pivot d_k and a the
    entry of a lower row in column k, that row becomes
    (d_k * row - a * pivot_row) * d_(k-1)^(-1), where d_(-1) = 1 is no
    product; each new entry is one two-term ``_dot`` and one product.  A row
    with a = 0 is still scaled by d_k * d_(k-1)^(-1).  Otherwise it falls a
    step behind the other lower rows, and the next division is no longer
    exact.  Elimination stops at the first column f without a pivot.

    By Sylvester's identity, entry c >= i of pivot row i is then the
    (i+1)-by-(i+1) minor of the first i+1 rows chosen on columns 0..i-1 and
    c.  So d_k is their leading minor, and heights grow linearly in k.  On
    the decoder's B of a Q(zeta_23) recovery at t = 8 the pivots take 42,
    53, 64, 77, 88, 98, 108 and 116 bits from inputs of 45.  Cross-multiplied
    without division they doubled at each step, to 3469 bits.

    The division is paid when the row is read.  Step k leaves the
    numerators d_k * row - a * pivot_row, and step k + 1 searches them for
    its pivot: a zero test does not depend on the scale.  Only once it
    finds one does it invert d_(k-1) and divide the rows it reads.  So the
    lower rows of step f - 1 are never divided by d_(f-2): column f has no
    pivot and nothing reads them.  That happens whenever the matrix has
    more rows than f, as the decoder's square B at odd n - k does.

    Back substitution keeps that scale: v_f = d_(f-1), v_(f-1) = -R_(f-1,f),
    and v_i = -(sum_(i<c<=f) R_ic v_c) * d_i^(-1) for i = f-3 down to 0.  By
    Cramer's rule v_i is (-1)^(f-i) times the f-by-f minor of the rows
    chosen without column i, so no entry is a fraction over a norm.  At
    f = 0 the vector is e_0, with v_0 = ``field.one``, the empty minor.

    v_(f-2) needs no d_(f-2)^(-1), by Sylvester's identity.  Let (x, y) be
    the entries in columns f-1 and f of the row that step f-1 chooses, as
    they were before step f-2 updated it; that row may be swapped in from
    below, so they are kept by the row's identity.  In those columns row
    f-1 is (d_(f-2) * (x, y) - a * (R_(f-2,f-1), R_(f-2,f))) * d_(f-3)^(-1);
    substituted into the sum above, the terms in a cancel and d_(f-2)
    divides out: v_(f-2) = (R_(f-2,f-1) y - R_(f-2,f) x) * d_(f-3)^(-1),
    with no division at f = 2.  So exactly d_0 .. d_(f-3) are inverted,
    each once for both passes, and only the pivots that some product
    divides by.  d_(f-1) is v_f itself, and d_(f-2) is never read as a
    divisor.  On the decoder's t-by-(t+1) B that is max(0, t - 2) inverses.

    Divided by v_f, the vector is the first row of ``right_kernel(matrix)``,
    bit for bit.  Column j is a pivot exactly when it is not a combination
    of columns 0..j-1, and row operations keep every linear relation among
    the columns, so f is also the first free column of ``rref``.  Columns
    0..f-1 are independent, so the kernel vectors with support in 0..f are
    the multiples of one, and ``right_kernel`` builds the multiple with
    v_f = 1 from the reduced form.  Elements are canonical, so equal values
    are equal bits.  The decoder needs no v_f = 1 (``gabrec.gabidulin``).

    ``rref`` inverts each pivot and scales its row before eliminating.  In
    a number field a quotient carries the norm of its divisor in its
    denominator, so every later pivot is a tall fraction: on the decoder's
    key matrix over Q(zeta_7) with 2^64-height factors the second pivot
    reached 901/773 bits from inputs of at most 131.  ``right_kernel``
    keeps ``rref``, which gives every kernel vector.  On the generator of a
    Q(zeta_11) code, whose reduced entries stay at 2 bits, an elimination
    without division took 1.99 ms against 1.27 ms (``build_code`` +19%).
    """
    rows = [list(row) for row in matrix.entries]
    field = matrix.field
    inverses = []  # d_0^(-1), d_1^(-1), ...: each pivot that a later entry is divided by
    before = {}  # id of a lower row: its entries in columns f + 1, f + 2 before step f
    # every column before the first free one pivots, on the row of its own index
    for f in range(matrix.cols):
        # rows[f:] still owe the division by d_(f-2); a zero test does not need it
        pivot_row = next((i for i in range(f, matrix.rows) if rows[i][f]), None)
        if pivot_row is None:
            break
        rows[f], rows[pivot_row] = rows[pivot_row], rows[f]
        if f > 1:  # a pivot reads rows[f:], so the division is paid now
            inverse = _invert(rows[f - 2][f - 2])
            inverses.append(inverse)
            for row in rows[f:]:
                row[f:] = [x * inverse for x in row[f:]]
        pivot = rows[f]
        p = pivot[f]
        for row in rows[f + 1 :]:  # entries left of f + 1 are never read again
            before[id(row)] = row[f + 1 : f + 3]
            a = -row[f]
            row[f + 1 :] = [
                _dot(field, ((p, x), (a, y))) for x, y in zip(row[f + 1 :], pivot[f + 1 :])
            ]
    else:
        return None
    v = [field.zero] * matrix.cols
    if f == 0:
        v[0] = field.one
        return tuple(v)
    v[f], v[f - 1] = rows[f - 1][f - 1], -rows[f - 1][f]
    if f > 1:  # Sylvester's identity, on the row of d_(f-1) before step f - 2
        x, y = before[id(rows[f - 1])]
        row = rows[f - 2]
        minor = _dot(field, ((row[f - 1], y), (-row[f], x)))
        v[f - 2] = minor * inverses[f - 3] if f > 2 else minor
    for i in range(f - 3, -1, -1):
        row = rows[i]
        total = _dot(field, ((v[c], row[c]) for c in range(i + 1, f + 1)))
        v[i] = -(total * inverses[i])
    return tuple(v)


def _dot(field, pairs):
    """Sum of a * b over the pairs: the products of nonzero factors, summed by the handle.

    Two products or more go to ``field._sum_products``, which reduces and
    normalises the sum once.  One product is taken directly, and b itself
    when a is ``field.one`` itself, which an identity test finds: the
    constant one that ``msp`` starts from, evaluated at its first element,
    and a message or kernel vector e_0 built from that object.
    """
    terms = [(a, b) for a, b in pairs if a and b]
    if len(terms) > 1:
        return field._sum_products(terms)
    if not terms:
        return field.zero
    ((a, b),) = terms
    return b if a is field.one else a * b


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
