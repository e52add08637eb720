"""Exact elimination: reduced echelon form, kernels, and linear solving."""

import random
from fractions import Fraction

import pytest

from conftest import mul_vec, rand_element, reference_det, solve, zero_matrix
from gabrec import Matrix, QQ, format_matrix, make_tower, rank, right_kernel, rref
from gabrec import exact_linalg
from gabrec.exact_linalg import _read_matrix_text, first_kernel_vector


def qq_matrix(rows):
    return Matrix(QQ, rows, cols=len(rows[0]) if rows else 0)


def rand_qq_matrix(rng, rows, cols, height=9):
    return qq_matrix([[rng.randint(-height, height) for _ in range(cols)] for _ in range(rows)])


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    reduced, rk, pivots = rref(m)
    assert reduced == m
    assert rk == 3
    assert pivots == [0, 1, 2]
    empty = Matrix.identity(QQ, 0)
    assert empty.shape == (0, 0)
    assert rref(empty)[1] == 0


def test_rref_zero_matrix():
    m = zero_matrix(QQ, 2, 3)
    reduced, rk, pivots = rref(m)
    assert reduced == m
    assert rk == 0
    assert pivots == []


def test_rref_proportional_rows():
    m = qq_matrix([[1, 2], [2, 4]])
    reduced, rk, _ = rref(m)
    assert rk == 1
    assert reduced == qq_matrix([[1, 2], [0, 0]])


def test_rref_normalizes_pivots():
    m = qq_matrix([[0, 2, 4], [3, 3, 3]])
    reduced, rk, pivots = rref(m)
    assert rk == 2 and pivots == [0, 1]
    assert reduced == qq_matrix([[1, 0, -1], [0, 1, 2]])


def test_right_kernel_single_row():
    kernel = right_kernel(qq_matrix([[1, 1]]))
    assert kernel.shape == (1, 2)
    (v,) = kernel.entries
    assert v[1] != 0 and v[0] == -v[1]


def test_right_kernel_full_rank():
    kernel = right_kernel(Matrix.identity(QQ, 4))
    assert kernel.shape == (0, 4)


def test_right_kernel_annihilates(zeta5, kummer4):
    rng = random.Random(0)

    def check(m):
        kernel = right_kernel(m)
        assert kernel.rows + rank(m) == m.cols
        for row in kernel.entries:
            assert all(not v for v in mul_vec(m, row))
        v = first_kernel_vector(m)
        if not kernel.rows:
            assert v is None
            return
        # v is at Cramer scale; over its last nonzero entry it is rref's vector
        inverse = m.field.one / next(x for x in reversed(v) if x)
        assert tuple(x * inverse for x in v) == kernel.entries[0]

    for _ in range(15):
        check(rand_qq_matrix(rng, rng.randint(1, 5), rng.randint(1, 6)))
    # over the extension field as well
    check(Matrix(zeta5, [[rand_element(zeta5, rng, 3) for _ in range(4)] for _ in range(2)]))
    # tall entries, half of them zero: all-zero matrices, zero leading entries
    # that need a row swap, rank-deficient and square full-rank cases
    # kummer:4 over 3/2 leaves q = 2 in every product's denominator
    towers = (zeta5, kummer4, make_tower("cyclotomic", 7), make_tower("kummer", 4, Fraction(3, 2)))
    for tower in towers:
        for _ in range(12):
            rows = rng.randint(1, 4)
            cols = max(1, rows + rng.randint(-1, 1))
            entries = [
                [rand_element(tower, rng, 2**64) if rng.random() < 0.5 else tower.zero
                 for _ in range(cols)]
                for _ in range(rows)
            ]
            check(Matrix(tower, entries, cols=cols))
    # eight Bareiss steps, six of them divided by the previous pivot
    for tower in (QQ, zeta5, kummer4, towers[-1]):
        for _ in range(2):
            check(Matrix(tower, [[rand_entry(tower, rng) for _ in range(9)] for _ in range(8)]))


def rand_entry(field, rng, height=3, zeros=0.3):
    """A random entry of height at most ``height``, zero with probability ``zeros``."""
    if rng.random() < zeros:
        return field.zero
    if field is QQ:
        return Fraction(rng.randint(-height, height))
    return rand_element(field, rng, height)


def cramer_vector(field, rows):
    """(-1)^(f-i) det(rows without column i) for i = 0..f, of f rows of length f + 1."""
    f = len(rows)
    minors = [reference_det(field, [row[:i] + row[i + 1 :] for row in rows])
              for i in range(f + 1)]
    return tuple(d if (f - i) % 2 == 0 else -d for i, d in enumerate(minors))


def leading_minors(field, rows):
    """The j-by-j minors of the first j rows on columns 0..j-1, for j = 1..len(rows)."""
    return [reference_det(field, [row[:j] for row in rows[:j]]) for j in range(1, len(rows) + 1)]


def test_first_kernel_vector_is_at_cramer_scale(zeta5, kummer4):
    # Bareiss keeps every entry of the vector an f-by-f minor of an f-by-(f+1)
    # matrix whose first f columns are independent, so that column f is the
    # first free one: v_i = (-1)^(f-i) det(M without column i), with one sign
    # for all entries when rows were swapped.  Dividing by a wrong pivot, or
    # leaving a row with a zero below the pivot unscaled, still gives a
    # kernel vector, at another scale.
    def check(m):
        f = m.rows
        cramer = cramer_vector(m.field, m.entries)
        assert cramer[f]
        v = first_kernel_vector(m)
        # no row is swapped while every leading minor is nonzero
        leading = leading_minors(m.field, m.entries)
        if all(leading):
            assert v == cramer
        else:
            assert v in (cramer, tuple(-x for x in cramer))
        return all(leading)

    # a zero below each pivot, and a zero leading entry that forces a swap
    check(qq_matrix([[2, 1, 3, 1], [0, 3, 1, 2], [0, 0, 5, 1]]))
    assert not check(qq_matrix([[0, 1, 2], [3, 1, 1]]))
    assert not check(qq_matrix([[1, 2, 0, 1], [2, 4, 1, 0], [1, 0, 3, 3]]))
    rng = random.Random(5)
    swaps = 0
    for tower in (QQ, zeta5, kummer4, make_tower("kummer", 4, Fraction(3, 2))):
        for f in range(1, 9):
            for _ in range(2):
                while True:
                    m = Matrix(tower, [[rand_entry(tower, rng) for _ in range(f + 1)]
                                       for _ in range(f)])
                    if reference_det(tower, [row[:f] for row in m.entries]):
                        break
                swaps += not check(m)
    assert swaps


def independent_rows(field, rng, f, extra):
    """f + extra random rows of length f whose first f rows have nonzero leading minors."""
    while True:
        rows = [[rand_entry(field, rng) for _ in range(f)] for _ in range(f + extra)]
        if all(leading_minors(field, rows[:f])):
            return rows


def with_dependent_column(field, rng, rows):
    """The rows with one more column, a random combination of the others."""
    coefficients = [rand_entry(field, rng, zeros=0) for _ in rows[0]]
    return [row + [sum((a * x for a, x in zip(coefficients, row)), field.zero)] for row in rows]


def test_first_kernel_vector_on_taller_matrices(zeta5, kummer4):
    # (f+1)- and (f+2)-by-(f+1) matrices whose column f is a combination of
    # the others: the lower rows of the last step are never divided, and the
    # vector is that of the f rows chosen as pivots, at Cramer scale.  With
    # row f-1 a copy of row f-2, step f-1 takes its pivot from row f, so
    # v_(f-2) reads the 2x2 minor of a row swapped in from below.
    def check(m, chosen):
        v = first_kernel_vector(m)
        assert v == cramer_vector(m.field, [m.entries[i] for i in chosen])
        inverse = m.field.one / v[-1]
        assert tuple(x * inverse for x in v) == right_kernel(m).entries[0]

    rng = random.Random(7)
    swapped = 0
    for tower in (QQ, zeta5, kummer4, make_tower("kummer", 4, Fraction(3, 2))):
        for f in range(1, 7):
            for extra in (1, 2):
                rows = independent_rows(tower, rng, f, extra)
                check(Matrix(tower, with_dependent_column(tower, rng, rows)), range(f))
                if f < 2:
                    continue
                rows[f - 1] = rows[f - 2]
                chosen = [*range(f - 1), f]
                if all(leading_minors(tower, [rows[i] for i in chosen])):
                    check(Matrix(tower, with_dependent_column(tower, rng, rows)), chosen)
                    swapped += 1
    assert swapped >= 30
    # the smallest such swap over QQ: row 1 is zero in column 1 after step 0
    m = qq_matrix([[1, 2, 3], [2, 4, 6], [1, 1, 2]])
    assert first_kernel_vector(m) == (1, 1, -1)  # the minors of rows 0 and 2


def test_kernel_inverts_only_the_pivots_it_divides_by(monkeypatch, zeta5):
    # d_(f-1) is v_f, d_(f-2) gives way to a 2x2 minor over d_(f-3), and the
    # lower rows of the last step are never read, so exactly d_0 .. d_(f-3)
    # are inverted, on wide, square and tall matrices alike
    calls = []
    invert = exact_linalg._invert
    monkeypatch.setattr(exact_linalg, "_invert", lambda x: calls.append(x) or invert(x))
    rng = random.Random(8)
    for tower in (QQ, zeta5):
        for f in range(1, 7):
            shapes = [independent_rows(tower, rng, f, extra) for extra in (0, 1, 2)]
            wide = [row + [rand_entry(tower, rng, zeros=0)] for row in shapes[0]]
            for rows in (wide, *(with_dependent_column(tower, rng, r) for r in shapes[1:])):
                calls.clear()
                v = first_kernel_vector(Matrix(tower, rows))
                assert v[f] and not any(v[f + 1 :])
                assert len(calls) == max(0, f - 2), (f, len(rows))


def test_rank_transpose_invariant():
    rng = random.Random(1)
    for _ in range(30):
        m = rand_qq_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), height=4)
        transpose = qq_matrix([list(m.column(j)) for j in range(m.cols)])
        assert rank(m) == rank(transpose)


def test_solve_identity():
    b = [Fraction(3), Fraction(-1, 2)]
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_zero_rhs():
    m = qq_matrix([[1, 2, 3], [4, 5, 6]])
    x = solve(m, [0, 0])
    assert x == [0, 0, 0]


def test_solve_substitution():
    rng = random.Random(2)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_qq_matrix(rng, rows, cols, height=5)
        target = [rng.randint(-5, 5) for _ in range(cols)]
        b = mul_vec(m, target)
        x = solve(m, b)
        assert x is not None
        assert mul_vec(m, x) == b


def test_solve_syndrome_preimage(zeta5):
    # particular solution of H x = H e, checked by substitution
    from gabrec import build_code

    rng = random.Random(4)
    parity = build_code(zeta5, 4, 2).parity_check
    e = [rand_element(zeta5, rng, 3) for _ in range(4)]
    target = mul_vec(parity, e)
    x = solve(parity, target)
    assert x is not None
    assert mul_vec(parity, x) == target


def test_solve_inconsistent():
    m = qq_matrix([[1], [1]])
    assert solve(m, [1, 2]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(qq_matrix([[1, 2]]), [1, 2])


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix(QQ, [[1, 2]], cols=5)
    with pytest.raises(ValueError, match="column count"):
        Matrix(QQ, [], cols=-1)
    assert Matrix(QQ, [], cols=0).shape == (0, 0)
    assert Matrix(QQ, [[1, 2]], cols=2).shape == (1, 2)


def test_matrix_text_roundtrip(zeta5):
    def parse(field, text):
        ncols, rows = _read_matrix_text(text)
        return Matrix(field, [[field.from_text(t) for t in row] for row in rows], cols=ncols)

    rng = random.Random(3)
    m = rand_qq_matrix(rng, 3, 2)
    assert parse(QQ, format_matrix(m)) == m
    entries = [[rand_element(zeta5, rng, 2) for _ in range(3)] for _ in range(2)]
    ml = Matrix(zeta5, entries, cols=3)
    assert parse(zeta5, format_matrix(ml)) == ml
    text = format_matrix(m)
    assert text.splitlines()[0] == "3 2"
    with pytest.raises(ValueError):
        _read_matrix_text("2 2\n1 2 3")
    # a header is two counts >= 0: "-1 -1" with one entry is no (0, -1) matrix
    for header in ("x y", "-1 -1", "2 -1", "-2 -1"):
        with pytest.raises(ValueError, match="bad matrix header"):
            _read_matrix_text(header + "\n5 6")
    with pytest.raises(ValueError, match="bad matrix header"):
        _read_matrix_text("-1 -1\n5")
    assert _read_matrix_text("0 3\n") == (3, [])
