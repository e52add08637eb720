"""Exact elimination: reduced echelon form, kernels, and linear solving."""

import random
from fractions import Fraction

import pytest

from conftest import mul_vec, rand_element, reference_det, solve, zero_matrix
from gabrec import Matrix, QQ, format_matrix, make_tower, rank, right_kernel, rref
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


def test_first_kernel_vector_is_at_cramer_scale(zeta5, kummer4):
    # Bareiss keeps every entry of the vector an f-by-f minor of an f-by-(f+1)
    # matrix whose first f columns are independent, so that column f is the
    # first free one: v_i = (-1)^(f-i) det(M without column i), with one sign
    # for all entries when rows were swapped.  Dividing by a wrong pivot, or
    # leaving a row with a zero below the pivot unscaled, still gives a
    # kernel vector, at another scale.
    def check(m):
        f = m.rows
        minors = [reference_det(m.field, [row[:i] + row[i + 1 :] for row in m.entries])
                  for i in range(f + 1)]
        assert minors[f]
        cramer = tuple(d if (f - i) % 2 == 0 else -d for i, d in enumerate(minors))
        v = first_kernel_vector(m)
        # no row is swapped while every leading minor is nonzero
        leading = [reference_det(m.field, [row[:j] for row in m.entries[:j]])
                   for j in range(1, f + 1)]
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
