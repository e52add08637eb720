"""Exact elimination: reduced echelon form, kernels, and linear solving."""

import random
from fractions import Fraction

import pytest

from conftest import rand_element
from gabrec import Matrix, QQ, format_matrix, parse_matrix, rank, right_kernel, rref, solve


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
    m = Matrix.zeros(QQ, 2, 3)
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


def test_right_kernel_annihilates(zeta5):
    rng = random.Random(0)
    for _ in range(15):
        m = rand_qq_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        kernel = right_kernel(m)
        assert kernel.rows + rank(m) == m.cols
        for row in kernel.entries:
            assert all(not v for v in m.mul_vec(row))
    # over the extension field as well
    entries = [[rand_element(zeta5, rng, 3) for _ in range(4)] for _ in range(2)]
    m = Matrix(zeta5, entries, cols=4)
    kernel = right_kernel(m)
    for row in kernel.entries:
        assert all(not v for v in m.mul_vec(row))


def test_rank_transpose_invariant():
    rng = random.Random(1)
    for _ in range(30):
        m = rand_qq_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), height=4)
        assert rank(m) == rank(m.transpose())


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
        b = m.mul_vec(target)
        x = solve(m, b)
        assert x is not None
        assert m.mul_vec(x) == b


def test_solve_syndrome_preimage(zeta5):
    # particular solution of H x = H e, checked by substitution
    from gabrec import build_code

    rng = random.Random(4)
    parity = build_code(zeta5, 4, 2).parity_check
    e = [rand_element(zeta5, rng, 3) for _ in range(4)]
    target = parity.mul_vec(e)
    x = solve(parity, target)
    assert x is not None
    assert parity.mul_vec(x) == target


def test_solve_inconsistent():
    m = qq_matrix([[1], [1]])
    assert solve(m, [1, 2]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(qq_matrix([[1, 2]]), [1, 2])


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        qq_matrix([[1, 2]]) * qq_matrix([[1, 2]])
    with pytest.raises(ValueError):
        qq_matrix([[1, 2]]).mul_vec([1, 2, 3])


def test_matrix_arithmetic():
    a = qq_matrix([[1, 2], [3, 4]])
    b = qq_matrix([[0, 1], [1, 0]])
    assert a * b == qq_matrix([[2, 1], [4, 3]])
    assert a + b == qq_matrix([[1, 3], [4, 4]])
    assert (a - a).is_zero()
    assert a.scale(2) == qq_matrix([[2, 4], [6, 8]])
    assert a.column(1) == (Fraction(2), Fraction(4))


def test_matrix_text_roundtrip(zeta5):
    rng = random.Random(3)
    m = rand_qq_matrix(rng, 3, 2)
    assert parse_matrix(QQ, format_matrix(m)) == m
    entries = [[rand_element(zeta5, rng, 2) for _ in range(3)] for _ in range(2)]
    ml = Matrix(zeta5, entries, cols=3)
    assert parse_matrix(zeta5, format_matrix(ml)) == ml
    text = format_matrix(m)
    assert text.splitlines()[0] == "3 2"
    with pytest.raises(ValueError):
        parse_matrix(QQ, "2 2\n1 2 3")
    with pytest.raises(ValueError):
        parse_matrix(QQ, "x y\n1 2")
