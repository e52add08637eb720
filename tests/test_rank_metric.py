"""Coordinate matrices and the four rank weights."""

import random
from fractions import Fraction

import pytest

from conftest import axpy, rand_error, rand_scalar, rand_vector
from gabrec import (
    WEIGHT_KINDS,
    ext,
    ext_inv,
    rank_weight,
    theta_matrix,
)


def test_ext_basis_columns(zeta5):
    zeta = zeta5.basis[1]
    x = [zeta, zeta5.one]
    matrix = ext(zeta5, x)
    assert matrix.shape == (4, 2)
    assert matrix.column(0) == (0, 1, 0, 0)
    assert matrix.column(1) == (1, 0, 0, 0)


def test_ext_roundtrip(zeta5, kummer4):
    rng = random.Random(0)
    for tower in (zeta5, kummer4):
        for _ in range(10):
            x = rand_vector(tower, rng, rng.randint(1, 5))
            assert ext_inv(tower, ext(tower, x)) == x


def test_ext_reconstructs_through_basis(zeta5):
    # entry j equals the basis combination given by column j
    rng = random.Random(1)
    x = rand_vector(zeta5, rng, 3)
    matrix = ext(zeta5, x)
    for j, entry in enumerate(x):
        combo = zeta5.zero
        for i, b in enumerate(zeta5.basis):
            combo = combo + matrix.entries[i][j] * b
        assert combo == entry


def test_ext_is_base_linear(zeta5, kummer4):
    rng = random.Random(2)
    for tower in (zeta5, kummer4):
        for _ in range(10):
            a = rand_scalar(tower, rng)
            x = rand_vector(tower, rng, 4)
            y = rand_vector(tower, rng, 4)
            combined = [a * xi + yi for xi, yi in zip(x, y)]
            lhs = ext(tower, combined)
            rhs = axpy(a, ext(tower, x), ext(tower, y))
            assert lhs == rhs


def test_theta_matrix_rows(zeta5):
    rng = random.Random(4)
    x = rand_vector(zeta5, rng, 3)
    tm = theta_matrix(zeta5, x)
    assert tm.shape == (4, 3)
    assert list(tm.entries[0]) == x
    for j in range(1, 4):
        assert list(tm.entries[j]) == [v.theta() for v in tm.entries[j - 1]]


def test_weights_of_basis_vector(zeta5):
    values = [rank_weight(zeta5, zeta5.basis, kind) for kind in WEIGHT_KINDS]
    assert values == [4, 4, 4, 4]


def test_weights_of_zero(zeta5, kummer4):
    for tower in (zeta5, kummer4):
        zero_vec = [tower.zero] * 4
        assert all(rank_weight(tower, zero_vec, kind) == 0 for kind in WEIGHT_KINDS)


def test_weights_of_base_field_vector(zeta5, kummer4):
    rng = random.Random(5)
    for tower in (zeta5, kummer4):
        vec = [tower.embed_scalar(rand_scalar(tower, rng)) for _ in range(4)]
        while not any(vec):
            vec = [tower.embed_scalar(rand_scalar(tower, rng)) for _ in range(4)]
        assert all(rank_weight(tower, vec, kind) == 1 for kind in WEIGHT_KINDS)


def test_weight_chain(zeta5, kummer4):
    rng = random.Random(6)
    for tower in (zeta5, kummer4):
        for _ in range(25):
            x = rand_vector(tower, rng, rng.randint(1, 5), height=3)
            w = {kind: rank_weight(tower, x, kind) for kind in WEIGHT_KINDS}
            assert w["A"] == w["thetaL"] <= w["thetaK"] == w["B"]


def test_weight_bounds_and_permutation_invariance(zeta5):
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(1, 6)
        x = rand_vector(zeta5, rng, n, height=3)
        w = rank_weight(zeta5, x, "B")
        assert w <= min(zeta5.m, n)
        shuffled = x[:]
        rng.shuffle(shuffled)
        assert rank_weight(zeta5, shuffled, "B") == w


def test_planted_weight(zeta5):
    rng = random.Random(8)
    for r in (1, 2):
        vec = rand_error(zeta5, rng, 4, r)
        assert rank_weight(zeta5, vec, "B") == r


def test_unknown_kind_rejected(zeta5):
    with pytest.raises(ValueError):
        rank_weight(zeta5, zeta5.basis, "C")


def test_ext_shape_validation(zeta5, kummer4):
    from gabrec import Matrix

    bad = Matrix(zeta5.scalar_field, [[Fraction(1)] * 2] * 3, cols=2)
    with pytest.raises(ValueError):
        ext_inv(zeta5, bad)
    with pytest.raises(ValueError):
        ext(zeta5, [kummer4.one])
