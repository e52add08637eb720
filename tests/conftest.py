"""Shared fixtures, matrix helpers, the linear-solve reference, and
height-bounded random generators for the test suite.

Random inputs keep numerators and denominators small on purpose: exact
arithmetic never fails, but coefficient growth makes large inputs slow.
"""

import random

import pytest

from gabrec import CyclotomicTower, Matrix, SkewPoly, make_tower, rref


def solve(matrix, rhs):
    """A particular solution of M x = rhs with free variables pinned to zero.

    Returns None when the system is inconsistent.  Recovery never solves a
    linear system; the tests keep this as an independent reference.
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
    x = [matrix.field.zero] * matrix.cols
    for i, p in enumerate(pivots):
        x[p] = reduced.entries[i][matrix.cols]
    return x


@pytest.fixture(scope="session")
def zeta5():
    return make_tower("cyclotomic", 5)


@pytest.fixture(scope="session")
def kummer4():
    return make_tower("kummer", 4)


def zero_matrix(field, rows, cols):
    return Matrix(field, [[field.zero] * cols for _ in range(rows)], cols=cols)


def axpy(a, x, y):
    """Entrywise a*x + y of two matrices of the same shape."""
    return Matrix(
        x.field,
        [[a * u + v for u, v in zip(rx, ry)] for rx, ry in zip(x.entries, y.entries)],
        cols=x.cols,
    )


def rand_scalar(tower, rng, height=5):
    """Random element of the base field K with integer coordinates."""
    if isinstance(tower, CyclotomicTower):
        return tower.scalar_field.coerce(rng.randint(-height, height))
    field = tower.scalar_field
    return field.element([rng.randint(-height, height) for _ in range(field.m)])


def rand_element(tower, rng, height=5):
    """Random element of L with height-bounded coordinates."""
    return tower.from_coords([rand_scalar(tower, rng, height) for _ in range(tower.m)])


def rand_nonzero_element(tower, rng, height=5):
    while True:
        a = rand_element(tower, rng, height)
        if a:
            return a


def rand_vector(tower, rng, n, height=5):
    return [rand_element(tower, rng, height) for _ in range(n)]


def rand_poly(tower, rng, max_degree, height=3):
    degree = rng.randint(0, max_degree)
    coeffs = [rand_element(tower, rng, height) for _ in range(degree + 1)]
    return SkewPoly(tower, coeffs)


def rand_error(tower, rng, n, weight, height=3):
    """Random length-n vector of rank weight exactly ``weight`` over K."""
    from gabrec import rank_weight

    if weight == 0:
        return [tower.zero] * n
    while True:
        supports = [rand_nonzero_element(tower, rng, height) for _ in range(weight)]
        vec = []
        for _ in range(n):
            entry = tower.zero
            for u in supports:
                entry = entry + rand_scalar(tower, rng, height) * u
            vec.append(entry)
        if rank_weight(tower, vec, "B") == weight:
            return vec
