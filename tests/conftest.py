"""Shared fixtures and height-bounded random generators for the test suite.

Random inputs keep numerators and denominators small on purpose: exact
arithmetic never fails, but coefficient growth makes large inputs slow.
"""

import random

import pytest

from gabrec import CyclotomicTower, SkewPoly, make_tower


@pytest.fixture(scope="session")
def zeta5():
    return make_tower("cyclotomic", 5)


@pytest.fixture(scope="session")
def kummer4():
    return make_tower("kummer", 4)


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
