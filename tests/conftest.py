"""Shared fixtures, matrix helpers, the references the library is checked
against (full product, linear solve, full-kernel and key-system decoders,
Newton interpolation, term-by-term skew product, per-factor msp), and
height-bounded random generators for the test suite.

Random inputs keep numerators and denominators small on purpose: exact
arithmetic never fails, but coefficient growth makes large inputs slow.
"""

import random

import pytest

from gabrec import (
    CyclotomicTower,
    DecodeResult,
    Matrix,
    SkewPoly,
    encode,
    left_divide,
    make_tower,
    msp,
    rank_weight,
    right_kernel,
    rref,
    theta_matrix,
)


def mul_vec(matrix, vec):
    """Full product M v over every column; the reference for GabCode.syndrome."""
    return [
        sum((a * v for a, v in zip(row, vec, strict=True)), matrix.field.zero)
        for row in matrix.entries
    ]


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


def reference_wb_decode(code, received):
    """Decoder on the full n-by-(2t+k+1) interpolation system V(r_i) = N(g_i).

    The library decodes on n-k rows after factoring the first k points out
    of N; this is the unreduced system it must agree with.
    """
    tower, t, k = code.tower, code.radius, code.k
    received = [tower.coerce(x) for x in received]
    # columns: V_0..V_t multiply theta-iterates of r, N_0..N_{k-1+t} of g (negated)
    v_block = theta_matrix(tower, received, t + 1)
    n_block = theta_matrix(tower, code.points, k + t)
    rows = [[*v_block.column(i), *(-x for x in n_block.column(i))] for i in range(code.n)]
    kernel = right_kernel(Matrix(tower, rows, cols=2 * t + k + 1))
    vec = next((row for row in kernel.entries if any(row[: t + 1])), None)
    if vec is None:
        return DecodeResult(success=False)
    locator = SkewPoly(tower, vec[: t + 1])
    numerator = SkewPoly(tower, vec[t + 1 :])
    message, remainder = left_divide(numerator, locator)
    if not remainder.is_zero() or message.degree >= k:
        return DecodeResult(success=False)
    codeword = encode(code, message)
    error = [r - c for r, c in zip(received, codeword)]
    if rank_weight(tower, error, "B") > t:
        return DecodeResult(success=False)
    return DecodeResult(
        success=True, codeword=tuple(codeword), error=tuple(error), message=message
    )


def reference_key_system_decode(code, received):
    """Decoder on the whole (n-k)-by-(2t+1) system V(s_j) = Q(h_j), unreduced.

    The library eliminates the constant h block once per code and solves
    only the (n-k-t)-by-(t+1) rest per decode; this is the system it reduces,
    with the same failure reasons.
    """
    tower, t, k = code.tower, code.radius, code.k
    received = [tower.coerce(x) for x in received]
    syndrome = mul_vec(code.parity_check, received)
    h = [code.annihilator.evaluate(g) for g in code.points[k:]]
    h_block = theta_matrix(tower, h, t)
    s_block = theta_matrix(tower, syndrome, t + 1)
    # columns: Q_0..Q_(t-1) on the negated h block, then V_0..V_t
    rows = [
        [*(-x for x in h_block.column(j)), *s_block.column(j)] for j in range(code.n - k)
    ]
    kernel = right_kernel(Matrix(tower, rows, cols=2 * t + 1))
    if kernel.rows == 0:
        return DecodeResult(success=False, reason="no_kernel")
    vec = kernel.entries[0]
    locator = SkewPoly(tower, vec[t:])
    numerator = SkewPoly(tower, vec[:t]) * code.annihilator
    message, remainder = left_divide(numerator, locator)
    if not remainder.is_zero():
        return DecodeResult(success=False, reason="remainder")
    if message.degree >= k:
        return DecodeResult(success=False, reason="degree")
    codeword = encode(code, message)
    error = [w - c for w, c in zip([tower.zero] * k + syndrome, codeword)]
    if any(received[:k]):
        message = message + reference_interpolate(code, received[:k])
        codeword = [r - e for r, e in zip(received, error)]
    return DecodeResult(
        success=True, codeword=tuple(codeword), error=tuple(error), message=message
    )


def reference_interpolate(code, values):
    """Polynomial of degree < k with the given values at the first k points.

    Newton form on the prefix annihilators msp(g_0, ..., g_(i-1)), which
    vanish on the earlier points; the library solves the head block of G.
    """
    tower, points = code.tower, code.points
    poly = SkewPoly(tower)
    for i, (g, v) in enumerate(zip(points, values)):
        basis = msp(tower, points[:i])
        poly = poly + ((v - poly.evaluate(g)) / basis.evaluate(g)) * basis
    return poly


def reference_skew_mul(f, g):
    """Product f * g term by term: each a_i theta^i(b_j) added into coefficient i + j.

    The library sums each coefficient's products in one ``_dot``.
    """
    tower = f.tower
    if f.is_zero() or g.is_zero():
        return SkewPoly(tower)
    out = [tower.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b.theta(i)
    return SkewPoly(tower, out)


def reference_msp(tower, elements):
    """Minimal subspace polynomial as a product of monic factors x - theta(w)/w."""
    poly = SkewPoly.constant(tower, tower.one)
    for v in elements:
        w = poly.evaluate(v)
        if w:
            poly = SkewPoly(tower, [-(w.theta() / w), tower.one]) * poly
    return poly


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
    return field.from_coords([rng.randint(-height, height) for _ in range(field.m)])


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
