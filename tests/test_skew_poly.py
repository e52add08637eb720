"""Twisted polynomial ring: arithmetic, evaluation, division, annihilators."""

import random
from fractions import Fraction

import pytest

from conftest import (
    rand_element,
    rand_nonzero_element,
    rand_poly,
    rand_scalar,
    rand_vector,
    reference_msp,
    reference_skew_mul,
)
from gabrec import SkewPoly, ext, left_divide, make_tower, msp, rank
from gabrec import skew_poly


def test_add_examples(zeta5, kummer4):
    rng = random.Random(0)
    a = rand_poly(zeta5, rng, 3)
    zero = SkewPoly(zeta5)
    assert a + zero == a
    assert a + (-a) == zero
    alpha = kummer4.basis[1]
    x = SkewPoly(kummer4, [kummer4.zero, kummer4.one])
    x_plus = x + SkewPoly.constant(kummer4, alpha)
    x_minus = x - SkewPoly.constant(kummer4, alpha)
    assert x_plus + x_minus == SkewPoly(kummer4, [kummer4.zero, 2 * kummer4.one])


def test_mul_twist_rule(kummer4):
    # x * alpha = theta(alpha) * x = i*alpha * x
    alpha = kummer4.basis[1]
    x = SkewPoly(kummer4, [kummer4.zero, kummer4.one])
    product = x * SkewPoly.constant(kummer4, alpha)
    assert product == SkewPoly(kummer4, [kummer4.zero, alpha.theta()])
    assert alpha.theta() == kummer4.imaginary_unit() * alpha


def test_mul_expansion_frozen(kummer4):
    # (x + alpha)(x - alpha) = x^2 + (1-i)*alpha*x - alpha^2, expanded by hand
    alpha = kummer4.basis[1]
    x = SkewPoly(kummer4, [kummer4.zero, kummer4.one])
    product = (x + SkewPoly.constant(kummer4, alpha)) * (x - SkewPoly.constant(kummer4, alpha))
    expected = SkewPoly(
        kummer4,
        [
            kummer4.from_text("((0,0),(0,0),(-1,0),(0,0))"),  # -alpha^2
            kummer4.from_text("((0,0),(1,-1),(0,0),(0,0))"),  # (1-i)*alpha
            kummer4.one,
        ],
    )
    assert product == expected


@pytest.mark.parametrize(
    "kind, param, radicand",
    [("cyclotomic", 5, 2), ("cyclotomic", 7, 2), ("kummer", 4, 2), ("kummer", 4, Fraction(3, 2))],
)
def test_mul_matches_term_by_term_product(kind, param, radicand):
    # each coefficient is one sum of products; it must equal the products
    # a_i theta^i(b_j) added one by one
    tower = make_tower(kind, param, radicand)
    rng = random.Random(param)

    def poly(degree, zeros):
        # random coefficients, with zeros in between at the given share
        coeffs = [tower.zero if rng.random() < zeros else rand_element(tower, rng, 3)
                  for _ in range(degree)]
        return SkewPoly(tower, coeffs + [rand_nonzero_element(tower, rng, 3)])

    zero = SkewPoly(tower)
    constants = [SkewPoly.constant(tower, c) for c in
                 (tower.one, -tower.one, rand_nonzero_element(tower, rng, 3) / 7)]
    polys = [poly(rng.randint(0, 4), rng.choice([0, 0.3, 0.7])) for _ in range(12)]
    cases = [(zero, zero), (zero, polys[0]), (polys[0], zero)]
    cases += [(c, f) for c in constants for f in polys[:3]]
    cases += [(f, c) for c in constants for f in polys[:3]]
    cases += [(f, g) for f in polys for g in polys[:4]]
    assert any(f.degree != g.degree for f, g in cases)
    for f, g in cases:
        assert f * g == reference_skew_mul(f, g)


def test_mul_identity_and_degree(zeta5):
    rng = random.Random(1)
    one = SkewPoly.constant(zeta5, zeta5.one)
    for _ in range(10):
        a, b = rand_poly(zeta5, rng, 4), rand_poly(zeta5, rng, 4)
        assert a * one == a
        if not a.is_zero() and not b.is_zero():
            assert (a * b).degree == a.degree + b.degree


def test_scalar_multiplication_sides(zeta5, kummer4):
    rng = random.Random(2)
    f = rand_poly(zeta5, rng, 3)
    a = rand_nonzero_element(zeta5, rng)
    assert a * f == SkewPoly.constant(zeta5, a) * f
    assert f * a == f * SkewPoly.constant(zeta5, a)
    # on the right, a is twisted: f * a = sum f_i theta^i(a) x^i, so f and a
    # do not commute once deg f >= 1 and theta moves a
    for tower in (zeta5, kummer4):
        for degree in (1, 2, 3):
            f = SkewPoly(tower, [rand_nonzero_element(tower, rng, 3) for _ in range(degree + 1)])
            a = rand_nonzero_element(tower, rng)
            assert a.theta() != a
            expected = SkewPoly(tower)
            for i, c in enumerate(f.coeffs):
                expected = expected + SkewPoly(tower, [tower.zero] * i + [c * a.theta(i)])
            assert f * a == expected
            assert f * a != a * f


def test_evaluate_theta_squared(zeta5):
    zeta = zeta5.basis[1]
    f = SkewPoly(zeta5, [zeta5.zero, zeta5.zero, zeta5.one])
    assert f.evaluate(zeta**3) == zeta**2


def test_evaluate_constant(zeta5):
    rng = random.Random(3)
    a, g = rand_element(zeta5, rng), rand_element(zeta5, rng)
    assert SkewPoly.constant(zeta5, a).evaluate(g) == a * g


def oracle_evaluate(poly, g):
    # independent of SkewPoly.evaluate: explicit sum of twisted monomial actions
    total = poly.tower.zero
    for i, coeff in enumerate(poly.coeffs):
        image = g
        for _ in range(i):
            image = image.theta()
        total = total + coeff * image
    return total


def test_evaluate_against_oracle(zeta5, kummer4):
    rng = random.Random(4)
    for tower in (zeta5, kummer4):
        for _ in range(15):
            f = rand_poly(tower, rng, 4)
            g = rand_element(tower, rng)
            assert f.evaluate(g) == oracle_evaluate(f, g)


def test_evaluate_is_base_linear(zeta5, kummer4):
    rng = random.Random(5)
    for tower in (zeta5, kummer4):
        for _ in range(15):
            f = rand_poly(tower, rng, 3)
            g1, g2 = rand_element(tower, rng), rand_element(tower, rng)
            c = rand_scalar(tower, rng)
            assert f.evaluate(g1 + c * g2) == f.evaluate(g1) + c * f.evaluate(g2)


def test_left_divide_recovers_factor(zeta5):
    rng = random.Random(6)
    for _ in range(15):
        v = rand_poly(zeta5, rng, 2)
        while v.is_zero():
            v = rand_poly(zeta5, rng, 2)
        v = v.coeffs[-1].inverse() * v  # monic, so the lead is one
        assert v.is_monic()
        f = rand_poly(zeta5, rng, 2)
        q, r = left_divide(v * f, v)
        assert q == f
        assert r.is_zero()


def test_left_divide_by_one(zeta5):
    rng = random.Random(7)
    n = rand_poly(zeta5, rng, 3)
    q, r = left_divide(n, SkewPoly.constant(zeta5, zeta5.one))
    assert q == n and r.is_zero()


def test_left_divide_identity(zeta5, kummer4):
    rng = random.Random(8)
    for tower in (zeta5, kummer4):
        cases = []
        for _ in range(15):
            n = rand_poly(tower, rng, 4)
            v = rand_poly(tower, rng, 2)
            while v.is_zero():
                v = rand_poly(tower, rng, 2)
            cases.append((n, v, None))
        a, b, c = (rand_nonzero_element(tower, rng, 3) for _ in range(3))
        v = SkewPoly(tower, [a, b, c])
        monic = SkewPoly(tower, [a, b, tower.one])
        assert monic.coeffs[-1] is tower.one  # divided without inverting the lead
        cases += [
            (SkewPoly(tower), v, (SkewPoly(tower), SkewPoly(tower))),
            (SkewPoly(tower, [a, b]), v, (SkewPoly(tower), SkewPoly(tower, [a, b]))),
            (monic * SkewPoly(tower, [c, a]) + SkewPoly(tower, [b]), monic, None),
            # after the first step every coefficient above the remainder is zero
            (v * SkewPoly(tower, [0, 0, a]) + SkewPoly(tower, [b]), v,
             (SkewPoly(tower, [0, 0, a]), SkewPoly(tower, [b]))),
        ]
        for n, v, expected in cases:
            q, r = left_divide(n, v)
            assert v * q + r == n
            assert r.degree < v.degree
            if expected is not None:
                assert (q, r) == expected


def test_left_divide_by_zero_raises(zeta5):
    with pytest.raises(ZeroDivisionError):
        left_divide(SkewPoly.constant(zeta5, zeta5.one), SkewPoly(zeta5))


def reference_left_divide(n, v):
    """Long division as written: take v * c x^shift off the remainder while deg r >= deg v."""
    tower = n.tower
    q, r = SkewPoly(tower), n
    while r.degree >= v.degree:
        shift = r.degree - v.degree
        c = (r.coeffs[-1] / v.coeffs[-1]).theta(-v.degree)
        term = SkewPoly(tower, [tower.zero] * shift + [c])
        q, r = q + term, r - reference_skew_mul(v, term)
    return q, r


def as_sums(tower, rng, n):
    """The coefficients of n as lists of zero to three pairs (a, b) whose products sum to n_s."""
    sums = []
    for c in n.coeffs:
        x, y = rand_nonzero_element(tower, rng, 3), rand_element(tower, rng, 3)
        if not c:  # no pair, or two that cancel
            sums.append([] if rng.random() < 0.5 else [(x, y), (-x, y)])
            continue
        rest = c - 2 * x * y
        last = (tower.one, rest) if rng.random() < 0.5 else (x, rest / x)
        sums.append([(x, y), (x, y), last])
    return sums


def test_division_of_sums_matches_long_division(zeta5, kummer4):
    # the routine the decoder calls divides a numerator given as sums of
    # products: quotient and remainder equal a long division's, bit for bit
    rng = random.Random(21)
    for tower in (zeta5, kummer4):
        a, b = (rand_nonzero_element(tower, rng, 3) for _ in range(2))
        divisors = [rand_poly(tower, rng, 3) for _ in range(6)] + [
            SkewPoly(tower, [0, 0, a]),  # not monic, zero low coefficients
            SkewPoly(tower, [0, b, 0, a]),
            SkewPoly.constant(tower, tower.one),
            SkewPoly.constant(tower, a),
        ]
        for v in divisors:
            if v.is_zero():
                continue
            numerators = [rand_poly(tower, rng, 6) for _ in range(3)] + [
                SkewPoly(tower),
                SkewPoly(tower, [a] * v.degree),  # deg n < deg v
                # after the first step every top is zero
                v * SkewPoly(tower, [0, 0, 0, b]) + SkewPoly(tower, [a] * v.degree),
            ]
            for n in numerators:
                expected = reference_left_divide(n, v)
                assert skew_poly._left_divide_sums(as_sums(tower, rng, n), v) == expected
                assert left_divide(n, v) == expected
                q, r = expected
                assert reference_skew_mul(v, q) + r == n and r.degree < v.degree


def test_msp_of_zero(zeta5):
    p = msp(zeta5, [zeta5.zero])
    assert p.degree == 0
    assert p.is_monic()


def test_msp_single_element(zeta5):
    zeta = zeta5.basis[1]
    p = msp(zeta5, [zeta])
    assert p == SkewPoly(zeta5, [-zeta, zeta5.one])  # x - zeta
    assert not p.evaluate(zeta)


def test_msp_full_basis(zeta5, kummer4):
    for tower in (zeta5, kummer4):
        assert msp(tower, tower.basis).degree == tower.m


def test_msp_degree_matches_span_rank(zeta5, kummer4):
    rng = random.Random(9)
    for tower in (zeta5, kummer4):
        for _ in range(15):
            vec = rand_vector(tower, rng, rng.randint(1, tower.m), height=3)
            poly = msp(tower, vec)
            assert poly.is_monic()
            assert poly.degree == rank(ext(tower, vec))


def test_msp_annihilates_span(zeta5):
    rng = random.Random(10)
    for _ in range(10):
        vec = rand_vector(zeta5, rng, 3, height=3)
        poly = msp(zeta5, vec)
        for _ in range(5):
            combo = zeta5.zero
            for v in vec:
                combo = combo + rng.randint(-4, 4) * v
            assert not poly.evaluate(combo)


def test_msp_matches_definition_reference(zeta5, kummer4):
    # the monic annihilator of least degree is unique, so msp's product of
    # factors equals the one solved from a K-basis of the span, also on
    # dependent and zero entries
    rng = random.Random(12)
    for tower in (zeta5, make_tower("cyclotomic", 7), kummer4):
        assert msp(tower, []) == reference_msp(tower, [])
        for _ in range(8):
            vec = rand_vector(tower, rng, rng.randint(1, tower.m), height=3)
            for _ in range(rng.randint(1, 2)):
                combo = tower.zero
                for v in vec:
                    combo = combo + rand_scalar(tower, rng, 3) * v
                vec.insert(rng.randint(0, len(vec)), combo)
            vec.insert(rng.randint(0, len(vec)), tower.zero)
            assert msp(tower, vec) == reference_msp(tower, vec)


def test_msp_of_sixteen_kummer20_points():
    # GabCode.annihilator of kummer:20 at k = 16.  Each factor is made monic
    # as it comes: with the factors w x - theta(w) and one normalization at
    # the end, the heights double at every point and this takes over a minute,
    # while the monic result has numerators of a few bits
    tower = make_tower("kummer", 20)
    points = tower.basis[:16]
    poly = msp(tower, points)
    assert poly.is_monic() and poly.degree == 16
    assert poly == reference_msp(tower, points)
    assert not any(poly.evaluate(g) for g in points)
    assert max(abs(x) for c in poly.coeffs for x in c.nums).bit_length() <= 8


def test_ring_axioms_random(zeta5, kummer4):
    rng = random.Random(11)
    for tower in (zeta5, kummer4):
        for _ in range(15):
            a = rand_poly(tower, rng, 2, height=2)
            b = rand_poly(tower, rng, 2, height=2)
            c = rand_poly(tower, rng, 2, height=2)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def test_evaluation_homomorphism(zeta5, kummer4):
    rng = random.Random(12)
    for tower in (zeta5, kummer4):
        for _ in range(15):
            a = rand_poly(tower, rng, 3, height=2)
            b = rand_poly(tower, rng, 3, height=2)
            g = rand_element(tower, rng, height=2)
            assert (a * b).evaluate(g) == a.evaluate(b.evaluate(g))


def test_monic_flag(zeta5):
    zeta = zeta5.basis[1]
    p = SkewPoly(zeta5, [zeta, zeta5.one])
    assert p.is_monic()
    q = SkewPoly(zeta5, [zeta5.one, zeta])
    assert not q.is_monic()
    assert not SkewPoly(zeta5).is_monic()
