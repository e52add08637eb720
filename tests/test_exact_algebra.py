"""Tower construction, exact field arithmetic, and the theta automorphism."""

import functools
import math
import operator
import random
import re
import types
from fractions import Fraction

import pytest

from conftest import rand_element, rand_nonzero_element, rand_scalar, solve
from gabrec import Matrix, QQ, make_tower, rank, tower_from_spec
from gabrec.exact_algebra import (
    CyclotomicElement,
    CyclotomicField,
    FieldElement,
    KummerTower,
    _Element,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
    smallest_primitive_root,
)
from gabrec.exact_linalg import _dot


def test_cyclotomic_tower_shape(zeta5):
    assert zeta5.m == 4
    assert zeta5.primitive_root == 2
    zeta = zeta5.basis[1]
    assert zeta.theta() == zeta * zeta
    for i, b in enumerate(zeta5.basis):
        expected = [Fraction(0)] * 4
        expected[i] = Fraction(1)
        assert list(b.coords) == expected


def test_kummer_tower_shape(kummer4):
    assert kummer4.m == 4
    assert kummer4.scalar_field.conductor == 4
    alpha = kummer4.basis[1]
    assert alpha.theta() == kummer4.scalar_field.zeta() * alpha
    assert alpha**4 == kummer4.embed_scalar(2)


@pytest.mark.parametrize("conductor", [1, 4, 9, 15])
def test_cyclotomic_tower_rejects_nonprime(conductor):
    with pytest.raises(ValueError):
        make_tower("cyclotomic", conductor)


# 8 and 16 with the default radicand 2: sqrt 2 = zeta_8 + zeta_8^-1 lies in K,
# so x^n - 2 factors over K and the tower would have zero divisors
@pytest.mark.parametrize("n", [2, 6, 10, 8, 16])
def test_kummer_tower_rejects_bad_degree(n):
    with pytest.raises(ValueError):
        make_tower("kummer", n)


@pytest.mark.parametrize("radicand", [0, 1, -1, 4, 16, -4, Fraction(9, 4)])
def test_kummer_tower_rejects_collapsing_radicand(radicand):
    # 4 and 9/4 are squares, 16 a fourth power, -4 = -4 * 1^4
    with pytest.raises(ValueError):
        make_tower("kummer", 4, radicand)


def test_kummer_tower_builds_only_fields():
    for n in (4, 12):
        assert make_tower("kummer", n).m == n
    # sqrt 3 = zeta_12 + zeta_12^-1, sqrt -3 and sqrt 12 lie in Q(zeta_12)
    for radicand in (3, -3, 12):
        with pytest.raises(ValueError):
            make_tower("kummer", 12, radicand)


def test_tower_from_spec():
    assert tower_from_spec("cyclotomic:5") == make_tower("cyclotomic", 5)
    assert tower_from_spec("kummer:4") == make_tower("kummer", 4)
    for bad in ["cyclotomic", "cubic:5", "kummer:x"]:
        with pytest.raises(ValueError):
            tower_from_spec(bad)


def test_number_theory_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert euler_phi(12) == 4
    assert smallest_primitive_root(17) == 3
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_mul_reduces_modulo_cyclotomic_relation(zeta5):
    zeta = zeta5.basis[1]
    product = (zeta5.one + zeta) * zeta**3
    assert list(product.coords) == [-1, -1, -1, 0]


def test_mul_reduces_modulo_radicand(kummer4):
    alpha = kummer4.basis[1]
    assert alpha**3 * alpha**2 == 2 * alpha


def test_additive_identity(zeta5, kummer4):
    rng = random.Random(0)
    for tower in (zeta5, kummer4):
        a = rand_element(tower, rng)
        assert a + tower.zero == a
        assert a - a == tower.zero
        assert not (a - a)


def test_zero_and_one_are_built_once_per_handle(zeta5, kummer4):
    for field in (zeta5, kummer4, kummer4.scalar_field):
        assert field.zero is field.zero
        assert field.one is field.one
        assert field.zero == field.embed_scalar(0)
        assert field.one == field.embed_scalar(1)
    # basis stays a fresh list on every access: callers may change it
    assert zeta5.basis is not zeta5.basis


def test_invert_zeta(zeta5):
    zeta = zeta5.basis[1]
    assert list(zeta.inverse().coords) == [-1, -1, -1, -1]  # zeta^4
    assert zeta * zeta.inverse() == zeta5.one


def test_invert_rational_scalar(zeta5):
    two = zeta5.embed_scalar(2)
    assert two.inverse() == zeta5.embed_scalar(Fraction(1, 2))


def test_invert_alpha(kummer4):
    alpha = kummer4.basis[1]
    assert alpha.inverse() == Fraction(1, 2) * alpha**3
    assert alpha / alpha == kummer4.one


def test_invert_zero_raises(zeta5):
    with pytest.raises(ZeroDivisionError):
        zeta5.zero.inverse()


def test_invert_zero_divisor_raises(monkeypatch):
    # kummer:8 is refused because sqrt 2 lies in K; built anyway, it is a
    # ring with zero divisors, and inverse() must refuse them
    monkeypatch.setattr(KummerTower, "_check_radicand", staticmethod(lambda n, c: None))
    tower = make_tower("kummer", 8)
    field = tower.scalar_field
    sqrt2 = tower.embed_scalar(field.zeta(1) + field.zeta(7))
    a, b = tower.basis[1] ** 4 - sqrt2, tower.basis[1] ** 4 + sqrt2
    assert a and b and not a * b
    for x in (a, b):
        with pytest.raises(ArithmeticError, match="norm"):
            x.inverse()
    c = tower.basis[1] + tower.one
    assert c * c.inverse() == tower.one


def test_invert_random(zeta5, kummer4):
    rng = random.Random(1)
    for tower in (zeta5, kummer4):
        for _ in range(20):
            a = rand_nonzero_element(tower, rng)
            assert a * a.inverse() == tower.one


def test_theta_on_zeta_powers(zeta5):
    zeta = zeta5.basis[1]
    assert (zeta**3).theta() == zeta  # exponent 6 reduces to 1 mod 5


def test_theta_on_alpha_powers(kummer4):
    alpha = kummer4.basis[1]
    assert (alpha**2).theta() == -(alpha**2)  # (i*alpha)^2


def test_theta_order_and_fixed_scalars(zeta5, kummer4):
    rng = random.Random(2)
    for tower in (zeta5, kummer4):
        gen = tower.generator()
        for j in range(1, tower.m):
            assert gen.theta(j) != gen
        a = rand_element(tower, rng)
        assert a.theta(tower.m) == a
        assert a.theta(0) == a
        k = tower.embed_scalar(rand_scalar(tower, rng))
        assert k.theta() == k


def test_theta_is_automorphism(zeta5, kummer4):
    rng = random.Random(3)
    for tower in (zeta5, kummer4):
        for _ in range(25):
            a, b = rand_element(tower, rng), rand_element(tower, rng)
            assert (a * b).theta() == a.theta() * b.theta()
            assert (a + b).theta() == a.theta() + b.theta()


def test_basis_coordinate_matrix_is_identity(zeta5, kummer4):
    for tower in (zeta5, kummer4):
        columns = [b.coords for b in tower.basis]
        mat = Matrix(
            tower.scalar_field,
            [[columns[j][i] for j in range(tower.m)] for i in range(tower.m)],
        )
        assert mat == Matrix.identity(tower.scalar_field, tower.m)


def test_fixed_field_of_theta_is_base(zeta5, kummer4):
    # the kernel of theta - id, as a K-linear map on L, is one-dimensional
    for tower in (zeta5, kummer4):
        columns = [(b.theta() - b).coords for b in tower.basis]
        mat = Matrix(
            tower.scalar_field,
            [[columns[j][i] for j in range(tower.m)] for i in range(tower.m)],
        )
        assert rank(mat) == tower.m - 1


def test_coords_roundtrip(zeta5, kummer4):
    rng = random.Random(4)
    zeta = zeta5.basis[1]
    assert list((zeta * zeta).coords) == [0, 0, 1, 0]
    for tower in (zeta5, kummer4):
        assert tower.from_coords([tower.scalar_field.zero] * tower.m) == tower.zero
        for _ in range(10):
            a = rand_element(tower, rng)
            assert tower.from_coords(a.coords) == a
        with pytest.raises(ValueError):
            tower.from_coords([tower.scalar_field.zero] * (tower.m - 1))


def test_coords_are_base_linear(zeta5, kummer4):
    rng = random.Random(5)
    for tower in (zeta5, kummer4):
        for _ in range(10):
            a = rand_scalar(tower, rng)
            x, y = rand_element(tower, rng), rand_element(tower, rng)
            combined = a * x + y
            assert all(
                c == a * cx + cy
                for c, cx, cy in zip(combined.coords, x.coords, y.coords)
            )


def test_field_axioms_random(zeta5, kummer4):
    rng = random.Random(6)
    for tower in (zeta5, kummer4):
        for _ in range(100):
            a = rand_element(tower, rng, height=3)
            b = rand_element(tower, rng, height=3)
            c = rand_element(tower, rng, height=3)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_tower_mismatch_raises(zeta5, kummer4):
    a = zeta5.basis[1]
    b = kummer4.basis[1]
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    # comparison across towers or fields is False, not an error
    assert a != b and not a == b
    assert zeta5.one != kummer4.one
    assert kummer4.scalar_field.one != CyclotomicField(8).one


def test_equal_scalars_hash_alike(zeta5, kummer4):
    for tower in (zeta5, kummer4):
        assert len({tower.one, tower.scalar_field.one, 1, Fraction(1)}) == 1
        half = Fraction(1, 2)
        assert hash(tower.embed_scalar(half)) == hash(half)


def test_element_text_roundtrip(zeta5, kummer4):
    rng = random.Random(7)
    zeta = zeta5.basis[1]
    assert zeta5.to_text(zeta) == "(0,1,0,0)"
    assert zeta5.from_text("(0,1,0,0)") == zeta
    assert zeta5.from_text("( -1/2, 0, 3, 0 )") == zeta5.from_coords(
        [Fraction(-1, 2), 0, 3, 0]
    )
    for tower in (zeta5, kummer4):
        for _ in range(10):
            a = rand_element(tower, rng)
            assert tower.from_text(tower.to_text(a)) == a
    for bad in ["", "0,1", "(0,1", "(0,1))", "(1,2,3)"]:
        with pytest.raises(ValueError):
            zeta5.from_text(bad)


def test_scalar_field_text(kummer4):
    field = kummer4.scalar_field
    i = kummer4.scalar_field.zeta()
    assert field.to_text(i) == "(0,1)"
    assert field.from_text("(0,1)") == i
    assert QQ.from_text("-3/7") == Fraction(-3, 7)
    assert QQ.to_text(Fraction(5)) == "5"


def test_rational_text_bounds_the_exponent(kummer4):
    # Fraction would expand 10**10000000 in full; the reader refuses first
    for text in ("1e300", "2e-3", "3/2", "1e4300", "-1E-4300", "1e+04300"):
        assert QQ.from_text(text) == Fraction(text)
    # the bound reads the decimal digits that Fraction reads, in any script
    assert QQ.from_text("1e\u0661") == 10
    with pytest.raises(ValueError, match="exponent"):
        QQ.from_text("1e\u0664\u0663\u0660\u0661")
    # a superscript is a digit to str.isdigit, not to Fraction or int
    with pytest.raises(ValueError, match="'1e\u00b2'"):
        QQ.from_text("1e\u00b2")
    # the last two carry digit separators, which Fraction reads in an
    # exponent from Python 3.11 on
    for text in ("1e5000", "1E-4301", "1e+004301", "1e10000000", "1e" + "9" * 5000,
                 "1e4_301", "1E-43_01"):
        with pytest.raises(ValueError, match="exponent"):
            QQ.from_text(text)
    with pytest.raises(ValueError, match="exponent"):
        kummer4.scalar_field.from_text("(1e5000,0)")


def test_coordinates_are_strict(kummer4):
    # a short tuple is not padded with zeros, and a float is not a coordinate
    field = kummer4.scalar_field
    for handle, text in [(field, "(1)"), (kummer4, "((1),(0,0),(0,0),(0,0))")]:
        with pytest.raises(ValueError):
            handle.from_text(text)
    with pytest.raises(TypeError):
        field.from_coords([Fraction(1), 0.5])
    assert field.from_coords([3, 0]) == 3
    with pytest.raises(TypeError):
        make_tower("kummer", 4, 0.1)


def _random_element(handle, rng):
    def scalar():
        if handle.scalar_field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return _random_element(handle.scalar_field, rng)

    return handle.from_coords([scalar() for _ in range(handle.m)])


# each handle with one of the same kind that is a different field
HANDLE_PAIRS = [
    (lambda: CyclotomicField(4), lambda: CyclotomicField(12)),
    (lambda: CyclotomicField(12), lambda: CyclotomicField(4)),
    (lambda: make_tower("cyclotomic", 5), lambda: make_tower("cyclotomic", 7)),
    (lambda: make_tower("cyclotomic", 7), lambda: make_tower("cyclotomic", 5)),
    (lambda: make_tower("kummer", 4), lambda: make_tower("kummer", 4, 3)),
]


@pytest.mark.parametrize(
    "make, make_foreign",
    HANDLE_PAIRS,
    ids=["field4", "field12", "cyclotomic5", "cyclotomic7", "kummer4"],
)
def test_handle_contract(make, make_foreign):
    rng = random.Random(9)
    handle, foreign = make(), make_foreign()
    assert handle == make() and hash(handle) == hash(make())
    assert handle != foreign
    for _ in range(5):
        a = _random_element(handle, rng)
        assert handle.from_text(handle.to_text(a)) == a
        assert handle.from_coords(a.coords) == a
        assert handle.coerce(a) is a
    assert handle.zero == 0 and handle.one == 1 and handle.embed_scalar(2) == 2
    # a scalar embeds as the vector (s, 0, ..., 0), representation and all,
    # and zero and one are the embedded 0 and 1
    def parts(x):
        return x.den, x.nums

    scalars = [2, Fraction(-3, 4)]
    if isinstance(handle, KummerTower):
        scalars.append(_random_element(handle.scalar_field, rng) * Fraction(1, 6))
    padding = [handle.scalar_field.zero] * (handle.m - 1)
    for s in scalars:
        assert parts(handle.embed_scalar(s)) == parts(handle.from_coords([s, *padding])), s
    assert parts(handle.zero) == parts(handle.embed_scalar(0))
    assert parts(handle.one) == parts(handle.embed_scalar(1))
    assert [b.coords.index(handle.scalar_field.one) for b in handle.basis] == list(range(handle.m))
    with pytest.raises(ValueError):
        handle.coerce(foreign.one)
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            handle.coerce(bad)
        # the reflected operators match the operand first, as the forward ones
        # do: the error names the operator used, and nothing is inverted
        for op, symbol in ((operator.sub, "-"), (operator.truediv, "/")):
            for x in (handle.one, handle.zero):
                for args in ((x, bad), (bad, x)):
                    with pytest.raises(TypeError, match=f"for {re.escape(symbol)}:"):
                        op(*args)
    for length in (handle.m - 1, handle.m + 1):
        with pytest.raises(ValueError):
            handle.from_coords([handle.scalar_field.one] * length)
    # arithmetic across fields raises in both orders: an element of another
    # Q(zeta_n) is no rational (TypeError), one of another Kummer tower is
    # refused by K (ValueError), so a shared product with a loose field test
    # cannot multiply with the left operand's radicand
    a, b = handle.basis[1] + handle.one, foreign.basis[1] + foreign.one
    error = ValueError if isinstance(handle, KummerTower) else TypeError
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(error):
                op(x, y)
    assert not a == b and not b == a and a != b


def test_element_classes_only_bind_the_shared_operators():
    # One implementation, on _Element, serves every field.  The two classes
    # stay because perfbench/spans.py counts K- and L-operators apart by
    # patching __mul__, __rmul__, inverse and theta in each class's own
    # __dict__; so each binds exactly those, to the shared functions.
    shared = ("__mul__", "__rmul__", "inverse", "theta")
    code = (types.FunctionType, property, classmethod, staticmethod)
    for cls in (CyclotomicElement, FieldElement):
        own = {name for name, value in vars(cls).items() if isinstance(value, code)}
        assert own == set(shared), cls
        for name in shared:
            assert vars(cls)[name] is vars(_Element)[name], (cls, name)
    assert vars(_Element)["__rmul__"] is vars(_Element)["__mul__"]


@pytest.mark.parametrize("radicand", [2, Fraction(3, 2)], ids=["2", "3/2"])
def test_mixed_level_operands_act_as_embedded_scalars(radicand):
    # x op s and s op x, for s an int, a Fraction or a K-element, equal the
    # operation with s embedded in L; with a K-element on the left, K answers
    # NotImplemented and L takes over.
    tower = make_tower("kummer", 4, radicand)
    rng = random.Random(14)
    k = tower.scalar_field.from_coords([Fraction(2, 3), Fraction(-5, 4)])
    for _ in range(3):
        x = rand_nonzero_element(tower, rng)
        for s in (3, Fraction(-7, 2), k):
            e = tower.embed_scalar(s)
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                assert op(x, s) == op(x, e) and type(op(x, s)) is FieldElement
                assert op(s, x) == op(e, x) and type(op(s, x)) is FieldElement


def test_tower_is_not_its_field():
    # Q(zeta_5) as a tower carries theta; as a field it is the K of no tower
    tower, field = make_tower("cyclotomic", 5), CyclotomicField(5)
    assert tower != field and field != tower
    zeta_t, zeta_f = tower.zeta(), field.zeta()
    assert zeta_t.coords == zeta_f.coords and zeta_t != zeta_f
    with pytest.raises(TypeError):
        zeta_t * zeta_f
    with pytest.raises(TypeError):
        zeta_f + zeta_t


@pytest.mark.parametrize("p", [5, 7])
def test_cyclotomic_tower_zeta_is_generator_power(p):
    tower = make_tower("cyclotomic", p)
    for e in range(-2, 2 * p + 1):
        assert tower.zeta(e) == tower.generator() ** e


@pytest.mark.parametrize("n", [4, 12])
def test_kummer_theta_is_a_shift(n):
    # theta^j multiplies the K-coordinate of alpha^i by zeta^(i j); Phi_12
    # has a middle term, so the shift also reduces modulo Phi_n
    rng = random.Random(n)
    tower = make_tower("kummer", n)
    field, m = tower.scalar_field, tower.m
    for _ in range(3):
        a = _random_element(tower, rng)
        for j in (-m - 1, -1, 0, 1, 2, m - 1, m, 2 * m + 3):
            image = a.theta(j)
            for i, c in enumerate(a.coords):
                assert image.coords[i] == c * field.zeta(i * j)


def test_cyclotomic_field_inverse():
    field = CyclotomicField(4)
    i = field.zeta()
    assert i * i == field.coerce(-1)
    assert (1 + i) * (1 + i).inverse() == field.one
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


# ---------------------------------------------------------------------------
# the integer kernels against the plain Fraction algorithms they replace


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_rem(a, modulus):
    # remainder on division by a monic modulus, padded to its degree
    a, d = list(a), len(modulus) - 1
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k]
        for i, coeff in enumerate(modulus):
            a[k - d + i] -= c * coeff
    return tuple(a[:d]) + (Fraction(0),) * (d - len(a))


def _ref_mul(field, a, b):
    # Fraction product, then Fraction division by Phi_n
    return _poly_rem(_poly_mul(a, b), cyclotomic_polynomial(field.conductor))


def _ref_zeta(conductor, power):
    return _poly_rem([Fraction(0)] * power + [Fraction(1)], cyclotomic_polynomial(conductor))


def _ref_sigma(conductor, coords, a):
    # multiply-add over the reduced coordinates of zeta^(a e)
    out = [Fraction(0)] * len(coords)
    for e, c in enumerate(coords):
        for i, v in enumerate(_ref_zeta(conductor, a * e % conductor)):
            out[i] += c * v
    return tuple(out)


def _ref_inverse(base, columns):
    # solve the m-by-m multiplication system over the base field, given the
    # coordinates of a * b for each basis element b
    m = len(columns)
    mat = Matrix(base, [[columns[j][i] for j in range(m)] for i in range(m)])
    return tuple(solve(mat, [base.one] + [base.zero] * (m - 1)))


def _probe_coords(rng, size):
    """Dense vectors with non-integer rationals and zeros, then unit-like vectors."""
    dense = [
        [
            Fraction(rng.randint(-40, 40), rng.randint(2, 9)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(size)
        ]
        for _ in range(3)
    ]
    single = []
    for e in range(size):
        vec = [Fraction(0)] * size
        vec[e] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        single.append(vec)
    return dense + single


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cyclotomic_tower_kernels_match_fraction_reference(p):
    rng = random.Random(p)
    tower = make_tower("cyclotomic", p)
    elements = [tower.from_coords(c) for c in _probe_coords(rng, tower.m)]
    for a in elements:
        # every one-term probe is a right factor too, so a sparse operand
        # meets the reference in both orders
        for b in elements:
            assert (a * b).coords == _ref_mul(tower, a.coords, b.coords)
        for j in (-tower.m - 2, -1, 0, 1, 2, tower.m - 1, tower.m, 2 * tower.m + 3):
            g_j = pow(tower.primitive_root, j % tower.m, p)
            assert a.theta(j).coords == _ref_sigma(p, a.coords, g_j)
    for a in elements[:2] + rng.sample(elements[3:], 2):
        columns = [_ref_mul(tower, a.coords, b.coords) for b in tower.basis]
        assert a.inverse().coords == _ref_inverse(QQ, columns)


@pytest.mark.parametrize("conductor", [4, 8, 12, 16, 20])
def test_cyclotomic_field_product_matches_fraction_reference(conductor):
    rng = random.Random(conductor)
    field = CyclotomicField(conductor)
    units = [a for a in range(1, conductor) if math.gcd(a, conductor) == 1]
    for k in range(-1, 2 * conductor):
        assert field.zeta(k).coords == _ref_zeta(conductor, k % conductor)
    basis = field.basis
    elements = [field.from_coords(c) for c in _probe_coords(rng, field.m)]
    for a in elements:
        for b in elements:
            assert (a * b).coords == _ref_mul(field, a.coords, b.coords)
        for u in units:
            moved = field._move(a.nums, u)
            assert tuple(Fraction(x, a.den) for x in moved) == _ref_sigma(conductor, a.coords, u)
        if a:
            columns = [_ref_mul(field, a.coords, b.coords) for b in basis]
            assert a.inverse().coords == _ref_inverse(QQ, columns)


def _assert_canonical(x):
    # integer numerators over one positive denominator with no common factor
    assert type(x.den) is int and x.den > 0
    assert len(x.nums) == x.field.m and all(type(v) is int for v in x.nums)
    assert math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1
    assert x.coords == tuple(Fraction(v, x.den) for v in x.nums)
    return x


CANONICAL_HANDLES = [
    *(lambda c=c: CyclotomicField(c) for c in (4, 8, 12, 20)),
    *(lambda p=p: make_tower("cyclotomic", p) for p in (5, 7, 11, 13)),
]


@pytest.mark.parametrize(
    "make",
    CANONICAL_HANDLES,
    ids=["field4", "field8", "field12", "field20", "cyc5", "cyc7", "cyc11", "cyc13"],
)
def test_cyclotomic_elements_are_canonical(make):
    field = make()
    n, m = field.conductor, field.m
    rng = random.Random(n)
    c = _assert_canonical
    elements = [c(field.from_coords(v)) for v in _probe_coords(rng, m)]
    elements.append(c(field.zero))
    nonzero = [a for a in elements if a]
    inverses = {}
    for b in nonzero[:3] + nonzero[-2:]:
        columns = [_ref_mul(field, b.coords, e.coords) for e in field.basis]
        inverses[b] = _ref_inverse(QQ, columns)
        assert c(b.inverse()).coords == inverses[b]
    scalars = [Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(6), Fraction(5, 9)]
    for a in elements:
        assert c(-a).coords == tuple(-x for x in a.coords)
        assert c(field.from_coords(a.coords)) == a
        for q in scalars:
            assert c(q * a).coords == c(a * q).coords == tuple(q * x for x in a.coords)
            assert c(a * int(q)).coords == tuple(int(q) * x for x in a.coords)
        for b in elements[:4] + elements[-2:]:
            assert c(a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
            assert c(a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
            assert c(a * b).coords == _ref_mul(field, a.coords, b.coords)
        for b, inv in inverses.items():
            assert c(a / b).coords == _ref_mul(field, a.coords, inv)
        if hasattr(field, "primitive_root"):
            for j in (-m - 1, -1, 0, 1, m - 1, m, 2 * m + 3):
                g_j = pow(field.primitive_root, j % m, n)
                assert c(a.theta(j)).coords == _ref_sigma(n, a.coords, g_j)
    for e in range(-2, 2 * n + 1):
        assert c(field.zeta(e)).coords == _ref_zeta(n, e % n)
    for q in scalars + [Fraction(-7, 10), 3]:
        x = c(field.embed_scalar(q))
        assert x.coords == (q,) + (0,) * (m - 1)
        assert hash(x) == hash(q) and x == q
    # equality is equality of coordinates, and equal elements hash alike
    # however they were reached
    for a in elements:
        for b in elements:
            assert (a == b) == (a.coords == b.coords)
        for b in nonzero[:3]:
            for same in (a + b - b, a * b / b, (a * b) * b.inverse()):
                assert same == a and hash(same) == hash(a)


def _times_alpha_power(tower, a, j):
    # a * alpha^j for K-coordinates a: a cyclic shift, with the wrapped part
    # times the radicand
    n, c = tower.n, tower.radicand
    return [a[(i - j) % n] * (c if i < j else 1) for i in range(n)]


def _ref_kummer_mul(tower, a, b):
    # the nested product over K: sum of b_j times a * alpha^j
    out = [tower.scalar_field.zero] * tower.n
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(_times_alpha_power(tower, a, j)):
                out[i] = out[i] + x * y
    return tuple(out)


def _ref_tower_inverse(tower, a):
    # coordinates of a^-1 by an m-by-m solve over K
    if tower.kind == "kummer":
        columns = [_times_alpha_power(tower, a.coords, j) for j in range(tower.n)]
        return _ref_inverse(tower.scalar_field, columns)
    columns = [_ref_mul(tower, a.coords, b.coords) for b in tower.basis]
    return _ref_inverse(QQ, columns)


def test_kummer_inverse_matches_solve(kummer4):
    rng = random.Random(8)
    field = kummer4.scalar_field
    for coords in _probe_coords(rng, kummer4.n * field.m):
        a = kummer4.from_coords(
            [field.from_coords(coords[i : i + field.m]) for i in range(0, len(coords), field.m)]
        )
        if a:
            assert a.inverse().coords == _ref_tower_inverse(kummer4, a)


def _kummer_probes(tower, rng):
    """Elements with non-integer K-coordinates and zero rows, then a K-element,
    a single power of alpha, and zero."""
    field = tower.scalar_field

    def coordinate():
        return field.from_coords(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(field.m)]
        )

    dense = [
        tower.from_coords(
            [coordinate() if rng.random() < 0.7 else field.zero for _ in range(tower.m)]
        )
        for _ in range(3)
    ]
    k_element = tower.embed_scalar(coordinate())
    single = tower.from_coords(
        [coordinate() if i == tower.m - 1 else field.zero for i in range(tower.m)]
    )
    return dense + [k_element, single, tower.zero]


def _assert_flat_canonical(x):
    # n phi(n) integer numerators over one positive denominator with no
    # common factor; coords are the rows as canonical K-elements
    field = x.field.scalar_field
    d = field.m
    assert type(x.den) is int and x.den > 0
    assert len(x.nums) == x.field.m * d and all(type(v) is int for v in x.nums)
    assert math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1
    rows = [x.nums[i : i + d] for i in range(0, len(x.nums), d)]
    assert x.coords == tuple(field.from_coords([Fraction(v, x.den) for v in row]) for row in rows)
    for c in x.coords:
        _assert_canonical(c)
    return x


KUMMER_CASES = [
    (4, 2),
    (4, Fraction(3, 2)),
    (4, Fraction(-5, 3)),
    (8, 3),
    (12, 2),
    (12, Fraction(2, 5)),
]


@pytest.mark.parametrize(
    "n, radicand", KUMMER_CASES, ids=["k4", "k4-3/2", "k4-(-5/3)", "k8-3", "k12", "k12-2/5"]
)
def test_kummer_elements_are_flat_and_canonical(n, radicand):
    tower = make_tower("kummer", n, radicand)
    field, m = tower.scalar_field, tower.m
    rng = random.Random(n)
    c = _assert_flat_canonical
    elements = [c(a) for a in _kummer_probes(tower, rng)]
    nonzero = [a for a in elements if a]
    inverses = {}
    for b in nonzero[:2] + nonzero[-2:]:
        inverses[b] = _ref_tower_inverse(tower, b)
        assert c(b.inverse()).coords == inverses[b]
    k_scalar = field.from_coords(
        [Fraction(rng.randint(-9, 9), rng.randint(2, 6)) for _ in range(field.m)]
    )
    scalars = [field.zero, field.one, k_scalar, Fraction(0), Fraction(-3, 4), 6]
    for a in elements:
        assert c(-a).coords == tuple(-x for x in a.coords)
        assert c(tower.from_coords(a.coords)) == a
        for s in scalars:
            assert c(s * a).coords == c(a * s).coords == tuple(x * s for x in a.coords)
        for b in elements[:3] + elements[-3:]:
            assert c(a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
            assert c(a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
            assert c(a * b).coords == _ref_kummer_mul(tower, a.coords, b.coords)
        for b, inv in inverses.items():
            assert c(a / b).coords == _ref_kummer_mul(tower, a.coords, inv)
        for j in (-m - 1, -1, 0, 1, m - 1, m, 2 * m + 3):
            image = c(a.theta(j))
            assert image.coords == tuple(x * field.zeta(i * j) for i, x in enumerate(a.coords))
    # an embedded K-element or rational is itself: equal, and hashed alike
    for s in scalars + [Fraction(7, 10)]:
        x = c(tower.embed_scalar(s))
        assert x.coords == (field.coerce(s),) + (field.zero,) * (m - 1)
        assert x == s and hash(x) == hash(s)
    # equality is equality of coordinates, and equal elements hash alike
    # however they were reached
    for a in elements:
        for b in elements:
            assert (a == b) == (a.coords == b.coords)
        for b in nonzero[:2]:
            for same in (a + b - b, a * b / b, (a * b) * b.inverse()):
                assert same == a and hash(same) == hash(a)


INVERSE_TOWERS = {
    # m = 4, 6, 10, 12, 16, 22 = 2 * 11 and 28 = 2 * 2 * 7: the chain's
    # prime patterns, each step by doubling over l - 1 = 1, 2, 4, 6 and 10
    **{f"cyc{p}": ("cyclotomic", p) for p in (5, 7, 11, 13, 17, 23, 29)},
    "k4": ("kummer", 4, 2),
    # q = 2: N must carry exactly one factor q more than P
    "k4-3/2": ("kummer", 4, Fraction(3, 2)),
    "k8-3": ("kummer", 8, 3),
    "k12": ("kummer", 12, 2),
    "k16-3": ("kummer", 16, 3),
    "k20": ("kummer", 20, 2),
}


@pytest.mark.parametrize("spec", INVERSE_TOWERS.values(), ids=INVERSE_TOWERS.keys())
def test_inverse_by_doubling_matches_sequential_product(spec):
    # the norm along the subfield chain, each step by doubling: P must be
    # theta(a) ... theta^(m-1)(a) up to a positive rational and N must be
    # a P, bit for bit, q included
    tower = make_tower(*spec)
    rng = random.Random(tower.m)
    probes = [_random_element(tower, rng) for _ in range(2)] + [tower.basis[1] + tower.one]
    for a in probes:
        sequential = functools.reduce(operator.mul, (a.theta(j) for j in range(1, tower.m)))
        product, norm = tower._product_and_norm(a.nums)
        assert norm == tower._mul_nums(a.nums, product)
        # the chain works on den a and may carry a positive rational factor
        ratio = type(a)._canonical(tower, 1, product) / sequential
        while not isinstance(ratio, Fraction):
            assert not any(ratio.coords[1:])
            ratio = ratio.coords[0]
        assert ratio > 0
        inverse = a.inverse()
        assert a * inverse == tower.one
        assert inverse == sequential / (a * sequential)
        if tower.m <= 16:  # the m-by-m reference solve grows fast past that
            assert inverse.coords == _ref_tower_inverse(tower, a)


CONVOLVE_FIELDS = {
    "cyc7": lambda: make_tower("cyclotomic", 7),
    "field12": lambda: CyclotomicField(12),
    "field20": lambda: CyclotomicField(20),
}


@pytest.mark.parametrize("make", CONVOLVE_FIELDS.values(), ids=CONVOLVE_FIELDS.keys())
def test_convolve_adds_into_the_buffer(make):
    # the Q(zeta_n) convolution adds into what the buffer holds, as a plain
    # double loop does; both last numerators are nonzero, so index 2m - 2 is
    # written, and each order of a dense and a sparse operand takes one side
    # of the operand swap
    field = make()
    m = field.m
    rng = random.Random(m)
    dense = tuple(rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(m))
    sparse = (rng.randint(1, 9),) + (0,) * (m - 3) + (rng.randint(-9, 9), -7)
    for a, b in [(dense, sparse), (sparse, dense), (dense, dense[::-1])]:
        start = [rng.randint(-9, 9) for _ in range(2 * m - 1)]
        expected = list(start)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                expected[i + j] += x * y
        buf = list(start)
        field._convolve(buf, a, b)
        assert buf == expected and buf[-1] != start[-1]


SUM_HANDLES = {
    "cyc5": lambda: make_tower("cyclotomic", 5),
    "cyc7": lambda: make_tower("cyclotomic", 7),
    "cyc11": lambda: make_tower("cyclotomic", 11),
    "field8": lambda: CyclotomicField(8),
    "field12": lambda: CyclotomicField(12),
    "k4": lambda: make_tower("kummer", 4),
    "k8-3": lambda: make_tower("kummer", 8, 3),
    # q = 2: every product's denominator carries the factor q
    "k4-3/2": lambda: make_tower("kummer", 4, Fraction(3, 2)),
}


@pytest.mark.parametrize("make", SUM_HANDLES.values(), ids=SUM_HANDLES.keys())
def test_fused_sum_matches_term_by_term_sum(make):
    # _dot reduces and normalises a sum of products once; it must equal the
    # sum of the canonical products, bit for bit
    handle = make()
    rng = random.Random(handle.m)
    zero, one = handle.zero, handle.one

    def one_term():
        # +-c times one Q-basis vector: c zeta^e, or c zeta^e alpha^i
        nums = [0] * len(one.nums)
        nums[rng.randrange(len(nums))] = rng.choice([-1, 1]) * rng.randint(1, 9)
        return type(one)._canonical(handle, rng.randint(1, 6), nums)

    def rational():
        return handle.embed_scalar(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)))

    dense = [_random_element(handle, rng) * Fraction(1, d) for d in (1, 5, 7)]
    pool = [zero, one, *(one_term() for _ in range(4)), rational(), rational(), *dense]
    x, y, z = dense
    cases = [
        [],
        [(zero, x)],
        [(x, zero), (zero, zero), (zero, y)],
        [(one, x)],
        [(x, one)],
        [(x, y)],
        [(zero, x), (y, z)],
        [(one, x), (y, z)],
        [(one, x), (one, y), (z, one)],
        [(x, y), (y, z), (z, x)],
        [(x, y), (-x, y)],
    ]
    cases += [[tuple(rng.sample(pool, 2)) for _ in range(rng.randint(2, 6))] for _ in range(40)]
    for pairs in cases:
        expected = functools.reduce(operator.add, (a * b for a, b in pairs), zero)
        got = _dot(handle, pairs)
        assert got == expected and type(got) is type(expected)
        terms = [(a, b) for a, b in pairs if a and b]
        if len(terms) > 1:
            assert handle._sum_products(terms) == expected


@pytest.mark.parametrize(
    "params",
    [("cyclotomic", 7), ("kummer", 4, Fraction(3, 2)), ("kummer", 8, 3)],
    ids=lambda p: ":".join(map(str, p)),
)
def test_twist_table_matches_the_fused_sum(params):
    # _table_sums of a _twist_table is sum_j c_j theta^e(x_j), one sum per
    # block e < count; both are canonical, so it equals _dot bit for bit
    tower = make_tower(*params)
    rng = random.Random(tower.m)
    m = tower.m
    for size in (1, 2, 4):
        constants = [_random_element(tower, rng) * Fraction(1, d) for d in range(1, size + 1)]
        xs = [_random_element(tower, rng) * Fraction(1, d + 2) for d in range(size)]
        if size > 1:  # a zero operand on either side
            constants[0], xs[-1] = tower.zero, tower.zero
        for count in (0, m):
            sums = tower._table_sums(tower._twist_table(constants, count), xs)
            assert len(sums) == count
            for e, got in enumerate(sums):
                expected = _dot(tower, [(c, x.theta(e)) for c, x in zip(constants, xs)])
                assert (got.den, got.nums) == (expected.den, expected.nums)
