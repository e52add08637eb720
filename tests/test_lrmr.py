"""Measurement operator, exact recovery, and rational approximation."""

import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axpy, rand_poly, zero_matrix
from gabrec import (
    QQ,
    approximate_complex,
    approximate_real,
    build_code,
    code_from_descriptor,
    code_to_descriptor,
    encode,
    ext,
    frobenius_error_sq,
    make_tower,
    measure,
    random_low_rank,
    rank,
    record_from_json,
    record_to_json,
    recover,
    tower_from_spec,
)
from gabrec.lrmr import MeasurementRecord, rational_convergents


@pytest.fixture(scope="module")
def code5(zeta5):
    return build_code(zeta5, 4, 2)


@pytest.fixture(scope="module")
def code_k4(kummer4):
    return build_code(kummer4, 4, 2)


def test_measure_zero(code5):
    zero = zero_matrix(QQ, 4, 4)
    record = measure(code5, zero)
    assert len(record.y) == 4 * (4 - 2)
    assert all(v == 0 for v in record.y)


def test_measure_kills_codewords(code5):
    rng = random.Random(0)
    for _ in range(20):
        f = rand_poly(code5.tower, rng, code5.k - 1)
        codeword_matrix = ext(code5.tower, encode(code5, f))
        record = measure(code5, codeword_matrix)
        assert all(v == 0 for v in record.y)


def test_measure_is_linear(code5, code_k4):
    rng = random.Random(1)
    for code in (code5, code_k4):
        field = code.tower.scalar_field
        for _ in range(15):
            x = random_low_rank(4, 4, 2, 5, rng=rng, field=field).matrix
            y = random_low_rank(4, 4, 2, 5, rng=rng, field=field).matrix
            a = field.coerce(rng.randint(-5, 5))
            lhs = measure(code, axpy(a, x, y)).y
            rhs = tuple(
                a * u + v for u, v in zip(measure(code, x).y, measure(code, y).y)
            )
            assert lhs == rhs


def test_measure_validates_input(code5, zeta5, kummer4):
    with pytest.raises(ValueError):
        measure(code5, zero_matrix(QQ, 3, 4))
    with pytest.raises(ValueError):
        measure(code5, zero_matrix(kummer4.scalar_field, 4, 4))
    small = build_code(zeta5, 2, 1)
    with pytest.raises(ValueError):
        measure(small, zero_matrix(QQ, 4, 2))  # pipeline needs n = m


def test_recover_roundtrip(code5, code_k4):
    rng = random.Random(2)
    for code in (code5, code_k4):
        field = code.tower.scalar_field
        for r in (0, 1):
            for _ in range(10):
                instance = random_low_rank(4, 4, r, 10, rng=rng, field=field)
                record = measure(code, instance.matrix)
                assert recover(code, record) == instance.matrix


def test_recover_kummer12_full_size():
    # the largest tower at full length: n = m = 12, k = 4, so t = 4
    tower = make_tower("kummer", 12)
    code = build_code(tower, 12, 4)
    field = tower.scalar_field
    instance = random_low_rank(12, 12, 2, 10, rng=random.Random(0), field=field)
    assert recover(code, measure(code, instance.matrix)) == instance.matrix


def test_recover_kummer8_radicand3():
    # radicand 3 is no square in Q(zeta_8), so x^8 - 3 is irreducible over it;
    # n = m = 8, k = 4, so t = 2
    tower = make_tower("kummer", 8, 3)
    code = build_code(tower, 8, 4)
    assert code_from_descriptor(code_to_descriptor(code)) == code
    assert code_from_descriptor(code_to_descriptor(code)).tower.radicand == 3
    field = tower.scalar_field
    rng = random.Random(0)
    within = random_low_rank(8, 8, 2, 10, rng=rng, field=field)
    assert recover(code, measure(code, within.matrix)) == within.matrix
    beyond = random_low_rank(8, 8, 3, 10, rng=rng, field=field)
    record = measure(code, beyond.matrix)
    result = recover(code, record)
    if result is not None:
        assert rank(result) <= code.radius
        assert measure(code, result).y == record.y


def test_recover_fractional_radicand():
    # alpha^4 = 3/2 puts the radicand's denominator into every wrapped product
    # term; n = m = 4, k = 2, so t = 1
    tower = make_tower("kummer", 4, Fraction(3, 2))
    code = build_code(tower, 4, 2)
    descriptor = code_to_descriptor(code)
    assert descriptor["radicand"] == "3/2"
    assert code_from_descriptor(descriptor) == code
    assert code_from_descriptor(descriptor).tower.radicand == Fraction(3, 2)
    field = tower.scalar_field
    rng = random.Random(1)
    within = random_low_rank(4, 4, 1, 10, rng=rng, field=field)
    assert recover(code, measure(code, within.matrix)) == within.matrix
    beyond = random_low_rank(4, 4, 2, 10, rng=rng, field=field)
    record = measure(code, beyond.matrix)
    result = recover(code, record)
    if result is not None:
        assert rank(result) <= code.radius
        assert measure(code, result).y == record.y


def test_recover_beyond_radius(code5):
    rng = random.Random(3)
    for _ in range(15):
        instance = random_low_rank(4, 4, 2, 5, rng=rng)
        record = measure(code5, instance.matrix)
        result = recover(code5, record)
        if result is not None:
            assert measure(code5, result).y == record.y
            assert rank(result) <= code5.radius


PIPELINE_TOWERS = ["cyclotomic:5", "cyclotomic:7", "cyclotomic:11", "kummer:4"]


@functools.cache
def pipeline_code(spec, k):
    tower = tower_from_spec(spec)
    return build_code(tower, tower.m, k)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_pipeline_property(data):
    # rank <= t recovers exactly; beyond t, None or a rank <= t matrix with
    # the same measurement
    spec = data.draw(st.sampled_from(PIPELINE_TOWERS))
    m = pipeline_code(spec, 1).n
    code = pipeline_code(spec, data.draw(st.integers(1, m)))
    planted = data.draw(st.integers(0, m - code.k))
    height = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    field = code.tower.scalar_field
    matrix = random_low_rank(m, m, planted, height, rng=rng, field=field).matrix
    record = measure(code, matrix)
    result = recover(code, record)
    if planted <= code.radius:
        assert result == matrix
    elif result is not None:
        assert rank(result) <= code.radius
        assert measure(code, result).y == record.y


def test_recover_validates_record(code5, code_k4):
    record = measure(code_k4, zero_matrix(code_k4.tower.scalar_field, 4, 4))
    with pytest.raises(ValueError):
        recover(code5, record)
    with pytest.raises(ValueError):
        MeasurementRecord((Fraction(0),) * 5, record.code_descriptor)


def test_random_low_rank_ranks():
    rng = random.Random(4)
    for r in (0, 1, 2, 3):
        instance = random_low_rank(4, 4, r, 10, rng=rng)
        assert instance.planted_rank == r
        assert rank(instance.matrix) == r
    assert random_low_rank(3, 5, 0, 1, rng=rng).matrix == zero_matrix(QQ, 3, 5)
    with pytest.raises(ValueError):
        random_low_rank(3, 5, 4, 10, rng=rng)
    with pytest.raises(ValueError):
        random_low_rank(3, 5, 1, 0, rng=rng)


def test_random_low_rank_over_extension_base(kummer4):
    rng = random.Random(5)
    instance = random_low_rank(4, 4, 2, 5, rng=rng, field=kummer4.scalar_field)
    assert rank(instance.matrix) == 2


def test_approximate_half_is_exact():
    rows = [[0.5, 1.5], [2.5, -0.5]]
    out = approximate_real(rows, 0.3)
    assert out.entries == ((Fraction(1, 2), Fraction(3, 2)), (Fraction(5, 2), Fraction(-1, 2)))
    assert frobenius_error_sq(out, rows) == 0


def test_approximate_pi_convergent():
    out = approximate_real([[math.pi]], 1e-4)
    assert out.entries[0][0] == Fraction(333, 106)


def test_approximate_real_norm_bound():
    rng = random.Random(6)
    eps = 1e-6
    for _ in range(10):
        rows = [[rng.uniform(-10, 10) for _ in range(4)] for _ in range(4)]
        out = approximate_real(rows, eps)
        error_sq = frobenius_error_sq(out, rows)
        assert error_sq < Fraction(eps) ** 2
        # independent check in 60-digit floating arithmetic
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            for i in range(4):
                for j in range(4):
                    diff = mpmath.mpf(rows[i][j]) - mpmath.mpf(
                        out.entries[i][j].numerator
                    ) / mpmath.mpf(out.entries[i][j].denominator)
                    total += diff * diff
            assert mpmath.sqrt(total) < eps


def test_approximate_real_rejects_bad_input():
    with pytest.raises(ValueError):
        approximate_real([[float("nan")]], 1e-3)
    with pytest.raises(ValueError):
        approximate_real([[float("inf")]], 1e-3)
    with pytest.raises(ValueError):
        approximate_real([[1.0]], 0)
    with pytest.raises(ValueError):
        approximate_real([], 1e-3)
    with pytest.raises(ValueError):
        approximate_real([[1.0], [1.0, 2.0]], 1e-3)


def test_approximate_complex_imaginary_unit(kummer4):
    out = approximate_complex([[1j]], 1e-6, kummer4)
    assert out.entries[0][0] == kummer4.imaginary_unit()
    assert frobenius_error_sq(out, [[1j]]) == 0


def test_approximate_complex_real_input_matches_real_path(kummer4):
    rows = [[0.25, -1.75], [3.0, 0.125]]
    out = approximate_complex(rows, 1e-6, kummer4)
    real_out = approximate_real(rows, 1e-6)
    base = kummer4.scalar_field
    for i in range(2):
        for j in range(2):
            assert out.entries[i][j] == base.coerce(real_out.entries[i][j])


def test_approximate_complex_norm_bound(kummer4):
    rng = random.Random(7)
    eps = 1e-6
    for _ in range(10):
        rows = [
            [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
            for _ in range(3)
        ]
        out = approximate_complex(rows, eps, kummer4)
        assert frobenius_error_sq(out, rows) < Fraction(eps) ** 2


def test_approximate_complex_needs_kummer(zeta5):
    with pytest.raises(ValueError):
        approximate_complex([[1j]], 1e-3, zeta5)


def test_record_json_roundtrip(code5, code_k4):
    rng = random.Random(8)
    for code in (code5, code_k4):
        field = code.tower.scalar_field
        instance = random_low_rank(4, 4, 1, 5, rng=rng, field=field)
        record = measure(code, instance.matrix)
        payload = record_to_json(record, field)
        assert payload["order"] == "row-major"
        assert record_from_json(payload, field) == record
        assert recover(code, record_from_json(payload, field)) == instance.matrix


def test_record_json_rejects_other_orders(code5):
    field = code5.tower.scalar_field
    payload = record_to_json(measure(code5, zero_matrix(field, 4, 4)), field)
    del payload["order"]  # records without an order are row-major
    assert record_from_json(payload, field).y == (0,) * 8
    payload["order"] = "column-major"
    with pytest.raises(ValueError, match="column-major"):
        record_from_json(payload, field)


@given(st.fractions())
def test_convergents_terminate_at_value(x):
    *_, last = rational_convergents(x)
    assert last == x


@settings(max_examples=200)
@given(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=12),
)
def test_approximation_respects_budget(value, exponent):
    eps = Fraction(10) ** -exponent
    out = approximate_real([[value]], eps)
    assert (Fraction(value) - out.entries[0][0]) ** 2 < eps * eps
