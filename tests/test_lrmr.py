"""Measurement operator, exact recovery, and rational approximation."""

import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axpy, rand_poly, rand_scalar, zero_matrix
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
            x = random_low_rank(4, 4, 2, 5, rng=rng, field=field)
            y = random_low_rank(4, 4, 2, 5, rng=rng, field=field)
            a = field.coerce(rng.randint(-5, 5))
            lhs = measure(code, axpy(a, x, y)).y
            rhs = tuple(
                a * u + v for u, v in zip(measure(code, x).y, measure(code, y).y)
            )
            assert lhs == rhs


def test_measure_validates_input(code5, zeta5, kummer4):
    # measure takes exactly the m-by-n matrices over K, for every n <= m
    with pytest.raises(ValueError):
        measure(code5, zero_matrix(QQ, 3, 4))
    with pytest.raises(ValueError):
        measure(code5, zero_matrix(kummer4.scalar_field, 4, 4))
    small = build_code(zeta5, 2, 1)
    assert measure(small, zero_matrix(QQ, 4, 2)).y == (0,) * 4  # m*(n-k) numbers
    for rows, cols in ((4, 3), (2, 2)):
        with pytest.raises(ValueError, match="matrix"):
            measure(small, zero_matrix(QQ, rows, cols))


def test_recover_roundtrip(code5, code_k4):
    rng = random.Random(2)
    for code in (code5, code_k4):
        field = code.tower.scalar_field
        for r in (0, 1):
            for _ in range(10):
                matrix = random_low_rank(4, 4, r, 10, rng=rng, field=field)
                record = measure(code, matrix)
                assert recover(code, record) == matrix


@pytest.mark.parametrize(
    "spec, n, k, r",
    [
        ("cyclotomic:11", 6, 2, 2),
        ("cyclotomic:13", 8, 2, 3),
        ("kummer:4", 3, 1, 1),
        ("kummer:12", 6, 2, 2),
    ],
)
def test_recover_rectangular_roundtrip(spec, n, k, r):
    # n < m: an m-by-n matrix of rank t = (n-k)//2 measures into m*(n-k)
    # numbers and comes back exactly, also through the JSON record
    tower = tower_from_spec(spec)
    code = build_code(tower, n, k)
    field = tower.scalar_field
    rng = random.Random(9)
    for _ in range(3):
        matrix = random_low_rank(tower.m, n, r, 10, rng=rng, field=field)
        record = measure(code, matrix)
        assert len(record.y) == tower.m * (n - k)
        payload = record_to_json(record, field)
        assert record_from_json(payload, field) == record
        assert recover(code, record_from_json(payload, field)) == matrix


def test_recover_kummer12_full_size():
    # the largest tower at full length: n = m = 12, k = 4, so t = 4
    tower = make_tower("kummer", 12)
    code = build_code(tower, 12, 4)
    field = tower.scalar_field
    matrix = random_low_rank(12, 12, 2, 10, rng=random.Random(0), field=field)
    assert recover(code, measure(code, matrix)) == matrix


def test_recover_cyclotomic23_at_radius_eight():
    # n = m = 22, k = 6, so t = 8: the kernel takes eight Bareiss steps,
    # where pivots of doubling height made one recovery take seconds
    tower = make_tower("cyclotomic", 23)
    code = build_code(tower, 22, 6)
    matrix = random_low_rank(22, 22, 8, 10, rng=random.Random(0))
    assert recover(code, measure(code, matrix)) == matrix


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
    assert recover(code, measure(code, within)) == within
    beyond = random_low_rank(8, 8, 3, 10, rng=rng, field=field)
    record = measure(code, beyond)
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
    assert recover(code, measure(code, within)) == within
    beyond = random_low_rank(4, 4, 2, 10, rng=rng, field=field)
    record = measure(code, beyond)
    result = recover(code, record)
    if result is not None:
        assert rank(result) <= code.radius
        assert measure(code, result).y == record.y


def test_recover_beyond_radius(code5):
    rng = random.Random(3)
    for _ in range(15):
        matrix = random_low_rank(4, 4, 2, 5, rng=rng)
        record = measure(code5, matrix)
        result = recover(code5, record)
        if result is not None:
            assert measure(code5, result).y == record.y
            assert rank(result) <= code5.radius


PIPELINE_TOWERS = ["cyclotomic:5", "cyclotomic:7", "cyclotomic:11", "kummer:4"]


@functools.cache
def pipeline_tower(spec):
    return tower_from_spec(spec)


@functools.cache
def pipeline_code(spec, n, k):
    return build_code(pipeline_tower(spec), n, k)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_pipeline_property(data):
    # for every k <= n <= m: rank <= t recovers exactly; beyond t, and for a
    # uniformly random record that no planted matrix need reach, None or a
    # rank <= t matrix with the same measurement
    spec = data.draw(st.sampled_from(PIPELINE_TOWERS))
    m = pipeline_tower(spec).m
    k = data.draw(st.integers(1, m))
    n = data.draw(st.integers(k, m))
    code = pipeline_code(spec, n, k)
    planted = None if data.draw(st.booleans()) else data.draw(st.integers(0, n - k))
    height = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    if planted is None:
        y = [rand_scalar(code.tower, rng, height) for _ in range(m * (n - k))]
        record = MeasurementRecord(tuple(y), code_to_descriptor(code))
    else:
        field = code.tower.scalar_field
        matrix = random_low_rank(m, n, planted, height, rng=rng, field=field)
        record = measure(code, matrix)
    result = recover(code, record)
    if planted is not None and planted <= code.radius:
        assert result == matrix
    elif result is not None:
        assert rank(result) <= code.radius
        assert measure(code, result).y == record.y


def test_recover_validates_record(code5, code_k4):
    # recover takes exactly the m*(n-k) numbers of a record of its own code,
    # on a square code and on a rectangular one; an extra number is never
    # silently ignored
    record = measure(code_k4, zero_matrix(code_k4.tower.scalar_field, 4, 4))
    with pytest.raises(ValueError, match="different code"):
        recover(code5, record)
    rng = random.Random(10)
    for code in (code5, build_code(tower_from_spec("cyclotomic:11"), 6, 2)):
        m = code.tower.m
        planted = random_low_rank(m, code.n, 1, 5, rng=rng)
        y = measure(code, planted).y
        assert len(y) == m * (code.n - code.k)
        for wrong in (y + (Fraction(1),), y[:-1]):
            with pytest.raises(ValueError, match="measurement length"):
                recover(code, MeasurementRecord(wrong, code_to_descriptor(code)))
    # True is an int, but no measured number: it is refused, not read as 1
    for code in (code5, code_k4):
        y = measure(code, zero_matrix(code.tower.scalar_field, 4, 4)).y
        with pytest.raises(ValueError, match="bool"):
            recover(code, MeasurementRecord((True,) + y[1:], code_to_descriptor(code)))
        # nor is any other non-rational, on either tower
        for bad in (0.5, "1", None):
            with pytest.raises(ValueError, match="not a base-field element"):
                recover(code, MeasurementRecord((bad,) + y[1:], code_to_descriptor(code)))


def test_random_low_rank_ranks():
    rng = random.Random(4)
    for r in (0, 1, 2, 3):
        matrix = random_low_rank(4, 4, r, 10, rng=rng)
        assert rank(matrix) == r
    assert random_low_rank(3, 5, 0, 1, rng=rng) == zero_matrix(QQ, 3, 5)
    with pytest.raises(ValueError):
        random_low_rank(3, 5, 4, 10, rng=rng)
    with pytest.raises(ValueError):
        random_low_rank(3, 5, 1, 0, rng=rng)


def test_random_low_rank_over_extension_base(kummer4):
    rng = random.Random(5)
    matrix = random_low_rank(4, 4, 2, 5, rng=rng, field=kummer4.scalar_field)
    assert rank(matrix) == 2


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
        matrix = random_low_rank(4, 4, 1, 5, rng=rng, field=field)
        record = measure(code, matrix)
        payload = record_to_json(record, field)
        assert payload["order"] == "row-major"
        assert record_from_json(payload, field) == record
        assert recover(code, record_from_json(payload, field)) == matrix


def test_record_json_rejects_other_orders(code5):
    field = code5.tower.scalar_field
    payload = record_to_json(measure(code5, zero_matrix(field, 4, 4)), field)
    del payload["order"]  # records without an order are row-major
    assert record_from_json(payload, field).y == (0,) * 8
    payload["order"] = "column-major"
    with pytest.raises(ValueError, match="column-major"):
        record_from_json(payload, field)


def test_loaders_refuse_malformed_json(code5, code_k4):
    # every probe is refused with ValueError: none is read as another record
    # or code, and none escapes as AttributeError, KeyError or TypeError
    field = code5.tower.scalar_field
    payload = record_to_json(measure(code5, zero_matrix(field, 4, 4)), field)
    records = [
        [payload],
        {key: v for key, v in payload.items() if key != "y"},
        {key: v for key, v in payload.items() if key != "code"},
        {**payload, "y": "12345678"},
        {**payload, "y": [0] * 8},
        {**payload, "y": [None] * 8},
        {**payload, "code": [["n", 4]]},
    ]
    for bad in records:
        with pytest.raises(ValueError):
            record_from_json(bad, field)
    descriptor = code_to_descriptor(code_k4)
    descriptors = [{key: v for key, v in descriptor.items() if key != drop} for drop in
                   ("towerKind", "towerParam", "n", "k", "g")]
    descriptors += [{**descriptor, key: value} for key in ("towerParam", "n", "k")
                    for value in (2.7, 4.0, True, "4")]
    descriptors += [{**descriptor, "g": value} for value in ("((1,0))", [1, 2, 3, 4], None)]
    descriptors += [{**descriptor, "radicand": value} for value in (2, None, "1/0")]
    for bad in [[descriptor], *descriptors]:
        with pytest.raises(ValueError):
            code_from_descriptor(bad)


RETYPES = (float, bool, str, list, type(None))


def _retyped(value, kind):
    if kind is float:
        return float(value) if type(value) is int else 0.5
    if kind is str:
        return str(value)
    return {bool: True, list: [value], type(None): None}[kind]


def _mutate(data, mapping):
    key = data.draw(st.sampled_from(sorted(mapping)))
    action = data.draw(st.sampled_from(["drop", "retype", "retype entry", "shift"]))
    if action == "drop":
        del mapping[key]
    elif action == "retype entry" and isinstance(mapping[key], list):
        i = data.draw(st.integers(0, len(mapping[key]) - 1))
        kinds = [kind for kind in RETYPES if kind is not str]
        mapping[key][i] = _retyped(mapping[key][i], data.draw(st.sampled_from(kinds)))
    elif action == "shift" and key in ("n", "k"):
        mapping[key] += data.draw(st.sampled_from([-1, 1]))
    else:
        kinds = [kind for kind in RETYPES if not isinstance(mapping[key], kind)]
        mapping[key] = _retyped(mapping[key], data.draw(st.sampled_from(kinds)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_records_raise_or_recover_exactly(data):
    # a mutated record or descriptor is refused with ValueError or, when the
    # mutation changes nothing that matters, recovers the planted matrix
    spec = data.draw(st.sampled_from(["cyclotomic:5", "kummer:4"]))
    code = pipeline_code(spec, 4, 2)
    field = code.tower.scalar_field
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    matrix = random_low_rank(4, 4, code.radius, 5, rng=rng, field=field)
    payload = record_to_json(measure(code, matrix), field)
    if data.draw(st.booleans()):
        # one character per entry: iterating the string would yield as many entries
        payload["y"] = "".join(t[-1] for t in payload["y"])
    else:
        _mutate(data, data.draw(st.sampled_from([payload, payload["code"]])))
    try:
        record = record_from_json(payload, field)
        result = recover(code_from_descriptor(record.code_descriptor), record)
    except ValueError:
        return
    assert result == matrix


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
