"""Code construction, encoding, and bounded-minimum-distance decoding."""

import collections
import dataclasses
import json
import random
from fractions import Fraction

import pytest

from conftest import (
    mul_vec,
    rand_element,
    rand_error,
    rand_nonzero_element,
    rand_vector,
    reference_key_system_decode,
    reference_skew_mul,
    reference_wb_decode,
    solve,
)
from gabrec import (
    DecodeResult,
    Matrix,
    SkewPoly,
    build_code,
    code_from_descriptor,
    code_to_descriptor,
    encode,
    make_tower,
    measure,
    msp,
    random_low_rank,
    rank,
    rank_weight,
    recover,
    right_kernel,
    syndrome_decode,
    theta_matrix,
    wb_decode,
)
from gabrec import gabidulin


@pytest.fixture(scope="module")
def code5(zeta5):
    return build_code(zeta5, 4, 2)


@pytest.fixture(scope="module")
def code_k4(kummer4):
    return build_code(kummer4, 4, 2)


def rand_message(code, rng, height=5):
    return SkewPoly(
        code.tower,
        [rand_element(code.tower, rng, height) for _ in range(code.k)],
    )


def test_generator_is_theta_moore(code5, zeta5):
    zeta = zeta5.basis[1]
    assert list(code5.generator.entries[0]) == list(zeta5.basis)
    assert list(code5.generator.entries[1]) == [zeta5.one, zeta**2, zeta**4, zeta]
    assert code5.radius == 1
    assert code5.design_distance == 3


def assert_systematic(code):
    # syndrome_decode relies on H being the identity on its last n-k columns
    one, zero, size = code.tower.one, code.tower.zero, code.n - code.k
    assert [list(row[code.k :]) for row in code.parity_check.entries] == [
        [one if j == i else zero for j in range(size)] for i in range(size)
    ]


def test_parity_check_shape(code5, zeta5, kummer4, monkeypatch):
    assert code5.parity_check.shape == (2, 4)
    for row in code5.generator.entries:  # G H^T = 0
        assert not any(mul_vec(code5.parity_check, row))
    assert rank(code5.parity_check) == 2
    for tower in (zeta5, make_tower("cyclotomic", 7), kummer4):
        for k in range(1, tower.m + 1):
            assert_systematic(build_code(tower, tower.m, k))
    zeta = zeta5.basis[1]
    assert_systematic(build_code(zeta5, 3, 1, [zeta, zeta**2, zeta5.one]))

    right_kernel = gabidulin.right_kernel

    def rescaled(matrix):
        basis = right_kernel(matrix)
        return Matrix(basis.field, [[2 * x for x in row] for row in basis.entries])

    monkeypatch.setattr(gabidulin, "right_kernel", rescaled)
    with pytest.raises(AssertionError):
        build_code(zeta5, 4, 2)


def test_build_rejects_bad_parameters(zeta5):
    with pytest.raises(ValueError):
        build_code(zeta5, 5, 2)  # n > m
    with pytest.raises(ValueError):
        build_code(zeta5, 3, 4)  # k > n
    with pytest.raises(ValueError):
        build_code(zeta5, 2, 0)
    zeta = zeta5.basis[1]
    with pytest.raises(ValueError):
        # 1 + zeta depends on the first two points
        build_code(zeta5, 3, 2, [zeta5.one, zeta, zeta5.one + zeta])


def test_custom_points(zeta5):
    zeta = zeta5.basis[1]
    points = [zeta, zeta**2, zeta5.one]
    code = build_code(zeta5, 3, 1, points)
    assert code.points == tuple(points)


def test_encode_constant_gives_points(code5):
    one = SkewPoly.constant(code5.tower, code5.tower.one)
    assert encode(code5, one) == list(code5.points)


def test_encode_x_gives_theta_of_points(code5):
    x = SkewPoly(code5.tower, [code5.tower.zero, code5.tower.one])
    assert encode(code5, x) == [g.theta() for g in code5.points]


def test_encode_zero(code5):
    assert encode(code5, SkewPoly(code5.tower)) == [code5.tower.zero] * 4


def test_encode_rejects_large_degree(code5):
    with pytest.raises(ValueError):
        encode(code5, SkewPoly(code5.tower, [code5.tower.zero] * code5.k + [code5.tower.one]))


@pytest.fixture(scope="module")
def map_codes(zeta5, kummer4):
    """Every k at n = m on three towers, a short kummer:12 code and custom points."""
    codes = []
    for tower in (zeta5, make_tower("cyclotomic", 7), kummer4):
        codes += [build_code(tower, tower.m, k) for k in range(1, tower.m + 1)]
    kummer12 = make_tower("kummer", 12)
    codes += [build_code(kummer12, 4, k) for k in range(1, 5)]
    zeta = zeta5.basis[1]
    codes += [build_code(zeta5, 3, k, [zeta, zeta**2, zeta5.one]) for k in range(1, 4)]
    return codes


def test_encode_is_evaluation_at_points(map_codes):
    # the product with G agrees with evaluating the message at every point
    rng = random.Random(14)
    for code in map_codes:
        tower = code.tower
        messages = [SkewPoly(tower)]
        for degree in range(code.k):
            coeffs = [rand_element(tower, rng, 2) for _ in range(degree)]
            messages.append(SkewPoly(tower, [*coeffs, rand_nonzero_element(tower, rng, 2)]))
        for f in messages:
            assert encode(code, f) == [f.evaluate(g) for g in code.points]


def test_syndrome_is_product_with_parity_check(map_codes):
    # the head-only syndrome equals the full product, zero head or not
    rng = random.Random(15)
    for code in map_codes:
        tower, k = code.tower, code.k
        tail = rand_vector(tower, rng, code.n - k, 2)
        for head in ([tower.zero] * k, rand_vector(tower, rng, k, 2)):
            word = head + tail
            syndrome = code.syndrome(word)
            assert len(syndrome) == code.n - k  # empty at k = n
            assert syndrome == mul_vec(code.parity_check, word)


def test_codewords_satisfy_parity_check(code5):
    rng = random.Random(0)
    for _ in range(10):
        c = encode(code5, rand_message(code5, rng))
        assert all(not v for v in mul_vec(code5.parity_check, c))


def test_decode_clean_word(code5):
    rng = random.Random(1)
    for _ in range(10):
        f = rand_message(code5, rng)
        result = wb_decode(code5, encode(code5, f))
        assert result.success
        assert result.message == f
        assert all(not e for e in result.error)


def assert_valid_success(code, received, result):
    assert list(result.codeword) == encode(code, result.message)
    assert [c + e for c, e in zip(result.codeword, result.error)] == received
    assert all(not v for v in mul_vec(code.parity_check, list(result.codeword)))
    assert result.message.degree < code.k
    assert rank_weight(code.tower, list(result.error), "B") <= code.radius


def test_decode_rank_one_error(code5, code_k4):
    rng = random.Random(2)
    for code in (code5, code_k4):
        for _ in range(25):
            f = rand_message(code, rng, height=4)
            c = encode(code, f)
            e = rand_error(code.tower, rng, code.n, 1)
            received = [ci + ei for ci, ei in zip(c, e)]
            result = wb_decode(code, received)
            assert result.success
            assert result.message == f
            assert list(result.error) == e
            assert_valid_success(code, received, result)


def test_decode_beyond_radius_never_lies(code5):
    rng = random.Random(3)
    failures = 0
    for _ in range(25):
        f = rand_message(code5, rng, height=3)
        c = encode(code5, f)
        e = rand_error(code5.tower, rng, code5.n, 2)
        received = [ci + ei for ci, ei in zip(c, e)]
        result = wb_decode(code5, received)
        if result.success:
            assert_valid_success(code5, received, result)
        else:
            failures += 1
    assert failures > 0  # weight 2 exceeds the radius of a (4, 2) code


def test_decode_matches_full_kernel_reference(zeta5, kummer4):
    # every k (t = 0 included), error ranks up to one past n-k, and each word
    # both as received and as its zero-prefix form (0, ..., 0, H r)
    rng = random.Random(13)
    for tower in (zeta5, make_tower("cyclotomic", 7), kummer4):
        n = tower.m
        for k in range(1, n + 1):
            code = build_code(tower, n, k)
            for weight in range(n - k + 2):
                c = encode(code, rand_message(code, rng, height=3))
                e = rand_error(tower, rng, n, weight, height=2)
                received = [ci + ei for ci, ei in zip(c, e)]
                prefixed = [tower.zero] * k + mul_vec(code.parity_check, received)
                for word in (received, prefixed):
                    result = wb_decode(code, word)
                    assert result == reference_wb_decode(code, word)
                    if weight <= code.radius:
                        assert result.success


def test_syndrome_decode_zero(code5):
    zero_syndrome = [code5.tower.zero] * 2
    result = syndrome_decode(code5, zero_syndrome)
    assert result.success
    assert list(result.error) == [code5.tower.zero] * 4
    assert result.message.is_zero()


def reference_syndrome_decode(code, syndrome):
    # decode a preimage found by a linear solve, then subtract the codeword
    preimage = solve(code.parity_check, syndrome)
    result = wb_decode(code, preimage)
    if not result.success:
        return None
    return [x - c for x, c in zip(preimage, result.codeword)]


def test_syndrome_decode_rank_one(code5, code_k4):
    rng = random.Random(4)
    for code in (code5, code_k4):
        for _ in range(25):
            e = rand_error(code.tower, rng, code.n, 1)
            syndrome = mul_vec(code.parity_check, e)
            recovered = syndrome_decode(code, syndrome)
            assert recovered.success
            assert list(recovered.error) == e
            assert list(recovered.error) == reference_syndrome_decode(code, syndrome)


def test_syndrome_decode_beyond_radius(code5):
    rng = random.Random(5)
    for _ in range(15):
        e = rand_error(code5.tower, rng, code5.n, 2)
        syndrome = mul_vec(code5.parity_check, e)
        recovered = syndrome_decode(code5, syndrome)
        error = list(recovered.error) if recovered.success else None
        assert error == reference_syndrome_decode(code5, syndrome)
        if recovered.success:
            assert mul_vec(code5.parity_check, error) == syndrome
            assert rank_weight(code5.tower, error, "B") <= code5.radius
        else:
            assert recovered.reason in ("no_kernel", "remainder", "degree")


ORACLE_TOWERS = [
    ("cyclotomic", 5, 2),
    ("cyclotomic", 7, 2),
    ("cyclotomic", 11, 2),
    ("kummer", 4, 2),
    ("kummer", 4, Fraction(3, 2)),
    ("kummer", 8, 3),
]


def test_random_syndromes_match_rank_checked_reference(monkeypatch):
    # Uniformly random syndromes, which no planted error of small rank
    # reaches.  The decoder trusts its exact division; the reference keeps
    # the rank check, so any success the division alone lets through as a
    # wrong answer shows up as a mismatch.
    exits = collections.Counter()
    divide = gabidulin._left_divide_sums
    remainders = []

    def divide_spy(numerator, locator):
        quotient, remainder = divide(numerator, locator)
        remainders.append(remainder)
        return quotient, remainder

    monkeypatch.setattr(gabidulin, "_left_divide_sums", divide_spy)
    rng = random.Random(15)
    for spec in ORACLE_TOWERS:
        tower = make_tower(*spec)
        n = tower.m
        for k in range(1, n + 1):
            code = build_code(tower, n, k)
            for _ in range(2 if n > 6 else 4):
                syndrome = rand_vector(tower, rng, n - k, height=3)
                remainders.clear()
                recovered = syndrome_decode(code, syndrome)
                assert recovered == reference_wb_decode(code, [tower.zero] * k + syndrome)
                if recovered.success:
                    error = list(recovered.error)
                    assert mul_vec(code.parity_check, error) == syndrome
                    assert rank_weight(tower, error, "B") <= code.radius
                    reason = None
                elif not remainders:
                    # the interpolation system is square only when n-k is odd
                    assert (n - k) % 2 == 1, (spec, k)
                    reason = "no_kernel"
                else:
                    reason = "degree" if remainders[0].is_zero() else "remainder"
                assert recovered.reason == reason, (spec, k)
                exits[reason] += 1
    assert exits["no_kernel"] > 0 and exits["remainder"] > 0, exits


def test_word_decode_reduces_to_syndrome_decode(monkeypatch):
    # wb_decode hands a word's syndrome to syndrome_decode; a zero-head word
    # is its syndrome's own preimage, so both decode it alike, reason
    # included, and nothing is added back (no zero head is interpolated)
    interpolated = []
    interpolate = gabidulin._interpolate

    def interpolate_spy(code, values):
        interpolated.append(values)
        return interpolate(code, values)

    monkeypatch.setattr(gabidulin, "_interpolate", interpolate_spy)
    outcomes = collections.Counter()
    rng = random.Random(19)
    for spec in ORACLE_TOWERS:
        tower = make_tower(*spec)
        n = tower.m
        for k in range(1, n + 1):
            code = build_code(tower, n, k)
            planted = rand_error(tower, rng, n, code.radius, height=2)
            for s in (mul_vec(code.parity_check, planted), rand_vector(tower, rng, n - k, 3)):
                expected = syndrome_decode(code, s)
                result = wb_decode(code, [tower.zero] * k + s)
                assert result == expected, (spec, k)
                assert result.reason == expected.reason, (spec, k)
                outcomes[expected.reason] += 1
    assert not interpolated
    assert outcomes[None] > 0 and sum(outcomes.values()) > outcomes[None], outcomes


def test_word_of_degree_k_fails_by_degree():
    # The word (c P)(g), P = msp(g_0, ..., g_(k-1)), has syndrome s = c h, so
    # V = 1, Q = c solves the system first and the exact quotient c P has
    # degree k.  No codeword lies within t of it: every solution would
    # then divide to the same message of degree below k.
    rng = random.Random(17)
    for tower in (make_tower("cyclotomic", 7), make_tower("kummer", 4)):
        n = tower.m
        for k in range(1, n - 1):
            code = build_code(tower, n, k)
            c = SkewPoly.constant(tower, rand_nonzero_element(tower, rng, 3))
            word = [(c * code.annihilator).evaluate(g) for g in code.points]
            result = wb_decode(code, word)
            assert result == DecodeResult(success=False)
            assert result.reason == "degree"
            assert reference_key_system_decode(code, word).reason == "degree"
            assert not reference_wb_decode(code, word).success


@pytest.mark.parametrize("spec", ORACLE_TOWERS, ids=lambda p: ":".join(map(str, p)))
def test_decode_matches_key_system_reference(spec):
    # The decoder eliminates the h block A once per code; the reference solves
    # the whole (n-k)-by-(2t+1) system per word.  Reduced echelon forms are
    # unique, so both take the same kernel vector: planted errors of every
    # weight up to one past n-k and random syndromes beyond the radius.
    tower = make_tower(*spec)
    rng = random.Random(16)
    n = tower.m
    for k in range(1, n + 1):
        code = build_code(tower, n, k)
        words = []
        for weight in range(n - k + 2):
            c = encode(code, rand_message(code, rng, height=2))
            e = rand_error(tower, rng, n, weight, height=2)
            words.append([ci + ei for ci, ei in zip(c, e)])
        words.append([tower.zero] * k + rand_vector(tower, rng, n - k, height=3))
        for word in words:
            result = wb_decode(code, word)
            reference = reference_key_system_decode(code, word)
            assert result == reference
            assert result.reason == reference.reason


def test_locator_is_the_error_span_annihilator(monkeypatch):
    # Within the radius the first free column gives the kernel vector whose
    # V has the least degree: degree rank(e) and zero on every entry of e, so
    # V is msp(e) times its lead, a minor of B (Cramer scale).  Any other
    # kernel vector decodes the same word to the same result, so only the
    # locator tells them apart.
    locators = []
    divide = gabidulin._left_divide_sums

    def spy(numerator, locator):
        locators.append(locator)
        return divide(numerator, locator)

    monkeypatch.setattr(gabidulin, "_left_divide_sums", spy)
    rng = random.Random(18)
    for tower in (make_tower("cyclotomic", 7), make_tower("kummer", 4)):
        n = tower.m
        for k in range(1, n + 1):
            code = build_code(tower, n, k)
            for weight in range(code.radius + 1):
                c = encode(code, rand_message(code, rng, height=2))
                e = rand_error(tower, rng, n, weight, height=2)
                assert wb_decode(code, [ci + ei for ci, ei in zip(c, e)]).success
                locator = locators[-1]
                assert locator.degree == weight
                assert not any(locator.evaluate(x) for x in e)
                assert locator == locator.coeffs[-1] * msp(tower, e)


def test_key_reduction_rejects_a_rank_deficient_h_block(code5, monkeypatch):
    code = dataclasses.replace(code5)
    monkeypatch.setattr(
        gabidulin,
        "theta_matrix",
        lambda tower, vector, s: Matrix(tower, [[tower.zero] * len(vector)] * s, cols=len(vector)),
    )
    with pytest.raises(AssertionError):
        code.key_reduction


def test_word_decode_rejects_a_singular_head_block(code5, code_k4):
    # the head of a word is interpolated on G[:, :k]; a singular head block
    # has no unique interpolant, so the decoder stops in place of returning
    # a wrong message
    rng = random.Random(22)
    for code in (code5, code_k4):
        tower = code.tower
        columns = list(zip(*code.generator.entries))
        columns[1] = columns[0]
        singular = dataclasses.replace(
            code, generator=Matrix(tower, list(zip(*columns)), cols=code.n)
        )
        word = encode(code, rand_message(code, rng, height=3))
        assert any(word[: code.k])
        with pytest.raises(AssertionError):
            wb_decode(singular, word)


def test_syndrome_length_validation(code5):
    with pytest.raises(ValueError):
        syndrome_decode(code5, [code5.tower.zero] * 3)
    for length in (3, 5):  # the syndrome map takes length-n words
        with pytest.raises(ValueError):
            code5.syndrome([code5.tower.zero] * length)


def test_min_weight_evidence(code5, code_k4):
    rng = random.Random(6)
    for code in (code5, code_k4):
        for _ in range(20):
            f = rand_message(code, rng, height=4)
            while f.is_zero():
                f = rand_message(code, rng, height=4)
            c = encode(code, f)
            assert rank_weight(code.tower, c, "B") >= code.design_distance


def test_descriptor_roundtrip(code5, code_k4):
    for code in (code5, code_k4):
        descriptor = code_to_descriptor(code)
        text = json.dumps(descriptor)
        rebuilt = code_from_descriptor(json.loads(text))
        assert rebuilt.tower == code.tower
        assert rebuilt.points == code.points
        assert rebuilt.generator == code.generator
        assert rebuilt.parity_check == code.parity_check


def test_descriptor_fields(code5, code_k4):
    d5 = code_to_descriptor(code5)
    assert d5 == {
        "towerKind": "cyclotomic",
        "towerParam": 5,
        "n": 4,
        "k": 2,
        "g": ["(1,0,0,0)", "(0,1,0,0)", "(0,0,1,0)", "(0,0,0,1)"],
    }
    dk = code_to_descriptor(code_k4)
    assert dk["towerKind"] == "kummer"
    assert dk["radicand"] == "2"


def test_kummer12_round_trip():
    # x^12 - 2 is irreducible over Q(zeta_12); a short code keeps this cheap
    tower = make_tower("kummer", 12)
    code = build_code(tower, 4, 2)
    assert_systematic(code)
    rng = random.Random(8)
    errors = [rand_error(tower, rng, code.n, 1, height=2) for _ in range(2)]
    f = rand_message(code, rng, height=2)
    received = [ci + ei for ci, ei in zip(encode(code, f), errors[0])]
    result = wb_decode(code, received)
    assert result.success
    assert result.message == f
    assert list(result.error) == errors[0]
    for e in errors:
        assert list(syndrome_decode(code, mul_vec(code.parity_check, e)).error) == e


def test_decode_scale_instance():
    tower = make_tower("cyclotomic", 17)
    code = build_code(tower, 8, 4)
    assert code.radius == 2
    rng = random.Random(7)
    f = rand_message(code, rng, height=3)
    c = encode(code, f)
    e = rand_error(tower, rng, 8, 2, height=3)
    result = wb_decode(code, [ci + ei for ci, ei in zip(c, e)])
    assert result.success
    assert result.message == f
    assert list(result.error) == e


CACHED = ("annihilator", "key_reduction", "syndrome_table", "numerator_table", "point_texts")
CACHE_TOWERS = [
    ("cyclotomic", 5),
    ("cyclotomic", 7),
    ("cyclotomic", 11),
    ("kummer", 4, 2),
    ("kummer", 4, Fraction(3, 2)),
]


@pytest.mark.parametrize("params", CACHE_TOWERS, ids=lambda p: ":".join(map(str, p)))
def test_cached_code_constants_match_fresh_computation(params):
    tower = make_tower(*params)
    rng = random.Random(12)
    for k in range(1, tower.m + 1):
        code = build_code(tower, tower.m, k)
        points, t = code.points, code.radius
        p = msp(tower, points[:k])
        assert code.annihilator == p
        assert code.annihilator is code.annihilator
        # y spans the kernel of the (n-k-1)-by-(n-k) Moore matrix theta^e(h_j),
        # and Q_j, of degree < t, is the Lagrange polynomial on h_0, ..., h_(t-1)
        h = [p.evaluate(g) for g in points[k:]]
        y, lagrange = code.key_reduction
        assert len(y) == code.n - k
        assert any(y) or k == code.n
        for e in range(code.n - k - 1):
            assert not sum((y_j * h_j.theta(e) for y_j, h_j in zip(y, h)), tower.zero)
        assert len(lagrange) == t
        for j, q in enumerate(lagrange):
            poly = SkewPoly(tower, q)
            assert len(q) == t and poly.degree < t
            assert [poly.evaluate(h_i) for h_i in h[:t]] == [
                tower.one if i == j else tower.zero for i in range(t)
            ]
        values = [rand_element(tower, rng, 3) for _ in range(k)]
        poly = gabidulin._interpolate(code, values)
        assert poly.degree < k
        assert [poly.evaluate(g) for g in points[:k]] == values
        assert code.point_texts == tuple(tower.to_text(g) for g in points)

        matrix = random_low_rank(
            tower.m, tower.m, t, 5, rng=rng, field=tower.scalar_field
        )
        record = measure(code, matrix)
        first = recover(code, record)
        assert first == matrix
        assert recover(code, record) == first
        assert recover(code_from_descriptor(code_to_descriptor(code)), record) == first
        assert recover(dataclasses.replace(code), record) == first


@pytest.mark.parametrize(
    "params",
    [("cyclotomic", 5), ("cyclotomic", 7), ("kummer", 4, 2), ("kummer", 4, Fraction(3, 2))],
    ids=lambda p: ":".join(map(str, p)),
)
def test_numerator_table_regroups_the_product_with_p(params):
    # W (S v)_top is the numerator the decoder divides: Q = sum_(j<t) (S v)_j Q_j
    # and then the skew product Q * P, for any v and s.  W is built by the
    # library's product, so the expected N is the term-by-term reference product.
    tower = make_tower(*params)
    rng = random.Random(20)
    for k in range(1, tower.m + 1):
        code = build_code(tower, tower.m, k)
        t, r = code.radius, code.n - k
        lagrange = code.key_reduction[1]
        table = code.numerator_table
        assert len(table) == k + t and all(len(row) == t for row in table)
        for _ in range(2):
            s_block = theta_matrix(tower, rand_vector(tower, rng, r, 3), t + 1).entries
            v = rand_vector(tower, rng, t + 1, 3)
            sv = [
                sum((v_i * s_i[j] for v_i, s_i in zip(v, s_block)), tower.zero) for j in range(t)
            ]
            q = [sum((x * q_j[l] for x, q_j in zip(sv, lagrange)), tower.zero) for l in range(t)]
            expected = reference_skew_mul(SkewPoly(tower, q), code.annihilator)
            numerator = [sum((w * x for w, x in zip(row, sv)), tower.zero) for row in table]
            assert SkewPoly(tower, numerator) == expected, k
            assert expected.degree < k + t


@pytest.mark.parametrize("params", CACHE_TOWERS, ids=lambda p: ":".join(map(str, p)))
def test_key_matrix_has_the_row_space_of_the_reduced_system(params, monkeypatch):
    # The decoder's B_di = theta^(-d)(c_(i+d)) and E_bottom S, for any E_bottom
    # whose rows span the left kernel of A_ji = theta^i(h_j), have one row
    # space, so they have one kernel
    matrices = []
    kernel = gabidulin.first_kernel_vector

    def spy(matrix):
        matrices.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(gabidulin, "first_kernel_vector", spy)
    tower = make_tower(*params)
    rng = random.Random(21)
    for k in range(1, tower.m + 1):
        code = build_code(tower, tower.m, k)
        t, r = code.radius, code.n - k
        h = [code.annihilator.evaluate(g) for g in code.points[k:]]
        e_bottom = right_kernel(theta_matrix(tower, h, t)).entries
        assert len(e_bottom) == r - t
        for _ in range(2):
            s = rand_vector(tower, rng, r, 3)
            s_block = theta_matrix(tower, s, t + 1).entries
            reference = [[sum((z * x for z, x in zip(row, s_i)), tower.zero) for s_i in s_block]
                         for row in e_bottom]
            syndrome_decode(code, s)
            b = matrices[-1]
            assert b.shape == (r - t, t + 1)
            stacked = Matrix(tower, [*b.entries, *reference], cols=t + 1)
            assert rank(stacked) == rank(b) == rank(Matrix(tower, reference, cols=t + 1))


def test_descriptor_is_isolated_from_caller_mutation(code5, code_k4):
    for code in (code5, code_k4):
        expected = code_to_descriptor(code)
        record = measure(code, Matrix(code.tower.scalar_field, [[0] * 4] * 4))
        record.code_descriptor["g"][0] = "(9,9,9,9)"
        record.code_descriptor["g"].append("(1,1,1,1)")
        descriptor = code_to_descriptor(code)
        descriptor["g"].pop()
        descriptor["n"] = 99
        assert code_to_descriptor(code) == expected
        assert expected["g"] == [code.tower.to_text(g) for g in code.points]
        assert code_to_descriptor(code)["g"] is not code_to_descriptor(code)["g"]


def test_code_constants_are_computed_on_first_use(zeta5, kummer4):
    for tower in (zeta5, kummer4):
        code = build_code(tower, 4, 2)
        assert not set(CACHED) & vars(code).keys()
        record = measure(code, Matrix(tower.scalar_field, [[0] * 4] * 4))
        # measuring formats the points but needs neither P nor h
        assert set(CACHED) & vars(code).keys() == {"point_texts"}
        recover(code, record)
        assert set(CACHED) <= vars(code).keys()
        assert not set(CACHED) & vars(dataclasses.replace(code)).keys()
