"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they happen; without -s pytest shows them for failing criteria only.  Every
comparison is exact; the only tolerances anywhere are wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import mpmath

from conftest import axpy, rand_element, rand_error, rand_poly, rand_scalar, rand_vector
from gabrec import (
    WEIGHT_KINDS,
    SkewPoly,
    approximate_complex,
    approximate_real,
    build_code,
    encode,
    ext,
    frobenius_error_sq,
    left_divide,
    make_tower,
    measure,
    msp,
    random_low_rank,
    rank,
    rank_weight,
    recover,
    wb_decode,
)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number} ({name}): {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _roundtrip_trials(tower, trials, planted_rank, height):
    code = build_code(tower, tower.m, 2)
    rng = random.Random(20240801)
    exact = 0
    for _ in range(trials):
        instance = random_low_rank(
            tower.m, tower.m, planted_rank, height, rng=rng, field=tower.scalar_field
        )
        record = measure(code, instance.matrix)
        assert len(record.y) == tower.m * (tower.m - 2)
        result = recover(code, record)
        exact += result == instance.matrix
    return exact


def test_criterion_1_roundtrip_real():
    tower = make_tower("cyclotomic", 5)
    start = time.perf_counter()
    exact = _roundtrip_trials(tower, trials=100, planted_rank=1, height=10)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "rank-1 round-trip over the rational tower",
        exact == 100 and elapsed < 10.0,
        f"{exact}/100 exact in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_roundtrip_complex():
    tower = make_tower("kummer", 4)
    start = time.perf_counter()
    exact = _roundtrip_trials(tower, trials=100, planted_rank=1, height=10)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "rank-1 round-trip over the Kummer tower",
        exact == 100 and elapsed < 60.0,
        f"{exact}/100 exact in {elapsed:.2f}s (budget 60s)",
    )


def test_criterion_3_radius_sharpness():
    tower = make_tower("cyclotomic", 5)
    code = build_code(tower, 4, 2)
    rng = random.Random(3)
    silent_violations = 0
    reported_failures = 0
    for _ in range(100):
        instance = random_low_rank(4, 4, 2, 10, rng=rng)
        record = measure(code, instance.matrix)
        result = recover(code, record)
        if result is None:
            reported_failures += 1
        elif not (measure(code, result).y == record.y and rank(result) <= code.radius):
            silent_violations += 1
    _verdict(
        3,
        "no silent success beyond the radius",
        silent_violations == 0,
        f"{reported_failures} reported failures, {silent_violations} silent violations",
    )


def test_criterion_4_weight_chain():
    checked = 0
    for tower in (make_tower("cyclotomic", 5), make_tower("kummer", 4)):
        rng = random.Random(4)
        for _ in range(200):
            vec = rand_vector(tower, rng, rng.randint(1, tower.m + 1), height=3)
            w = {kind: rank_weight(tower, vec, kind) for kind in WEIGHT_KINDS}
            assert w["A"] == w["thetaL"] <= w["thetaK"] == w["B"], (w, vec)
            checked += 1
    _verdict(4, "weight chain", checked == 400, f"{checked} vectors checked")


def test_criterion_5_design_distance_evidence():
    checked = 0
    for tower in (make_tower("cyclotomic", 5), make_tower("kummer", 4)):
        code = build_code(tower, 4, 2)
        rng = random.Random(5)
        for _ in range(100):
            f = rand_poly(tower, rng, code.k - 1, height=4)
            while f.is_zero():
                f = rand_poly(tower, rng, code.k - 1, height=4)
            weight = rank_weight(tower, encode(code, f), "B")
            assert weight >= code.design_distance, (weight, code.design_distance)
            checked += 1
    _verdict(5, "nonzero codewords reach the design distance", checked == 200,
             f"{checked} codewords checked")


def _suite_field_axioms(towers):
    for tower in towers:
        rng = random.Random(61)
        for _ in range(1000):
            a = rand_element(tower, rng, height=3)
            b = rand_element(tower, rng, height=3)
            c = rand_element(tower, rng, height=3)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == tower.one


def _suite_theta(towers):
    for tower in towers:
        rng = random.Random(62)
        gen = tower.generator()
        assert all(gen.theta(j) != gen for j in range(1, tower.m))
        for _ in range(1000):
            a = rand_element(tower, rng, height=3)
            b = rand_element(tower, rng, height=3)
            k = tower.embed_scalar(rand_scalar(tower, rng))
            assert (a * b).theta() == a.theta() * b.theta()
            assert (a + b).theta() == a.theta() + b.theta()
            assert k.theta() == k
            assert a.theta(tower.m) == a


def _suite_skew_ring(towers):
    for tower in towers:
        rng = random.Random(63)
        for _ in range(500):
            a = rand_poly(tower, rng, 3, height=2)
            b = rand_poly(tower, rng, 3, height=2)
            c = rand_poly(tower, rng, 3, height=2)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def _suite_division(towers):
    for tower in towers:
        rng = random.Random(64)
        for _ in range(500):
            n = rand_poly(tower, rng, 4, height=2)
            v = rand_poly(tower, rng, 2, height=2)
            while v.is_zero():
                v = rand_poly(tower, rng, 2, height=2)
            q, r = left_divide(n, v)
            assert v * q + r == n
            assert r.degree < v.degree


def _suite_msp(towers):
    for tower in towers:
        rng = random.Random(65)
        for _ in range(500):
            vec = rand_vector(tower, rng, rng.randint(1, tower.m), height=2)
            poly = msp(tower, vec)
            assert poly.is_monic()
            assert poly.degree == rank(ext(tower, vec))


def test_criterion_6_algebra_suites():
    towers = (make_tower("cyclotomic", 5), make_tower("kummer", 4))
    suites = {
        "field axioms": _suite_field_axioms,
        "theta automorphism": _suite_theta,
        "skew ring axioms": _suite_skew_ring,
        "division identity": _suite_division,
        "msp degree": _suite_msp,
    }
    for suite in suites.values():
        suite(towers)
    _verdict(6, "randomized algebra suites", True,
             "1000 cases per suite: " + ", ".join(suites))


def test_criterion_7_measurement_contract():
    for tower in (make_tower("cyclotomic", 5), make_tower("kummer", 4)):
        code = build_code(tower, tower.m, 2)
        field = tower.scalar_field
        p = tower.m * (code.n - code.k)
        rng = random.Random(7)
        for _ in range(100):
            x = random_low_rank(4, 4, 2, 5, rng=rng, field=field).matrix
            y = random_low_rank(4, 4, 2, 5, rng=rng, field=field).matrix
            a = field.coerce(rng.randint(-5, 5))
            mx, my = measure(code, x), measure(code, y)
            assert len(mx.y) == p
            combined = measure(code, axpy(a, x, y))
            assert combined.y == tuple(a * u + v for u, v in zip(mx.y, my.y))
        for _ in range(100):
            f = rand_poly(tower, rng, code.k - 1, height=4)
            codeword_matrix = ext(tower, encode(code, f))
            assert not any(measure(code, codeword_matrix).y)
    _verdict(7, "measurement operator is linear with p = m(n-k)", True,
             "100 linearity trials and 100 codeword annihilations per tower")


def test_criterion_8_approximation():
    rng = random.Random(8)
    eps = 1e-6
    kummer = make_tower("kummer", 4)
    worst = 0.0
    for _ in range(20):
        real_rows = [[rng.uniform(-100, 100) for _ in range(4)] for _ in range(4)]
        out = approximate_real(real_rows, eps)
        assert frobenius_error_sq(out, real_rows) < Fraction(eps) ** 2
        worst = max(worst, _extended_precision_norm(out, real_rows))
        complex_rows = [
            [complex(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(3)]
            for _ in range(3)
        ]
        outc = approximate_complex(complex_rows, eps, kummer)
        assert frobenius_error_sq(outc, complex_rows) < Fraction(eps) ** 2
    _verdict(8, "Frobenius approximation bound", worst < eps,
             f"worst verified real error {worst:.3e} < {eps:.0e}")


def _extended_precision_norm(matrix, rows) -> float:
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                entry = matrix.entries[i][j]
                diff = mpmath.mpf(value) - mpmath.mpf(entry.numerator) / entry.denominator
                total += diff * diff
        return float(mpmath.sqrt(total))


def test_criterion_9_scale_check():
    start = time.perf_counter()
    tower = make_tower("cyclotomic", 17)
    code = build_code(tower, 16, 8)
    assert code.radius == 4
    rng = random.Random(9)
    f = SkewPoly(tower, [rand_element(tower, rng, height=10) for _ in range(8)])
    codeword = encode(code, f)
    error = rand_error(tower, rng, 16, 4, height=3)
    received = [c + e for c, e in zip(codeword, error)]
    result = wb_decode(code, received)
    elapsed = time.perf_counter() - start
    ok = (
        result.success
        and result.message == f
        and list(result.error) == error
        and elapsed < 60.0
    )
    _verdict(
        9,
        "full-length 16 decode at radius 4",
        ok,
        f"decoded in {elapsed:.2f}s (budget 60s)",
    )
