"""Low-rank matrix recovery through syndrome decoding, plus field approximation.

The measurement operator folds an m-by-n matrix over K into the vector of
parity-check coordinates of the corresponding L-vector; it is K-linear and
produces exactly m*(n-k) base-field numbers.  Recovery inverts the fold and
hands the syndrome to the bounded-minimum-distance decoder, so matrices of
rank up to floor((n-k)/2) come back bit-exact.

Approximation of real or complex floating matrices into the exact base
field runs per entry through continued-fraction convergents, with the
per-entry budget chosen so the Frobenius norm of the difference stays
below the requested bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exact_algebra import QQ, CyclotomicField, KummerTower, Tower
from .exact_linalg import Matrix, rank
from .gabidulin import GabCode, code_to_descriptor, syndrome_decode
from .rank_metric import ext, ext_inv

__all__ = [
    "MeasurementRecord",
    "measure",
    "recover",
    "random_low_rank",
    "approximate_real",
    "approximate_complex",
    "rational_convergents",
    "frobenius_error_sq",
    "record_to_json",
    "record_from_json",
]

VECTORIZATION_ORDER = "row-major"


@dataclass(frozen=True)
class MeasurementRecord:
    """Measurement vector over K with the code descriptor it was taken under."""

    y: tuple
    code_descriptor: dict


def measure(code: GabCode, matrix: Matrix) -> MeasurementRecord:
    """K-linear measurement of an m-by-n matrix over the code's base field."""
    tower = code.tower
    if matrix.field != tower.scalar_field:
        raise ValueError("matrix entries must lie in the code's base field")
    if matrix.shape != (tower.m, code.n):
        raise ValueError(f"expected a {tower.m}x{code.n} matrix, got {matrix.shape}")
    y: list = []
    for entry in code.syndrome(ext_inv(tower, matrix)):
        y.extend(entry.coords)
    return MeasurementRecord(tuple(y), code_to_descriptor(code))


def recover(code: GabCode, record: MeasurementRecord) -> Matrix | None:
    """Invert :func:`measure` for matrices within the decoding radius.

    Returns None when the decoder reports the syndrome unreachable from an
    error of rank at most t.
    """
    tower = code.tower
    if record.code_descriptor != code_to_descriptor(code):
        raise ValueError("measurement was taken under a different code")
    m, r = tower.m, code.n - code.k
    if len(record.y) != m * r:
        raise ValueError(f"measurement length {len(record.y)}, expected {m * r}")
    if any(isinstance(v, bool) for v in record.y):
        raise ValueError("a measurement entry is a bool, not a number")
    try:
        syndrome = [tower.from_coords(record.y[i * m : (i + 1) * m]) for i in range(r)]
    except TypeError as exc:
        raise ValueError(f"a measurement entry is not a base-field element: {exc}") from None
    result = syndrome_decode(code, syndrome)
    return ext(tower, result.error) if result.success else None


def random_low_rank(
    m: int,
    n: int,
    r: int,
    height_bound: int,
    rng: random.Random,
    field=QQ,
) -> Matrix:
    """Sum of r random integer outer products, resampled until the rank is exact."""
    if not 0 <= r <= min(m, n):
        raise ValueError(f"rank {r} is infeasible for a {m}x{n} matrix")
    if height_bound < 1:
        raise ValueError("height bound must be at least 1")
    while True:
        grid = [[0] * n for _ in range(m)]
        for _ in range(r):
            u = [rng.randint(-height_bound, height_bound) for _ in range(m)]
            v = [rng.randint(-height_bound, height_bound) for _ in range(n)]
            for i in range(m):
                if u[i]:
                    for j in range(n):
                        grid[i][j] += u[i] * v[j]
        matrix = Matrix(field, grid, cols=n)
        if rank(matrix) == r:
            return matrix


# ---------------------------------------------------------------------------
# rational approximation

def rational_convergents(x: Fraction) -> Iterator[Fraction]:
    """Continued-fraction convergents of x, ending with x itself."""
    p_prev, q_prev = 1, 0
    p_prev2, q_prev2 = 0, 1
    n, d = x.numerator, x.denominator
    while True:
        a = n // d
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        yield Fraction(p, q)
        p_prev2, q_prev2 = p_prev, q_prev
        p_prev, q_prev = p, q
        n, d = d, n - a * d
        if d == 0:
            return


def _first_convergent_within(x: Fraction, tol_sq: Fraction) -> Fraction:
    for c in rational_convergents(x):
        if (x - c) ** 2 < tol_sq:
            return c
    raise AssertionError("convergents terminate at the exact value")  # pragma: no cover


def _exact_value(value) -> Fraction:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite entry {value!r}")
        return Fraction(value)
    return Fraction(value)


def _shape_of(rows: Sequence[Sequence]) -> tuple[int, int]:
    m = len(rows)
    if m == 0 or len(rows[0]) == 0:
        raise ValueError("matrix must be non-empty")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged rows")
    return m, n


def _epsilon_sq(epsilon) -> Fraction:
    eps = _exact_value(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return eps * eps


def approximate_real(rows: Sequence[Sequence], epsilon) -> Matrix:
    """Entrywise rational approximation with Frobenius error below epsilon.

    Each entry becomes the first continued-fraction convergent within the
    per-entry budget epsilon/sqrt(m*n); comparisons happen on squares, so
    the guarantee is exact.
    """
    m, n = _shape_of(rows)
    tol_sq = _epsilon_sq(epsilon) / (m * n)
    out = [[_first_convergent_within(_exact_value(v), tol_sq) for v in row] for row in rows]
    return Matrix(QQ, out, cols=n)


def _complex_parts(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, complex):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"non-finite entry {value!r}")
        return Fraction(value.real), Fraction(value.imag)
    return _exact_value(value), Fraction(0)


def approximate_complex(rows: Sequence[Sequence], epsilon, tower: Tower) -> Matrix:
    """Approximate a complex matrix inside the Kummer tower's base field.

    Real and imaginary parts are approximated separately with per-part
    budget epsilon/sqrt(2*m*n) and recombined as a + b*i with i the
    primitive fourth root of unity of the base field.
    """
    if not isinstance(tower, KummerTower):
        raise ValueError("complex approximation needs a Kummer tower (4 | n)")
    m, n = _shape_of(rows)
    tol_sq = _epsilon_sq(epsilon) / (2 * m * n)
    base = tower.scalar_field
    i_unit = tower.imaginary_unit()
    out = []
    for row in rows:
        line = []
        for value in row:
            re, im = _complex_parts(value)
            ca = _first_convergent_within(re, tol_sq)
            cb = _first_convergent_within(im, tol_sq)
            line.append(base.coerce(ca) + base.coerce(cb) * i_unit)
        out.append(line)
    return Matrix(base, out, cols=n)


def _gaussian_parts(field: CyclotomicField, element) -> tuple[Fraction, Fraction]:
    # split elements of the span of 1 and i = zeta^(n/4) into a + b*i
    i_coords = field.zeta(field.conductor // 4).coords
    coords = field.coerce(element).coords
    pivot = next(j for j in range(1, field.m) if i_coords[j])
    b = coords[pivot] / i_coords[pivot]
    for j in range(1, field.m):
        if coords[j] != b * i_coords[j]:
            raise ValueError("element is not of the form a + b*i")
    return coords[0] - b * i_coords[0], b


def frobenius_error_sq(approx: Matrix, original: Sequence[Sequence]) -> Fraction:
    """Exact squared Frobenius distance between an approximation and its source."""
    m, n = _shape_of(original)
    if approx.shape != (m, n):
        raise ValueError(f"shape mismatch: {approx.shape} vs {(m, n)}")
    total = Fraction(0)
    for i in range(m):
        for j in range(n):
            if isinstance(approx.field, CyclotomicField):
                re, im = _complex_parts(original[i][j])
                ca, cb = _gaussian_parts(approx.field, approx.entries[i][j])
                total += (re - ca) ** 2 + (im - cb) ** 2
            else:
                total += (_exact_value(original[i][j]) - approx.entries[i][j]) ** 2
    return total


# ---------------------------------------------------------------------------
# record serialization

def record_to_json(record: MeasurementRecord, field) -> dict:
    return {
        "code": dict(record.code_descriptor),
        "order": VECTORIZATION_ORDER,
        "y": [field.to_text(v) for v in record.y],
    }


def record_from_json(payload: dict, field) -> MeasurementRecord:
    """Read a record written by :func:`record_to_json`; ValueError if it is malformed.

    The descriptor is kept as given: ``recover`` refuses a record whose
    descriptor is not its code's.
    """
    if not isinstance(payload, dict):
        raise ValueError("a measurement record must be a JSON object")
    order = payload.get("order", VECTORIZATION_ORDER)
    if order != VECTORIZATION_ORDER:
        raise ValueError(f"unsupported vectorization order {order!r}")
    y, code = payload.get("y"), payload.get("code")
    if not isinstance(y, list):
        raise ValueError("record 'y' must be a list of entries")
    if not all(isinstance(t, str) for t in y):
        raise ValueError("record 'y' entries must be strings")
    if not isinstance(code, dict):
        raise ValueError("record 'code' must be a code descriptor object")
    return MeasurementRecord(tuple(field.from_text(t) for t in y), dict(code))
