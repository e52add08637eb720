"""Low-rank matrix recovery through syndrome decoding, plus field approximation.

The measurement operator folds an m-by-n matrix over K into the vector of
parity-check coordinates of the corresponding L-vector; it is K-linear and
produces exactly m*(n-k) base-field numbers.  It builds no element of L:
the matrix's entries, column after column, are read once as the word's
numerators over one denominator, and ``gabidulin._syndrome_nums``, which
``GabCode.syndrome`` shares, gives each syndrome entry as numerators over
a denominator, which are read off as its coordinates.  Recovery inverts
the fold and hands the syndrome to the bounded-minimum-distance decoder,
so matrices of rank up to floor((n-k)/2) come back bit-exact.

Real and complex floating matrices enter the base field through one
per-entry loop, decided by whether the base field contains i: one part per
entry over Q, two (a + b*i) over Q(zeta_n) with 4 | n, each the first
continued-fraction convergent within the per-part budget
epsilon^2/(parts*m*n), so the Frobenius error stays below epsilon.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exact_algebra import QQ, Tower
from .exact_linalg import Matrix, rank
from .gabidulin import GabCode, _syndrome_nums, code_to_descriptor, syndrome_decode
from .rank_metric import ext

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
    # the word's coordinates are the entries column after column
    den, flat = tower._numerators([x for column in zip(*matrix.entries) for x in column])
    y: list = []
    for d, nums in _syndrome_nums(code, den, flat):
        y.extend(tower._coords(d, nums))
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


def _parts(value, i_unit) -> tuple[Fraction, Fraction]:
    # the exact (re, im) of an input number; ValueError for a non-finite
    # part, or for an imaginary part where the base field has no i
    re, im = (value.real, value.imag) if isinstance(value, complex) else (value, 0)
    if any(isinstance(x, float) and not math.isfinite(x) for x in (re, im)):
        raise ValueError(f"non-finite entry {value!r}")
    if im and i_unit is None:
        raise ValueError(f"{value!r} is not real and the base field has no i")
    return Fraction(re), Fraction(im)


def _imaginary_unit(field):
    # None over Q; i = zeta^(n/4) in Q(zeta_n), which holds i exactly when 4 | n
    if field == QQ:
        return None
    if getattr(field, "conductor", 1) % 4:
        raise ValueError(f"{field!r} does not contain i")
    return field.zeta(field.conductor // 4)


def _shape_of(rows: Sequence[Sequence]) -> tuple[int, int]:
    m = len(rows)
    if m == 0 or len(rows[0]) == 0:
        raise ValueError("matrix must be non-empty")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged rows")
    return m, n


def _approximate(rows: Sequence[Sequence], epsilon, field) -> Matrix:
    i_unit = _imaginary_unit(field)
    m, n = _shape_of(rows)
    eps = _parts(epsilon, None)[0]
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    parts = 1 if i_unit is None else 2
    tol_sq = eps * eps / (parts * m * n)

    def entry(value):
        a, b = (_first_convergent_within(x, tol_sq) for x in _parts(value, i_unit))
        return a if i_unit is None else field.coerce(a) + field.coerce(b) * i_unit

    return Matrix(field, [[entry(value) for value in row] for row in rows], cols=n)


def approximate_real(rows: Sequence[Sequence], epsilon) -> Matrix:
    """Entrywise rational approximation with Frobenius error below epsilon.

    Each entry becomes the first continued-fraction convergent within the
    per-entry budget epsilon/sqrt(m*n); comparisons happen on squares, so
    the guarantee is exact.  A complex entry is a ValueError.
    """
    return _approximate(rows, epsilon, QQ)


def approximate_complex(rows: Sequence[Sequence], epsilon, tower: Tower) -> Matrix:
    """Approximate a complex matrix as a + b*i in a tower's base field, which must hold i.

    Real and imaginary parts get the per-part budget epsilon/sqrt(2*m*n).
    """
    if tower.scalar_field == QQ:
        raise ValueError("complex approximation needs a base field that contains i (kummer:n)")
    return _approximate(rows, epsilon, tower.scalar_field)


def _gaussian_reader(field, i_unit):
    # an element a + b*i of field as (a, b), with i's coordinates taken once
    if i_unit is None:
        return lambda x: (x, 0)
    i_coords = i_unit.coords
    pivot = next(j for j in range(1, field.m) if i_coords[j])

    def read(x):
        b = x.coords[pivot] / i_coords[pivot]
        if any(c != b * u for c, u in zip(x.coords[1:], i_coords[1:])):
            raise ValueError("element is not of the form a + b*i")
        return x.coords[0] - b * i_coords[0], b

    return read


def frobenius_error_sq(approx: Matrix, original: Sequence[Sequence]) -> Fraction:
    """Exact squared Frobenius distance between an approximation and its source.

    ValueError over a field that is neither Q nor holds i, and for a complex
    source entry against Q.
    """
    m, n = _shape_of(original)
    if approx.shape != (m, n):
        raise ValueError(f"shape mismatch: {approx.shape} vs {(m, n)}")
    i_unit = _imaginary_unit(approx.field)
    read = _gaussian_reader(approx.field, i_unit)
    total = Fraction(0)
    for source, row in zip(original, approx.entries):
        for value, x in zip(source, row):
            (re, im), (a, b) = _parts(value, i_unit), read(x)
            total += (re - a) ** 2 + (im - b) ** 2
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
