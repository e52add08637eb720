"""Exact low-rank matrix recovery via rank-metric codes over number fields.

The pipeline in one breath: pick a cyclic extension L/K with automorphism
theta, build an evaluation code of twisted polynomials, compress a low-rank
matrix over K into its parity-check syndrome, and decode the syndrome to
get the matrix back, exactly, whenever its rank is at most half the code
redundancy.  Everything runs in exact rational arithmetic.
"""

from .exact_algebra import (
    QQ,
    CyclotomicField,
    CyclotomicTower,
    KummerTower,
    Tower,
    make_tower,
    tower_from_spec,
)
from .exact_linalg import Matrix, format_matrix, rank, right_kernel, rref
from .gabidulin import (
    DecodeResult,
    GabCode,
    build_code,
    code_from_descriptor,
    code_to_descriptor,
    encode,
    syndrome_decode,
    wb_decode,
)
from .lrmr import (
    MeasurementRecord,
    approximate_complex,
    approximate_real,
    frobenius_error_sq,
    measure,
    random_low_rank,
    record_from_json,
    record_to_json,
    recover,
)
from .rank_metric import WEIGHT_KINDS, ext, ext_inv, rank_weight, theta_matrix
from .skew_poly import SkewPoly, left_divide, msp

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "CyclotomicField",
    "CyclotomicTower",
    "KummerTower",
    "Tower",
    "make_tower",
    "tower_from_spec",
    "Matrix",
    "format_matrix",
    "rank",
    "right_kernel",
    "rref",
    "SkewPoly",
    "left_divide",
    "msp",
    "WEIGHT_KINDS",
    "ext",
    "ext_inv",
    "rank_weight",
    "theta_matrix",
    "DecodeResult",
    "GabCode",
    "build_code",
    "code_from_descriptor",
    "code_to_descriptor",
    "encode",
    "syndrome_decode",
    "wb_decode",
    "MeasurementRecord",
    "approximate_complex",
    "approximate_real",
    "frobenius_error_sq",
    "measure",
    "random_low_rank",
    "record_from_json",
    "record_to_json",
    "recover",
]
