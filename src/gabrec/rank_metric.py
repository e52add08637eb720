"""Coordinate matrices of vectors over L and the four rank weights.

A length-n vector over L corresponds to an m-by-n matrix over K whose
column j holds the coordinates of the j-th entry; ``ext`` and ``ext_inv``
convert between the two representations and are mutually inverse K-linear
bijections.  Four rank weights are computed, all agreeing with the usual
rank metric in the classical finite-field setting:

* kind "B":      rank over K of the coordinate matrix,
* kind "thetaK": rank over K of the theta-iterate matrix,
* kind "thetaL": rank over L of the theta-iterate matrix,
* kind "A":      degree of the minimal subspace polynomial of the entries.
"""

from __future__ import annotations

from typing import Sequence

from .exact_algebra import Tower, _Element
from .exact_linalg import Matrix, rref
from .skew_poly import msp

__all__ = [
    "WEIGHT_KINDS",
    "ext",
    "ext_inv",
    "theta_matrix",
    "coordinate_expansion",
    "rank_weight",
    "rank_distance",
]

WEIGHT_KINDS = ("A", "thetaL", "thetaK", "B")


def ext(tower: Tower, vector: Sequence) -> Matrix:
    """Coordinate matrix of a vector over L: column j = coords of entry j."""
    columns = [tower.coerce(x).coords for x in vector]
    rows = [[c[i] for c in columns] for i in range(tower.m)]
    return Matrix(tower.scalar_field, rows, cols=len(columns))


def ext_inv(tower: Tower, matrix: Matrix) -> list[_Element]:
    """Vector over L from an m-by-n coordinate matrix (inverse of :func:`ext`)."""
    if matrix.rows != tower.m:
        raise ValueError(f"coordinate matrix needs {tower.m} rows, has {matrix.rows}")
    return [tower.from_coords(matrix.column(j)) for j in range(matrix.cols)]


def theta_matrix(tower: Tower, vector: Sequence, s: int | None = None) -> Matrix:
    """s-by-n matrix over L with row j the j-th theta iterate of the vector."""
    s = tower.m if s is None else s
    row = [tower.coerce(x) for x in vector]
    rows = []
    for j in range(s):
        if j:
            row = [x.theta() for x in row]
        rows.append(list(row))
    return Matrix(tower, rows, cols=len(row))


def coordinate_expansion(tower: Tower, matrix: Matrix) -> Matrix:
    """Expand an L-matrix over K: each row becomes m rows of coordinates."""
    rows = [r for row in matrix.entries for r in ext(tower, row).entries]
    return Matrix(tower.scalar_field, rows, cols=matrix.cols)


def rank_weight(tower: Tower, vector: Sequence, kind: str) -> int:
    """Rank weight of a vector over L; ``kind`` is one of ``WEIGHT_KINDS``."""
    if kind == "B":
        return rref(ext(tower, vector))[1]
    if kind == "thetaL":
        return rref(theta_matrix(tower, vector))[1]
    if kind == "thetaK":
        return rref(coordinate_expansion(tower, theta_matrix(tower, vector)))[1]
    if kind == "A":
        return msp(tower, [tower.coerce(x) for x in vector]).degree
    raise ValueError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")


def rank_distance(tower: Tower, x: Sequence, y: Sequence, kind: str) -> int:
    """Rank weight of x - y; definiteness is only guaranteed for kinds A and B."""
    x = [tower.coerce(v) for v in x]
    y = [tower.coerce(v) for v in y]
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return rank_weight(tower, [a - b for a, b in zip(x, y)], kind)
