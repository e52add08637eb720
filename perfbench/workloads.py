"""Workload definitions and the seeded instance generator.

Inputs come from this module alone.  A planted matrix is a sum of ``rank``
random outer products with integer (or Gaussian-integer) factor entries,
and its rank is checked here, with exact Fraction elimination, before the
instance is handed out.  No change to the library can therefore alter the
inputs of a seed.  Entries are kept as tuples of base-field coordinates:
``(x,)`` over Q and ``(a, b)`` for a + b*i over Q(i).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    tower: tuple[str, int]  # arguments of make_tower
    k: int
    ranks: tuple[int, ...]  # the planted rank of instance i is ranks[i % len(ranks)]
    height: int  # factor entries (and both parts of Gaussian ones) lie in [-height, height]
    gaussian: bool  # factor entries a + b*i instead of integers
    pool: int  # instances generated before timing; a run that uses them all starts over
    fixed: int  # trials every run completes; the outputs digest and bit counts cover these
    reference_ms: float  # reference elimination time of the host speed that times are scaled to

    @property
    def m(self) -> int:
        """Extension degree, which is also n: the pipeline needs square instances."""
        kind, param = self.tower
        return param - 1 if kind == "cyclotomic" else param

    @property
    def radius(self) -> int:
        return (self.m - self.k) // 2


# Why these three: cyc11-decode is bound by the count of L-operations in the
# cubic decoder, cyc7-tall by the height of the numbers it works on, and
# kummer4-mixed by per-call overhead, nested base-field arithmetic and the
# decoder's failure exit (rank 2 is beyond its radius t = 1).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cyc11-decode", ("cyclotomic", 11), k=4, ranks=(3,), height=10,
                 gaussian=False, pool=32, fixed=4, reference_ms=0.85),
        Workload("cyc7-tall", ("cyclotomic", 7), k=2, ranks=(2,), height=2**64,
                 gaussian=False, pool=96, fixed=8, reference_ms=0.30),
        Workload("kummer4-mixed", ("kummer", 4), k=2, ranks=(0, 1, 2), height=10,
                 gaussian=True, pool=120, fixed=24, reference_ms=0.65),
    )
}


@dataclass(frozen=True)
class Instance:
    rank: int
    coords: tuple[tuple[tuple[Fraction, ...], ...], ...]  # m x n entries as coordinates


def make_pool(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instances for a seed; the same seed gives the same list."""
    rng = random.Random(f"{workload.name}/{seed}")
    pool = []
    for i in range(workload.pool):
        r = workload.ranks[i % len(workload.ranks)]
        grid = _planted(rng, workload, r)
        while coord_rank(grid) != r:
            grid = _planted(rng, workload, r)
        pool.append(Instance(r, grid))
    return pool


def reference_grid(workload: Workload):
    """A fixed matrix drawn like the workload's inputs, the same for every seed.

    Eliminating it is the benchmark's reference work: exact arithmetic of
    the workload's kind and height that does not use the library.
    """
    return _planted(random.Random(f"{workload.name}/reference"), workload, max(workload.ranks))


def _planted(rng: random.Random, workload: Workload, r: int):
    m, h, parts = workload.m, workload.height, 2 if workload.gaussian else 1
    grid = [[(0,) * parts for _ in range(m)] for _ in range(m)]
    for _ in range(r):
        u = [tuple(rng.randint(-h, h) for _ in range(parts)) for _ in range(m)]
        v = [tuple(rng.randint(-h, h) for _ in range(parts)) for _ in range(m)]
        for i in range(m):
            for j in range(m):
                grid[i][j] = _add(grid[i][j], _mul(u[i], v[j]))
    return tuple(tuple(tuple(Fraction(c) for c in x) for x in row) for row in grid)


def _add(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def _mul(x: tuple, y: tuple) -> tuple:
    if len(x) == 1:
        return (x[0] * y[0],)
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def coord_rank(grid) -> int:
    """Rank of a matrix given by coordinates, over Q or over Q(i).

    Over Q(i) the rank of A + B*i is half the rank of the real block
    matrix [[A, -B], [B, A]].
    """
    if not grid or len(grid[0][0]) == 1:
        return _rational_rank([[x[0] for x in row] for row in grid])
    top = [[x[0] for x in row] + [-x[1] for x in row] for row in grid]
    bottom = [[x[1] for x in row] + [x[0] for x in row] for row in grid]
    return _rational_rank(top + bottom) // 2


def _rational_rank(rows: list[list]) -> int:
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def entry_text(coords: tuple[Fraction, ...]) -> str:
    """Base-field element in the library's text format: ``p/q`` or ``(a,b)``."""
    if len(coords) == 1:
        return str(coords[0])
    return "(" + ",".join(str(c) for c in coords) + ")"


def parse_entry(text: str) -> tuple[Fraction, ...]:
    """Inverse of :func:`entry_text`, for base-field text written by the library."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return tuple(Fraction(part) for part in text[1:-1].split(","))
    return (Fraction(text),)
