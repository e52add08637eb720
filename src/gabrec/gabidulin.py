"""Rank-metric evaluation codes over a tower, with interpolation decoding.

A code of length n and dimension k evaluates twisted polynomials of degree
below k at n evaluation points that are linearly independent over K.  The
generator matrix G has entry theta^i(g_j); the parity-check matrix H is a
right-kernel basis of G.  Encoding is the product with G and the syndrome
the product with H.

H is systematic: its last n-k columns are the identity.  In a cyclic
extension the k-by-k theta-Moore block of K-independent points is
invertible (Augot-Loidreau-Robert, ISIT 2013), so the pivots of G are its
first k columns and the kernel basis puts I_(n-k) on the free ones.  So
``GabCode.syndrome``, which ``measure`` and the decoder share, multiplies
only the head: H r = r[k:] + H[:, :k] r[:k].  A syndrome s is its own
preimage, H (0, ..., 0, s) = s, and syndrome decoding is one decode of
that word, with no linear solve.  ``build_code`` checks the identity block.

Decoding interpolates a pair (V, N) with deg V <= t and deg N <= k-1+t
such that V(r_i) = N(g_i) at every point, then extracts the message as the
exact left quotient N = V * f (Loidreau, WCC 2005); errors of rank weight
up to t = floor((n-k)/2) are corrected uniquely.  Any nonzero solution
gives that error, so the decoder may solve a smaller system with the same
solutions.  It decodes the word (0, ..., 0, s), where s = H r; that word
differs from r by a codeword.  N vanishes on the first k points, so
N = Q * P with P = msp(g_0, ..., g_(k-1)) of degree k and deg Q < t, and
the conditions left are V(s_j) = Q(h_j) with h_j = P(g_(k+j)).  That is one
kernel of an (n-k)-by-(2t+1) system over L, in place of n-by-(2t+k+1).  The
h_j are K-independent, so their theta-Moore block of t columns has full
column rank (Augot-Loidreau-Robert): every nonzero kernel vector has V != 0.
Those columns come first, so that elimination pivots on their small entries.

The code is the measurement operator: every record is measured and
recovered under one code.  So what depends only on the code is computed
once per ``GabCode``, on first use, and kept on the instance: P, the
negated h columns of the system above, the chain of prefix annihilators
that also gives the Newton bases for a word with a nonzero head, and the
points' text forms for ``code_to_descriptor``.  ``build_code`` computes none
of them, so a code that only measures never pays for P and h.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_algebra import Tower, _Element, make_tower
from .exact_linalg import Matrix, right_kernel, rref
from .rank_metric import ext, rank_weight, theta_matrix
from .skew_poly import SkewPoly, _annihilator_chain, left_divide

__all__ = [
    "GabCode",
    "DecodeResult",
    "build_code",
    "encode",
    "wb_decode",
    "syndrome_decode",
    "code_to_descriptor",
    "code_from_descriptor",
]


@dataclass(frozen=True)
class GabCode:
    """Immutable code instance; build with :func:`build_code`.

    The cached properties hold values that depend only on the code.  Each is
    computed on first use and kept in the instance ``__dict__``, outside the
    dataclass fields, so equality and ``dataclasses.replace`` ignore them.
    ``build_code`` leaves them uncomputed: computing P and h there made
    ``build_code`` 52-80% slower on the benchmark workloads, also for codes
    that are never decoded.
    """

    tower: Tower
    n: int
    k: int
    points: tuple[_Element, ...]
    generator: Matrix  # k x n over L, entry (i, j) = theta^i(g_j)
    parity_check: Matrix  # (n-k) x n over L, rows span the kernel of G

    @property
    def radius(self) -> int:
        """Decoding radius t = floor((n-k)/2)."""
        return (self.n - self.k) // 2

    @property
    def design_distance(self) -> int:
        return self.n - self.k + 1

    @functools.cached_property
    def annihilators(self) -> tuple[SkewPoly, ...]:
        """Annihilators of points[:i] for i = 0..k, not monic; the Newton bases."""
        return tuple(_annihilator_chain(self.tower, self.points[: self.k]))

    @functools.cached_property
    def annihilator(self) -> SkewPoly:
        """P = msp(g_0, ..., g_(k-1)), of degree k."""
        return self.annihilators[-1].monic()

    @functools.cached_property
    def key_columns(self) -> tuple[tuple[_Element, ...], ...]:
        """-theta^i(h_j) for i < t, one tuple per syndrome row j, h_j = P(g_(k+j))."""
        h = [self.annihilator.evaluate(g) for g in self.points[self.k :]]
        h_block = theta_matrix(self.tower, h, self.radius)
        return tuple(tuple(-x for x in h_block.column(j)) for j in range(self.n - self.k))

    @functools.cached_property
    def point_texts(self) -> tuple[str, ...]:
        return tuple(self.tower.to_text(g) for g in self.points)

    def syndrome(self, word: Sequence) -> list[_Element]:
        """Parity-check image H word; H is the identity on its last n-k columns."""
        word = _coerce_word(self, word)
        head, tail = word[: self.k], word[self.k :]
        if not any(head):
            return tail
        return [
            s + sum((h * x for h, x in zip(row, head)), self.tower.zero)
            for s, row in zip(tail, self.parity_check.entries)
        ]


@dataclass(frozen=True)
class DecodeResult:
    success: bool
    codeword: tuple[_Element, ...] | None = None
    error: tuple[_Element, ...] | None = None
    message: SkewPoly | None = None


def build_code(tower: Tower, n: int, k: int, points: Sequence | None = None) -> GabCode:
    """Construct the code; evaluation points default to the first n basis elements."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > tower.m:
        raise ValueError(f"length n={n} exceeds the extension degree m={tower.m}")
    if points is None:
        points = tower.basis[:n]
    else:
        points = [tower.coerce(g) for g in points]
        if len(points) != n:
            raise ValueError(f"expected {n} evaluation points, got {len(points)}")
    if rref(ext(tower, points))[1] != n:
        raise ValueError("evaluation points are linearly dependent over the base field")
    generator = theta_matrix(tower, points, k)
    parity_check = right_kernel(generator)
    # GabCode.syndrome multiplies only the head, and syndrome_decode takes
    # (0, ..., 0, s) as the preimage of s: both need H[:, k:] = I
    identity = Matrix.identity(tower, n - k).entries
    if tuple(row[k:] for row in parity_check.entries) != identity:
        raise AssertionError("parity-check matrix is not the identity on its last n-k columns")
    return GabCode(tower, n, k, tuple(points), generator, parity_check)


def encode(code: GabCode, message: SkewPoly) -> list[_Element]:
    """Evaluations of the message at the code's points: sum_i f_i G[i]."""
    if message.tower != code.tower:
        raise ValueError("message polynomial belongs to a different tower")
    if message.degree >= code.k:
        raise ValueError(f"message degree {message.degree} not below k={code.k}")
    return [
        sum((c * g for c, g in zip(message.coeffs, column) if c), code.tower.zero)
        for column in zip(*code.generator.entries)
    ]


def _coerce_word(code: GabCode, word: Sequence) -> list[_Element]:
    word = [code.tower.coerce(x) for x in word]
    if len(word) != code.n:
        raise ValueError(f"expected a length-{code.n} word, got {len(word)}")
    return word


def wb_decode(code: GabCode, received: Sequence) -> DecodeResult:
    """Bounded-minimum-distance decoding of a received word.

    Failure is reported through the result status, never an exception: it
    signals an error of rank weight above the decoding radius.
    """
    received = _coerce_word(code, received)
    tower, t, k = code.tower, code.radius, code.k
    head, syndrome = received[:k], code.syndrome(received)
    # interpolate V(s_j) = Q(h_j) with h_j = P(g_(k+j)), P the annihilator of
    # the first k points; columns: Q_0..Q_(t-1) (negated), then V_0..V_t
    s_block = theta_matrix(tower, syndrome, t + 1)
    rows = [[*h, *s_block.column(j)] for j, h in enumerate(code.key_columns)]
    kernel = right_kernel(Matrix(tower, rows, cols=2 * t + 1))
    if kernel.rows == 0:
        return DecodeResult(success=False)
    # the h block has full column rank, so every kernel vector has V != 0
    vec = kernel.entries[0]
    locator = SkewPoly(tower, vec[t:])
    numerator = SkewPoly(tower, vec[:t]) * code.annihilator
    message, remainder = left_divide(numerator, locator)
    if not remainder.is_zero() or message.degree >= k:
        return DecodeResult(success=False)
    codeword = encode(code, message)
    error = [w - c for w, c in zip([tower.zero] * k + syndrome, codeword)]
    if rank_weight(tower, error, "B") > t:
        return DecodeResult(success=False)
    if any(head):
        # add back the codeword r - (0, s), equal to r on the head, and its message
        message = message + _interpolate(code, head)
        codeword = [r - e for r, e in zip(received, error)]
    return DecodeResult(
        success=True, codeword=tuple(codeword), error=tuple(error), message=message
    )


def _interpolate(code: GabCode, values: Sequence) -> SkewPoly:
    """Polynomial of degree < k with the given values at the first k points.

    Newton form on the code's prefix annihilators; the form does not depend
    on how each basis is scaled, so they need not be monic.
    """
    poly = SkewPoly(code.tower)
    for g, v, basis in zip(code.points, values, code.annihilators):
        poly = poly + ((v - poly.evaluate(g)) / basis.evaluate(g)) * basis
    return poly


def syndrome_decode(code: GabCode, syndrome: Sequence) -> list[_Element] | None:
    """Error vector of rank weight <= t whose parity-check image is the syndrome.

    Any preimage of the syndrome works as decoder input because preimages
    differ by codewords.  H is the identity on its last n-k columns, so
    (0, ..., 0, s) is a preimage of s and its decoded error is the answer.
    None means the syndrome is not reachable from an error within the
    decoding radius.
    """
    syndrome = [code.tower.coerce(x) for x in syndrome]
    if len(syndrome) != code.n - code.k:
        raise ValueError(
            f"expected a length-{code.n - code.k} syndrome, got {len(syndrome)}"
        )
    result = wb_decode(code, [code.tower.zero] * code.k + syndrome)
    return list(result.error) if result.success else None


def code_to_descriptor(code: GabCode) -> dict:
    """JSON-ready descriptor; G and H are deterministic and recomputed on load."""
    tower = code.tower
    descriptor = {
        "towerKind": tower.kind,
        "towerParam": tower.conductor if tower.kind == "cyclotomic" else tower.n,
        "n": code.n,
        "k": code.k,
        "g": list(code.point_texts),
    }
    if tower.kind == "kummer":
        descriptor["radicand"] = str(tower.radicand)
    return descriptor


def code_from_descriptor(descriptor: dict) -> GabCode:
    # a cyclotomic descriptor carries no radicand, and make_tower ignores it there
    radicand = Fraction(descriptor.get("radicand", 2))
    tower = make_tower(descriptor["towerKind"], int(descriptor["towerParam"]), radicand)
    points = [tower.from_text(text) for text in descriptor["g"]]
    return build_code(tower, int(descriptor["n"]), int(descriptor["k"]), points)
