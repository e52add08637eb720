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
``GabCode.syndrome``, which ``measure`` and ``wb_decode`` share, multiplies
only the head: H r = r[k:] + H[:, :k] r[:k].  A syndrome s is its own
preimage, H (0, ..., 0, s) = s, so the decoder takes s and decodes that
word, with no linear solve; ``wb_decode`` reduces a received word r to its
syndrome H r.  ``build_code`` checks the identity block.

Decoding interpolates a pair (V, N) with deg V <= t and deg N <= k-1+t
such that V(r_i) = N(g_i) at every point, then extracts the message as the
exact left quotient N = V * f (Loidreau, WCC 2005); errors of rank weight
up to t = floor((n-k)/2) are corrected uniquely.  Any nonzero solution
gives that error, so the decoder may solve a smaller system with the same
solutions.  It decodes the word (0, ..., 0, s), where s = H r; that word
differs from r by a codeword, so ``wb_decode`` adds that codeword back
and keeps the error.  N vanishes on the first k points, so
N = Q * P with P = msp(g_0, ..., g_(k-1)) of degree k and deg Q < t, and
the conditions left are V(s_j) = Q(h_j) with h_j = P(g_(k+j)).  In matrix
form they read S v = A q, where v and q hold the coefficients of V and Q,
S is (n-k)-by-(t+1) with S_ji = theta^i(s_j), and A is (n-k)-by-t with
A_ji = theta^i(h_j).  The h_j are K-independent, so A has full column rank
t (Augot-Loidreau-Robert): every nonzero solution has V != 0.

A depends only on the code, so its elimination is done once per code.  Let
E be the right block of rref([A | I_(n-k)]).  E is invertible, and its first
t rows E_top and the others E_bottom satisfy E_top A = I_t and
E_bottom A = 0.  Multiplied by E, S v = A q splits into q = E_top S v and
B v = 0 with B = E_bottom S.  So each decode solves one kernel of the
(n-k-t)-by-(t+1) matrix B over L, in place of the (n-k)-by-(2t+1) matrix
[-A | S] on (q, v).  At n-k = 2t, B is t-by-(t+1), the size of a
Peterson-type key equation.

The decoder builds neither q, Q nor N.  As q_l = sum_j E_top[l][j] (S v)_j,
Q = sum_j (S v)_j Q_j for the per-code Q_j = sum_l E_top[l][j] x^l, and a
scalar on the left of Q passes to the left of Q * P, so
N = Q * P = sum_(j in R) (S v)_j (Q_j * P), where R holds the columns in
which E_top is nonzero.  So N_s = sum_(j in R) W_(s,j) (S v)_j, where
column j of W holds the coefficients of the skew product Q_j * P.  W and R
depend only on the code (``GabCode.numerator_table``).  The left division
takes each N_s as its list of products W_(s,j) (S v)_j, appends the
products its steps subtract, and sums a coefficient once, when it reads it
(``skew_poly``).

The reduction keeps the decoded vector bit for bit.  The decoder takes v
from the first free column of B, and this is the V part of the vector
that the first free column of [-A | S] gives.  A reduced row echelon form
is unique, so rref([-A | S]) is rref of the row-equivalent
E [-A | S] = [[-I_t, E_top S], [0, B]].  That reduction leaves the first t
rows pivoting on the Q columns and reduces the rest to rref(B), so the
free columns are those of B and the V part of each kernel vector is built
from rref(B) alone.  The q of a given v is unique, as A has full column
rank.  The first free column also gives the V of least degree; within the
radius that is the monic annihilator of the error's entries.  The decoder
computes that vector with ``first_kernel_vector``, which eliminates B by
Bareiss and returns c v, where v is the vector rref(B) gives and c, the
lead of c V, is a minor of B.  It decodes with c V as it comes.  The
solutions (V, Q) form a left module over L: W (S c v) = c N, so the
numerator of c v is c N, and N = V * f + rem gives
c N = (c V) * f + c rem.  The quotient is the same, bit for bit, and the
remainder is zero exactly when rem is.  The division inverts c once; the
kernel never inverts its last two pivots, so for t >= 2 the count of
inverses is one fewer than that of a monic V, whose kernel would invert
every pivot.

The exact division certifies the answer, so the decoder does not re-check
the error's rank.  It accepts only when N = V * f with V != 0, deg V <= t
and deg f < k.  Let w = (0, ..., 0, s) be the decoded word.  On the first k
points N(g_i) = Q(P(g_i)) = 0 = V(w_i), and on the others
N(g_(k+j)) = Q(h_j) = V(s_j), so V(w_i) = N(g_i) at every point.  The error
e = w - f(g) then has V(e_i) = N(g_i) - (V * f)(g_i) = 0: every entry of e
is a root of V.  A theta-polynomial is K-linear, and the roots of a nonzero
one of degree tau form a K-space of dimension at most tau
(Augot-Loidreau-Robert), so e has rank weight at most t.  And
H e = H w = s, because f(g) is a codeword.

The code is the measurement operator: every record is measured and
recovered under one code.  So what depends only on the code is computed
once per ``GabCode``, on first use, and kept on the instance: P, the
reduction E of the h block above, the numerator table (R, W), and the
points' text forms for ``code_to_descriptor``.  ``build_code`` computes
none of them, so a code that only measures never pays for P, E and W.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Sequence

from .exact_algebra import QQ, Tower, _Element, make_tower
from .exact_linalg import Matrix, _dot, first_kernel_vector, right_kernel, rref
from .rank_metric import ext, theta_matrix
from .skew_poly import SkewPoly, _left_divide_sums, msp

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

    The cached properties hold values that depend only on the code:
    ``annihilator`` (P), ``key_reduction`` (E_top and E_bottom),
    ``numerator_table`` (R and W, from P and E_top) and ``point_texts``.
    Each is computed on first use and kept in the instance ``__dict__``,
    outside the dataclass fields, so equality and ``dataclasses.replace``
    ignore them.
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
    def annihilator(self) -> SkewPoly:
        """P = msp(g_0, ..., g_(k-1)), of degree k."""
        return msp(self.tower, self.points[: self.k])

    @functools.cached_property
    def key_reduction(self) -> tuple[tuple[tuple[_Element, ...], ...], ...]:
        """(E_top, E_bottom): the right block E of rref([A | I_(n-k)]), cut after t rows.

        A is the (n-k)-by-t block theta^i(h_j), h_j = P(g_(k+j)), with full
        column rank t, so E_top A = I_t and E_bottom A = 0.  Each row holds
        one coefficient per syndrome row j.
        """
        t, r = self.radius, self.n - self.k
        h = [self.annihilator.evaluate(g) for g in self.points[self.k :]]
        h_block = theta_matrix(self.tower, h, t)
        identity = Matrix.identity(self.tower, r).entries
        rows = [[*h_block.column(j), *identity[j]] for j in range(r)]
        reduced, _, pivots = rref(Matrix(self.tower, rows, cols=t + r))
        if pivots[:t] != list(range(t)):
            raise AssertionError("the h block of the interpolation system has rank below t")
        block = tuple(row[t:] for row in reduced.entries)
        return block[:t], block[t:]

    @functools.cached_property
    def numerator_table(self) -> tuple[tuple[int, ...], tuple[tuple[_Element, ...], ...]]:
        """(R, W): the decoder's numerator N = Q * P as sums over S v.

        R holds the columns j of E_top with a nonzero entry, so q = E_top S v
        reads only the entries (S v)_j with j in R.  Column j of W is the
        skew product Q_j * P with Q_j = sum_l E_top[l][j] x^l, so
        N_s = sum_(j in R) W_(s,j) (S v)_j.  Row s of W, for s < k + t,
        holds coefficient s of each column's product; at t = 0, R is
        empty and W has k empty rows.
        """
        tower, t, k = self.tower, self.radius, self.k
        e_top = self.key_reduction[0]
        read = tuple(j for j in range(self.n - k) if any(row[j] for row in e_top))
        columns = [SkewPoly(tower, [row[j] for row in e_top]) * self.annihilator for j in read]
        return read, tuple(tuple(c.coeff(s) for c in columns) for s in range(k + t))

    @functools.cached_property
    def point_texts(self) -> tuple[str, ...]:
        return tuple(self.tower.to_text(g) for g in self.points)

    def syndrome(self, word: Sequence) -> list[_Element]:
        """Parity-check image H word; H is the identity on its last n-k columns."""
        word = _coerce_word(self, word, self.n)
        head, tail = word[: self.k], word[self.k :]
        return [
            s + _dot(self.tower, zip(row, head))
            for s, row in zip(tail, self.parity_check.entries)
        ]


@dataclass(frozen=True)
class DecodeResult:
    """What :func:`syndrome_decode` and :func:`wb_decode` return; failure sets only ``reason``."""

    success: bool
    codeword: tuple[_Element, ...] | None = None
    error: tuple[_Element, ...] | None = None
    message: SkewPoly | None = None
    # which exit a failure took: "no_kernel", "remainder" or "degree"
    reason: str | None = field(default=None, compare=False)


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
        _dot(code.tower, zip(message.coeffs, column)) for column in zip(*code.generator.entries)
    ]


def _coerce_word(code: GabCode, word: Sequence, length: int) -> list[_Element]:
    word = [code.tower.coerce(x) for x in word]
    if len(word) != length:
        raise ValueError(f"expected a length-{length} word, got {len(word)}")
    return word


def syndrome_decode(code: GabCode, syndrome: Sequence) -> DecodeResult:
    """Bounded-minimum-distance decoding of a syndrome s = H r.

    The decoded word is (0, ..., 0, s), a preimage of s: on success the
    error has parity-check image s and rank weight at most t, and the
    codeword is (0, ..., 0, s) minus the error.  Failure is reported through
    the result status, never an exception: it signals that no error within
    the decoding radius has this syndrome.  There are three failure exits,
    named by ``reason``: "no_kernel" (only when n-k is odd, so that B is
    square), "remainder" for a nonzero remainder of the left division, and
    "degree" for a quotient of degree k or more.  A success needs no further
    check: the module docstring shows that its error has rank weight at
    most t.
    """
    tower, t, k = code.tower, code.radius, code.k
    syndrome = _coerce_word(code, syndrome, code.n - k)
    # interpolate V(s_j) = Q(h_j): S v = A q with S_ji = theta^i(s_j); E turns
    # it into B v = 0, B = E_bottom S, and q = E_top S v (module docstring)
    e_bottom = code.key_reduction[1]
    s_block = theta_matrix(tower, syndrome, t + 1).entries  # row i: theta^i(s)
    b = [[_dot(tower, zip(row, s_i)) for s_i in s_block] for row in e_bottom]
    v = first_kernel_vector(Matrix(tower, b, cols=t + 1))
    if v is None:
        return DecodeResult(success=False, reason="no_kernel")
    # the numerator N = Q * P, q = E_top S v, as the sums N_s of W_(s,j) (S v)_j
    # over j in R, divided before they are summed (GabCode.numerator_table)
    read, table = code.numerator_table
    sv = [_dot(tower, zip(v, (s_i[j] for s_i in s_block))) for j in read]
    numerator = [list(zip(row, sv)) for row in table]
    message, remainder = _left_divide_sums(numerator, SkewPoly(tower, v))
    if not remainder.is_zero():
        return DecodeResult(success=False, reason="remainder")
    if message.degree >= k:
        return DecodeResult(success=False, reason="degree")
    codeword = encode(code, message)
    error = [-c for c in codeword[:k]] + [s - c for s, c in zip(syndrome, codeword[k:])]
    return DecodeResult(
        success=True, codeword=tuple(codeword), error=tuple(error), message=message
    )


def wb_decode(code: GabCode, received: Sequence) -> DecodeResult:
    """Bounded-minimum-distance decoding of a received word r.

    r and (0, ..., 0, H r) differ by a codeword, so the word is reduced to
    its syndrome and decoded by :func:`syndrome_decode`, with the same error
    and failure exits.  A nonzero head is added back to the codeword and
    its message.
    """
    received = _coerce_word(code, received, code.n)
    result = syndrome_decode(code, code.syndrome(received))
    head = received[: code.k]
    if result.success and any(head):
        # add back the codeword r - (0, s), equal to r on the head, and its message
        result = replace(
            result,
            codeword=tuple(r - e for r, e in zip(received, result.error)),
            message=result.message + _interpolate(code, head),
        )
    return result


def _interpolate(code: GabCode, values: Sequence) -> SkewPoly:
    """Polynomial of degree < k with the given values at the first k points.

    Its coefficients f solve f G[:, :k] = values, one ``rref`` of the
    k-by-(k+1) system.  The head block G[:, :k] is invertible: ``build_code``
    certifies that G pivots on its first k columns.
    """
    k = code.k
    rows = [[*code.generator.column(j), x] for j, x in enumerate(values)]
    reduced = rref(Matrix(code.tower, rows, cols=k + 1))[0]
    return SkewPoly(code.tower, [row[k] for row in reduced.entries])


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
    """Rebuild the code a descriptor names; ValueError if it is malformed.

    The counts must be JSON integers: ``2.7``, ``4.0``, ``true`` and ``"4"``
    are refused, never rounded or converted.
    """
    if not isinstance(descriptor, dict):
        raise ValueError("a code descriptor must be a JSON object")
    missing = {"towerKind", "towerParam", "n", "k", "g"} - descriptor.keys()
    if missing:
        raise ValueError(f"code descriptor lacks {sorted(missing)}")
    param, n, k, texts = (descriptor[key] for key in ("towerParam", "n", "k", "g"))
    if not all(type(v) is int for v in (param, n, k)):
        raise ValueError("descriptor 'towerParam', 'n' and 'k' must be integers")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError("descriptor 'g' must be a list of strings")
    # a cyclotomic descriptor carries no radicand, and make_tower ignores it there
    radicand = descriptor.get("radicand", "2")
    if not isinstance(radicand, str):
        raise ValueError("descriptor 'radicand' must be a string")
    tower = make_tower(descriptor["towerKind"], param, QQ.from_text(radicand))
    return build_code(tower, n, k, [tower.from_text(text) for text in texts])
