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
the syndrome multiplies only the head: H r = r[k:] + H[:, :k] r[:k].  One
routine, ``_syndrome_nums``, computes it on integer numerators, for
``measure`` and for ``GabCode.syndrome``, which ``wb_decode`` calls.  It
takes the word's numerators over one denominator.  Per row of H, the
products of the head entries with the word's head land in one buffer,
which reduces once, and the tail entry joins it on numerators.
``measure`` reads the matrix's entries as the word's numerators and each
row's numerators as coordinates, so it builds no element of L;
``GabCode.syndrome`` ends each row in one gcd, canonical like the sum of
the products.  A syndrome s is its own preimage, H (0, ..., 0, s) = s, so
the decoder takes s and decodes that word, with no linear solve;
``wb_decode`` reduces a received word r to its syndrome H r.
``build_code`` checks the identity block.

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

A depends only on the code, and so does the left kernel of A, the rows z
with z A = 0, of dimension n-k-t.  The dual of a Gabidulin code is a
Gabidulin code (Gabidulin, Probl. Inf. Transm. 1985; in characteristic
zero, Augot-Loidreau-Robert, Des. Codes Cryptogr. 2018), so a Moore matrix
spans that kernel.  Let y be the kernel vector of the (n-k-1)-by-(n-k)
matrix theta^e(h_j), e <= n-k-2.  Then
sum_j theta^(-d)(y_j) theta^i(h_j) = theta^(-d)(sum_j y_j theta^(i+d)(h_j))
vanishes for i + d <= n-k-2, so the n-k-t rows theta^(-d)(y), d < n-k-t,
lie in the left kernel of A.  The entries of y are K-independent: after a
change of basis over K, which theta fixes, a K-relation among them would
leave a nonzero vector in the kernel of the invertible Moore matrix of
n-k-1 of the h.  So these rows are independent (Augot-Loidreau-Robert) and
span the left kernel.  Multiplied by them, S v = A q becomes B v = 0 with

    B_di = sum_j theta^(-d)(y_j) theta^i(s_j) = theta^(-d)(c_(i+d)),
    c_e = sum_j y_j theta^e(s_j) for e < n-k.

So each decode forms the n-k sums c_e and solves one kernel of the
(n-k-t)-by-(t+1) matrix B over L, in place of the (n-k)-by-(2t+1) matrix
[-A | S] on (q, v).  At n-k = 2t, B is t-by-(t+1), the size of a
Peterson-type key equation.  For v in the kernel of B, S v lies in the
column space of A and q is unique.  The top t rows of A are the
theta-Moore block of the K-independent h_0, ..., h_(t-1), so A_top is
invertible.

The sums c_e are read through one integer table per code
(``GabCode.syndrome_table``).  The map s -> c_e is Q-linear, and theta^e
maps a power-basis vector b to a root of unity times a basis vector, so
the column of b in s_j, y_j theta^e(b), is y_j's numerators moved, with no
product (``Tower._twist_table``).  A decode reads each numerator of each
c_e as one integer dot with the syndrome's numerators and ends each c_e in
one gcd (``Tower._table_sums``).  The sum is canonical, so it equals the
fused sum of products bit for bit.  At the default points, the basis
vectors, y is sparse (on ``kummer:12`` at k = 4, 3% of the table is
nonzero), and a row of the table keeps only its nonzero entries.

The decoder builds neither q, Q nor N.  Row j of S v = A q reads
V(s_j) = Q(h_j), and the decoder evaluates V at s_0, ..., s_(t-1).  So
Q = sum_(j<t) V(s_j) Q_j for the Lagrange polynomials Q_j of degree < t,
Q_j(h_i) = 1 for i = j and 0 for the other i < t, which one ``rref`` of
A_top beside t unit columns gives (``_moore_solve``).  A scalar on the
left of Q passes to the left of Q * P, so N_s = sum_(j<t) W_(s,j) V(s_j),
where column j of W holds the coefficients of the skew product Q_j * P.  W
depends only on the code (``GabCode.numerator_table``).  The left division
takes each N_s as its list of products W_(s,j) V(s_j), appends the
products its steps subtract, and sums a coefficient once, when it reads it
(``skew_poly``).

The reduction keeps the decoded vector bit for bit.  The decoder takes v
from the first free column of B, and this is the V part of the vector
that the first free column of [-A | S] gives.  Let E hold the t rows of
[A_top^-1 | 0] above the rows theta^(-d)(y).  Then E A = (I_t; 0), and E
is invertible: in a combination of its rows that vanishes, the product
with A shows the top coefficients zero, and the other rows are
independent.  A reduced row echelon form is unique, so rref([-A | S]) is
rref of the row-equivalent E [-A | S] = [[-I_t, A_top^-1 S_top], [0, B]],
where S_top holds the first t rows of S.  That reduction leaves the first t
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
once per ``GabCode``, on first use, and kept on the instance: P, y and
the Q_j, the syndrome table, the numerator table W, and the points' text
forms for ``code_to_descriptor``.  ``build_code`` computes none of them,
so a code that only measures never pays for P, y, the Q_j or the tables.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence

from .exact_algebra import QQ, Tower, _Element, _common_nums, make_tower
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
    ``annihilator`` (P), ``key_reduction`` (y and the Lagrange polynomials
    Q_j), ``syndrome_table`` (the sums c_e, from y), ``numerator_table`` (W,
    from P and the Q_j) and ``point_texts``.
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
    def key_reduction(self) -> tuple[tuple[_Element, ...], list[tuple[_Element, ...]]]:
        """(y, [Q_0, ..., Q_(t-1)]), which reduce S v = A q to B v = 0 and Q.

        With h_j = P(g_(k+j)), y is the first row of ``right_kernel`` of the
        (n-k-1)-by-(n-k) matrix theta^e(h_j), so sum_j y_j theta^e(h_j) = 0
        for e <= n-k-2; it is empty at n = k.  Q_j, of degree < t, has
        Q_j(h_i) = 1 if i = j, else 0, for i < t.
        """
        tower, t, r = self.tower, self.radius, self.n - self.k
        h = [self.annihilator.evaluate(g) for g in self.points[self.k :]]
        y = right_kernel(theta_matrix(tower, h, r - 1)).entries[0] if r else ()
        units = Matrix.identity(tower, t).entries
        return y, _moore_solve(tower, theta_matrix(tower, h[:t], t), units)

    @functools.cached_property
    def syndrome_table(self) -> tuple:
        """The integer table of c_e = sum_j y_j theta^e(s_j), one block per e < n-k.

        It is ``Tower._twist_table`` of the y_j with n-k blocks, so that
        ``Tower._table_sums`` reads each c_e off the syndrome's numerators by
        integer dots.
        """
        y = self.key_reduction[0]
        return self.tower._twist_table(y, len(y))

    @functools.cached_property
    def numerator_table(self) -> tuple[tuple[_Element, ...], ...]:
        """W: the decoder's numerator N = Q * P as sums over (S v)_j, j < t.

        Q = sum_(j<t) (S v)_j Q_j, so column j of W is the skew product
        Q_j * P and N_s = sum_(j<t) W_(s,j) (S v)_j.  Row s of W, for
        s < k + t, holds coefficient s of each column's product; at t = 0 W
        has k empty rows.
        """
        columns = [SkewPoly(self.tower, q) * self.annihilator for q in self.key_reduction[1]]
        return tuple(tuple(c.coeff(s) for c in columns) for s in range(self.k + self.radius))

    @functools.cached_property
    def point_texts(self) -> tuple[str, ...]:
        return tuple(self.tower.to_text(g) for g in self.points)

    def syndrome(self, word: Sequence) -> list[_Element]:
        """Parity-check image H word; H is the identity on its last n-k columns.

        The word's numerators, over the lcm of its denominators, go to
        :func:`_syndrome_nums`, the routine ``measure`` also calls, and each
        row ends in one gcd.
        """
        tower = self.tower
        den, flat = _common_nums(_coerce_word(self, word, self.n))
        canonical = tower._element._canonical
        return [canonical(tower, d, nums) for d, nums in _syndrome_nums(self, den, flat)]


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
    # _syndrome_nums multiplies only the head, and syndrome_decode takes
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


def _syndrome_nums(code: GabCode, den: int, flat: Sequence[int]) -> list[tuple[int, list[int]]]:
    """H word on numerators: per row of H, a denominator and its numerators.

    ``flat`` holds the numerators of the word's entries, one after another,
    over the one denominator ``den``.  Row i of H is the identity on the
    tail, so its entry is x_(k+i) + sum_(j<k) H_ij x_j.  The row's nonzero
    head entries, over the lcm e of their denominators, convolve with the
    nonzero head columns into one buffer, which reduces once and leaves
    the factor q = ``_q``; the tail column's numerators join it times e q,
    over den e q.  The result is not canonical: ``measure`` reads it as
    coordinates and ``GabCode.syndrome`` as canonical elements.
    """
    tower, k = code.tower, code.k
    size, q = tower._width * tower.m, tower._q
    convolve, reduce = tower._convolve, tower._reduce
    columns = [flat[j * size : (j + 1) * size] for j in range(code.n)]
    heads = [x if any(x) else () for x in columns[:k]]
    out = []
    for row, tail in zip(code.parity_check.entries, columns[k:]):
        terms = [(h, x) for h, x in zip(row, heads) if h and x]
        e = math.lcm(*(h.den for h, _ in terms))
        buf = [0] * tower._buffer_size
        for h, x in terms:
            convolve(buf, h.nums if h.den == e else [e // h.den * v for v in h.nums], x)
        scale = e * q
        if scale != 1:
            tail = [scale * b for b in tail]
        out.append((den * scale, list(map(operator.add, reduce(buf), tail))))
    return out


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
    # interpolate V(s_j) = Q(h_j): S v = A q with S_ji = theta^i(s_j).  The
    # rows theta^(-d)(y) span the left kernel of A, so S v = A q turns into
    # B v = 0 with B_di = theta^(-d)(c_(i+d)), c_e = sum_j y_j theta^e(s_j)
    # (module docstring), each c_e one table sum (GabCode.syndrome_table)
    sums = tower._table_sums(code.syndrome_table, syndrome)
    b = [[sums[i + d].theta(-d) for i in range(t + 1)] for d in range(code.n - k - t)]
    v = first_kernel_vector(Matrix(tower, b, cols=t + 1))
    if v is None:
        return DecodeResult(success=False, reason="no_kernel")
    # the numerator N = Q * P, Q = sum_(j<t) V(s_j) Q_j, as the sums N_s of
    # W_(s,j) V(s_j) over j < t, divided before they are summed
    # (GabCode.numerator_table)
    locator = SkewPoly(tower, v)
    sv = [locator.evaluate(s) for s in syndrome[:t]]
    numerator = [list(zip(row, sv)) for row in code.numerator_table]
    message, remainder = _left_divide_sums(numerator, locator)
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
    """Polynomial of degree < k with the given values at the first k points."""
    return SkewPoly(code.tower, _moore_solve(code.tower, code.generator, [values])[0])


def _moore_solve(tower: Tower, moore: Matrix, columns: Sequence[Sequence]) -> list[tuple]:
    """Per column c, the coefficients of the f of degree < d with f(p_j) = c_j, j < d.

    ``moore`` has d rows, entry (i, j) = theta^i(p_j).  One ``rref`` of the
    rows [theta^i(p_j) | c_j] solves every column; the Moore block of
    K-independent points is invertible (Augot-Loidreau-Robert), and its
    pivots are checked.
    """
    d = moore.rows
    rows = [[*moore.column(j), *(c[j] for c in columns)] for j in range(d)]
    reduced, _, pivots = rref(Matrix(tower, rows, cols=d + len(columns)))
    if pivots != list(range(d)):
        raise AssertionError("the Moore matrix of the points has rank below its size")
    return [tuple(row[d + l] for row in reduced.entries) for l in range(len(columns))]


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
