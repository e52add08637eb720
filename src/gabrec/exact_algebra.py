"""Exact arithmetic in cyclotomic and Kummer field extensions.

Two tower families are supported, each a cyclic Galois extension L/K of
degree m together with a generating automorphism theta:

* ``CyclotomicTower(p)`` for prime p: K is the rationals, L is the field
  generated by a primitive p-th root of unity zeta, m = p - 1, the power
  basis is (1, zeta, ..., zeta^(p-2)) and theta maps zeta to zeta^g for
  the smallest primitive root g modulo p.

* ``KummerTower(n, radicand)`` for 4 | n: K is the cyclotomic field of
  conductor n (so i lies in K), L = K(alpha) with alpha^n = radicand,
  m = n, the power basis is (1, alpha, ..., alpha^(n-1)) and theta maps
  alpha to zeta_n * alpha.  The radicand is rejected unless x^n - radicand
  is irreducible over K, so L is a field (with radicand 2: 8 does not divide n).

Every field here is one kind of object, a handle whose elements are
coordinate vectors of length m over a scalar field: ``CyclotomicField(n)``
(m = phi(n) over the rationals, which are :class:`fractions.Fraction`) and the
two towers (L over K).  The cyclotomic tower is Q(zeta_p) itself, a
``CyclotomicField`` with theta; the Kummer tower's K is a ``CyclotomicField``.
All arithmetic is exact; no floating point is used anywhere.

Every element is stored one way: Python-int numerators in a Q-basis over one
int denominator, in canonical form, den > 0 and gcd(den, *nums) = 1, so
equal elements have equal representations.  The Q-basis of Q(zeta_n) is
zeta^e, 0 <= e < phi(n); that of the Kummer L is zeta^e alpha^i, at index
i phi(n) + e, one row of phi(n) numerators per power of alpha.  ``coords``, a
read-only view over the scalar field (``Fraction``s, or one canonical
K-element per row), serves the coordinate matrices, the text format and the
measurement records and takes no part in the arithmetic.

One implementation, ``_Element``, holds every operator; what differs between
fields is a hook on the handle.  A sum or a difference adds or subtracts
numerators over the shared denominator, or cross-multiplies, and ends in
one gcd.  Each handle has one convolution, which adds the
product of two numerator vectors into a buffer.  In Q(zeta_n) it is 1-D,
the factor with more zeros in the outer loop, and the buffer folds degrees
from n down by zeta^n = 1 and reduces the rest by the monic integer
cyclotomic polynomial.  In the Kummer L it is 2-D over the nonzero
numerators, the rows fold by alpha^n = radicand and reduce by Phi_n, and
den gains the radicand's denominator.  A product (``_mul_nums``) convolves
into a fresh buffer and reduces it, and the element ends in one gcd.  A sum
of products, the decoder's inner loop, is written once for every handle:
every convolution, scaled to the lcm of the products' denominators, lands
in one buffer, which reduces once and ends in one gcd.  The reduction is
linear and the canonical form unique, so the sum equals the sum of the
canonical products, bit for bit.  A scalar operand, rational or in K, is
embedded as an element of the field, in its first coordinate, and then
added or multiplied as one.  One exponent map, zeta^e -> zeta^(u e + s) for
u prime to n, gives the Galois action sigma_u (s = 0; theta of the
cyclotomic tower is sigma_g), ``zeta(e)``, and the Kummer theta^j, which
shifts row i by i j.  It needs no gcd: sigma_u and the product with the
unit zeta^s map the lattice Z[zeta], whose Z-basis is the power basis, onto
itself.  The same moves build a tower's twist table, the integer matrix of
the maps x -> sum_j c_j theta^e(x_j), e < count, for constants c_j:
theta^e maps a power-basis vector to a root of unity times a basis vector,
so each column is a c_j moved, with no product.  A sum through it is one
integer dot per numerator over the lcm of the x_j's denominators and one
gcd, canonical like the fused sum of products.

The inverse comes from the norm: x^-1 is the product P of the other Galois
conjugates of x divided by N(x), the product of all of them, taken on the
numerators of den x.  In a tower, theta generates the Galois group, so P
and N are taken together along the subfield chain: for each prime l of m,
largest first, the element is multiplied by its other l - 1 conjugates
under a power of theta, by doubling, which leaves the norm to the next
subfield; N is the last of these and P the product of the factors.  In the
Kummer L an element of a subfield of index d is nonzero only on the rows of
alpha^i with d | i, so the later products skip most numerators.  In a plain
Q(zeta_n), P is the product of sigma_u(x) for the units u != 1 modulo n,
and N = x P.  In Q(zeta_n), N is a positive integer; in the Kummer L it
lies in K, is inverted there once and scales P as an embedded element, by
one product.

The two element classes are names only, kept for the benchmark's tracer,
which counts K- and L-operators by patching each class's own product,
``inverse`` and ``theta``: :class:`CyclotomicElement` for every Q(zeta_n) and
:class:`FieldElement` for the Kummer L, each binding the shared operators.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "QQ",
    "RationalField",
    "CyclotomicField",
    "CyclotomicElement",
    "Tower",
    "CyclotomicTower",
    "KummerTower",
    "FieldElement",
    "make_tower",
    "tower_from_spec",
    "is_prime",
    "euler_phi",
    "smallest_primitive_root",
    "cyclotomic_polynomial",
    "scalar_to_text",
]

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# elementary number theory

def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def euler_phi(n: int) -> int:
    phi = n
    for p in prime_factors(n):
        phi -= phi // p
    return phi


def smallest_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group modulo an odd prime p."""
    if not is_prime(p) or p < 3:
        raise ValueError(f"{p} is not an odd prime")
    cofactors = [(p - 1) // q for q in prime_factors(p - 1)]
    g = 2
    while any(pow(g, c, p) == 1 for c in cofactors):
        g += 1
    return g


def _int_poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # exact division of integer polynomials with monic divisor, ascending coeffs
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        out[shift] = c
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    if any(num):
        raise ArithmeticError("polynomial division not exact")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Minimal polynomial of a primitive n-th root of unity (ascending, monic)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    coeffs = [0] * (n + 1)
    coeffs[0], coeffs[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            coeffs = _int_poly_div_exact(coeffs, cyclotomic_polynomial(d))
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# text format shared by all scalar kinds
#
# Rationals print as "p/q" or "p"; coordinate vectors print as "(c0,c1,...)"
# where each c_i is again a scalar in this format (tuples nest for elements
# whose coordinates are themselves extension elements).

def _split_tuple(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"expected parenthesized tuple, got {text!r}")
    parts, depth, start = [], 0, 1
    for i, ch in enumerate(text[1:-1], start=1):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:-1])
    return [p.strip() for p in parts]


def scalar_to_text(value) -> str:
    """Render a rational, or an element of any field here as its coordinate tuple."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, _Element):
        return "(" + ",".join(scalar_to_text(c) for c in value.coords) + ")"
    raise TypeError(f"cannot format {type(value).__name__}")


# ---------------------------------------------------------------------------
# the rational base field

class RationalField:
    """Field handle for exact rationals, usable wherever a field is expected."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to a rational")

    def to_text(self, value) -> str:
        return scalar_to_text(self.coerce(value))

    @staticmethod
    def _sum_products(pairs: Sequence[tuple]) -> Fraction:
        # a plain Fraction sum: only tests eliminate over QQ
        return sum(a * b for a, b in pairs)

    def from_text(self, text: str) -> Fraction:
        text = text.strip()
        # Fraction expands a decimal exponent in full: "1e10000000" takes
        # seconds.  The bound is Python's default digit limit for int strings.
        # Fraction takes digit separators in the exponent from Python 3.11 on.
        _, marker, exponent = text.lower().partition("e")
        digits = exponent.replace("_", "").lstrip("+-").lstrip("0")
        if marker and digits.isdecimal() and (len(digits) > 4 or int(digits) > 4300):
            raise ValueError(f"decimal exponent beyond 4300 in {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")


QQ = RationalField()


# ---------------------------------------------------------------------------
# elements
#
# The benchmark's tracer, perfbench/spans.py, counts K- and L-operators apart by patching
# __mul__, __rmul__, inverse and theta in each element class's own __dict__, hence the bindings.

class _Element:
    """Integer numerators over one positive denominator, the one element implementation.

    ``field`` is the handle the element belongs to, ``nums`` its numerators
    in the handle's Q-basis and ``den`` a positive int with
    gcd(den, *nums) = 1, so each element has one representation and zero is
    den 1 over zero numerators.  ``coords`` is the view over the handle's
    scalar field.  Every operator is implemented here once, over the hooks
    that :class:`_CoordinateField` lists.
    """

    __slots__ = ("field", "den", "nums")

    def __init__(self, field, den: int, nums: tuple[int, ...]):
        self.field = field
        self.den = den
        self.nums = nums

    @classmethod
    def _canonical(cls, field, den: int, nums: Sequence[int]):
        # sum(nums[e] b_e) / den for den > 0, with the common factor divided out
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
        return cls(field, den, tuple(nums))

    @property
    def coords(self) -> tuple:
        return self.field._coords(self.den, self.nums)

    def _match(self, other):
        # other as an element of this field, or NotImplemented; an element of
        # another field is no rational (TypeError) and no element of K (ValueError)
        field = self.field
        if isinstance(other, _Element) and (other.field is field or other.field == field):
            return other
        try:
            return field.embed_scalar(other)
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return self._canonical(self.field, da, [a + b for a, b in zip(self.nums, other.nums)])
        return self._canonical(
            self.field, da * db, [a * db + b * da for a, b in zip(self.nums, other.nums)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return self._canonical(self.field, da, [a - b for a, b in zip(self.nums, other.nums)])
        return self._canonical(
            self.field, da * db, [a * db - b * da for a, b in zip(self.nums, other.nums)]
        )

    def __rsub__(self, other):
        other = self._match(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        return type(self)(self.field, self.den, tuple(map(operator.neg, self.nums)))

    def __mul__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        nums = field._mul_nums(self.nums, other.nums)
        return self._canonical(field, self.den * other.den * field._q, nums)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._match(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = self._match(other)
        return other if other is NotImplemented else other * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = self.field.one
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def inverse(self):
        """x^-1 = den P / N by the norm, on numerators.

        With a = den x, P is the product of the conjugates of a other than
        a under the Galois group over the scalar field, and N = a P = N(a)
        is fixed by that group, so it lies in the scalar field.  The handle
        takes both in one hook, ``_product_and_norm``, checks that N lies
        in the scalar field and divides P by N.  N carries one factor
        q = ``_q`` more than P, so the quotient is P / (q N), and
        den q P / (q N) = x^-1.
        """
        if not any(self.nums):
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        den, nums = field._divide_by_norm(*field._product_and_norm(self.nums))
        scale = self.den * field._q
        return self._canonical(field, den, [scale * x for x in nums])

    def theta(self, j: int = 1):
        """Image under the j-th power of the tower's generating automorphism."""
        return type(self)(self.field, self.den, self.field._theta_nums(self.nums, j))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            try:
                other = self.field.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.field == other.field and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # an element whose only nonzero coordinate is the first hashes as that
        # scalar, and so down to the Fraction, like the scalars it equals
        field, nums = self.field, self.nums
        w = field._width
        if not any(nums[w:]):
            return hash(field._coords(self.den, nums[:w])[0])
        return hash((field, self.den, nums))

    def __bool__(self) -> bool:
        return any(self.nums)

    def __repr__(self) -> str:
        return scalar_to_text(self)


class CyclotomicElement(_Element):
    """Element sum(nums[e] zeta^e) / den of a :class:`CyclotomicField`."""

    __slots__ = ()
    __mul__ = __rmul__ = _Element.__mul__
    inverse = _Element.inverse
    theta = _Element.theta


class FieldElement(_Element):
    """Element sum(nums[i phi(n) + e] zeta^e alpha^i) / den of the Kummer tower's L."""

    __slots__ = ()
    __mul__ = __rmul__ = _Element.__mul__
    inverse = _Element.inverse
    theta = _Element.theta


# ---------------------------------------------------------------------------
# field handles

class _CoordinateField:
    """A field whose elements are coordinate vectors of length m over ``scalar_field``.

    Two handles are equal when their ``_key``, the class name and the
    construction parameters, is; ``_element`` is the class of their elements.
    Each subclass provides the hooks that :class:`_Element` and the handle
    call: ``_width`` numerators per coordinate; ``_numerators`` (scalars
    as one denominator and its numerators, for ``from_coords``, for
    ``measure``'s whole matrix at once, and for ``embed_scalar`` on a list
    of one, through which a scalar operand enters every operator) and
    ``_coords`` (the reverse, the scalars of den and numerators), each one
    call per vector; ``_convolve`` (adds the product of two numerator
    vectors into a buffer of ``_buffer_size`` integers), ``_reduce`` (the
    buffer as numerators) and ``_q`` (the denominator a product leaves);
    ``_product_and_norm`` (P and N together) and ``_divide_by_norm`` for
    the inverse; and on a tower ``_theta_nums`` and
    ``_twist_columns(nums, count)`` (the columns of x -> c theta^s(x) for
    each s < count, moved out of c's numerators).  Over ``_convolve``,
    ``_reduce`` and ``_q`` the handle implements, once for every field,
    ``_mul_nums`` (a product of numerators, for ``__mul__`` and the
    inverse) and ``_sum_products`` (a sum of products reduced once, for
    ``exact_linalg._dot``), and ``gabidulin._syndrome_nums`` the syndrome
    H word, one reduction per row of H; over ``_twist_columns`` a tower
    implements ``_twist_table(constants, count)`` (the integer matrix of
    x -> sum_j c_j theta^e(x_j), one block per e < count, for per-code
    constants c_j) and ``_table_sums`` (its sums, for the decoder's key
    equation).
    """

    _element: type

    def __init__(self, scalar_field, m: int, *params):
        self.scalar_field = scalar_field
        self.m = m
        self._key = (type(self).__name__, *params)

    def __eq__(self, other) -> bool:
        return isinstance(other, _CoordinateField) and other._key == self._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        name, *params = self._key
        return f"{name}({', '.join(map(str, params))})"

    # elements are immutable, so each handle builds its zero and one once
    @functools.cached_property
    def zero(self) -> _Element:
        return self._element(self, 1, (0,) * (self._width * self.m))

    @functools.cached_property
    def one(self) -> _Element:
        return self._basis_vector(0)

    @property
    def basis(self) -> list[_Element]:
        return [self._basis_vector(i) for i in range(self.m)]

    def _basis_vector(self, i: int) -> _Element:
        # the i-th power-basis vector: one numerator 1, at index i * _width
        nums = [0] * (self._width * self.m)
        nums[i * self._width] = 1
        return self._element(self, 1, tuple(nums))

    def from_coords(self, coords: Iterable) -> _Element:
        values = list(coords)
        if len(values) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(values)}")
        return self._element(self, *self._numerators(values))

    def embed_scalar(self, value) -> _Element:
        den, row = self._numerators([value])
        return self._element(self, den, row + (0,) * (self._width * (self.m - 1)))

    def coerce(self, value) -> _Element:
        if isinstance(value, _Element) and (value.field is self or value.field == self):
            return value
        try:
            return self.embed_scalar(value)
        except (TypeError, ValueError):
            if isinstance(value, _Element):
                raise ValueError(f"element of {value.field!r}, not of {self!r}") from None
            raise

    def to_text(self, value) -> str:
        return scalar_to_text(self.coerce(value))

    def from_text(self, text: str) -> _Element:
        return self.from_coords([self.scalar_field.from_text(p) for p in _split_tuple(text)])

    def _mul_nums(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        # numerators of the product of two numerator vectors, times _q
        buf = [0] * self._buffer_size
        self._convolve(buf, a, b)
        return self._reduce(buf)

    def _sum_products(self, pairs: Sequence[tuple]) -> _Element:
        # sum of a * b over pairs of nonzero elements, on numerators: each
        # convolution, scaled to the lcm of the a.den b.den, lands in one
        # buffer, which reduces once; with _q the den gains, one gcd ends it
        dens = [a.den * b.den for a, b in pairs]
        den = math.lcm(*dens)
        buf = [0] * self._buffer_size
        convolve = self._convolve
        for (a, b), t in zip(pairs, dens):
            convolve(buf, a.nums if t == den else [den // t * x for x in a.nums], b.nums)
        return self._element._canonical(self, den * self._q, self._reduce(buf))


class CyclotomicField(_CoordinateField):
    """The field generated over the rationals by a primitive n-th root of unity.

    Elements are :class:`CyclotomicElement`: integer numerators over one
    denominator with respect to the power basis (1, zeta, ..., zeta^(m-1)),
    m = phi(n); products are reduced modulo the n-th cyclotomic polynomial.
    """

    _element = CyclotomicElement
    _width = 1  # one numerator per rational coordinate
    _q = 1  # the product of numerators leaves no denominator

    def __init__(self, conductor: int):
        if conductor < 3:
            raise ValueError("conductor must be at least 3")
        super().__init__(QQ, euler_phi(conductor), conductor)
        self.conductor = conductor
        self._buffer_size = 2 * self.m - 1
        # nonzero lower coefficients of the monic integer modulus
        self._reduction_terms = [
            (i, c) for i, c in enumerate(cyclotomic_polynomial(conductor)[:-1]) if c
        ]
        # the units u != 1 modulo the conductor: sigma_u, zeta -> zeta^u, are
        # the Galois automorphisms other than the identity
        self._other_units = [u for u in range(2, conductor) if math.gcd(u, conductor) == 1]
        # zeta^k, 0 <= k < n, as its nonzero power-basis terms (t, c)
        self._powers = [
            [(t, c) for t, c in enumerate(self._reduce([0] * k + [1] + [0] * self.m)) if c]
            for k in range(conductor)
        ]

    @staticmethod
    def _coords(den: int, nums: Sequence[int]) -> tuple[Fraction, ...]:
        if den == 1:
            return tuple(map(Fraction, nums))
        return tuple(map(Fraction, nums, itertools.repeat(den)))

    @staticmethod
    def _numerators(values: Sequence) -> tuple[int, tuple[int, ...]]:
        # rationals over their least common denominator, which is canonical:
        # a prime power exactly dividing it exactly divides one denominator,
        # whose numerator it leaves prime to it
        for v in values:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(v).__name__} to a rational")
        dens = [v.denominator for v in values]
        den = math.lcm(*dens)
        return den, tuple(v.numerator * (den // q) for v, q in zip(values, dens))

    def zeta(self, power: int = 1) -> CyclotomicElement:
        """zeta^power, reduced to the power basis."""
        return CyclotomicElement(self, 1, self._move(self.one.nums, 1, power))

    def _reduce(self, nums: list[int]) -> tuple[int, ...]:
        # Power-basis numerators of sum(nums[k] zeta^k), for at least m and
        # fewer than 2 * conductor numerators, reduced in place: degrees from
        # the conductor up fold down by zeta^n = 1 (Phi_n divides x^n - 1),
        # the rest reduce by the monic integer Phi_n.
        d, n = self.m, self.conductor
        for k in range(n, len(nums)):
            nums[k - n] += nums[k]
        for k in range(min(len(nums), n) - 1, d - 1, -1):
            c = nums[k]
            if c:
                for i, coeff in self._reduction_terms:
                    nums[k - d + i] -= c * coeff
        return tuple(nums[:d])

    @staticmethod
    def _convolve(buf: list[int], a: Sequence[int], b: Sequence[int]) -> None:
        # adds the convolution of two numerator vectors into buf, the one
        # with more zeros in the outer loop
        if a.count(0) < b.count(0):
            a, b = b, a
        for i, x in enumerate(a):
            if x:
                # i steps with b's index: cheaper than enumerate and buf[i + j]
                for y in b:
                    buf[i] += x * y
                    i += 1

    def _move(self, nums: Sequence[int], u: int, s: int = 0) -> tuple[int, ...]:
        # The numerator of zeta^e moves to zeta^(u e + s), for u prime to
        # the conductor: sigma_u (zeta -> zeta^u) followed by a product with
        # zeta^s.  Both map the lattice Z[zeta], whose Z-basis is the power
        # basis, onto itself, so the numerators keep their content and den
        # stays canonical with no gcd.
        n, powers = self.conductor, self._powers
        out = [0] * self.m
        for e, v in enumerate(nums):
            if v:
                for t, c in powers[(u * e + s) % n]:
                    out[t] += c * v
        return tuple(out)

    def _product_and_norm(self, nums: Sequence[int]) -> tuple:
        # (P, N) for numerators a: P the product of sigma_u(a), u != 1, and N = a P
        product = functools.reduce(self._mul_nums, (self._move(nums, u) for u in self._other_units))
        return product, self._mul_nums(nums, product)

    @staticmethod
    def _divide_by_norm(product: Sequence[int], norm: Sequence[int]) -> tuple:
        # N is positive: Q(zeta_n) has no real embedding, so the conjugates
        # pair up as complex conjugates and N is a product of squared moduli
        if norm[0] <= 0 or any(norm[1:]):
            raise ArithmeticError("norm is not a positive integer")
        return norm[0], product


# ---------------------------------------------------------------------------
# towers L/K with generating automorphism theta

class Tower(_CoordinateField):
    """A cyclic extension L/K of degree m with generating automorphism theta.

    Use :func:`make_tower`.  Subclasses provide ``kind`` and the hook
    ``_theta_nums`` behind their elements' ``theta``.
    """

    kind: str

    def generator(self) -> _Element:
        # zeta or alpha, the second power-basis vector
        return self._basis_vector(1)

    def _product_and_norm(self, nums: Sequence[int]) -> tuple:
        # (P, N) for numerators a: P = theta(a) ... theta^(m-1)(a) and N = a P,
        # up to the positive factor that ``_mul_nums`` leaves, N with one q
        # more than P.  z lies in the fixed field F of theta^size, cyclic of
        # degree size over K (at first z = a and size = m).  Per prime l of
        # m, largest first, size becomes size / l, and z times its other
        # conjugates f under sigma = theta^size is the norm from F to its
        # subfield of index l.  By transitivity the last z is N, and P is the
        # product of the f.  Each f = sigma(y_(l-1)) is taken by doubling on
        # y_k = z sigma(z) ... sigma^(k-1)(z): y_2k = y_k sigma^k(y_k) and
        # y_(k+1) = y_k sigma^k(z).
        mul, theta = self._mul_nums, self._theta_nums
        z, product, size = nums, None, self.m
        for ell in reversed(prime_factors(self.m)):
            while size % ell == 0:
                size //= ell
                y, k = z, 1
                for bit in bin(ell - 1)[3:]:
                    y, k = mul(y, theta(y, k * size)), 2 * k
                    if bit == "1":
                        y, k = mul(y, theta(z, k * size)), k + 1
                factor = theta(y, size)
                product = factor if product is None else mul(product, factor)
                z = mul(z, factor)
        return product, z

    def _twist_table(self, constants: Sequence[_Element], count: int) -> tuple:
        # (den, rows): the integer matrix of x -> sum_j c_j theta^e(x_j), one
        # block of rows per e < count, over the lcm of the c_j's denominators
        # times _q.  Column (j, i) of block e holds the numerators of
        # c_j theta^e(b_i) for the basis vector b_i, which ``_twist_columns``
        # moves out of c_j's, with no product, as pairs (row, value) of its
        # nonzero entries.  A row keeps only its nonzero entries, as the
        # column indices and the values
        den = math.lcm(*(c.den for c in constants))
        scaled = (c.nums if c.den == den else [den // c.den * x for x in c.nums] for c in constants)
        per_constant = [self._twist_columns(nums, count) for nums in scaled]
        size, rows = self._width * self.m, []
        for b in range(count):
            indices, values = [[] for _ in range(size)], [[] for _ in range(size)]
            columns = itertools.chain.from_iterable(twists[b] for twists in per_constant)
            for i, column in enumerate(columns):
                for r, v in column:
                    indices[r].append(i)
                    values[r].append(v)
            rows += zip(indices, values)
        return den * self._q, tuple(rows)

    def _table_sums(self, table: tuple, xs: Sequence[_Element]) -> list[_Element]:
        # one sum per block of a ``_twist_table``: the x_j's numerators over
        # their lcm, and per output numerator one integer dot of a row's
        # values with the numerators it indexes; one gcd ends each sum
        den, rows = table
        common, flat = _common_nums(xs)
        get = flat.__getitem__
        nums = [sum(map(operator.mul, values, map(get, indices))) for indices, values in rows]
        size, canonical = self._width * self.m, self._element._canonical
        return [
            canonical(self, den * common, nums[k : k + size]) for k in range(0, len(nums), size)
        ]

    def _check_theta_order(self) -> None:
        # theta must have exact multiplicative order m, witnessed on a generator
        gen = self.generator()
        for j in range(1, self.m):
            if gen.theta(j) == gen:
                raise AssertionError(f"theta has order dividing {j}, expected {self.m}")
        if gen.theta(self.m) != gen:
            raise AssertionError("theta^m is not the identity")


class CyclotomicTower(Tower, CyclotomicField):
    """L = Q(zeta_p) over K = Q for prime p, theta: zeta -> zeta^g."""

    kind = "cyclotomic"

    def __init__(self, conductor: int):
        if not is_prime(conductor):
            raise ValueError(f"conductor {conductor} is not prime")
        super().__init__(conductor)
        self.primitive_root = smallest_primitive_root(conductor)
        self._check_theta_order()

    def _theta_nums(self, nums: Sequence[int], j: int) -> tuple[int, ...]:
        # theta^j = sigma_(g^j)
        return self._move(nums, pow(self.primitive_root, j % self.m, self.conductor))

    def _twist_columns(self, nums: Sequence[int], count: int) -> list[list[tuple]]:
        # per s < count, column e of x -> c theta^s(x): c zeta^(u e), u = g^s,
        # one of the p moves of c's numerators
        p = self.conductor
        moved = [_nonzero(self._move(nums, 1, w)) for w in range(p)]
        units = [pow(self.primitive_root, s, p) for s in range(count)]
        return [[moved[u * e % p] for e in range(self.m)] for u in units]


class KummerTower(Tower):
    """L = K(alpha) with alpha^n = radicand over K = Q(zeta_n), 4 | n."""

    kind = "kummer"
    _element = FieldElement

    def __init__(self, n: int, radicand: Rational = 2):
        if n <= 2:
            raise ValueError("n must exceed 2")
        if n % 4 != 0:
            raise ValueError("n must be divisible by 4 so that i lies in K")
        radicand = QQ.coerce(radicand)
        self._check_radicand(n, radicand)
        super().__init__(CyclotomicField(n), n, n, radicand)
        self.n = n
        self.radicand = radicand
        self._p, self._q = radicand.numerator, radicand.denominator
        self._width = d = self.scalar_field.m  # a row of numerators per power of alpha
        self._row_element = functools.partial(CyclotomicElement._canonical, self.scalar_field)
        # offset of the numerator of zeta^e alpha^i, index i d + e, in the
        # product's buffer of 2 n - 1 rows of 2 d - 1
        self._offsets = [i * (2 * d - 1) + e for i in range(n) for e in range(d)]
        self._buffer_size = (2 * n - 1) * (2 * d - 1)
        self._check_theta_order()

    @staticmethod
    def _check_radicand(n: int, c: Fraction) -> None:
        # With zeta_n in K, x^n - c is irreducible over K iff c is not a d-th
        # power in K for any prime d | n and, as 4 | n, not in -4K^4.  As i is
        # in K, -4 = (1+i)^4, so -4K^4 = K^4 lies in K^2 and the square test
        # covers it.  For odd d a rational c is a d-th power in K only if it
        # is one in Q: otherwise Q(c^(1/d)) in K would be normal of degree d
        # and contain zeta_d, of degree d - 1.
        if c == 0 or c == 1 or c == -1:
            raise ValueError(f"radicand {c} has an n-th root in the base field")
        for d in prime_factors(n):
            if d == 2 and _is_square_in_cyclotomic(c, n):
                raise ValueError(f"radicand {c} is a square in Q(zeta_{n}), extension collapses")
            if d != 2 and _is_rational_power(c, d):
                raise ValueError(f"radicand {c} is a {d}-th power, extension collapses")

    def _coords(self, den: int, nums: Sequence[int]) -> tuple[CyclotomicElement, ...]:
        # each row of numerators over den, as a canonical K-element; the rows
        # are cut by one shared iterator
        rows = zip(*[iter(nums)] * self._width)
        return tuple(map(self._row_element, itertools.repeat(den), rows))

    def _numerators(self, values: Sequence) -> tuple[int, tuple[int, ...]]:
        # K-elements over their least common denominator, canonical by the
        # argument of CyclotomicField._numerators
        den, nums = _common_nums(list(map(self.scalar_field.coerce, values)))
        return den, tuple(nums)

    def _convolve(self, buf: list[int], a: Sequence[int], b: Sequence[int]) -> None:
        # adds the 2-D convolution of numerator rows a, b into buf, rows of
        # 2 phi(n) - 1, skipping zero numerators
        offsets = self._offsets
        terms = [(offsets[k], y) for k, y in enumerate(b) if y]
        for k, x in enumerate(a):
            if x:
                at = offsets[k]
                for off, y in terms:
                    buf[at + off] += x * y

    def _reduce(self, buf: list[int]) -> tuple[int, ...]:
        # numerators of q times the convolution buffer, reduced in place:
        # rows n and up fold down to alpha^(i+j-n) times p, the rows below
        # n are taken times q, and each row reduces by the monic Phi_n.  As
        # 4 | n, 2 phi(n) - 1 < n, so no row needs the fold zeta^n = 1.
        d, p, q = self._width, self._p, self._q
        w = 2 * d - 1
        low = self.n * w
        if q != 1:
            buf[:low] = [q * v for v in buf[:low]]
        for k in range(low, len(buf)):
            v = buf[k]
            if v:
                buf[k - low] += p * v
        reduction = self.scalar_field._reduction_terms
        out = []
        for r in range(0, low, w):
            for k in range(r + w - 1, r + d - 1, -1):
                c = buf[k]
                if c:
                    for i, coeff in reduction:
                        buf[k - d + i] -= c * coeff
            out += buf[r : r + d]
        return tuple(out)

    def _divide_by_norm(self, product: Sequence[int], norm: Sequence[int]) -> tuple:
        # N lies in K, or the ring is not a field; P times its one K-inverse,
        # embedded in L, is one product, which leaves the factor q
        d = self._width
        if not any(norm[:d]) or any(norm[d:]):
            raise ArithmeticError("norm is zero or not in the base field")
        scale = self.embed_scalar(CyclotomicElement(self.scalar_field, 1, norm[:d]).inverse())
        return scale.den * self._q, self._mul_nums(product, scale.nums)

    def _twist_columns(self, nums: Sequence[int], count: int) -> list[list[tuple]]:
        # per s < count, column i d + e of x -> c theta^s(x): c zeta^w alpha^i
        # with w = e + i s, the rows of c moved by zeta^w and shifted up by i.
        # Rows past alpha^(n-1) wrap round by alpha^n = p / q, so the rows
        # that stay are taken times q, which _q adds to the table's den
        base, n, d, p, q = self.scalar_field, self.n, self._width, self._p, self._q
        rows = [nums[r * d : (r + 1) * d] for r in range(n)]
        size = n * d
        twists = []  # twists[w][i]: the nonzero numerators of c zeta^w alpha^i
        for w in range(n):
            moved = [base._move(row, 1, w) if any(row) else row for row in rows]
            nonzero = _nonzero([x for row in moved for x in row])
            twists.append([
                [(k + i * d, q * v) if k + i * d < size else (k + i * d - size, p * v)
                 for k, v in nonzero]
                for i in range(n)
            ])
        return [
            [twists[(e + i * s) % n][i] for i in range(n) for e in range(d)]
            for s in range(count)
        ]

    def _theta_nums(self, nums: Sequence[int], j: int) -> tuple[int, ...]:
        # theta^j: alpha^i -> zeta^(i j) alpha^i, so row i shifts by i j
        base = self.scalar_field
        n, d = self.n, base.m
        out = []
        for i in range(n):
            row = nums[i * d : (i + 1) * d]
            out += base._move(row, 1, i * j) if i * j % n else row
        return tuple(out)


def _common_nums(xs: Sequence[_Element]) -> tuple[int, list[int]]:
    # the numerators of the x_j, one after another, over the lcm of their
    # denominators
    common = math.lcm(*(x.den for x in xs))
    flat = []
    for x in xs:
        flat += x.nums if x.den == common else [common // x.den * v for v in x.nums]
    return common, flat


def _nonzero(nums: Sequence[int]) -> list[tuple[int, int]]:
    # the pairs (index, numerator) of the nonzero numerators
    return list(itertools.compress(enumerate(nums), nums))


def _is_square_in_cyclotomic(c: Fraction, n: int) -> bool:
    # For 4 | n the quadratic subfields of Q(zeta_n) are Q(sqrt s) for s in
    # the group generated by -1, the odd primes dividing n and, when 8 | n,
    # 2; so c is a square in Q(zeta_n) iff c*s is a rational square for one.
    generators = [-1] + [p for p in prime_factors(n) if p != 2] + ([2] if n % 8 == 0 else [])
    group = [1]
    for g in generators:
        group += [s * g for s in group]
    return any(_is_rational_power(c * s, 2) for s in group)


def _is_rational_power(c: Fraction, d: int) -> bool:
    if c == 0:
        return True
    if c < 0:
        return d % 2 == 1 and _is_rational_power(-c, d)
    return _is_int_power(c.numerator, d) and _is_int_power(c.denominator, d)


def _is_int_power(v: int, d: int) -> bool:
    if v < 1:
        return False
    lo, hi = 0, 1
    while hi**d < v:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d < v:
            lo = mid + 1
        else:
            hi = mid
    return lo**d == v


def make_tower(kind: str, param: int, radicand: Rational = 2) -> Tower:
    """Build a tower: ``make_tower("cyclotomic", p)`` or ``make_tower("kummer", n)``."""
    if kind == "cyclotomic":
        return CyclotomicTower(param)
    if kind == "kummer":
        return KummerTower(param, radicand)
    raise ValueError(f"unknown tower kind {kind!r}")


def tower_from_spec(spec: str) -> Tower:
    """Parse a tower description of the form ``cyclotomic:5`` or ``kummer:4``."""
    kind, sep, param = spec.partition(":")
    if not sep:
        raise ValueError(f"tower spec {spec!r} must look like 'cyclotomic:5' or 'kummer:4'")
    try:
        value = int(param)
    except ValueError:
        raise ValueError(f"tower parameter {param!r} is not an integer") from None
    return make_tower(kind.strip(), value)
