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
(m = phi(n) over the rationals) and the two towers (L over K).  The
cyclotomic tower is Q(zeta_p) itself, a ``CyclotomicField`` with theta; the
Kummer tower's K is a ``CyclotomicField``.  Two classes hold the elements:

* :class:`CyclotomicElement` for every Q(zeta_n): each ``CyclotomicField``,
  so the cyclotomic tower's L and the Kummer tower's K;
* :class:`FieldElement` for the Kummer tower's L.

Rationals are :class:`fractions.Fraction`.  All arithmetic is exact; no
floating point is used anywhere.

Both classes store an element the same way: Python-int numerators in a
Q-basis over one int denominator, in canonical form, den > 0 and
gcd(den, *nums) = 1, so equal elements have equal representations and zero
is den 1 over zeros.  The Q-basis of Q(zeta_n) is zeta^e, 0 <= e < phi(n);
that of the Kummer L is zeta^e alpha^i, at index i phi(n) + e, so its
nums are n phi(n) ints.  ``coords`` is a read-only view over the scalar
field (``Fraction``s, or one canonical K-element per power of alpha), for the
coordinate matrices, the text format and the measurement records; it takes
no part in the arithmetic.  Sums and differences add numerators over the
shared denominator, or cross-multiply, and end in one gcd; this code is
shared.  A product in Q(zeta_n) convolves the numerators, folds degrees
from n down by zeta^n = 1, reduces the rest by the monic integer
cyclotomic polynomial and ends in one gcd.  A product in the Kummer L is
one 2-D convolution: a term of alpha^(i+j) with i + j >= n folds to
alpha^(i+j-n) times p, the others are taken times q, for radicand p/q, and
den gains the factor q; each row then reduces by Phi_n, and one gcd ends
it.  A rational factor scales numerators and denominator, a K-factor each
row.  One exponent map, zeta^e -> zeta^(u e + s) for u prime to n, gives
the Galois action sigma_u (s = 0; theta of the cyclotomic tower is
sigma_g), ``zeta(e)``, and the Kummer theta^j, which shifts row i by i j.
It needs no gcd: sigma_u and the product with the unit zeta^s map the
lattice Z[zeta] onto itself, and the power basis is a Z-basis of Z[zeta],
so the numerators keep their content.

The inverse comes from the norm: x^-1 is the product P of the other Galois
conjugates of x divided by N(x), the product of all of them, taken on the
numerators of den x.  In a cyclotomic tower and in the Kummer L, theta
generates the Galois group, so P is built by doubling in O(log m) products;
in a plain Q(zeta_n) it is the product of sigma_u(x) for the units u != 1
modulo n.  In Q(zeta_n), N is a positive integer; in L it lies in K and is
inverted there once.  Elements of K and of L stay two classes so that the
benchmark's tracer can count their operators apart.
"""

from __future__ import annotations

import functools
import math
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
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
    """Render a Fraction, CyclotomicElement or FieldElement in the text format."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, _Element):
        return "(" + ",".join(scalar_to_text(c) for c in value.coords) + ")"
    raise TypeError(f"cannot format {type(value).__name__}")


# ---------------------------------------------------------------------------
# the rational base field

def _rational_parts(value) -> tuple[int, int]:
    # (numerator, positive denominator) of an int or a Fraction
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational")


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

    def from_text(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text.strip()!r}") from None

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
# The benchmark's tracer (perfbench/spans.py) counts K- and L-operators apart
# by patching __mul__, __rmul__, inverse and theta in each element class's own
# __dict__, so each class defines them in its body instead of inheriting.

class _Element:
    """Integer numerators over one positive denominator, shared by both element classes.

    ``field`` is the handle the element belongs to, ``nums`` its numerators
    in the handle's Q-basis and ``den`` a positive int with
    gcd(den, *nums) = 1, so each element has one representation and zero is
    den 1 over zero numerators.  ``coords`` is the view over the handle's
    scalar field.  Sums, differences, negation, equality and truth work on
    the numerators alone and are implemented here once; each subclass
    provides ``_match`` (the other operand as an element of the same field,
    or NotImplemented), the product, ``inverse``, ``theta`` and the hash.
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
        return (-self) + other

    def __neg__(self):
        return type(self)(self.field, self.den, tuple(-x for x in self.nums))

    def __truediv__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

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

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            try:
                other = self.field.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.field == other.field and self.den == other.den and self.nums == other.nums

    def __bool__(self) -> bool:
        return any(self.nums)

    def __repr__(self) -> str:
        return scalar_to_text(self)


class CyclotomicElement(_Element):
    """Element sum(nums[e] zeta^e) / den of a :class:`CyclotomicField`.

    ``nums`` are m = phi(n) Python ints in the power basis of zeta;
    ``coords`` is the ``Fraction`` view.
    """

    __slots__ = ()

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        if den == 1:
            return tuple(Fraction(x) for x in self.nums)
        return tuple(Fraction(x, den) for x in self.nums)

    def _same_field(self, other: "CyclotomicElement") -> None:
        if other.field is not self.field and other.field != self.field:
            raise TypeError(f"cannot combine elements of {self.field!r} and {other.field!r}")

    def _match(self, other):
        if type(other) is CyclotomicElement:
            self._same_field(other)
            return other
        try:
            return self.field.embed_scalar(other)
        except TypeError:
            return NotImplemented

    def __mul__(self, other):
        field = self.field
        if type(other) is CyclotomicElement:
            self._same_field(other)
            product = field._mul_nums(self.nums, other.nums)
            return self._canonical(field, self.den * other.den, product)
        try:
            p, q = _rational_parts(other)
        except TypeError:
            return NotImplemented
        return self._canonical(field, self.den * q, [p * x for x in self.nums])

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """x^-1 = den P / N by the norm, on integers.

        With a = den x in Z[zeta], P is the product of the conjugates of a
        other than a, and N = a P = N(a) is an integer.  It is positive:
        Q(zeta_n) has no real embedding, so the conjugates pair up as
        complex conjugates and N is a product of squared moduli.
        """
        if not any(self.nums):
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        product = field._conjugate_product(self.nums)
        norm = field._mul_nums(self.nums, product)
        if norm[0] <= 0 or any(norm[1:]):
            raise ArithmeticError("norm is not a positive integer")
        return self._canonical(field, norm[0], [self.den * x for x in product])

    def theta(self, j: int = 1) -> "CyclotomicElement":
        """Image under theta^j = sigma_(g^j), for an element of a cyclotomic tower."""
        return CyclotomicElement(self.field, self.den, self.field._theta_nums(self.nums, j))

    def __hash__(self) -> int:
        # a rational hashes as its Fraction, so that it hashes like the
        # scalars it equals
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field, self.den, self.nums))


class FieldElement(_Element):
    """Element of the Kummer tower's L: sum(nums[i d + e] zeta^e alpha^i) / den.

    ``nums`` are n phi(n) Python ints, d = phi(n), one row of d per power of
    alpha; ``coords`` is the view as m canonical elements of K, one per row.
    """

    __slots__ = ()

    @property
    def coords(self) -> tuple[CyclotomicElement, ...]:
        base, den, nums = self.field.scalar_field, self.den, self.nums
        d = base.m
        rows = (nums[i : i + d] for i in range(0, len(nums), d))
        return tuple(CyclotomicElement._canonical(base, den, row) for row in rows)

    def _match(self, other):
        try:
            return self.field.coerce(other)
        except TypeError:
            return NotImplemented

    def __mul__(self, other):
        field = self.field
        if type(other) is FieldElement:
            other = field.coerce(other)  # raises on elements of another field
            return self._canonical(
                field, self.den * other.den * field._q, field._mul_nums(self.nums, other.nums)
            )
        if isinstance(other, (int, Fraction)):
            p, q = _rational_parts(other)
            return self._canonical(field, self.den * q, [p * x for x in self.nums])
        try:
            scalar = field.scalar_field.coerce(other)
        except TypeError:
            return NotImplemented
        product = field._scale_rows(self.nums, scalar.nums)
        return self._canonical(field, self.den * scalar.den, product)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """x^-1 = den P / N by the norm over K, on numerators.

        With a = den x, P is the product of the conjugates theta^j(a),
        0 < j < m, and N = a P = N(a) is fixed by theta, so it lies in K; if
        it is zero, or not there, the ring is not a field and
        ArithmeticError is raised.  N's one K-inverse scales the rows of P.
        """
        if not any(self.nums):
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        d = field.scalar_field.m
        product = field._conjugate_product(self.nums)
        # the numerator product is q a P, q the radicand's denominator
        norm = field._mul_nums(self.nums, product)
        if not any(norm[:d]) or any(norm[d:]):
            raise ArithmeticError("norm is zero or not in the base field")
        # N's numerators need no gcd here: inverse() returns canonical form
        scale = CyclotomicElement(field.scalar_field, 1, norm[:d]).inverse()
        return self._canonical(
            field,
            scale.den,
            [self.den * field._q * x for x in field._scale_rows(product, scale.nums)],
        )

    def theta(self, j: int = 1) -> "FieldElement":
        """Image under the j-th power of the generating automorphism."""
        return FieldElement(self.field, self.den, self.field._theta_nums(self.nums, j))

    def __hash__(self) -> int:
        # an element of K hashes as that K-element, and so down to the Fraction
        base = self.field.scalar_field
        if not any(self.nums[base.m :]):
            return hash(CyclotomicElement(base, self.den, self.nums[: base.m]))
        return hash((self.field, self.den, self.nums))


# ---------------------------------------------------------------------------
# field handles

class _CoordinateField:
    """A field whose elements are coordinate vectors of length m over ``scalar_field``.

    Two handles are equal when their ``_key``, the class name and the
    construction parameters, is; ``_element`` is the class of their elements.
    Each subclass builds its elements in ``from_coords`` and ``embed_scalar``.
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

    @property
    def zero(self) -> _Element:
        return self.embed_scalar(self.scalar_field.zero)

    @property
    def one(self) -> _Element:
        return self.embed_scalar(self.scalar_field.one)

    @property
    def basis(self) -> list[_Element]:
        zero, one = self.scalar_field.zero, self.scalar_field.one
        return [
            self.from_coords((zero,) * i + (one,) + (zero,) * (self.m - 1 - i))
            for i in range(self.m)
        ]

    def coerce(self, value) -> _Element:
        if isinstance(value, self._element):
            if value.field is not self and value.field != self:
                raise ValueError(f"element of {value.field!r}, not of {self!r}")
            return value
        try:
            return self.embed_scalar(value)
        except TypeError:
            if isinstance(value, _Element):
                raise ValueError(f"element of {value.field!r}, not of {self!r}") from None
            raise

    def to_text(self, value) -> str:
        return scalar_to_text(self.coerce(value))

    def from_text(self, text: str) -> _Element:
        return self.from_coords([self.scalar_field.from_text(p) for p in _split_tuple(text)])


class CyclotomicField(_CoordinateField):
    """The field generated over the rationals by a primitive n-th root of unity.

    Elements are :class:`CyclotomicElement`: integer numerators over one
    denominator with respect to the power basis (1, zeta, ..., zeta^(m-1)),
    m = phi(n); products are reduced modulo the n-th cyclotomic polynomial.
    """

    _element = CyclotomicElement

    def __init__(self, conductor: int):
        if conductor < 3:
            raise ValueError("conductor must be at least 3")
        super().__init__(QQ, euler_phi(conductor), conductor)
        self.conductor = conductor
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

    def from_coords(self, coords: Iterable) -> CyclotomicElement:
        # over the least common denominator of coordinates in lowest terms,
        # which is canonical: a prime power exactly dividing it exactly
        # divides one coordinate's denominator, whose numerator it leaves
        # prime to it
        parts = [_rational_parts(c) for c in coords]
        if len(parts) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(parts)}")
        den = math.lcm(*(q for _, q in parts))
        return CyclotomicElement(self, den, tuple(p * (den // q) for p, q in parts))

    def embed_scalar(self, value) -> CyclotomicElement:
        p, q = _rational_parts(value)
        return CyclotomicElement(self, q, (p,) + (0,) * (self.m - 1))

    def element(self, coeffs: Iterable[Rational]) -> CyclotomicElement:
        """sum(coeffs[e] zeta^e) for at most m int or Fraction coefficients."""
        coeffs = list(coeffs)
        return self.from_coords(coeffs + [0] * (self.m - len(coeffs)))

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

    def _mul_nums(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        # product of two numerator vectors: convolve, then reduce
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self._reduce(prod)

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

    def _conjugate_product(self, nums: Sequence[int]) -> tuple[int, ...]:
        # product of sigma_u(a), u != 1, for numerators a
        return functools.reduce(self._mul_nums, (self._move(nums, u) for u in self._other_units))


# ---------------------------------------------------------------------------
# towers L/K with generating automorphism theta

class Tower(_CoordinateField):
    """A cyclic extension L/K of degree m with generating automorphism theta.

    Use :func:`make_tower`.  Subclasses provide ``kind`` and ``generator()``;
    their elements provide ``theta``.
    """

    kind: str

    def _conjugate_product(self, nums: Sequence[int]) -> tuple[int, ...]:
        # Numerators of theta(a) ... theta^(m-1)(a), up to the positive
        # factor that the handle's ``_mul_nums`` leaves, for numerators a.
        # theta generates the Galois group, so with y_k = a theta(a) ...
        # theta^(k-1)(a), y_2k = y_k theta^k(y_k) and y_(k+1) = y_k theta^k(a)
        # reach y_(m-1) in O(log m) products, and the product is theta(y_(m-1)).
        mul, theta = self._mul_nums, self._theta_nums
        y, k = nums, 1
        for bit in bin(self.m - 1)[3:]:
            y, k = mul(y, theta(y, k)), 2 * k
            if bit == "1":
                y, k = mul(y, theta(nums, k)), k + 1
        return theta(y, 1)

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

    def generator(self) -> CyclotomicElement:
        return self.zeta()

    def _theta_nums(self, nums: Sequence[int], j: int) -> tuple[int, ...]:
        # theta^j = sigma_(g^j)
        return self._move(nums, pow(self.primitive_root, j % self.m, self.conductor))


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
        # offset of the numerator of zeta^e alpha^i, index i d + e, in the
        # product's buffer of rows of 2 d - 1
        d = self.scalar_field.m
        self._offsets = [i * (2 * d - 1) + e for i in range(n) for e in range(d)]
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

    def generator(self) -> FieldElement:
        return self.basis[1]  # alpha

    def imaginary_unit(self) -> CyclotomicElement:
        """i as an element of K (K contains a primitive 4th root of unity)."""
        return self.scalar_field.zeta(self.n // 4)

    def from_coords(self, coords: Iterable) -> FieldElement:
        # over the least common denominator of the canonical K-coordinates,
        # which is canonical by the argument in CyclotomicField.from_coords
        coords = [self.scalar_field.coerce(c) for c in coords]
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        den = math.lcm(*(c.den for c in coords))
        return FieldElement(self, den, tuple(x * (den // c.den) for c in coords for x in c.nums))

    def embed_scalar(self, value) -> FieldElement:
        x = self.scalar_field.coerce(value)
        return FieldElement(self, x.den, x.nums + (0,) * (self.scalar_field.m * (self.m - 1)))

    def _mul_nums(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        # q a b for numerator rows a, b, where radicand = p / q: one 2-D
        # convolution into rows of 2 phi(n) - 1 that skips zero numerators,
        # then rows n and up fold down to alpha^(i+j-n) times p, the rows
        # below n are taken times q, and each row reduces by the monic Phi_n.
        # As 4 | n, 2 phi(n) - 1 < n, so no row needs the fold zeta^n = 1.
        d, p, q, offsets = self.scalar_field.m, self._p, self._q, self._offsets
        w = 2 * d - 1
        low = self.n * w
        buf = [0] * (2 * low - w)
        terms = [(offsets[k], y) for k, y in enumerate(b) if y]
        for k, x in enumerate(a):
            if x:
                at = offsets[k]
                for off, y in terms:
                    buf[at + off] += x * y
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

    def _scale_rows(self, nums: Sequence[int], y: Sequence[int]) -> list[int]:
        # each row of numerators times the K-numerators y
        base = self.scalar_field
        d = base.m
        out = []
        for r in range(0, len(nums), d):
            row = nums[r : r + d]
            out.extend(base._mul_nums(row, y) if any(row) else row)
        return out

    def _theta_nums(self, nums: Sequence[int], j: int) -> tuple[int, ...]:
        # theta^j: alpha^i -> zeta^(i j) alpha^i, so row i shifts by i j
        base = self.scalar_field
        n, d = self.n, base.m
        out = []
        for i in range(n):
            row = nums[i * d : (i + 1) * d]
            out += base._move(row, 1, i * j) if i * j % n else row
        return tuple(out)


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
