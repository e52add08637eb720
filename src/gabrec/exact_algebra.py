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
* :class:`FieldElement` for the Kummer tower's L, a tuple of m elements of K.

Rationals are :class:`fractions.Fraction`.  All arithmetic is exact; no
floating point is used anywhere.

A ``CyclotomicElement`` is sum(nums[e] zeta^e) / den: m Python ints over one
int, in canonical form, den > 0 and gcd(den, *nums) = 1, so equal elements
have equal representations and zero is den 1 over zeros.  ``coords`` is a
read-only ``Fraction`` view, for the coordinate matrices, the text format
and the measurement records; no ``Fraction`` takes part in the arithmetic.
Sums and differences add numerators over the shared denominator, or
cross-multiply, and end in one gcd.  A product convolves the numerators,
folds degrees from n down by zeta^n = 1, reduces the rest by the monic
integer cyclotomic polynomial and ends in one gcd; a rational factor scales
numerators and denominator.  One exponent map, zeta^e -> zeta^(u e + s) for
u prime to n, gives the Galois action sigma_u (s = 0; theta of the
cyclotomic tower is sigma_g), ``zeta(e)``, and the Kummer theta, which
shifts the K-coordinate of alpha^i by i j.  It needs no gcd: sigma_u and the
product with the unit zeta^s map the lattice Z[zeta] onto itself, and the
power basis is a Z-basis of Z[zeta], so the numerators keep their content.

The inverse comes from the norm: x^-1 is the product of the other Galois
conjugates of x divided by N(x), the product of all of them.  In Q(zeta_n)
the conjugates are sigma_u(x) for the units u != 1 modulo n, taken on the
integer numerators, and N is a positive integer; in L they are theta^j(x)
for 0 < j < m.  Elements of K and of L stay two classes also so that the
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
    """Operators shared by the elements of every coordinate field.

    ``field`` is the handle the element belongs to, ``coords`` its
    coordinates over the handle's scalar field; each subclass provides
    ``_match`` (the other operand as an element of the same field, or
    NotImplemented), the ring operators and ``inverse``.
    """

    __slots__ = ()

    def __rsub__(self, other):
        return (-self) + other

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

    def __repr__(self) -> str:
        return scalar_to_text(self)


def _canonical(field: "CyclotomicField", den: int, nums: Sequence[int]) -> "CyclotomicElement":
    # sum(nums[e] zeta^e) / den for den > 0, with the common factor divided out
    g = math.gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    return CyclotomicElement(field, den, tuple(nums))


class CyclotomicElement(_Element):
    """Element sum(nums[e] zeta^e) / den of a :class:`CyclotomicField`.

    ``nums`` are m = phi(n) Python ints and ``den`` is a positive int with
    gcd(den, *nums) = 1, so each element has one representation and zero is
    den 1 over zero numerators.  ``coords`` is the ``Fraction`` view.
    """

    __slots__ = ("field", "den", "nums")

    def __init__(self, field: "CyclotomicField", den: int, nums: tuple[int, ...]):
        self.field = field
        self.den = den
        self.nums = nums

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

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _canonical(self.field, da, [a + b for a, b in zip(self.nums, other.nums)])
        return _canonical(
            self.field, da * db, [a * db + b * da for a, b in zip(self.nums, other.nums)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _canonical(self.field, da, [a - b for a, b in zip(self.nums, other.nums)])
        return _canonical(
            self.field, da * db, [a * db - b * da for a, b in zip(self.nums, other.nums)]
        )

    def __neg__(self):
        return CyclotomicElement(self.field, self.den, tuple(-x for x in self.nums))

    def __mul__(self, other):
        field = self.field
        if type(other) is CyclotomicElement:
            self._same_field(other)
            return _canonical(field, self.den * other.den, field._mul_nums(self.nums, other.nums))
        try:
            p, q = _rational_parts(other)
        except TypeError:
            return NotImplemented
        return _canonical(field, self.den * q, [p * x for x in self.nums])

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """x^-1 = den P / N by the norm, on integers.

        With a = den x in Z[zeta], P is the product of the conjugates
        sigma_u(a), u != 1, and N = a P = N(a) is an integer.  It is
        positive: Q(zeta_n) has no real embedding, so the conjugates pair
        up as complex conjugates and N is a product of squared moduli.
        """
        if not any(self.nums):
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        product = functools.reduce(
            field._mul_nums, (field._move(self, u).nums for u in field._other_units)
        )
        norm = field._mul_nums(self.nums, product)
        if norm[0] <= 0 or any(norm[1:]):
            raise ArithmeticError("norm is not a positive integer")
        return _canonical(field, norm[0], [self.den * x for x in product])

    def theta(self, j: int = 1) -> "CyclotomicElement":
        """Image under theta^j = sigma_(g^j), for an element of a cyclotomic tower."""
        field = self.field
        return field._move(self, pow(field.primitive_root, j % field.m, field.conductor))

    def __eq__(self, other) -> bool:
        if type(other) is not CyclotomicElement:
            try:
                other = self.field.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.field == other.field and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # a rational hashes as its Fraction, so that it hashes like the
        # scalars it equals
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field, self.den, self.nums))

    def __bool__(self) -> bool:
        return any(self.nums)


class FieldElement(_Element):
    """Element of the Kummer tower's L: coordinates over K in the power basis of alpha."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "KummerTower", coords: tuple):
        self.field = field
        self.coords = coords

    def _match(self, other):
        try:
            return self.field.coerce(other)
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if type(other) is FieldElement:
            other = self.field.coerce(other)  # raises on elements of another field
            return FieldElement(self.field, self.field._mul_coords(self.coords, other.coords))
        try:
            scalar = self.field.scalar_field.coerce(other)
        except TypeError:
            return NotImplemented
        return FieldElement(self.field, tuple(scalar * c for c in self.coords))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by the norm: x^-1 = c_1 ... c_(m-1) / N(x).

        The c_j = theta^j(x), 0 < j < m, are the conjugates of x over K other
        than x.  N(x) = x c_1 ... c_(m-1) is fixed by theta, so it lies in K;
        if it is zero, or not there, the ring is not a field and
        ArithmeticError is raised.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        conjugates = (field._theta_coords(self.coords, j) for j in range(1, field.m))
        product = functools.reduce(field._mul_coords, conjugates)
        norm = field._mul_coords(self.coords, product)
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError("norm is zero or not in the base field")
        scale = norm[0].inverse()
        return FieldElement(field, tuple(scale * c for c in product))

    def theta(self, j: int = 1) -> "FieldElement":
        """Image under the j-th power of the generating automorphism."""
        return FieldElement(self.field, self.field._theta_coords(self.coords, j))

    def __eq__(self, other) -> bool:
        if type(other) is not FieldElement:
            try:
                other = self.field.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self) -> int:
        # an element of K hashes as that K-element, and so down to the Fraction
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.field, self.coords))

    def __bool__(self) -> bool:
        return any(self.coords)


# ---------------------------------------------------------------------------
# field handles

class _CoordinateField:
    """A field whose elements are coordinate vectors of length m over ``scalar_field``.

    Two handles are equal when their ``_key``, the class name and the
    construction parameters, is; ``_element`` is the class of their elements.
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

    def from_coords(self, coords: Iterable) -> _Element:
        coords = tuple(self.scalar_field.coerce(c) for c in coords)
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        return self._element(self, coords)

    def embed_scalar(self, value) -> _Element:
        zero = self.scalar_field.zero
        return self._element(self, (self.scalar_field.coerce(value),) + (zero,) * (self.m - 1))

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
        return self._move(self.one, 1, power)

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

    def _move(self, x: CyclotomicElement, u: int, s: int = 0) -> CyclotomicElement:
        # The coordinate of zeta^e moves to zeta^(u e + s), for u prime to
        # the conductor: sigma_u (zeta -> zeta^u) followed by a product with
        # zeta^s.  Both map the lattice Z[zeta], whose Z-basis is the power
        # basis, onto itself, so the numerators keep their content and den
        # stays canonical with no gcd.
        n = self.conductor
        out = [0] * n
        for e, v in enumerate(x.nums):
            out[(u * e + s) % n] = v
        return CyclotomicElement(self, x.den, self._reduce(out))


# ---------------------------------------------------------------------------
# towers L/K with generating automorphism theta

class Tower(_CoordinateField):
    """A cyclic extension L/K of degree m with generating automorphism theta.

    Use :func:`make_tower`.  Subclasses provide ``kind`` and ``generator()``;
    their elements provide ``theta``.
    """

    kind: str

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

    def _mul_coords(self, a: tuple, b: tuple) -> tuple:
        n = self.n
        out = [self.scalar_field.zero] * n
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                term = x * y
                if i + j >= n:
                    out[i + j - n] = out[i + j - n] + term * self.radicand
                else:
                    out[i + j] = out[i + j] + term
        return tuple(out)

    def _theta_coords(self, coords: tuple, j: int) -> tuple:
        # theta^j: alpha^i -> zeta^(i j) alpha^i, so the exponents of the K
        # coordinate of alpha^i shift by i j
        field = self.scalar_field
        return tuple(field._move(c, 1, i * j) for i, c in enumerate(coords))


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
