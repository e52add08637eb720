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
Kummer tower's K is a ``CyclotomicField``.  Scalars of K are
:class:`fractions.Fraction` for the cyclotomic tower and
:class:`CyclotomicElement` for the Kummer tower.  All arithmetic is exact;
no floating point is used anywhere.

Coordinates are canonical ``Fraction`` tuples, but arithmetic in Q(zeta_n)
runs on integers: a vector is written over the common denominator of its
coordinates, and one reduction step folds degrees from n down by zeta^n = 1,
reduces the rest by the monic integer cyclotomic polynomial and normalises
each output coordinate once.  The product (numerators convolved as Python
ints) and the one exponent map, zeta^e -> zeta^(a e + s), end in that step.
The exponent map is the Galois action sigma_a (s = 0; theta of the
cyclotomic tower is sigma_g), ``zeta(e)``, and the Kummer theta, which
shifts the K-coordinate of alpha^i by i j.

Elements have one product and one inverse.  A product with a scalar of the
base field scales the coordinates; a product of two elements is the
handle's coordinate product.  The inverse comes from the norm: x^-1 is the
product of the other Galois conjugates of x divided by N(x), the product of
all of them.  In Q(zeta_n) the conjugates are sigma_a(x) for the units
a != 1 modulo n, in L they are theta^j(x) for 0 < j < m.  Elements of K and
of L stay two classes only so that the benchmark's tracer can count their
operators apart.
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
# rational coordinate vectors on integer numerators

_ZERO = Fraction(0)


def _common_numerators(coords: Sequence[Fraction]) -> tuple[int, list[int]]:
    # (d, [c * d for c in coords]) for the least common denominator d
    dens = [c.denominator for c in coords]
    den = math.lcm(*dens)
    if den == 1:
        return 1, [c.numerator for c in coords]
    return den, [c.numerator * (den // q) for c, q in zip(coords, dens)]


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
# elements held as coordinates over a field handle

class _Element:
    """Operators shared by the elements of every coordinate field.

    ``field`` is the handle the element belongs to: a :class:`CyclotomicField`
    or a :class:`Tower`.  The product and the inverse are written once here;
    each subclass binds them in its own body.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field, coords: tuple):
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
        return type(self)(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return type(self)(self.field, tuple(-a for a in self.coords))

    def _product(self, other):
        if type(other) is type(self):
            other = self.field.coerce(other)  # raises on elements of another field
            return type(self)(self.field, self.field._mul_coords(self.coords, other.coords))
        try:
            scalar = self.field.scalar_field.coerce(other)
        except TypeError:
            return NotImplemented
        return type(self)(self.field, tuple(scalar * c for c in self.coords))

    def _inverse(self):
        """Multiplicative inverse by the norm: x^-1 = c_1 ... c_r / N(x).

        The c_i are the Galois conjugates of x other than x, from
        ``field._conjugates``.  N(x) = x c_1 ... c_r is fixed by the Galois
        group, so it lies in the base field; if it is zero, or not there, the
        ring is not a field and ArithmeticError is raised.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        product = functools.reduce(field._mul_coords, field._conjugates(self.coords))
        norm = field._mul_coords(self.coords, product)
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError("norm is zero or not in the base field")
        scale = norm[0].inverse() if isinstance(norm[0], _Element) else 1 / norm[0]
        return type(self)(field, tuple(scale * c for c in product))

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
        return self.field == other.field and self.coords == other.coords

    def __hash__(self) -> int:
        # an element of the base field hashes as that scalar, down to the
        # Fraction, so that it hashes like the scalars it equals
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.field, self.coords))

    def __bool__(self) -> bool:
        return any(self.coords)

    def __repr__(self) -> str:
        return scalar_to_text(self)


# Elements of K and of L stay two classes, with the same product and inverse,
# because the benchmark's tracer (perfbench/spans.py) counts K- and
# L-operators apart by patching __mul__, __rmul__ and inverse in each class's
# own __dict__; so each class binds them in its body instead of inheriting.

class CyclotomicElement(_Element):
    """Element of a :class:`CyclotomicField` in reduced power-basis coordinates."""

    __slots__ = ()
    __mul__ = __rmul__ = _Element._product
    inverse = _Element._inverse


class FieldElement(_Element):
    """Element of L held as exact coordinates with respect to the power basis."""

    __slots__ = ()
    __mul__ = __rmul__ = _Element._product
    inverse = _Element._inverse

    def theta(self, j: int = 1) -> "FieldElement":
        """Image under the j-th power of the generating automorphism."""
        return FieldElement(self.field, self.field._theta_coords(self.coords, j))


# ---------------------------------------------------------------------------
# field handles

class _CoordinateField:
    """A field whose elements are coordinate vectors of length m over ``scalar_field``.

    Two handles are equal when their ``_key``, the class name and the
    construction parameters, is; ``_element`` is the class of their elements.
    Subclasses provide ``_mul_coords`` and ``_conjugates``, the Galois
    conjugates of an element other than itself, for the inverse.
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
        return self._element(self, (self.scalar_field.zero,) * self.m)

    @property
    def one(self) -> _Element:
        return self.embed_scalar(self.scalar_field.one)

    @property
    def basis(self) -> list[_Element]:
        zero, one = self.scalar_field.zero, self.scalar_field.one
        return [
            self._element(self, (zero,) * i + (one,) + (zero,) * (self.m - 1 - i))
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
            if value.field != self:
                raise ValueError(f"element of {value.field!r}, not of {self!r}")
            return value
        return self.embed_scalar(value)

    def to_text(self, value) -> str:
        return scalar_to_text(self.coerce(value))

    def from_text(self, text: str) -> _Element:
        return self.from_coords([self.scalar_field.from_text(p) for p in _split_tuple(text)])


class CyclotomicField(_CoordinateField):
    """The field generated over the rationals by a primitive n-th root of unity.

    Elements are coordinate vectors of length m = phi(n) with respect to the
    power basis (1, zeta, ..., zeta^(m-1)); products are reduced modulo the
    n-th cyclotomic polynomial.
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
        # the units a != 1 modulo the conductor: sigma_a, zeta -> zeta^a, are
        # the Galois automorphisms other than the identity
        self._other_units = [a for a in range(2, conductor) if math.gcd(a, conductor) == 1]

    def element(self, coeffs: Iterable[Rational]) -> _Element:
        """sum(coeffs[e] zeta^e) for at most m int or Fraction coefficients."""
        coeffs = list(coeffs)
        return self.from_coords(coeffs + [0] * (self.m - len(coeffs)))

    def zeta(self, power: int = 1) -> _Element:
        """zeta^power, reduced to the power basis."""
        return self._element(self, self._move_coords((1,), 1, power))

    def _reduce_numerators(self, numerators: list[int], den: int) -> tuple[Fraction, ...]:
        # Coordinates of sum(numerators[k] zeta^k) / den, for at least m and
        # fewer than 2 * conductor numerators, reduced in place.  Degrees
        # from the conductor up fold down by zeta^n = 1 (Phi_n divides
        # x^n - 1); the rest reduce by the monic integer Phi_n.  Each
        # coordinate is normalised once.
        d, n = self.m, self.conductor
        for k in range(n, len(numerators)):
            numerators[k - n] += numerators[k]
        for k in range(min(len(numerators), n) - 1, d - 1, -1):
            c = numerators[k]
            if c:
                for i, coeff in self._reduction_terms:
                    numerators[k - d + i] -= c * coeff
        return tuple(Fraction(x, den) if x else _ZERO for x in numerators[:d])

    def _mul_coords(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
        # product of two reduced coordinate vectors, on integer numerators
        da, na = _common_numerators(a)
        db, nb = _common_numerators(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb):
                    prod[i + j] += x * y
        return self._reduce_numerators(prod, da * db)

    def _move_coords(self, coords: Sequence[Rational], a: int, s: int = 0) -> tuple[Fraction, ...]:
        # the coordinate of zeta^e moves to zeta^(a e + s), for a prime to
        # the conductor: sigma_a (zeta -> zeta^a) followed by a product with
        # zeta^s
        den, nums = _common_numerators(coords)
        out = [0] * self.conductor
        for e, x in enumerate(nums):
            out[(a * e + s) % self.conductor] = x
        return self._reduce_numerators(out, den)

    def _conjugates(self, coords: Sequence[Fraction]):
        return (self._move_coords(coords, a) for a in self._other_units)


# ---------------------------------------------------------------------------
# towers L/K with generating automorphism theta

class Tower(_CoordinateField):
    """A cyclic extension L/K of degree m with generating automorphism theta.

    Use :func:`make_tower`.  Subclasses provide ``kind``, ``_mul_coords``,
    ``_theta_coords`` and ``generator()``.
    """

    kind: str
    _element = FieldElement

    def _conjugates(self, coords: tuple):
        # the conjugates of x over K other than x are theta^j(x), 0 < j < m
        return (self._theta_coords(coords, j) for j in range(1, self.m))

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

    def generator(self) -> FieldElement:
        return self.zeta()

    def _theta_coords(self, coords: tuple, j: int) -> tuple:
        # theta^j is sigma_(g^j)
        return self._move_coords(coords, pow(self.primitive_root, j % self.m, self.conductor))


class KummerTower(Tower):
    """L = K(alpha) with alpha^n = radicand over K = Q(zeta_n), 4 | n."""

    kind = "kummer"

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
        return tuple(
            CyclotomicElement(field, field._move_coords(c.coords, 1, i * j))
            for i, c in enumerate(coords)
        )


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
