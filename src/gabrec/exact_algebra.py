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

Scalars of K are :class:`fractions.Fraction` for the cyclotomic tower and
:class:`CyclotomicElement` for the Kummer tower.  All arithmetic is exact;
no floating point is used anywhere.

Coordinates are canonical ``Fraction`` tuples, but arithmetic in Q(zeta_n)
runs on integers: a vector is written over the common denominator of its
coordinates, and one reduction step folds degrees from n down by zeta^n = 1,
reduces the rest by the monic integer cyclotomic polynomial and normalises
each output coordinate once.  The product (numerators convolved as Python
ints), the Galois action sigma_a: zeta -> zeta^a (coordinate e moved to
a*e mod n) and ``zeta(e)`` all end in that step.  That one kernel multiplies
in L for the cyclotomic tower, where theta is sigma_g, and in K for the
Kummer tower.

Inverses in K and in L come from the norm: x^-1 is the product of the other
Galois conjugates of x divided by N(x), the product of all of them.  In K
the conjugates are sigma_a(x) for the units a != 1 modulo n, in L they are
theta^j(x) for 0 < j < m.  The two element classes share every operator
except the product and the inverse.
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
    """Operators shared by the elements of Q(zeta_n) and of a tower's L.

    ``field`` is the handle the element belongs to: a :class:`CyclotomicField`
    or a :class:`Tower`.  Each subclass defines its own product and inverse.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field, coords: tuple):
        self.field = field
        self.coords = coords

    def _match(self, other):
        if type(other) is type(self):
            if other.field != self.field:
                raise ValueError(f"{self.field!r} and {other.field!r} mismatch")
            return other
        try:
            return self.field.coerce(other)
        except (TypeError, ValueError):
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

    def _norm_inverse(self, conjugates: Iterable[tuple], mul):
        # x^-1 = c_1 ... c_r / N(x), given the coordinates of the Galois
        # conjugates c_i of x other than x and the coordinate product.
        # N(x) = x c_1 ... c_r is fixed by the Galois group, so it lies in the
        # base field; if it is zero or not there, the ring is not a field.
        if not self:
            raise ZeroDivisionError("inverse of zero")
        conjugates = iter(conjugates)
        product = next(conjugates)
        for c in conjugates:
            product = mul(product, c)
        norm = mul(self.coords, product)
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError("norm is zero or not in the base field")
        scale = norm[0].inverse() if isinstance(norm[0], _Element) else 1 / norm[0]
        return type(self)(self.field, tuple(scale * c for c in product))

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


# ---------------------------------------------------------------------------
# cyclotomic fields Q(zeta_n)

class CyclotomicField:
    """The field generated over the rationals by a primitive n-th root of unity.

    Elements are stored as coefficient vectors of length phi(n) with respect
    to the power basis (1, zeta, ..., zeta^(phi(n)-1)); products are reduced
    modulo the n-th cyclotomic polynomial.
    """

    def __init__(self, conductor: int):
        if conductor < 3:
            raise ValueError("conductor must be at least 3")
        self.conductor = conductor
        self.degree = euler_phi(conductor)
        # nonzero lower coefficients of the monic integer modulus
        self._reduction_terms = [
            (i, c) for i, c in enumerate(cyclotomic_polynomial(conductor)[:-1]) if c
        ]
        # the units a != 1 modulo the conductor: sigma_a, zeta -> zeta^a, are
        # the Galois automorphisms other than the identity
        self._other_units = [a for a in range(2, conductor) if math.gcd(a, conductor) == 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclotomicField) and other.conductor == self.conductor

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.conductor))

    def __repr__(self) -> str:
        return f"CyclotomicField({self.conductor})"

    @property
    def zero(self) -> CyclotomicElement:
        return self.element([])

    @property
    def one(self) -> CyclotomicElement:
        return self.element([1])

    def element(self, coeffs: Iterable[Rational]) -> CyclotomicElement:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise ValueError(f"at most {self.degree} coordinates expected")
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return CyclotomicElement(self, tuple(coeffs))

    def zeta(self, power: int = 1) -> CyclotomicElement:
        """zeta^power, reduced to the power basis."""
        numerators = [0] * self.conductor
        numerators[power % self.conductor] = 1
        return CyclotomicElement(self, self._reduce_numerators(numerators, 1))

    def coerce(self, value) -> CyclotomicElement:
        if isinstance(value, CyclotomicElement):
            if value.field != self:
                raise ValueError("element from a different cyclotomic field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.element([value])
        raise TypeError(f"cannot coerce {type(value).__name__} into {self!r}")

    def _reduce_numerators(self, numerators: list[int], den: int) -> tuple[Fraction, ...]:
        # Coordinates of sum(numerators[k] zeta^k) / den, for at least degree
        # and fewer than 2 * conductor numerators, reduced in place.  Degrees
        # from the conductor up fold down by zeta^n = 1 (Phi_n divides
        # x^n - 1); the rest reduce by the monic integer Phi_n.  Each
        # coordinate is normalised once.
        d, n = self.degree, self.conductor
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
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb):
                    prod[i + j] += x * y
        return self._reduce_numerators(prod, da * db)

    def _sigma_coords(self, coords: Sequence[Fraction], a: int) -> tuple[Fraction, ...]:
        # sigma_a: zeta -> zeta^a for a prime to the conductor moves the
        # coordinate of zeta^e to zeta^(a e mod n)
        den, nums = _common_numerators(coords)
        out = [0] * self.conductor
        for e, x in enumerate(nums):
            out[a * e % self.conductor] = x
        return self._reduce_numerators(out, den)

    def to_text(self, value) -> str:
        return scalar_to_text(self.coerce(value))

    def from_text(self, text: str) -> CyclotomicElement:
        return self.element([QQ.from_text(part) for part in _split_tuple(text)])


class CyclotomicElement(_Element):
    """Element of a :class:`CyclotomicField` in reduced power-basis coordinates."""

    __slots__ = ()

    def __mul__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicElement(self.field, self.field._mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """Multiplicative inverse by the norm to Q, the product of all sigma_a(x)."""
        field = self.field
        conjugates = (field._sigma_coords(self.coords, a) for a in field._other_units)
        return self._norm_inverse(conjugates, field._mul_coords)


# ---------------------------------------------------------------------------
# towers L/K with generating automorphism theta

class Tower:
    """Shared behaviour of the two tower kinds; use :func:`make_tower`."""

    kind: str
    m: int

    # subclasses provide: scalar_field, _mul_coords, _theta_coords,
    # generator(), plus their identifying attributes

    @property
    def zero(self) -> FieldElement:
        return self.from_coords([self.scalar_field.zero] * self.m)

    @property
    def one(self) -> FieldElement:
        coords = [self.scalar_field.zero] * self.m
        coords[0] = self.scalar_field.one
        return self.from_coords(coords)

    @property
    def basis(self) -> list[FieldElement]:
        out = []
        for i in range(self.m):
            coords = [self.scalar_field.zero] * self.m
            coords[i] = self.scalar_field.one
            out.append(self.from_coords(coords))
        return out

    def from_coords(self, coords: Iterable) -> FieldElement:
        coords = tuple(self.scalar_field.coerce(c) for c in coords)
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    def embed_scalar(self, value) -> FieldElement:
        coords = [self.scalar_field.zero] * self.m
        coords[0] = self.scalar_field.coerce(value)
        return FieldElement(self, tuple(coords))

    def coerce(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element from a different tower")
            return value
        return self.embed_scalar(value)

    def to_text(self, value) -> str:
        return scalar_to_text(self.coerce(value))

    def from_text(self, text: str) -> FieldElement:
        parts = _split_tuple(text)
        return self.from_coords([self.scalar_field.from_text(p) for p in parts])

    def _check_theta_order(self) -> None:
        # theta must have exact multiplicative order m, witnessed on a generator
        gen = self.generator()
        for j in range(1, self.m):
            if gen.theta(j) == gen:
                raise AssertionError(f"theta has order dividing {j}, expected {self.m}")
        if gen.theta(self.m) != gen:
            raise AssertionError("theta^m is not the identity")


class CyclotomicTower(Tower):
    """L = Q(zeta_p) over K = Q for prime p, theta: zeta -> zeta^g."""

    kind = "cyclotomic"

    def __init__(self, conductor: int):
        if not is_prime(conductor):
            raise ValueError(f"conductor {conductor} is not prime")
        if conductor < 3:
            raise ValueError("conductor must be at least 3")
        self.conductor = conductor
        self.m = conductor - 1
        self.scalar_field = QQ
        self.primitive_root = smallest_primitive_root(conductor)
        self._field = CyclotomicField(conductor)
        self._check_theta_order()

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclotomicTower) and other.conductor == self.conductor

    def __hash__(self) -> int:
        return hash(("CyclotomicTower", self.conductor))

    def __repr__(self) -> str:
        return f"CyclotomicTower({self.conductor})"

    def generator(self) -> FieldElement:
        return self.basis[1]  # zeta

    def _mul_coords(self, a: tuple, b: tuple) -> tuple:
        return self._field._mul_coords(a, b)

    def _theta_coords(self, coords: tuple, j: int) -> tuple:
        # theta^j is sigma_(g^j)
        g_j = pow(self.primitive_root, j % self.m, self.conductor)
        return self._field._sigma_coords(coords, g_j)


class KummerTower(Tower):
    """L = K(alpha) with alpha^n = radicand over K = Q(zeta_n), 4 | n."""

    kind = "kummer"

    def __init__(self, n: int, radicand: Rational = 2):
        if n <= 2:
            raise ValueError("n must exceed 2")
        if n % 4 != 0:
            raise ValueError("n must be divisible by 4 so that i lies in K")
        radicand = Fraction(radicand)
        self._check_radicand(n, radicand)
        self.n = n
        self.m = n
        self.radicand = radicand
        self.scalar_field = CyclotomicField(n)
        # zeta_n^e as K-elements, for the theta action on coordinates
        self._zeta_pows = [self.scalar_field.zeta(e) for e in range(n)]
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KummerTower)
            and other.n == self.n
            and other.radicand == self.radicand
        )

    def __hash__(self) -> int:
        return hash(("KummerTower", self.n, self.radicand))

    def __repr__(self) -> str:
        return f"KummerTower({self.n}, radicand={self.radicand})"

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
        j %= self.m
        return tuple(
            c * self._zeta_pows[(i * j) % self.n] for i, c in enumerate(coords)
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


class FieldElement(_Element):
    """Element of L held as exact coordinates with respect to the power basis."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            other = self._match(other)
            return FieldElement(self.field, self.field._mul_coords(self.coords, other.coords))
        try:
            scalar = self.field.scalar_field.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return FieldElement(self.field, tuple(scalar * c for c in self.coords))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by the norm: a^-1 = theta(a)...theta^(m-1)(a) / N(a).

        N(a) = a * theta(a) * ... * theta^(m-1)(a) is fixed by theta, so it
        lies in K.  If it is zero, or not in K, the tower is not a field and
        ArithmeticError is raised.
        """
        tower = self.field
        conjugates = (tower._theta_coords(self.coords, j) for j in range(1, tower.m))
        return self._norm_inverse(conjugates, tower._mul_coords)

    def theta(self, j: int = 1) -> "FieldElement":
        """Image under the j-th power of the generating automorphism."""
        return FieldElement(self.field, self.field._theta_coords(self.coords, j))


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
