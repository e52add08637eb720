"""Twisted polynomials over a tower, with the rule x * a = theta(a) * x.

A :class:`SkewPoly` acts on the extension field as the operator
``g -> sum_i a_i * theta^i(g)``; multiplication of polynomials matches
composition of these operators.  Left Euclidean division and minimal
subspace polynomials are provided; right division is not needed anywhere
and intentionally absent.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exact_algebra import Tower, _Element
from .exact_linalg import _dot

__all__ = ["SkewPoly", "left_divide", "msp"]


class SkewPoly:
    """Polynomial sum(a_i x^i) with coefficients in L, stored lowest degree first."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: Tower, coeffs: Iterable = ()):
        trimmed = [tower.coerce(c) for c in coeffs]
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        self.tower = tower
        self.coeffs = tuple(trimmed)

    @classmethod
    def constant(cls, tower: Tower, value) -> "SkewPoly":
        return cls(tower, [value])

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.tower.one

    def coeff(self, i: int) -> _Element:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.tower.zero

    def _match(self, other) -> "SkewPoly":
        if isinstance(other, SkewPoly):
            if other.tower != self.tower:
                raise ValueError("tower mismatch")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.tower, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.tower, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return SkewPoly(self.tower, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, SkewPoly):
            # right multiplication by a scalar: f * a = sum f_i theta^i(a) x^i,
            # the product with the constant a
            try:
                constant = SkewPoly.constant(self.tower, other)
            except (TypeError, ValueError):
                return NotImplemented
            return self * constant
        other = self._match(other)
        # coefficient s is the sum of a_i theta^i(b_(s-i)) over the nonzero pairs
        a, b, tower = self.coeffs, other.coeffs, self.tower
        out = []
        for s in range(len(a) + len(b) - 1):
            lo, hi = max(0, s - len(b) + 1), min(s, len(a) - 1)
            pairs = ((a[i], b[s - i].theta(i)) for i in range(lo, hi + 1) if a[i] and b[s - i])
            out.append(_dot(tower, pairs))
        return SkewPoly(tower, out)

    def __rmul__(self, other):
        # scalar on the left: a * f has coefficients a * f_i
        try:
            a = self.tower.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return SkewPoly(self.tower, [a * c for c in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.tower == other.tower and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.tower, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def evaluate(self, g) -> _Element:
        """Operator evaluation sum(a_i * theta^i(g)); K-linear in g."""
        powers = [self.tower.coerce(g)]
        for _ in self.coeffs[1:]:
            powers.append(powers[-1].theta())
        return _dot(self.tower, zip(self.coeffs, powers))

    def monic(self) -> "SkewPoly":
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no monic normalization")
        return self.coeffs[-1].inverse() * self

    def __repr__(self) -> str:
        return f"SkewPoly([{', '.join(self.tower.to_text(c) for c in self.coeffs)}])"


def left_divide(n: SkewPoly, v: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with n = v*q + r and deg r < deg v.

    Works on coefficient lists, from the top shift down.  The quotient term
    c x^shift takes v * c x^shift = sum_i v_i theta^i(c) x^(shift+i) off the
    remainder.  c is chosen so that the top term v_dv theta^dv(c) equals the
    remainder's coefficient at shift + dv, which is why the twist
    theta^(-dv) shows up below; that coefficient cancels exactly and is
    never computed.
    """
    if v.is_zero():
        raise ZeroDivisionError("left division by the zero polynomial")
    if n.tower != v.tower:
        raise ValueError("tower mismatch")
    tower = n.tower
    dv = v.degree
    # a monic divisor whose lead is the field's one itself needs no inverse
    lead = v.coeffs[-1]
    lead_inv = None if lead is tower.one else lead.inverse()
    r = list(n.coeffs)
    q = [tower.zero] * (len(r) - dv)  # empty when deg n < deg v
    for shift in range(len(q) - 1, -1, -1):
        top = r[shift + dv]
        if not top:
            continue
        c = q[shift] = (top if lead_inv is None else lead_inv * top).theta(-dv)
        for i, v_i in enumerate(v.coeffs[:dv]):
            if v_i:
                r[shift + i] = r[shift + i] - v_i * c.theta(i)
    return SkewPoly(tower, q), SkewPoly(tower, r[:dv])


def msp(tower: Tower, elements: Sequence) -> SkewPoly:
    """Monic annihilator of least degree of the K-span of the given elements.

    Built iteratively: each element not already annihilated contributes the
    left factor (w x - theta(w)) with w the current evaluation, so the final
    degree equals the K-dimension of the span.  The factors are not monic;
    the monic annihilator is unique, so one normalisation at the end gives
    it with a single inversion.
    """
    poly = SkewPoly.constant(tower, tower.one)
    for v in elements:
        w = poly.evaluate(v)
        if w:
            poly = SkewPoly(tower, [-w.theta(), w]) * poly
    return poly.monic()
