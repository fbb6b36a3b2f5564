"""Exact arithmetic in cyclotomic fields Q(zeta_M).

An element is stored as an integer coordinate vector over the power basis
1, z, ..., z^(deg-1) of Q(zeta_M) together with a single positive integer
denominator, where deg is the degree of the M-th cyclotomic polynomial.
Reduction happens modulo the true cyclotomic polynomial, so equality of
elements is equality of normalized coordinate vectors.  A rational factor
scales the coordinates; only a product of two irrational elements convolves
them.  All operations are exact; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Long division of integer polynomials (low-to-high coefficients) that
    # is known to leave no remainder.  Used only to build cyclotomics.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(out) - 1, -1, -1):
        c = num[dn + k]
        assert c % den[dn] == 0
        q = c // den[dn]
        out[k] = q
        if q:
            for j in range(dn + 1):
                num[k + j] -= q * den[j]
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first."""
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


class CycloField:
    """The field Q(zeta_order) with precomputed reduction tables."""

    def __init__(self, order: int):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        self._zeta_powers = self._build_zeta_powers()
        # Integer vectors representing z^k mod Phi for k = degree .. 2*degree-2.
        deg = self.degree
        self._reduction = tuple(self._zeta_powers[k % order] for k in range(deg, 2 * deg - 1))

    @property
    def one(self) -> CycloNum:
        # Built on each read: a stored element would point back at the
        # field, and a dropped field would then wait for the cycle collector.
        return self.from_fraction(1)

    def _build_zeta_powers(self):
        # z^k mod Phi for k = 0 .. order-1; Phi is monic, so z^deg is
        # minus its lower coefficients.
        deg = self.degree
        top = [-c for c in self.modulus[:deg]]
        powers = []
        cur = [0] * deg
        cur[0] = 1
        for _ in range(self.order):
            powers.append(tuple(cur))
            carry = cur[deg - 1]
            nxt = [0] + cur[: deg - 1]
            if carry:
                for j in range(deg):
                    nxt[j] += carry * top[j]
            cur = nxt
        assert tuple(cur) == powers[0], "zeta^order must equal 1"
        return tuple(powers)

    def from_fraction(self, value) -> CycloNum:
        value = Fraction(value)
        num = [0] * self.degree
        num[0] = value.numerator
        return CycloNum(self, tuple(num), value.denominator)

    def root_of_unity(self, order: int, power: int = 1) -> CycloNum:
        """zeta_order^power as an element of this field; order must divide it."""
        if order < 1 or self.order % order != 0:
            raise ValueError(f"field of order {self.order} has no root of order {order}")
        idx = (power % order) * (self.order // order)
        return CycloNum(self, self._zeta_powers[idx], 1)

    def imaginary_unit(self) -> CycloNum:
        return self.root_of_unity(4, 1)

    def __repr__(self):
        return f"CycloField(order={self.order}, degree={self.degree})"


@lru_cache(maxsize=None)
def cyclo_field(order: int) -> CycloField:
    return CycloField(order)


def field_for(a: int) -> CycloField:
    """Q(zeta_4a), the field of modulus-a computations: the code only takes
    roots of order 4, a, 2a and 4a, and all of them divide 4a."""
    if a < 1:
        raise ValueError("modulus must be a positive integer")
    return cyclo_field(4 * a)


def _zeta_substitute(field: CycloField, num, k: int) -> list[int]:
    # Coordinates in field of sum_j num[j] zeta^(j k), zeta its generator.
    acc = [0] * field.degree
    for j, c in enumerate(num):
        if c:
            zp = field._zeta_powers[(j * k) % field.order]
            for t in range(field.degree):
                acc[t] += c * zp[t]
    return acc


def _normalize(num, den):
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = den
    for c in num:
        g = math.gcd(g, c)
        if g == 1:
            break
    if g > 1:
        num = [c // g for c in num]
        den //= g
    return tuple(num), den


class CycloNum:
    """Element of a cyclotomic field: integer vector over a common denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num, den: int = 1):
        self.field = field
        self.num, self.den = _normalize(list(num), den)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.field is not self.field:
                raise ValueError("operands belong to different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        num = [x * db + y * da for x, y in zip(self.num, o.num)]
        return CycloNum(self.field, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.field, [-c for c in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _scaled(self, num: int, den: int) -> CycloNum:
        return CycloNum(self.field, [c * num for c in self.num], self.den * den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            return self._scaled(o.num[0], o.den)
        f = self.field
        deg = f.degree
        b = [(j, bj) for j, bj in enumerate(o.num) if bj]
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(self.num):
            if ai:
                for j, bj in b:
                    conv[i + j] += ai * bj
        out = conv[:deg]
        for k in range(deg, 2 * deg - 1):
            c = conv[k]
            if c:
                row = f._reduction[k - deg]
                for j in range(deg):
                    out[j] += c * row[j]
        return CycloNum(f, out, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        """1/x: the product of the other Galois conjugates of x (zeta ->
        zeta^k for k prime to the order) over the rational norm, which is
        x times that product."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        others = f.one
        for k in range(2, f.order):
            if math.gcd(k, f.order) == 1:
                others = others * CycloNum(f, _zeta_substitute(f, self.num, k), self.den)
        return others / (self * others).as_fraction()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            # A rational divisor scales numerator and denominator: no inverse.
            if not other:
                raise ZeroDivisionError("division by zero")
            return self._scaled(other.denominator, other.numerator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloNum):
            if other.field is not self.field:
                if self.is_rational() and other.is_rational():
                    return self.as_fraction() == other.as_fraction()
                return NotImplemented
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.field.order, self.num, self.den))

    # -- field changes -----------------------------------------------------

    def embed(self, target: CycloField) -> CycloNum:
        """Image of this element in a larger cyclotomic field."""
        f = self.field
        if target is f:
            return self
        if target.order % f.order != 0:
            raise ValueError(f"no embedding of Q(zeta_{f.order}) into Q(zeta_{target.order})")
        return CycloNum(target, _zeta_substitute(target, self.num, target.order // f.order), self.den)

    # -- output ------------------------------------------------------------

    def coeff_fractions(self) -> list[Fraction]:
        return [Fraction(c, self.den) for c in self.num]

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo({self.as_fraction()})"
        return f"Cyclo({self.num}/{self.den} @ zeta_{self.field.order})"
