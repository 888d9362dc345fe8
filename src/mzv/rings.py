"""Pluggable coefficient rings for the series layer.

A ring object describes how coefficients behave (zero/one, equality,
embedding of the rationals) without wrapping the coefficient values
themselves: rational coefficients are `fractions.Fraction`,
symbolic ones are `SymbolPoly` (integer numerators over one denominator,
read and written as Fractions at this interface) and complex ones are the
built-in `complex`.
"""

from __future__ import annotations

from fractions import Fraction

from .symbols import SymbolPoly, parse_symbol_poly


class RingMismatchError(TypeError):
    pass


class Ring:
    name: str = "ring"

    def from_fraction(self, q):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_fraction(Fraction(0))

    @property
    def one(self):
        return self.from_fraction(Fraction(1))

    def is_zero(self, x) -> bool:
        raise NotImplementedError

    def eq(self, x, y) -> bool:
        return self.is_zero(x - y)

    def coeff_str(self, x) -> str:
        return str(x)

    def coeff_parse(self, text: str):
        raise NotImplementedError

    def __repr__(self):
        return self.name


class RationalRing(Ring):
    name = "Q"

    def from_fraction(self, q):
        return Fraction(q)

    def is_zero(self, x):
        return x == 0

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash(self.name)

    def coeff_parse(self, text):
        return Fraction(text)


class SymbolicRing(Ring):
    """Polynomials in tagged symbols over exact rational scalars."""

    name = "symbolic"

    def from_fraction(self, q):
        return SymbolPoly.constant(Fraction(q))

    def is_zero(self, x):
        return x.is_zero()

    def __eq__(self, other):
        return isinstance(other, SymbolicRing)

    def __hash__(self):
        return hash(self.name)

    def coeff_parse(self, text):
        return parse_symbol_poly(text)


class ComplexRing(Ring):
    """Double-precision complex numbers with tolerance-tagged equality:
    |x| <= tolerance is zero, so tolerance 0 keeps every nonzero float."""

    def __init__(self, tolerance: float = 1e-9):
        self.tolerance = tolerance
        self.name = f"C (tol {tolerance:g})"

    def from_fraction(self, q):
        q = Fraction(q)
        return complex(q.numerator / q.denominator)

    def is_zero(self, x):
        return abs(x) <= self.tolerance

    def __eq__(self, other):
        return isinstance(other, ComplexRing) and other.tolerance == self.tolerance

    def __hash__(self):
        return hash(("C", self.tolerance))

    def coeff_str(self, x):
        x = complex(x)
        sign = "+" if x.imag >= 0 or x.imag != x.imag else "-"
        return f"{x.real!r}{sign}{abs(x.imag)!r}j"

    def coeff_parse(self, text):
        return complex(text)


QQ = RationalRing()
SYMBOLIC = SymbolicRing()


def complex_ring(tolerance: float = 1e-9) -> ComplexRing:
    return ComplexRing(tolerance)
