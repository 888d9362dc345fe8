"""Coefficient rings for the series layer.

A ring describes how coefficients behave (one and zero, the zero test, the
text form) without wrapping the coefficient values themselves: rational
coefficients are `fractions.Fraction`, symbolic ones are `SymbolPoly` and
complex ones are the built-in `complex`.  A ring is a shared constant, one
per tag, so equal rings are the same object: `QQ`, `SYMBOLIC`, and one
`complex_ring(tol)` per tolerance.  A rational q enters a ring as
`ring.one * q`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .symbols import SymbolPoly, parse_symbol_poly


class RingMismatchError(TypeError):
    pass


class Ring:
    """One coefficient ring: its tag ("Q", "symbolic" or "C:<tol!r>"), its
    one and zero, and its zero test, printer and parser."""

    __slots__ = ("tag", "one", "zero", "is_zero", "coeff_str", "coeff_parse")

    def __init__(self, tag, one, zero, is_zero, coeff_parse, coeff_str=str):
        self.tag, self.one, self.zero = tag, one, zero
        self.is_zero, self.coeff_str, self.coeff_parse = is_zero, coeff_str, coeff_parse

    def eq(self, x, y) -> bool:
        return self.is_zero(x - y)

    def __repr__(self):
        return self.tag


QQ = Ring("Q", Fraction(1), Fraction(0), lambda x: x == 0, Fraction)
SYMBOLIC = Ring("symbolic", SymbolPoly.ONE, SymbolPoly.ZERO, SymbolPoly.is_zero, parse_symbol_poly)
_COMPLEX: dict[str, Ring] = {}


def _complex_str(x) -> str:
    x = complex(x)
    sign = "+" if x.imag >= 0 or x.imag != x.imag else "-"
    return f"{x.real!r}{sign}{abs(x.imag)!r}j"


def _complex_parse(text: str) -> complex:
    if not cmath.isfinite(x := complex(text)):
        raise ValueError("the value is not finite")
    return x


def complex_ring(tolerance: float = 1e-9) -> Ring:
    """Double-precision complex numbers in which |x| <= tolerance is zero, so
    tolerance 0 keeps every nonzero float.  The ring is cached by its tag,
    which keeps -0.0 apart from 0.0."""
    tolerance = float(tolerance)
    tag = f"C:{tolerance!r}"
    if tag not in _COMPLEX:
        _COMPLEX[tag] = Ring(tag, 1 + 0j, 0j, lambda x: abs(x) <= tolerance, _complex_parse, _complex_str)
    return _COMPLEX[tag]
