"""Truncated enveloping algebra of the pure sphere braid Lie algebra on
five strands: generators X_ij = X_ji (1 <= i < j <= 5), the linear
relations sum_j X_ij = 0, and [X_ij, X_kl] = 0 for disjoint pairs.

Forgetting the fifth point, M_{0,5} -> M_{0,4}, gives t_{0,5} = f_3 x| f_2
(Ihara; Drinfeld 1990): the fibre letters X15, X25, X35 span a free ideal
and the base letters X12, X23 a free complement, so the enveloping algebra
is U(f_3) (x) U(f_2).  Every X_ij is an integer form in these five letters.
A monomial is standard when its fibre letters come before its base letters
(3^(d+1) - 2^(d+1) of degree d).  A product only moves a base letter y right
past a fibre letter x, by y*x = x*y + [y, x] with [y, x] quadratic in the
fibre letters, so every coefficient it introduces is an integer.

Every product goes through `_mul_into`, which splits each monomial into its
fibre and base words once: a left monomial with no base letters just
concatenates, and any other pair looks up its base word moved past the right
fibre word.  `evaluate_series` is the series substitution `series.horner`
with this product, so each of its products has x or y as its left factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .series import horner

# letters 0, 1, 2 are the fibre letters X15, X25, X35; 3, 4 the base letters X12, X23
FREE_LETTERS = ((1, 5), (2, 5), (3, 5), (1, 2), (2, 3))
_FIBRE = 3

Monomial = tuple[int, ...]

# X_ij as an integer form in the free letters, solved from sum_j X_ij = 0
_FORMS = {
    (1, 2): ((3, 1),),
    (1, 3): ((0, -1), (1, -1), (2, -1), (3, -1), (4, -1)),
    (1, 4): ((1, 1), (2, 1), (4, 1)),
    (1, 5): ((0, 1),),
    (2, 3): ((4, 1),),
    (2, 4): ((1, -1), (3, -1), (4, -1)),
    (2, 5): ((1, 1),),
    (3, 4): ((0, 1), (1, 1), (3, 1)),
    (3, 5): ((2, 1),),
    (4, 5): ((0, -1), (1, -1), (2, -1)),
}

# [y, x] for a base letter y and a fibre letter x, as a sum of fibre words:
# [X12,X15] = [X15,X25], [X12,X25] = [X25,X15], [X23,X25] = [X25,X35],
# [X23,X35] = [X35,X25]; [X12,X35] = [X23,X15] = 0 (disjoint pairs)
_BRACKET = {
    (3, 0): (((0, 1), 1), ((1, 0), -1)),
    (3, 1): (((1, 0), 1), ((0, 1), -1)),
    (4, 1): (((1, 2), 1), ((2, 1), -1)),
    (4, 2): (((2, 1), 1), ((1, 2), -1)),
}


def generator_form(i: int, j: int) -> tuple[tuple[int, int], ...]:
    """X_ij as a linear form in the five free letters."""
    if i == j or not (1 <= i <= 5 and 1 <= j <= 5):
        raise ValueError(f"bad generator indices ({i},{j})")
    return _FORMS[(min(i, j), max(i, j))]


@lru_cache(maxsize=None)
def _split(m: Monomial) -> tuple[Monomial, Monomial]:
    """A standard monomial as its fibre word and its base word."""
    k = len(m)
    while k and m[k - 1] >= _FIBRE:
        k -= 1
    return m[:k], m[k:]


@lru_cache(maxsize=None)
def _move_right(base: Monomial, fibre: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """base*fibre as integer multiples of standard monomials.

    With y the last base letter, y*f = f*y + D_y(f), where D_y is the
    derivation that replaces one fibre letter x by [y, x].
    """
    if not base:
        return ((fibre, 1),)
    rest, y = base[:-1], base[-1]
    out: dict[Monomial, int] = {}
    for m, c in _move_right(rest, fibre):
        out[m + (y,)] = c
    for i, x in enumerate(fibre):
        for pair, s in _BRACKET.get((y, x), ()):
            for m, c in _move_right(rest, fibre[:i] + pair + fibre[i + 1:]):
                out[m] = out.get(m, 0) + s * c
    return tuple((m, c) for m, c in out.items() if c)


# no caller in mzv: perfbench/tracer.py times it as `braid.reduce` (tests/test_perfbench_contract.py)
def reduce_monomial_dict(coeffs: dict[Monomial, object]) -> dict[Monomial, object]:
    """Write an element given on arbitrary words in standard monomials, one
    letter at a time.  Coefficients of any kind (float, complex, Fraction,
    symbolic) are only ever multiplied by integers."""
    out: dict[Monomial, object] = {}
    for word, c in coeffs.items():
        terms: dict[Monomial, int] = {(): 1}
        for x in word:
            terms = _mul_into({}, terms, {(x,): 1}, len(word))
        for m, k in terms.items():
            if k:
                add = c * k
                out[m] = out[m] + add if m in out else add
    return out


class BraidElement:
    """An element of the truncated reduced enveloping algebra, given on standard monomials."""

    __slots__ = ("degree_cap", "coeffs")

    def __init__(self, degree_cap: int, coeffs: dict[Monomial, object] | None = None):
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "coeffs", {m: c for m, c in (coeffs or {}).items()
                                            if len(m) <= degree_cap and not _is_exact_zero(c)})

    def __setattr__(self, name, value):
        raise AttributeError("BraidElement is immutable")

    @staticmethod
    def generator(i: int, j: int, degree_cap: int, unit=Fraction(1)) -> "BraidElement":
        return BraidElement(degree_cap, {(k,): c * unit for k, c in generator_form(i, j)})

    def __add__(self, other):
        if not isinstance(other, BraidElement):
            return NotImplemented
        cap = min(self.degree_cap, other.degree_cap)
        out = {m: c for m, c in self.coeffs.items() if len(m) <= cap}
        for m, c in other.coeffs.items():
            if len(m) <= cap:
                out[m] = out[m] + c if m in out else c
        return BraidElement(cap, out)

    def __neg__(self):
        return BraidElement(self.degree_cap, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BraidElement):
            return NotImplemented
        cap = min(self.degree_cap, other.degree_cap)
        return BraidElement(cap, _mul_into({}, self.coeffs, other.coeffs, cap))

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        if not self.coeffs:
            return "BraidElement(0)"
        parts = [f"({c})*{'.'.join(str(k) for k in m) if m else '1'}" for m, c in sorted(self.coeffs.items())]
        return "BraidElement(" + " + ".join(parts) + ")"


def _mul_into(out: dict, left: dict, right: dict, cap: int) -> dict:
    """Add left*right, truncated at degree cap, into out, one term pair at a time."""
    # the terms of `right` that fit beside a left factor of each degree, split once
    split = [(m2, c2, *_split(m2)) for m2, c2 in right.items() if len(m2) <= cap]
    fits = {room: [t for t in split if len(t[0]) <= room] for room in {cap - len(m1) for m1 in left}}
    for m1, c1 in left.items():
        room = cap - len(m1)
        f1, b1 = _split(m1)
        if not b1:
            for m2, c2, _, _ in fits[room]:
                m = m1 + m2
                add = c1 * c2
                out[m] = out[m] + add if m in out else add
            continue
        for m2, c2, f2, b2 in fits[room]:
            c = c1 * c2
            for mid, k in _move_right(b1, f2):
                m = f1 + mid + b2
                add = c * k
                out[m] = out[m] + add if m in out else add
    return out


def _is_exact_zero(c) -> bool:
    if isinstance(c, (float, complex)):
        return False  # floats are kept; tolerance decisions belong to the caller
    if isinstance(c, (int, Fraction)):
        return c == 0
    return hasattr(c, "is_zero") and c.is_zero()


def evaluate_series(series, x: BraidElement, y: BraidElement, degree_cap: int | None = None) -> BraidElement:
    """Substitute braid elements for the letters of an NCSeries, by `series.horner`."""
    cap = degree_cap if degree_cap is not None else min(series.truncation, x.degree_cap, y.degree_cap)
    return BraidElement(cap, horner(series.coeffs, (("A", x.coeffs), ("B", y.coeffs)), _mul_into, (), cap))
