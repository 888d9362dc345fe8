"""Truncated enveloping algebra of the pure sphere braid Lie algebra on
five strands.

Generators X_ij = X_ji (1 <= i < j <= 5) subject to the five linear
relations sum_j X_ij = 0 and the commutation [X_ij, X_kl] = 0 of disjoint
pairs.  The linear relations are eliminated up front: X_i5 is solved from
row i and the residual fifth row removes X_34, leaving the five free
letters X12, X13, X14, X23, X24.  The quadratic relations generate a
two-sided ideal that is reduced degree by degree: the span of m1*r*m2 is
put in reduced row echelon form over the rationals once per degree and
every element is normalized against it on construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import itertools

FREE_LETTERS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
_LETTER_ID = {pair: k for k, pair in enumerate(FREE_LETTERS)}

Monomial = tuple[int, ...]


@lru_cache(maxsize=None)
def generator_form(i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
    """X_ij as a linear form in the five free letters."""
    if i == j or not (1 <= i <= 5 and 1 <= j <= 5):
        raise ValueError(f"bad generator indices ({i},{j})")
    if i > j:
        i, j = j, i
    if (i, j) in _LETTER_ID:
        return ((_LETTER_ID[(i, j)], Fraction(1)),)
    if (i, j) == (3, 4):
        return tuple((k, Fraction(-1)) for k in range(5))
    # X_i5 = -(sum of X_ij over j <= 4, j != i), rewritten in free letters
    acc: dict[int, Fraction] = {}
    for other in range(1, 5):
        if other == i:
            continue
        for k, c in generator_form(*sorted((i, other))):
            acc[k] = acc.get(k, Fraction(0)) - c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def _disjoint_pairs() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    pairs = list(itertools.combinations(range(1, 6), 2))
    out = []
    for a, b in itertools.combinations(pairs, 2):
        if not set(a) & set(b):
            out.append((a, b))
    return out


@lru_cache(maxsize=None)
def _quadratic_relations() -> tuple[dict[Monomial, Fraction], ...]:
    rels = []
    for a, b in _disjoint_pairs():
        fa, fb = generator_form(*a), generator_form(*b)
        row: dict[Monomial, Fraction] = {}
        for k1, c1 in fa:
            for k2, c2 in fb:
                row[(k1, k2)] = row.get((k1, k2), Fraction(0)) + c1 * c2
                row[(k2, k1)] = row.get((k2, k1), Fraction(0)) - c1 * c2
        row = {m: c for m, c in row.items() if c}
        if row:
            rels.append(row)
    return tuple(rels)


@lru_cache(maxsize=None)
def _reduction_table(degree: int) -> dict[Monomial, dict[Monomial, Fraction]]:
    """RREF pivot rows for the degree-d slice of the relation ideal.

    Maps each pivot monomial to its expression in non-pivot monomials.
    """
    if degree < 2:
        return {}
    rows: list[dict[Monomial, Fraction]] = []
    letters = range(len(FREE_LETTERS))
    for rel in _quadratic_relations():
        for left_len in range(degree - 1):
            right_len = degree - 2 - left_len
            for m1 in itertools.product(letters, repeat=left_len):
                for m2 in itertools.product(letters, repeat=right_len):
                    rows.append({m1 + mid + m2: c for mid, c in rel.items()})
    pivots: dict[Monomial, dict[Monomial, Fraction]] = {}
    for row in rows:
        row = _reduce_row(row, pivots)
        if not row:
            continue
        lead = min(row)
        inv = Fraction(1) / row[lead]
        expr = {m: -c * inv for m, c in row.items() if m != lead}
        # keep earlier pivot rows fully reduced against the new pivot
        for piv, pexpr in pivots.items():
            if lead in pexpr:
                scale = pexpr.pop(lead)
                for m, c in expr.items():
                    pexpr[m] = pexpr.get(m, Fraction(0)) + scale * c
                    if not pexpr[m]:
                        del pexpr[m]
        pivots[lead] = expr
    return pivots


def _reduce_row(row: dict[Monomial, Fraction], pivots) -> dict[Monomial, Fraction]:
    out = dict(row)
    changed = True
    while changed:
        changed = False
        for m in sorted(out):
            if m in pivots and out.get(m):
                c = out.pop(m)
                for m2, c2 in pivots[m].items():
                    out[m2] = out.get(m2, Fraction(0)) + c * c2
                    if not out[m2]:
                        del out[m2]
                changed = True
                break
    return {m: c for m, c in out.items() if c}


def reduce_monomial_dict(coeffs: dict[Monomial, object]) -> dict[Monomial, object]:
    """Normalize an element against the per-degree reduction tables.

    Coefficients may be floats, fractions, or symbolic polynomials; the
    pivot rows are rational so the replacement works for any of them.
    """
    out: dict[Monomial, object] = {}

    def add(m, c):
        table = _reduction_table(len(m))
        if m in table:
            for m2, c2 in table[m].items():
                add(m2, c * c2)
        else:
            out[m] = out[m] + c if m in out else c

    for m, c in coeffs.items():
        add(m, c)
    return out


@lru_cache(maxsize=None)
def graded_dimension(degree: int) -> int:
    return len(FREE_LETTERS) ** degree - len(_reduction_table(degree))


class BraidElement:
    """An element of the truncated reduced enveloping algebra."""

    __slots__ = ("degree_cap", "coeffs")

    def __init__(self, degree_cap: int, coeffs: dict[Monomial, object] | None = None, _reduced=False):
        raw = {m: c for m, c in (coeffs or {}).items() if len(m) <= degree_cap}
        if not _reduced:
            raw = reduce_monomial_dict(raw)
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "coeffs", {m: c for m, c in raw.items() if not _is_exact_zero(c)})

    def __setattr__(self, name, value):
        raise AttributeError("BraidElement is immutable")

    @staticmethod
    def one(degree_cap: int, unit=Fraction(1)) -> "BraidElement":
        return BraidElement(degree_cap, {(): unit}, _reduced=True)

    @staticmethod
    def generator(i: int, j: int, degree_cap: int, unit=Fraction(1)) -> "BraidElement":
        return BraidElement(degree_cap, {(k,): c * unit for k, c in generator_form(i, j)}, _reduced=True)

    def __add__(self, other):
        if not isinstance(other, BraidElement):
            return NotImplemented
        cap = min(self.degree_cap, other.degree_cap)
        out = {m: c for m, c in self.coeffs.items() if len(m) <= cap}
        for m, c in other.coeffs.items():
            if len(m) <= cap:
                out[m] = out[m] + c if m in out else c
        return BraidElement(cap, out, _reduced=True)

    def __neg__(self):
        return BraidElement(self.degree_cap, {m: -c for m, c in self.coeffs.items()}, _reduced=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "BraidElement":
        return BraidElement(self.degree_cap, {m: v * c for m, v in self.coeffs.items()}, _reduced=True)

    def __mul__(self, other):
        if not isinstance(other, BraidElement):
            return NotImplemented
        cap = min(self.degree_cap, other.degree_cap)
        out: dict[Monomial, object] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if len(m1) + len(m2) > cap:
                    continue
                m = m1 + m2
                add = c1 * c2
                out[m] = out[m] + add if m in out else add
        return BraidElement(cap, out)

    def commutator(self, other: "BraidElement") -> "BraidElement":
        return self * other - other * self

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "BraidElement(0)"
        parts = [f"({c})*{'.'.join(str(k) for k in m) if m else '1'}" for m, c in sorted(self.coeffs.items())]
        return "BraidElement(" + " + ".join(parts) + ")"


def _is_exact_zero(c) -> bool:
    if isinstance(c, (int, Fraction)):
        return c == 0
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return False  # floats are kept; tolerance decisions belong to the caller


def evaluate_series(series, x: BraidElement, y: BraidElement, degree_cap: int | None = None) -> BraidElement:
    """Substitute braid elements for the letters of an NCSeries."""
    cap = degree_cap if degree_cap is not None else min(series.truncation, x.degree_cap, y.degree_cap)
    images = {"A": x, "B": y}
    memo: dict[str, BraidElement] = {"": BraidElement.one(cap)}

    def image(letters: str) -> BraidElement:
        if letters not in memo:
            memo[letters] = image(letters[:-1]) * images[letters[-1]]
        return memo[letters]

    acc = BraidElement(cap, {})
    for w, c in series.coeffs.items():
        if len(w) <= cap:
            acc = acc + image(w).scale(c)
    return acc
