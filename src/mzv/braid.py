"""Truncated enveloping algebra of the pure sphere braid Lie algebra on
five strands.

Generators X_ij = X_ji (1 <= i < j <= 5) subject to the five linear
relations sum_j X_ij = 0 and the commutation [X_ij, X_kl] = 0 of disjoint
pairs.  The linear relations are eliminated up front: X_i5 is solved from
row i and the residual fifth row removes X_34, leaving the five free
letters X12, X13, X14, X23, X24 (their span is V).  The quadratic relations
R generate a two-sided ideal I, and every element is normalized against it
on construction, one degree at a time.

Monomials of one degree are ordered lexicographically.  A pivot is the
least monomial of some element of I_d, the degree-d slice of I; the other
monomials are standard (N_d), and the normal form NF_d writes a pivot in
standard monomials.  Lex order is compatible with concatenation, so every
degree d-1 pivot times a letter is a degree-d pivot, and I_d is
I_{d-1}*V + N_{d-2}*R.  The degree-d table is therefore built from the
degree d-1 one:

- modulo I_{d-1}*V, whose quotient has the basis N_{d-1}*V, each row n*r
  (n in N_{d-2}, r in R) is the sum of c*NF_{d-1}(n*x)*y over the terms
  c*xy of r; these rows are put in reduced row echelon form with lex-least
  pivots, which are the new pivots;
- a pivot m*y with m a degree d-1 pivot has the normal form
  NF_{d-1}(m)*y with the new pivots replaced.

Pivots and expressions are those of the reduced row echelon form of the
whole span of m1*r*m2, which is unique, so the basis and every exact
coefficient do not depend on how the table is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import itertools

FREE_LETTERS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
_LETTER_ID = {pair: k for k, pair in enumerate(FREE_LETTERS)}
_LETTERS = range(len(FREE_LETTERS))

Monomial = tuple[int, ...]
Rational = int | Fraction

# highest degree whose normal-form table is affordable: degree 6 builds in
# about 2 s, degree 7 expands 71,820 pivots into ~12 M terms (~65 s, GBs)
MAX_TABLE_DEGREE = 6


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
def _reduction_table(degree: int) -> dict[Monomial, dict[Monomial, Rational]]:
    """Normal forms of the degree-d pivot monomials.

    Maps each pivot to its expression in standard monomials, sorted by
    monomial so that sums over it follow the normal form.  Coefficients are
    exact rationals, held as int where the arithmetic keeps them integral
    (int arithmetic is an order of magnitude faster than Fraction's).
    Built from the degree d-1 table: see the module docstring.
    """
    if degree < 2:
        return {}
    if degree > MAX_TABLE_DEGREE:
        raise ValueError(f"the braid normal form is built up to degree {MAX_TABLE_DEGREE}, not {degree}")
    lower = _reduction_table(degree - 1)
    rels = [{m: _exact(c) for m, c in rel.items()} for rel in _quadratic_relations()]

    def times_letter(m: Monomial, y: int) -> dict[Monomial, Rational]:
        """NF_{d-1}(m)*y, an element of span(N_{d-1}*V)."""
        expr = lower.get(m)
        if expr is None:
            return {m + (y,): 1}
        return {n + (y,): c for n, c in expr.items()}

    # RREF of the rows n*r (n standard of degree d-2, r a relation) in the
    # quotient by I_{d-1}*V, whose basis is N_{d-1}*V
    pivots: dict[Monomial, dict[Monomial, Rational]] = {}
    for n in _standard_monomials(degree - 2):
        for rel in rels:
            row: dict[Monomial, Rational] = {}
            for (x, y), c in rel.items():
                for m, c2 in times_letter(n + (x,), y).items():
                    row[m] = row.get(m, 0) + c * c2
            row = _reduce_row(row, pivots)
            if not row:
                continue
            lead = min(row)
            inv = _exact(Fraction(-1) / row.pop(lead))
            expr = {m: c * inv for m, c in row.items()}
            # keep earlier pivot rows fully reduced against the new pivot
            for pexpr in pivots.values():
                if lead in pexpr:
                    scale = pexpr.pop(lead)
                    for m, c in expr.items():
                        c = pexpr.get(m, 0) + scale * c
                        if c:
                            pexpr[m] = c
                        else:
                            del pexpr[m]
            pivots[lead] = expr
    table = {m + (y,): _reduce_row(times_letter(m, y), pivots) for m in lower for y in _LETTERS}
    table.update(pivots)
    return {m: dict(sorted(expr.items())) for m, expr in table.items()}


def _exact(q: Fraction) -> Rational:
    return q.numerator if q.denominator == 1 else q


def _reduce_row(row: dict[Monomial, Rational], pivots) -> dict[Monomial, Rational]:
    """Replace each pivot of `row` by its expression, in one pass: the
    expressions hold no pivots."""
    out: dict[Monomial, Rational] = {}
    for m, c in row.items():
        expr = pivots.get(m)
        if expr is None:
            out[m] = out.get(m, 0) + c
        else:
            for m2, c2 in expr.items():
                out[m2] = out.get(m2, 0) + c * c2
    return {m: c for m, c in out.items() if c}


@lru_cache(maxsize=None)
def _standard_monomials(degree: int) -> tuple[Monomial, ...]:
    """N_d, the degree-d monomials that are not pivots, in lex order."""
    if degree == 0:
        return ((),)
    table = _reduction_table(degree)
    return tuple(m for n in _standard_monomials(degree - 1) for y in _LETTERS if (m := n + (y,)) not in table)


@lru_cache(maxsize=None)
def _float_table(degree: int) -> dict[Monomial, dict[Monomial, float]]:
    """The degree-d table with float coefficients.

    Python evaluates complex * q and float * q for a rational q as
    complex * float(q) and float * float(q), so multiplying by this copy is
    bit-identical to multiplying by the exact table, without the Fraction
    dispatch on every term.
    """
    return {m: {m2: float(c) for m2, c in expr.items()} for m, expr in _reduction_table(degree).items()}


def reduce_monomial_dict(coeffs: dict[Monomial, object]) -> dict[Monomial, object]:
    """Normalize an element against the per-degree reduction tables.

    Coefficients may be floats, complex numbers, fractions, or symbolic
    polynomials; the table entries are rational so the replacement works
    for any of them.  Table expressions hold only standard monomials, so
    one substitution per monomial suffices.
    """
    out: dict[Monomial, object] = {}
    for m, c in coeffs.items():
        kind = type(c)
        table = _float_table(len(m)) if kind is float or kind is complex else _reduction_table(len(m))
        expr = table.get(m)
        if expr is None:
            out[m] = out[m] + c if m in out else c
        else:
            for m2, c2 in expr.items():
                add = c * c2
                out[m2] = out[m2] + add if m2 in out else add
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
        # the terms of `other` that fit beside a left factor of each degree, in their own order
        fits = [[(m2, c2) for m2, c2 in other.coeffs.items() if len(m2) <= room] for room in range(cap + 1)]
        out: dict[Monomial, object] = {}
        for m1, c1 in self.coeffs.items():
            room = cap - len(m1)
            if room < 0:
                continue
            for m2, c2 in fits[room]:
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
