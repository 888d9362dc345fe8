"""Word-level shuffle algebra, index-level quasi-shuffle, and the
double-shuffle relation generator with exact rank reduction.

The index <-> word codec follows the convention that the index
(k_1, ..., k_m) encodes the word A^(k_m-1) B A^(k_(m-1)-1) B ... A^(k_1-1) B
and carries the sign (-1)^m.  A word is "convergent" when it starts with A
and ends with B, i.e. when its index is admissible (last entry >= 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .symbols import ZetaSym
from .words import all_words

# -- indices ---------------------------------------------------------------


def word_of_index(index: tuple[int, ...]) -> tuple[str, int]:
    """The word of an index together with the sign (-1)^depth."""
    return "".join("A" * (k - 1) + "B" for k in reversed(index)), (-1) ** len(index)


def index_of_word(word: str) -> tuple[tuple[int, ...], int]:
    """Inverse codec; defined exactly on words ending in B."""
    if not word.endswith("B"):
        raise ValueError(f"word {word!r} does not end in B and is not index-encodable")
    blocks = [len(b) + 1 for b in word.split("B")[:-1]]
    entries = tuple(reversed(blocks))
    return entries, (-1) ** len(entries)


def is_convergent_word(word: str) -> bool:
    return len(word) >= 2 and word[0] == "A" and word[-1] == "B"


def convergent_words(weight: int) -> list[str]:
    return [w for w in all_words(weight) if is_convergent_word(w)]


def admissible_indices(weight: int) -> list[tuple[int, ...]]:
    """All admissible indices of the given weight, canonical order."""
    return [index_of_word(w)[0] for w in convergent_words(weight)]


# -- shuffle ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _shuffle_strings(u: str, v: str) -> tuple[tuple[str, int], ...]:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc: dict[str, int] = {}
    for rest, c in _shuffle_strings(u[1:], v):
        acc[u[0] + rest] = acc.get(u[0] + rest, 0) + c
    for rest, c in _shuffle_strings(u, v[1:]):
        acc[v[0] + rest] = acc.get(v[0] + rest, 0) + c
    return tuple(sorted(acc.items()))


def shuffle_words(u: str, v: str) -> dict[str, int]:
    """Sum over all order-preserving interleavings, with multiplicities."""
    return dict(_shuffle_strings(u, v))


def shuffle_combinations(terms_u: dict[str, object], terms_v: dict[str, object]) -> dict[str, object]:
    """Bilinear extension of the shuffle product."""
    out: dict[str, object] = {}
    for u, cu in terms_u.items():
        for v, cv in terms_v.items():
            for w, m in shuffle_words(u, v).items():
                add = cu * cv * m
                out[w] = out[w] + add if w in out else add
    return out


def shuffle_many(factors: list[str]) -> dict[str, int]:
    acc = {"": 1}
    for f in factors:
        acc = shuffle_combinations(acc, {f: 1})
    return acc


# -- quasi-shuffle (stuffle) -------------------------------------------------


@lru_cache(maxsize=None)
def _stuffle(i: tuple[int, ...], j: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    if not i:
        return ((j, 1),)
    if not j:
        return ((i, 1),)
    acc: dict[tuple[int, ...], int] = {}

    def add(head: int, tail_terms):
        for t, c in tail_terms:
            key = (head,) + t
            acc[key] = acc.get(key, 0) + c

    add(i[0], _stuffle(i[1:], j))
    add(j[0], _stuffle(i, j[1:]))
    add(i[0] + j[0], _stuffle(i[1:], j[1:]))
    return tuple(sorted(acc.items()))


def stuffle_indices(i: tuple[int, ...], j: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Quasi-shuffle product: interleavings where heads may merge by addition.

    The heads here are the entries k_1 (innermost summation variable), so
    the recursion matches the series product of nested sums directly.
    """
    return dict(_stuffle(tuple(i), tuple(j)))


# -- regularized zeta expressions --------------------------------------------


@lru_cache(maxsize=None)
def _shuffle_reg_word(word: str) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """The shuffle-regularized coefficient of a word ending in B, with both
    letter coefficients zero, as (admissible index, coefficient) pairs.

    Such a word is B^r v with v convergent or empty.  The character
    vanishes on B^r, so 0 = sum over u in B^r sh v of m_u reg(u), where
    B^r v itself appears once and every other u has fewer leading B's.
    Terms are added in shuffle order and a coefficient that cancels is
    dropped, so the order is fixed; the tests check it term by term against
    a full character table built from free zeta symbols.
    """
    if is_convergent_word(word):
        entries, sign = index_of_word(word)
        return ((entries, Fraction(sign)),)
    v = word.lstrip("B")
    if not v:
        return ()
    acc: dict[tuple[int, ...], Fraction] = {}
    for u, m in shuffle_words("B" * (len(word) - len(v)), v).items():
        if u == word:
            continue
        for idx, c in _shuffle_reg_word(u):
            c = acc.get(idx, 0) - c * m
            if c:
                acc[idx] = c
            else:
                acc.pop(idx, None)
    return tuple(acc.items())


def shuffle_regularized(index: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """The shuffle-regularized value of a (possibly divergent) index as a
    linear combination of admissible indices, with zeta(1) sent to 0."""
    idx = tuple(index)
    if not idx:
        raise ValueError("the empty index has no zeta value")
    if idx[-1] >= 2:
        return {idx: Fraction(1)}
    word, sign = word_of_index(idx)
    return {k: sign * c for k, c in _shuffle_reg_word(word)}


@lru_cache(maxsize=None)
def stuffle_regularized(index: tuple[int, ...]) -> dict[tuple[int, ...], "Fraction"]:
    """The quasi-shuffle-regularized value of an index, with zeta(1) = 0.

    A trailing 1 is peeled off through the product (1) * prefix, which is 0
    under the regularization.  Its only term with as many trailing 1's as
    the index is the index itself, with multiplicity m (the number of its
    trailing 1's); every other term has fewer and recurses.
    """
    idx = tuple(index)
    if idx and idx[-1] >= 2:
        return {idx: Fraction(1)}
    if idx == (1,) or not idx:
        return {}
    terms = stuffle_indices((1,), idx[:-1])
    m = terms.pop(idx)
    out: dict[tuple[int, ...], Fraction] = {}
    for term, mult in terms.items():
        for base, c in stuffle_regularized(term).items():
            out[base] = out.get(base, Fraction(0)) - Fraction(mult, m) * c
    return {k: v for k, v in out.items() if v}


# -- relation rows ------------------------------------------------------------

Monomial = tuple[tuple[int, ...], ...]  # sorted multiset of admissible indices

# the monomial and row counts grow exponentially with the weight; weight 12
# is the highest the command line accepts
MAX_RELATIONS_WEIGHT = 12


def _mono(*indices: tuple[int, ...]) -> Monomial:
    return tuple(sorted(indices))


def monomial_weight(mono: Monomial) -> int:
    return sum(sum(idx) for idx in mono)


def monomial_str(mono: Monomial, flavor: str = "complex") -> str:
    parts = []
    for idx, grp in itertools.groupby(mono):
        n = len(list(grp))
        s = str(ZetaSym(flavor, idx))
        parts.append(s if n == 1 else f"{s}^{n}")
    return "*".join(parts) if parts else "1"


def _pivot_key(mono: Monomial):
    """Pivot preference: single symbols over products, deeper over shallower,
    then lexicographically larger index tuples.  The reduction eliminates
    the largest monomial of each row, so products of lower-weight symbols
    survive into the basis."""
    is_single = 1 if len(mono) == 1 else 0
    depth = sum(len(idx) for idx in mono)
    return (is_single, depth, mono)


@dataclass
class RelationRow:
    weight: int
    coeffs: dict[Monomial, Fraction]
    provenance: str = ""

    def __post_init__(self):
        self.coeffs = {m: Fraction(c) for m, c in self.coeffs.items() if c != 0}
        if not self.coeffs:
            raise ValueError("relation rows must be nonzero")
        if any(monomial_weight(m) != self.weight for m in self.coeffs):
            raise ValueError("relation row is not weight-homogeneous")

    def normalized(self) -> tuple[tuple[Monomial, Fraction], ...]:
        lead = max(self.coeffs, key=_pivot_key)
        scale = self.coeffs[lead]
        return tuple(sorted(((m, c / scale) for m, c in self.coeffs.items()), key=lambda mc: _pivot_key(mc[0])))


def _stuffle_expansion(i: tuple[int, ...], j: tuple[int, ...]) -> dict[Monomial, Fraction]:
    out: dict[Monomial, Fraction] = {}
    for t, m in stuffle_indices(i, j).items():
        mono = _mono(t)
        out[mono] = out.get(mono, Fraction(0)) + Fraction(m)
    return {k: v for k, v in out.items() if v}


def _product_row(mono: Monomial) -> dict[Monomial, int]:
    """mono minus the shuffle product of its factors, read back as indices."""
    words, signs = zip(*(word_of_index(idx) for idx in mono))
    sign = math.prod(signs)
    coeffs = {mono: 1}
    for t, m in shuffle_many(list(words)).items():
        entries, st = index_of_word(t)
        key = _mono(entries)
        coeffs[key] = coeffs.get(key, 0) - m * st * sign
    return coeffs


def generate_double_shuffle(weight: int) -> list[RelationRow]:
    """Relation rows of the given weight.

    For every unordered pair of admissible indices with weights summing to
    `weight`, the product monomial is equated with both its interleaving
    (integral shuffle) and its nested-sum (quasi-shuffle) expansion.  For
    every admissible j of weight-1 less, the divergent index j+(1,) is
    regularized on both sides with zero letter coefficients and the two
    resolutions are equated.  Every monomial of three or more factors is
    equated with the shuffle product of its factors, so products reduce like
    pairs do (the dimension bound is Zagier's d_n at weights 2-10).  Rows
    are normalized and deduplicated.
    """
    if weight < 2:
        raise ValueError("double shuffle relations start at weight 2")
    rows: list[RelationRow] = []
    lower = [idx for wt in range(2, weight - 1) for idx in admissible_indices(wt)]
    for a, b in itertools.combinations_with_replacement(lower, 2):
        if sum(a) + sum(b) != weight:
            continue
        mono = _mono(a, b)
        rows.append(RelationRow(weight, _product_row(mono), f"integral shuffle of zeta{a} * zeta{b}"))
        coeffs = {mono: Fraction(1)}
        for m, c in _stuffle_expansion(a, b).items():
            coeffs[m] = coeffs.get(m, Fraction(0)) - c
        try:
            rows.append(RelationRow(weight, coeffs, f"series shuffle of zeta{a} * zeta{b}"))
        except ValueError:
            pass
    for j in admissible_indices(weight - 1):
        d = tuple(j) + (1,)
        coeffs: dict[Monomial, Fraction] = {}
        for idx, c in shuffle_regularized(d).items():
            coeffs[_mono(idx)] = coeffs.get(_mono(idx), Fraction(0)) + c
        for idx, c in stuffle_regularized(d).items():
            coeffs[_mono(idx)] = coeffs.get(_mono(idx), Fraction(0)) - c
        try:
            rows.append(RelationRow(weight, coeffs, f"regularizations of zeta{d} compared"))
        except ValueError:
            pass  # the two regularizations coincide: trivial row
    for mono in zeta_monomials(weight):
        if len(mono) >= 3:
            rows.append(RelationRow(weight, _product_row(mono), f"shuffle product of {monomial_str(mono)}"))
    # deduplicate up to scale
    seen = set()
    unique = []
    for row in rows:
        key = row.normalized()
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


def zeta_monomials(weight: int) -> list[Monomial]:
    """All multisets of admissible indices with total weight `weight`."""
    out: list[Monomial] = []

    def rec(remaining: int, smallest: tuple[int, ...] | None, acc: list):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for wt in range(2, remaining + 1):
            for idx in admissible_indices(wt):
                if smallest is not None and idx < smallest:
                    continue
                acc.append(idx)
                rec(remaining - wt, idx, acc)
                acc.pop()

    rec(weight, None, [])
    return sorted(out)


@dataclass
class ReductionResult:
    weight: int
    rank: int
    basis: list[Monomial]
    expressions: dict[Monomial, dict[Monomial, Fraction]]

    @property
    def dimension_bound(self) -> int:
        return len(self.basis)

    def express(self, mono: Monomial) -> dict[Monomial, Fraction]:
        """mono as a combination of basis monomials."""
        if mono in self.expressions:
            return dict(self.expressions[mono])
        return {mono: Fraction(1)}


def reduce_relations(rows: list[RelationRow], weight: int) -> ReductionResult:
    """Exact fraction-free sparse row reduction of the relation rows.

    Rows are scaled to integers and held as {column: int} dicts over the
    monomial axis sorted by pivot preference.  Column by column, the pivot
    is the first pending row, in the current order, with a nonzero entry
    there; it swaps places with the first pending row, as in a dense
    Bareiss elimination.  Every other pending row with a nonzero entry in
    the column becomes a*v - b*pivot divided by the gcd of its entries;
    rows with a zero there are left alone.  So each echelon row is a
    nonzero multiple of the dense Bareiss row with the same zero pattern,
    and the pivots, the quotient basis (the monomials that never lead a
    row) and the exact back-substituted expression of every pivot monomial
    are the ones the dense elimination gives.
    """
    if any(r.weight != weight for r in rows):
        raise ValueError("rows must be homogeneous of the stated weight")
    monos = sorted(zeta_monomials(weight), key=_pivot_key, reverse=True)
    col_of = {m: k for k, m in enumerate(monos)}
    matrix: list[dict[int, int]] = []
    for row in rows:
        denom = math.lcm(*(c.denominator for c in row.coeffs.values()))
        matrix.append({col_of[m]: int(c * denom) for m, c in row.coeffs.items()})

    # a pending row is zero left of the current column, so the rows with a
    # nonzero entry there are the ones it leads; order[i] is the row at
    # position i and pos its inverse
    order = list(range(len(matrix)))
    pos = list(range(len(matrix)))
    by_lead: dict[int, set[int]] = {}
    for i, vec in enumerate(matrix):
        by_lead.setdefault(min(vec), set()).add(i)
    pivots: list[tuple[dict[int, int], int]] = []  # (row, col)
    for col in range(len(monos)):
        led = by_lead.pop(col, None)
        if not led:
            continue
        sel = min(led, key=pos.__getitem__)
        r, j = len(pivots), pos[sel]
        other = order[r]
        order[r], order[j] = sel, other
        pos[sel], pos[other] = r, j
        pivot = matrix[sel]
        a = pivot[col]
        for i in led:
            if i == sel:
                continue
            vec = matrix[i]
            b = vec[col]
            g = math.gcd(a, b)
            sa, sb = a // g, b // g
            new = {k: sa * x for k, x in vec.items()}
            for k, x in pivot.items():
                y = new.get(k, 0) - sb * x
                if y:
                    new[k] = y
                else:
                    del new[k]
            if new:
                g = math.gcd(*new.values())
                if g > 1:
                    new = {k: x // g for k, x in new.items()}
                by_lead.setdefault(min(new), set()).add(i)
            matrix[i] = new
        pivots.append((pivot, col))

    pivot_cols = {c for _, c in pivots}
    basis = sorted((m for k, m in enumerate(monos) if k not in pivot_cols), key=_pivot_key)
    # back-substitution: each pivot monomial's expression is held as integer
    # numerators over one denominator and turned into fractions once
    scaled: dict[int, tuple[dict[Monomial, int], int]] = {}  # col -> (numerators, denominator)
    expressions: dict[Monomial, dict[Monomial, Fraction]] = {}
    for row, cc in reversed(pivots):
        terms = [(c2, -row[c2]) for c2 in sorted(k for k in row if k > cc)]
        den = math.lcm(*(scaled[c2][1] for c2, _ in terms if c2 in scaled))
        acc: dict[Monomial, int] = {}
        for c2, x in terms:
            if c2 in scaled:
                nums, d = scaled[c2]
                x *= den // d
                for bm, n in nums.items():
                    acc[bm] = acc.get(bm, 0) + x * n
            else:
                acc[monos[c2]] = acc.get(monos[c2], 0) + x * den
        acc = {m: n for m, n in acc.items() if n}
        den *= row[cc]
        g = math.gcd(den, *acc.values())
        scaled[cc] = ({m: n // g for m, n in acc.items()}, den // g)
        expressions[monos[cc]] = {m: Fraction(n, den) for m, n in acc.items()}
    return ReductionResult(weight, len(pivots), basis, expressions)
