"""Word-level shuffle algebra, index-level quasi-shuffle, and the
double-shuffle relation generator with its exact rank reduction (elimination
modulo primes, rational reconstruction and an exact certificate).

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
from functools import cached_property, lru_cache

from .symbols import ZetaSym
from .words import all_words

# -- indices ---------------------------------------------------------------


def word_of_index(index: tuple[int, ...]) -> tuple[str, int]:
    """The word of an index together with the sign (-1)^depth."""
    return "".join("A" * (k - 1) + "B" for k in reversed(index)), (-1) ** len(index)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def admissible_indices(weight: int) -> tuple[tuple[int, ...], ...]:
    """All admissible indices of the given weight, canonical order."""
    return tuple(index_of_word(w)[0] for w in convergent_words(weight))


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


def shuffle_many(factors: list[str]) -> dict[str, int]:
    """Shuffle product of several words, with integer multiplicities."""
    acc = {"": 1}
    for f in factors:
        out: dict[str, int] = {}
        for u, cu in acc.items():
            for w, m in _shuffle_strings(u, f):
                out[w] = out.get(w, 0) + cu * m
        acc = out
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
def _shuffle_reg_word(word: str) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The shuffle-regularized coefficient of a word ending in B, with both
    letter coefficients zero, as (admissible index, coefficient) pairs.

    Such a word is B^r v with v convergent or empty.  The character
    vanishes on B^r, so 0 = sum over u in B^r sh v of m_u reg(u), where
    B^r v itself appears once and every other u has fewer leading B's, so
    every coefficient is an integer.  Terms are added in shuffle order and a
    coefficient that cancels is dropped, so the order is fixed; the tests
    check it term by term against a full character table built from free
    zeta symbols.
    """
    if is_convergent_word(word):
        entries, sign = index_of_word(word)
        return ((entries, sign),)
    v = word.lstrip("B")
    if not v:
        return ()
    acc: dict[tuple[int, ...], int] = {}
    for u, m in _shuffle_strings("B" * (len(word) - len(v)), v):
        if u == word:
            continue
        for idx, c in _shuffle_reg_word(u):
            c = acc.get(idx, 0) - c * m
            if c:
                acc[idx] = c
            else:
                acc.pop(idx, None)
    return tuple(acc.items())


def shuffle_regularized(index: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The shuffle-regularized value of a (possibly divergent) index as a
    linear combination of admissible indices, with zeta(1) sent to 0."""
    idx = tuple(index)
    if not idx:
        raise ValueError("the empty index has no zeta value")
    if idx[-1] >= 2:
        return {idx: 1}
    word, sign = word_of_index(idx)
    return {k: sign * c for k, c in _shuffle_reg_word(word)}


@lru_cache(maxsize=None)
def _stuffle_reg(idx: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int | Fraction], ...]:
    if idx and idx[-1] >= 2:
        return ((idx, 1),)
    if idx == (1,) or not idx:
        return ()
    terms = stuffle_indices((1,), idx[:-1])
    m = terms.pop(idx)
    out: dict[tuple[int, ...], int | Fraction] = {}
    for term, mult in terms.items():
        scale = Fraction(mult, m) if m > 1 else mult
        for base, c in _stuffle_reg(term):
            out[base] = out.get(base, 0) - scale * c
    return tuple((k, v) for k, v in out.items() if v)


def stuffle_regularized(index: tuple[int, ...]) -> dict[tuple[int, ...], int | Fraction]:
    """The quasi-shuffle-regularized value of an index, with zeta(1) = 0.

    A trailing 1 is peeled off through the product (1) * prefix, which is 0
    under the regularization.  Its only term with as many trailing 1's as
    the index is the index itself, with multiplicity m (the number of its
    trailing 1's); every other term has fewer and recurses.  So the value
    is integral when the index has one trailing 1, and Fractions appear
    only past that.
    """
    return dict(_stuffle_reg(tuple(index)))


# -- relation rows ------------------------------------------------------------

Monomial = tuple[tuple[int, ...], ...]  # sorted multiset of admissible indices

# the monomial and row counts grow exponentially with the weight; weight 12
# is the highest the command line accepts
MAX_RELATIONS_WEIGHT = 12


def _mono(*indices: tuple[int, ...]) -> Monomial:
    return tuple(sorted(indices))


@lru_cache(maxsize=None)
def monomial_weight(mono: Monomial) -> int:
    return sum(sum(idx) for idx in mono)


@lru_cache(maxsize=None)
def monomial_str(mono: Monomial, flavor: str = "complex") -> str:
    parts = []
    for idx, grp in itertools.groupby(mono):
        n = len(list(grp))
        s = str(ZetaSym(flavor, idx))
        parts.append(s if n == 1 else f"{s}^{n}")
    return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
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
    """A relation sum c_M M = 0 of one weight; int coefficients, or Fractions."""

    weight: int
    coeffs: dict[Monomial, int | Fraction]
    provenance: str = ""

    def __post_init__(self):
        self.coeffs = {m: c for m, c in self.coeffs.items() if c}
        if not self.coeffs:
            raise ValueError("relation rows must be nonzero")
        if set(map(monomial_weight, self.coeffs)) != {self.weight}:
            raise ValueError("relation row is not weight-homogeneous")

    @cached_property
    def integer_form(self) -> dict[Monomial, int]:
        """The row scaled to coprime integers, positive at its `_pivot_key`-
        largest monomial: two rows share it exactly when they are equal up to
        a nonzero rational scale."""
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        nums = {m: c.numerator * (den // c.denominator) for m, c in self.coeffs.items()}
        g = math.gcd(*nums.values())
        if nums[max(nums, key=_pivot_key)] < 0:
            g = -g
        return {m: c // g for m, c in nums.items()}


def _product_row(mono: Monomial) -> dict[Monomial, int]:
    """mono minus the shuffle product of its factors, read back as indices.

    Every shuffled word holds the B's of all the factors, so its codec sign
    (-1)^depth is the product of the factors' signs and the two cancel: each
    word enters with minus its multiplicity."""
    coeffs = {mono: 1}
    for t, m in shuffle_many([word_of_index(idx)[0] for idx in mono]).items():
        key = (index_of_word(t)[0],)
        coeffs[key] = coeffs.get(key, 0) - m
    return coeffs


def _stuffle_row(i: tuple[int, ...], j: tuple[int, ...]) -> dict[Monomial, int]:
    """zeta(i) zeta(j) minus its quasi-shuffle expansion."""
    coeffs = {_mono(i, j): 1}
    for t, m in _stuffle(i, j):
        coeffs[(t,)] = coeffs.get((t,), 0) - m
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
    are deduplicated up to scale by their integer forms.  Every coefficient
    is an int: a regularized index here has one trailing 1.
    """
    if weight < 2:
        raise ValueError("double shuffle relations start at weight 2")
    rows: list[RelationRow] = []
    # the unordered pairs (a, b) of total weight `weight`, a not after b by weight, then canonically
    pairs = ((a, b) for wt in range(2, weight // 2 + 1) for k, a in enumerate(admissible_indices(wt))
             for b in admissible_indices(weight - wt)[k if 2 * wt == weight else 0:])
    for a, b in pairs:
        rows.append(RelationRow(weight, _product_row(_mono(a, b)), f"integral shuffle of zeta{a} * zeta{b}"))
        rows.append(RelationRow(weight, _stuffle_row(a, b), f"series shuffle of zeta{a} * zeta{b}"))
    for j in admissible_indices(weight - 1):
        d = j + (1,)
        coeffs: dict[Monomial, int] = {}
        for idx, c in shuffle_regularized(d).items():
            coeffs[(idx,)] = coeffs.get((idx,), 0) + c
        for idx, c in stuffle_regularized(d).items():
            coeffs[(idx,)] = coeffs.get((idx,), 0) - c
        try:
            rows.append(RelationRow(weight, coeffs, f"regularizations of zeta{d} compared"))
        except ValueError:
            pass  # the two regularizations coincide: trivial row
    for mono in _zeta_monomials(weight):
        if len(mono) >= 3:
            rows.append(RelationRow(weight, _product_row(mono), f"shuffle product of {monomial_str(mono)}"))
    # deduplicate up to scale
    seen = set()
    unique = []
    for row in rows:
        key = frozenset(row.integer_form.items())
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


@lru_cache(maxsize=None)
def _zeta_monomials(weight: int) -> tuple[Monomial, ...]:
    if weight == 0:
        return ((),)
    return tuple(sorted({_mono(*mono, idx) for wt in range(2, weight + 1) for idx in admissible_indices(wt)
                         for mono in _zeta_monomials(weight - wt)}))


def zeta_monomials(weight: int) -> list[Monomial]:
    """All multisets of admissible indices with total weight `weight`, sorted."""
    return list(_zeta_monomials(weight))


@dataclass
class ReductionResult:
    """The reduction at one weight: `expressions` writes each monomial that
    is not in `basis` as a combination of basis monomials."""

    weight: int
    rank: int
    basis: list[Monomial]
    expressions: dict[Monomial, dict[Monomial, Fraction]]

    @property
    def dimension_bound(self) -> int:
        return len(self.basis)


# the moduli of the elimination: the largest primes below 2**31, so each one
# adds ~31 bits to the modulus that rational reconstruction lifts from
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543, 2147483497,
           2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323, 2147483269, 2147483249)


def _rref_mod(matrix: list[dict[int, int]], ncols: int, p: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Gauss-Jordan elimination of the integer rows mod p: the pivot columns,
    the free columns, and each pivot row's free-column entries in the reduced
    row echelon form mod p.

    Sparse rows {column: residue} are taken in descending order of their
    smallest column.  Pivot rows are kept fully reduced, each stored as its
    tail {column: residue} past its leading 1, and zero in every other pivot
    column; so a row is reduced by one subtraction per pivot column it holds,
    whose multiple is the row's own entry there.  A surviving row's smallest
    column becomes a pivot, and is cleared from the earlier tails that hold
    it, found through the column -> pivots index `holders`."""
    rows = [r for r in ({c: x % p for c, x in row.items() if x % p} for row in matrix) if r]
    rows.sort(key=min, reverse=True)
    tails: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}
    for row in rows:
        for c in [c for c in row if c in tails]:
            x = row.pop(c)
            for d, y in tails[c].items():
                row[d] = row.get(d, 0) - x * y
        row = {c: x % p for c, x in row.items() if x % p}
        if not row:
            continue
        lead = min(row)
        inv = pow(row.pop(lead), -1, p)
        tail = {c: x * inv % p for c, x in row.items()}
        for q in holders.pop(lead, ()):
            other = tails[q]
            x = other.pop(lead)
            for d, y in tail.items():
                v = (other.get(d, 0) - x * y) % p
                if v:
                    other[d] = v
                    holders.setdefault(d, set()).add(q)
                else:
                    del other[d]
                    holders[d].discard(q)
        tails[lead] = tail
        for d in tail:
            holders.setdefault(d, set()).add(lead)
    pivots = sorted(tails)
    free = sorted(set(range(ncols)) - tails.keys())
    return pivots, free, [[tails[c].get(f, 0) for f in free] for c in pivots]


def _rational(a: int, m: int) -> Fraction | None:
    """The fraction n/d = a mod m with |n| and d at most sqrt(m/2), if any
    (Wang's rational reconstruction; it is unique when it exists)."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _certify(matrix: list[dict[int, int]], pivots: list[int], free: list[int], values: list[list[Fraction]]) -> bool:
    """Whether the candidate echelon entries e = values vanish left of their
    pivot, and every row r satisfies r_f = sum over pivots c of r_c e_(c,f) in
    every free column f; checked in integers over one common denominator."""
    if any(v for c, vs in zip(pivots, values) for f, v in zip(free, vs) if f < c):
        return False
    den = math.lcm(*(v.denominator for vs in values for v in vs))
    nums = {c: [v.numerator * (den // v.denominator) for v in vs] for c, vs in zip(pivots, values)}
    for row in matrix:
        acc = [den * row.get(f, 0) for f in free]
        for c, x in row.items():
            if c in nums:
                acc = [a - x * n for a, n in zip(acc, nums[c])]
        if any(acc):
            return False
    return True


def reduce_relations(rows: list[RelationRow], weight: int) -> ReductionResult:
    """Exact reduced row echelon form of the relation rows, by elimination
    modulo word-size primes lifted to Q.

    Rows enter in their integer forms over the monomial axis sorted by pivot
    preference.  `_rref_mod` gives the pivot columns and the free-column
    entries of the echelon form mod p.  Images of primes with the same pivots
    are combined by the Chinese remainder theorem and lifted entry by entry
    by rational reconstruction; a prime with more pivots, or as many at
    earlier columns, restarts the combination, and one with fewer or later
    pivots is skipped.  A lift is kept only if `_certify` shows that it is in
    reduced echelon form and that every input row lies in its span.  It has
    |pivots| independent rows, and |pivots| = rank mod p <= rank over Q, so
    it spans the input's row space and is its unique reduced echelon form:
    the pivots, the basis (the free monomials) and every expression are
    exact, whichever primes were used.  Expressions list their terms in basis
    order.
    """
    if any(r.weight != weight for r in rows):
        raise ValueError("rows must be homogeneous of the stated weight")
    monos = zeta_monomials(weight)
    monos.sort(key=_pivot_key, reverse=True)
    col_of = {m: k for k, m in enumerate(monos)}
    matrix = [{col_of[m]: c for m, c in row.integer_form.items()} for row in rows]
    best = None
    for p in _PRIMES:
        pivots, free, image = _rref_mod(matrix, len(monos), p)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus, residues = key, 1, [[0] * len(free) for _ in pivots]
        elif key > best:
            continue
        inv = pow(modulus, -1, p)
        residues = [[a + modulus * ((b - a) * inv % p) for a, b in zip(ra, rb)] for ra, rb in zip(residues, image)]
        modulus *= p
        values = [[_rational(a, modulus) for a in ra] for ra in residues]
        if not any(None in vs for vs in values) and _certify(matrix, pivots, free, values):
            break
    else:
        raise RuntimeError(f"no certified reduction of the weight-{weight} relations from {len(_PRIMES)} primes")
    # monos is in descending pivot preference, so the basis is the free
    # monomials reversed, and the pivots are listed last column first
    basis = [monos[f] for f in reversed(free)]
    expressions = {monos[c]: {monos[f]: -v for f, v in zip(reversed(free), reversed(vs)) if v}
                   for c, vs in zip(reversed(pivots), reversed(values))}
    return ReductionResult(weight, len(pivots), basis, expressions)
