"""Test-only reference for the double-shuffle relation rows: the generator
in Fraction arithmetic, reading every shuffled word back through the index
codec with its sign.  The regularized values come from `mzv.shufflealg`,
which the tests check against a character table on their own."""

import itertools
import math
from fractions import Fraction

from mzv.shufflealg import (
    RelationRow,
    _mono,
    admissible_indices,
    index_of_word,
    monomial_str,
    shuffle_regularized,
    shuffle_words,
    stuffle_indices,
    stuffle_regularized,
    word_of_index,
    zeta_monomials,
)


def _fraction_row(weight, coeffs, provenance):
    return RelationRow(weight, {m: Fraction(c) for m, c in coeffs.items()}, provenance)


def shuffle_combinations(terms_u: dict, terms_v: dict) -> dict:
    """Bilinear extension of the shuffle product."""
    out: dict = {}
    for u, cu in terms_u.items():
        for v, cv in terms_v.items():
            for w, m in shuffle_words(u, v).items():
                add = cu * cv * m
                out[w] = out[w] + add if w in out else add
    return out


def product_row(mono) -> dict:
    """mono minus the shuffle product of its factors, read back as indices."""
    words, signs = zip(*(word_of_index(idx) for idx in mono))
    sign = math.prod(signs)
    expansion = {"": 1}
    for w in words:
        expansion = shuffle_combinations(expansion, {w: 1})
    coeffs = {mono: 1}
    for t, m in expansion.items():
        entries, st = index_of_word(t)
        key = _mono(entries)
        coeffs[key] = coeffs.get(key, 0) - m * st * sign
    return coeffs


def stuffle_expansion(i, j) -> dict:
    out: dict = {}
    for t, m in stuffle_indices(i, j).items():
        mono = _mono(t)
        out[mono] = out.get(mono, Fraction(0)) + Fraction(m)
    return {k: v for k, v in out.items() if v}


def generate_double_shuffle(weight: int) -> list[RelationRow]:
    """The relation rows of `mzv.shufflealg.generate_double_shuffle`, with
    every coefficient a Fraction."""
    if weight < 2:
        raise ValueError("double shuffle relations start at weight 2")
    rows: list[RelationRow] = []
    lower = [idx for wt in range(2, weight - 1) for idx in admissible_indices(wt)]
    for a, b in itertools.combinations_with_replacement(lower, 2):
        if sum(a) + sum(b) != weight:
            continue
        mono = _mono(a, b)
        rows.append(_fraction_row(weight, product_row(mono), f"integral shuffle of zeta{a} * zeta{b}"))
        coeffs = {mono: Fraction(1)}
        for m, c in stuffle_expansion(a, b).items():
            coeffs[m] = coeffs.get(m, Fraction(0)) - c
        try:
            rows.append(_fraction_row(weight, coeffs, f"series shuffle of zeta{a} * zeta{b}"))
        except ValueError:
            pass
    for j in admissible_indices(weight - 1):
        d = tuple(j) + (1,)
        coeffs = {}
        for idx, c in shuffle_regularized(d).items():
            coeffs[_mono(idx)] = coeffs.get(_mono(idx), Fraction(0)) + c
        for idx, c in stuffle_regularized(d).items():
            coeffs[_mono(idx)] = coeffs.get(_mono(idx), Fraction(0)) - c
        try:
            rows.append(_fraction_row(weight, coeffs, f"regularizations of zeta{d} compared"))
        except ValueError:
            pass
    for mono in zeta_monomials(weight):
        if len(mono) >= 3:
            rows.append(_fraction_row(weight, product_row(mono), f"shuffle product of {monomial_str(mono)}"))
    seen = set()
    unique = []
    for row in rows:
        key = frozenset(row.integer_form.items())
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique
