"""Test-only reconstruction of a shuffle character from its convergent
coefficients, an independent route to the tables that `series` and
`shufflealg` build.

Divergent coefficients of a group-like series are recovered from the
convergent ones and prescribed single-letter values by two inductions:
words with r leading B's are resolved through the shuffle B^r with the
convergent remainder (the word itself appears with coefficient r! in the
fully collected form, here coefficient 1 against the collected power
word), then words with trailing A's are resolved symmetrically.
"""

import math
from fractions import Fraction

from mzv.shufflealg import convergent_words, shuffle_words
from mzv.words import all_words


class InconsistentCharacterError(ValueError):
    pass


def recover_character(known: dict[str, object], c_a, c_b, max_weight: int, ring,
                      check_consistency: bool = True) -> dict[str, object]:
    """Extend convergent-word coefficients to the unique shuffle character.

    `known` must assign a coefficient to every convergent word of weight
    <= max_weight and be shuffle-multiplicative on convergent words (this
    is checked unless `check_consistency` is disabled, as it must be when
    the convergent coefficients are free symbols).  `c_a` and `c_b` are the
    prescribed single-letter coefficients.  Returns the full coefficient map
    on all words of weight <= max_weight.
    """
    for weight in range(2, max_weight + 1):
        for w in convergent_words(weight):
            if w not in known:
                raise ValueError(f"missing convergent coefficient for {w}")
    if check_consistency:
        _check_convergent_consistency(known, max_weight, ring)

    coeffs: dict[str, object] = {"": ring.one}
    if max_weight >= 1:
        coeffs["A"] = c_a
        coeffs["B"] = c_b
    for weight in range(2, max_weight + 1):
        for w in convergent_words(weight):
            coeffs[w] = known[w]
    # pure powers: the shuffle power of a letter is s! times the power word
    for s in range(2, max_weight + 1):
        fact = ring.from_fraction(Fraction(1, math.factorial(s)))
        coeffs["A" * s] = c_a**s * fact
        coeffs["B" * s] = c_b**s * fact

    # words with r leading B's followed by a convergent remainder
    for r in range(1, max_weight - 1):
        br = "B" * r
        phi_br = coeffs[br]
        for rest_weight in range(2, max_weight - r + 1):
            for v in convergent_words(rest_weight):
                target = br + v
                acc = phi_br * coeffs[v]
                for u, m in shuffle_words(br, v).items():
                    if u == target:
                        continue
                    acc = acc - coeffs[u] * m
                coeffs[target] = acc

    # words with s trailing A's; the prefix ends in B and is already known
    for s in range(1, max_weight):
        a_s = "A" * s
        phi_as = coeffs[a_s]
        for prefix_weight in range(1, max_weight - s + 1):
            for x in all_words(prefix_weight):
                if not x.endswith("B"):
                    continue
                target = x + a_s
                acc = phi_as * coeffs[x]
                for u, m in shuffle_words(a_s, x).items():
                    if u == target:
                        continue
                    acc = acc - coeffs[u] * m
                coeffs[target] = acc

    return coeffs


def _check_convergent_consistency(known, max_weight, ring):
    for wu in range(2, max_weight - 1):
        for wv in range(wu, max_weight - wu + 1):
            for u in convergent_words(wu):
                for v in convergent_words(wv):
                    lhs = known[u] * known[v]
                    acc = None
                    for t, m in shuffle_words(u, v).items():
                        add = known[t] * m
                        acc = add if acc is None else acc + add
                    if not ring.eq(lhs, acc):
                        raise InconsistentCharacterError(
                            f"shuffle relation violated on convergent pair ({u}, {v})"
                        )
