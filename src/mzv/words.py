"""Words in the two non-commuting letters A and B.

A word is a plain ``str`` over the alphabet {A, B}; its weight is its
length.  Words are totally ordered first by weight, then lexicographically
with A < B (`word_key`), which fixes the canonical iteration order used
everywhere else (series printing, serialization, triangular solves).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

ALPHABET = "AB"


class Word(str):
    """A str checked to be a word over {A, B}; for words read from outside."""

    __slots__ = ()

    def __init__(self, letters: str = ""):
        if self.strip(ALPHABET):
            raise ValueError(f"word may only contain letters A and B, got {letters!r}")


def word_key(word: str) -> tuple[int, str]:
    """Sort key of the canonical order: weight, then lexicographic."""
    return len(word), word


def is_lyndon(word: str) -> bool:
    """True iff the word is strictly smaller than all its proper rotations."""
    return bool(word) and all(word < word[i:] + word[:i] for i in range(1, len(word)))


def all_words(weight: int) -> list[str]:
    """All words of the given weight in canonical (lexicographic) order."""
    return ["".join(t) for t in itertools.product(ALPHABET, repeat=weight)]


def words_up_to(max_weight: int) -> list[str]:
    """All words of weight <= max_weight in canonical order."""
    out = []
    for w in range(max_weight + 1):
        out.extend(all_words(w))
    return out


@lru_cache(maxsize=None)
def lyndon_words(max_weight: int) -> tuple[str, ...]:
    """All Lyndon words of weight 1..max_weight, in canonical order."""
    return tuple(w for w in words_up_to(max_weight) if is_lyndon(w))


def duval_factorization(word: str) -> list[str]:
    """Chen-Fox-Lyndon factorization into a non-increasing product of Lyndon words.

    Duval's algorithm; the returned factors l1 >= l2 >= ... (lexicographic)
    concatenate to the input.
    """
    factors = []
    k = 0
    n = len(word)
    while k < n:
        i, j = k, k + 1
        while j < n and word[i] <= word[j]:
            i = k if word[i] < word[j] else i + 1
            j += 1
        while k <= i:
            factors.append(word[k : k + j - i])
            k += j - i
    return factors

