import pytest

from mzv.words import (
    Word,
    all_words,
    duval_factorization,
    is_lyndon,
    lyndon_words,
    word_key,
    words_up_to,
)


def test_alphabet_is_enforced():
    with pytest.raises(ValueError):
        Word("AXB")
    # a checked word is its string: equal, same hash, usable as a series key
    assert Word("ABBA") == "ABBA" and hash(Word("ABBA")) == hash("ABBA")


def test_weight_and_order():
    assert len("") == 0
    assert len(Word("AAB")) == 3
    # weight first, then lexicographic with A < B
    assert word_key("B") < word_key("AA")
    assert word_key("AB") < word_key("BA")
    assert sorted(["BB", "B", "AB", "", "AA", "A", "BA"], key=word_key) == ["", "A", "B", "AA", "AB", "BA", "BB"]
    assert sorted(all_words(2), key=word_key) == ["AA", "AB", "BA", "BB"]


def test_concatenation_and_immutability():
    w = Word("AB") + Word("BA")
    assert w == "ABBA" and type(w) is str
    with pytest.raises(AttributeError):
        Word("AB").letters = "B"


def test_words_up_to_counts():
    assert len(words_up_to(5)) == 1 + 2 + 4 + 8 + 16 + 32
    assert all(type(w) is str for w in words_up_to(3))


def test_lyndon_words_low_weight():
    got = list(lyndon_words(4))
    assert got == ["A", "B", "AB", "AAB", "ABB", "AAAB", "AABB", "ABBB"]


def test_lyndon_definition_brute_force():
    assert not is_lyndon("")
    for w in words_up_to(6):
        if not w:
            continue
        rotations_smaller = all(w < w[i:] + w[:i] for i in range(1, len(w)))
        assert is_lyndon(w) == rotations_smaller


def test_duval_factorization_is_nonincreasing_and_reassembles():
    for w in words_up_to(6):
        factors = duval_factorization(w)
        assert all(is_lyndon(f) for f in factors)
        assert "".join(factors) == w
        assert all(factors[i] >= factors[i + 1] for i in range(len(factors) - 1))

