import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mzv.rings import QQ, SYMBOLIC, RingMismatchError, complex_ring
from mzv.series import NCSeries, character_series
from mzv.serialize import series_from_json, series_to_json
from mzv.shufflealg import shuffle_many, shuffle_words
from mzv.symbols import LambdaSym, SymbolPoly
from mzv.words import Word, all_words, duval_factorization, is_lyndon, lyndon_words

from series_reference import coproduct, is_group_like, random_series, reference_invert, series_character


def _letters(ring, n):
    return NCSeries.letter(ring, "A", n), NCSeries.letter(ring, "B", n), NCSeries.one(ring, n)


def test_polynomial_product():
    a, b, one = _letters(QQ, 4)
    f = (one + a) * (one + b)
    assert f == NCSeries(QQ, 4, {"": Fraction(1), Word("A"): Fraction(1),
                                 Word("B"): Fraction(1), Word("AB"): Fraction(1)})


def test_identity_and_truncation_rules():
    rng = random.Random(1)
    f = random_series(QQ, 5, rng)
    one = NCSeries.one(QQ, 5)
    assert f * one == f and one * f == f
    # results carry the min truncation
    g = random_series(QQ, 3, rng)
    assert (f * g).truncation == 3
    assert (f + g).truncation == 3


def test_exp_product_cancellation_to_weight_2():
    a, _, one = _letters(QQ, 2)
    half_a2 = (a * a).scale(Fraction(1, 2))
    lhs = (one + a + half_a2) * (one - a + half_a2)
    assert lhs == one


def test_mul_is_associative_randomized():
    rng = random.Random(2)
    for ring in (QQ, SYMBOLIC):
        for _ in range(6):
            f, g, h = (random_series(ring, 4, rng) for _ in range(3))
            assert (f * g) * h == f * (g * h)


def test_ring_mismatch():
    f = NCSeries.one(QQ, 3)
    g = NCSeries.one(SYMBOLIC, 3)
    with pytest.raises(RingMismatchError):
        f * g


def test_invert_examples_and_two_sided():
    a, b, one = _letters(QQ, 4)
    assert one.invert() == one
    assert b.exp().invert() == (-b).exp()
    assert (a.exp() * b.exp()).invert() == (-b).exp() * (-a).exp()
    # 1 + A is not group-like: the reference inverse is the geometric series
    assert reference_invert(one + a) == one - a + a * a - a * a * a + a * a * a * a
    rng = random.Random(3)
    for _ in range(8):
        f = character_series({w: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for w in lyndon_words(4)}, 4, QQ)
        assert f * f.invert() == one and f.invert() * f == one


def test_invert_needs_constant_term_one():
    a, _, one = _letters(QQ, 3)
    for f in (a, one + one + a):
        with pytest.raises(ValueError):
            f.invert()


def test_substitute_identity_and_scaling():
    rng = random.Random(4)
    f = random_series(QQ, 4, rng)
    a, b, one = _letters(QQ, 4)
    assert f.substitute(a, b) == f
    g = one + NCSeries(QQ, 4, {Word("AB"): Fraction(1)})
    half = NCSeries.letter(QQ, "A", 4, coeff=Fraction(1, 2))
    assert g.substitute(half, b) == one + NCSeries(QQ, 4, {Word("AB"): Fraction(1, 2)})


def test_substitute_exp_by_hand():
    # exp(A) with A -> -A-B equals exp(-A-B); expand by hand to weight 3
    n = 3
    a, b, one = _letters(QQ, n)
    img = -a - b
    lhs = a.exp().substitute(img, b)
    coeffs = {"": Fraction(1)}
    for w in ("A", "B"):
        coeffs[Word(w)] = Fraction(-1)
    for w in ("AA", "AB", "BA", "BB"):
        coeffs[Word(w)] = Fraction(1, 2)
    for w in ("AAA", "AAB", "ABA", "ABB", "BAA", "BAB", "BBA", "BBB"):
        coeffs[Word(w)] = Fraction(-1, 6)
    assert lhs == NCSeries(QQ, n, coeffs)
    assert lhs[Word("AB")] == Fraction(1, 2)


def test_substitute_is_homomorphism():
    rng = random.Random(5)
    for _ in range(5):
        f, g = random_series(QQ, 4, rng), random_series(QQ, 4, rng)
        img_a = random_series(QQ, 4, rng, constant=0)
        img_b = random_series(QQ, 4, rng, constant=0)
        lhs = (f * g).substitute(img_a, img_b)
        rhs = f.substitute(img_a, img_b) * g.substitute(img_a, img_b)
        assert lhs == rhs


def test_substitute_rejects_constant_terms():
    f = NCSeries.one(QQ, 3)
    a, b, one = _letters(QQ, 3)
    with pytest.raises(ValueError):
        f.substitute(one + a, b)


def test_exp_requires_rationals_and_preconditions():
    with pytest.raises(ValueError):
        NCSeries.one(QQ, 3).exp()


def test_exp_of_primitive_is_group_like():
    a, b, _ = _letters(QQ, 4)
    assert is_group_like(a.exp())
    lam = Fraction(7, 3)
    bracket = (a * b - b * a).scale(lam)
    assert is_group_like(bracket.exp())
    assert not is_group_like(NCSeries.one(QQ, 2) + a)


def test_coproduct_counit_and_duality():
    # <coproduct(f), u (x) v> equals <f, shuffle(u, v)>
    from mzv.shufflealg import shuffle_words

    rng = random.Random(7)
    f = random_series(QQ, 4, rng)
    cp = coproduct(f)
    for u in (Word("A"), Word("AB"), Word("BA")):
        for v in (Word("B"), Word("AB")):
            if len(u) + len(v) > 4:
                continue
            want = sum(c * f[w] for w, c in shuffle_words(u, v).items())
            assert cp.get((u, v), 0) == want


def test_character_series_examples():
    assert character_series({}, 4, QQ) == NCSeries.one(QQ, 4)
    lam = Fraction(5, 2)
    single = character_series({Word("A"): lam}, 4, QQ)
    assert single == NCSeries.letter(QQ, "A", 4, coeff=lam).exp()
    c = Fraction(3)
    f = character_series({Word("AB"): c}, 4, QQ)
    assert f[Word("ABAB")] == c * c / 2
    assert f[Word("AABB")] == 0


def test_character_round_trip_and_group_likeness():
    rng = random.Random(9)
    for _ in range(20):
        assignments = {w: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for w in lyndon_words(4) if rng.random() < 0.8}
        f = character_series(assignments, 4, QQ)
        assert is_group_like(f)
        assert character_series(series_character(f), 4, QQ) == f


def _character_series_reference(assignments, truncation, ring):
    """The shuffle-character solver before each coefficient came from one
    two-word shuffle, kept as the reference: the product of all Lyndon
    factors l1^m1 ... lk^mk, minus the other words of their shuffle, over
    m1! ... mk!."""
    values = {"": ring.one}
    for weight in range(1, truncation + 1):
        for w in all_words(weight):
            if is_lyndon(w):
                values[w] = assignments.get(w, ring.zero)
                continue
            factors = [(l, len(list(g))) for l, g in itertools.groupby(duval_factorization(w))]
            product, lead, flat = None, 1, []
            for l, m in factors:
                lead *= math.factorial(m)
                for _ in range(m):
                    product = values[l] if product is None else product * values[l]
                    flat.append(l)
            acc = product
            for u, mult in shuffle_many(flat).items():
                if u != w:
                    acc = acc - values[u] * mult
            values[w] = acc * (ring.one * Fraction(1, lead))
    return NCSeries(ring, truncation, values)


def test_character_series_matches_the_all_factor_reference_exactly():
    rng = random.Random(14)
    rational = {w: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for w in lyndon_words(8) if rng.random() < 0.9}
    symbolic = {w: SymbolPoly.gen(LambdaSym("c", w)) * Fraction(rng.randint(1, 5), rng.randint(1, 3))
                + rng.randint(-2, 2) for w in lyndon_words(8) if rng.random() < 0.8}
    for assignments, ring in ((rational, QQ), (symbolic, SYMBOLIC)):
        got = character_series(assignments, 8, ring)
        want = _character_series_reference(assignments, 8, ring)
        assert got.coeffs.keys() == want.coeffs.keys()
        for w in want.coeffs:
            assert got[w] == want[w], w


def test_character_series_matches_the_reference_over_the_complex_ring():
    from mzv.associator import build_numeric_kz

    phi = build_numeric_kz(8)
    want = _character_series_reference(series_character(phi), 8, phi.ring)
    assert phi.coeffs.keys() == want.coeffs.keys()
    assert max(abs(phi[w] - want[w]) for w in want.coeffs) <= 1e-12


def test_each_non_lyndon_word_leads_the_shuffle_of_its_first_factor_and_rest():
    """w = l w' (l the first Lyndon factor) is the largest word of l ш w',
    with multiplicity the number of leading copies of l."""
    for weight in range(2, 13):
        for w in all_words(weight):
            if is_lyndon(w):
                continue
            factors = duval_factorization(w)
            l = factors[0]
            expansion = shuffle_words(l, w[len(l):])
            assert expansion.pop(w) == len(list(itertools.takewhile(l.__eq__, factors))), w
            assert all(u < w for u in expansion), w


def test_character_series_fails_loudly_on_a_broken_shuffle(monkeypatch):
    """A non-Lyndon word missing from its shuffle is an invariant violation
    (exit 3), not a usage error."""
    import mzv.series
    from click.testing import CliRunner
    from mzv.associator import build_associator, build_symbolic_associator
    from mzv.cli import series as series_cli

    def without_largest(u, v):
        out = shuffle_words(u, v)
        out.pop(max(out))
        return out

    monkeypatch.setattr(mzv.series, "shuffle_words", without_largest)
    with pytest.raises(AssertionError):
        character_series({Word("AB"): Fraction(1)}, 3, QQ)
    build_associator.cache_clear()  # so that the command below solves its table
    build_symbolic_associator.cache_clear()
    result = CliRunner().invoke(series_cli, ["dump", "--flavor", "padic_KZ", "--weight", "3"])
    assert result.exit_code == 3, result.output


def test_character_rejects_non_lyndon_assignment():
    with pytest.raises(ValueError):
        character_series({Word("BA"): Fraction(1)}, 3, QQ)


def test_group_like_over_symbolic_and_complex_rings():
    lam = SymbolPoly.gen(LambdaSym("c", "AB"))
    f = character_series({Word("AB"): lam}, 4, SYMBOLIC)
    assert is_group_like(f)
    ring = complex_ring(1e-9)
    g = character_series({Word("AB"): -1.6449340668482264}, 4, ring)
    assert is_group_like(g)


def test_tensor_square_matches_coproduct_for_group_like():
    rng = random.Random(10)
    assignments = {w: Fraction(rng.randint(-3, 3)) for w in lyndon_words(4)}
    f = character_series(assignments, 4, QQ)
    square = {(u, v): f[u] * f[v] for u in f.coeffs for v in f.coeffs if len(u) + len(v) <= 4}
    cop = coproduct(f)
    assert {k: c for k, c in cop.items() if c} == {k: c for k, c in square.items() if c}


def test_serialization_round_trip_bit_exact():
    rng = random.Random(11)
    f = random_series(QQ, 4, rng)
    text = series_to_json(f)
    assert series_to_json(series_from_json(text)) == text
    lam = SymbolPoly.gen(LambdaSym("p", "AAB"))
    g = character_series({Word("AAB"): lam, Word("AB"): SymbolPoly.constant(Fraction(2, 3))}, 4, SYMBOLIC)
    text = series_to_json(g)
    assert series_to_json(series_from_json(text)) == text


def test_truncation_invariants():
    with pytest.raises(ValueError):
        NCSeries(QQ, 2, {Word("AAB"): Fraction(1)})
    f = NCSeries(QQ, 4, {Word("AAB"): Fraction(1)})
    assert f.truncate(2).is_zero()


def test_truncation_hard_cap():
    import mzv.series as series_mod

    with pytest.raises(ValueError):
        NCSeries.one(QQ, series_mod.MAX_TRUNCATION + 1)
    old = series_mod.MAX_TRUNCATION
    try:
        series_mod.MAX_TRUNCATION = 20
        assert NCSeries.one(QQ, 18).truncation == 18
    finally:
        series_mod.MAX_TRUNCATION = old


_TRUNC = 4
_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_WORD = st.text(alphabet="AB", max_size=_TRUNC)
_SERIES = st.dictionaries(_WORD, _COEFF, max_size=8).map(lambda d: NCSeries(QQ, _TRUNC, d))


@settings(max_examples=60, deadline=None)
@given(f=_SERIES, g=_SERIES, h=_SERIES)
def test_ring_axioms_over_qq(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_COEFF, min_size=len(lyndon_words(_TRUNC)), max_size=len(lyndon_words(_TRUNC))))
def test_invert_is_two_sided(values):
    f = character_series(dict(zip(lyndon_words(_TRUNC), values)), _TRUNC, QQ)
    one = NCSeries.one(QQ, _TRUNC)
    inv = f.invert()
    assert f * inv == one and inv * f == one
    assert inv == reference_invert(f)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from("AB"), _COEFF), max_size=4))
def test_product_of_letter_exponentials_is_group_like(steps):
    # its inverse is the reversed product of the negated exponentials
    f = NCSeries.one(QQ, _TRUNC)
    inverse = NCSeries.one(QQ, _TRUNC)
    for letter, c in steps:
        f = f * NCSeries.letter(QQ, letter, _TRUNC, coeff=c).exp()
        inverse = NCSeries.letter(QQ, letter, _TRUNC, coeff=-c).exp() * inverse
    assert is_group_like(f)
    assert f.invert() == inverse
