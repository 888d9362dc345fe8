import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from mzv.associator import build_numeric_kz, pentagon_residual
from mzv.braid import (
    FREE_LETTERS,
    BraidElement,
    evaluate_series,
    generator_form,
    reduce_monomial_dict,
)
from mzv.cli import MAX_VERIFY_WEIGHT, assoc
from mzv.rings import QQ
from mzv.series import NCSeries, character_series
from mzv.words import lyndon_words

from braid_reference import PENTAGON_PAIRS, braid_one, five_cycle_residual, pentagon_factor


@functools.lru_cache(maxsize=None)
def _quadratic_relations():
    """[X_ij, X_kl] for the disjoint pairs, in the free letters: the
    defining relations whose two-sided ideal is the normal form's kernel."""
    rels = []
    for a, b in itertools.combinations(itertools.combinations(range(1, 6), 2), 2):
        if set(a) & set(b):
            continue
        row = {}
        for k1, c1 in generator_form(*a):
            for k2, c2 in generator_form(*b):
                row[(k1, k2)] = row.get((k1, k2), 0) + c1 * c2
                row[(k2, k1)] = row.get((k2, k1), 0) - c1 * c2
        rels.append({m: c for m, c in row.items() if c})
    return tuple(rels)


def _rref_reduce_row(row, pivots):
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


def _rref_table(degree):
    """Reference: reduced row echelon form of every m1*r*m2 of one degree."""
    if degree < 2:
        return {}
    rows = []
    letters = range(len(FREE_LETTERS))
    for rel in _quadratic_relations():
        for left_len in range(degree - 1):
            right_len = degree - 2 - left_len
            for m1 in itertools.product(letters, repeat=left_len):
                for m2 in itertools.product(letters, repeat=right_len):
                    rows.append({m1 + mid + m2: c for mid, c in rel.items()})
    pivots = {}
    for row in rows:
        row = _rref_reduce_row(row, pivots)
        if not row:
            continue
        lead = min(row)
        inv = Fraction(1) / row[lead]
        expr = {m: -c * inv for m, c in row.items() if m != lead}
        for pexpr in pivots.values():
            if lead in pexpr:
                scale = pexpr.pop(lead)
                for m, c in expr.items():
                    pexpr[m] = pexpr.get(m, Fraction(0)) + scale * c
                    if not pexpr[m]:
                        del pexpr[m]
        pivots[lead] = expr
    return pivots


def test_generators_are_symmetric():
    for i, j in itertools.combinations(range(1, 6), 2):
        assert generator_form(i, j) == generator_form(j, i)


def test_linear_relations_hold():
    # sum_j X_ij reduces to zero for every i after elimination
    for i in range(1, 6):
        acc = BraidElement(2, {})
        for j in range(1, 6):
            if j != i:
                acc = acc + BraidElement.generator(i, j, 2)
        assert not acc.coeffs, i


def test_disjoint_commutators_vanish():
    pairs = list(itertools.combinations(range(1, 6), 2))
    for a, b in itertools.combinations(pairs, 2):
        if set(a) & set(b):
            continue
        x = BraidElement.generator(*a, 4)
        y = BraidElement.generator(*b, 4)
        assert not (x * y - y * x).coeffs, (a, b)


def test_infinitesimal_braid_relations_follow():
    # [X_ij, X_ik + X_jk] = 0 is a consequence of the presentation
    for i, j, k in itertools.permutations(range(1, 6), 3):
        x = BraidElement.generator(i, j, 3)
        s = BraidElement.generator(i, k, 3) + BraidElement.generator(j, k, 3)
        assert not (x * s - s * x).coeffs, (i, j, k)


def test_reduction_is_confluent_on_random_products():
    # a * (relation) * b reduces to zero for every defining relation
    rng = random.Random(11)
    rels = _quadratic_relations()
    letters = range(len(FREE_LETTERS))
    for rel in rels:
        for _ in range(4):
            left_len = rng.randint(0, 2)
            left = tuple(rng.choice(letters) for _ in range(left_len))
            right = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2 - left_len)))
            coeffs = {left + m + right: c for m, c in rel.items()}
            assert not BraidElement(4, reduce_monomial_dict(coeffs)).coeffs


def test_graded_dimensions_are_stable():
    # the normal forms of the words of degree d span exactly the standard
    # monomials, as many as the Hilbert series of U(f_3) (x) U(f_2) counts
    # (t_{0,5} = f_3 x| f_2): 1, 5, 19, 65, 211
    letters = range(len(FREE_LETTERS))
    for d in range(5):
        words = list(itertools.product(letters, repeat=d))
        support = {m for w in words for m, c in reduce_monomial_dict({w: Fraction(1)}).items() if c}
        assert support == {m for m in words if _standard(m)}
        assert len(support) == 3 ** (d + 1) - 2 ** (d + 1)


def _standard(m):
    """Every fibre letter (0, 1, 2) before every base letter (3, 4)."""
    return list(m) == sorted(m, key=lambda x: x >= 3)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_normal_form_kernel_is_the_ideal(degree):
    letters = range(len(FREE_LETTERS))
    # every m1*r*m2 of the degree reduces to exactly zero
    for rel in _quadratic_relations():
        for left_len in range(degree - 1):
            for m1 in itertools.product(letters, repeat=left_len):
                for m2 in itertools.product(letters, repeat=degree - 2 - left_len):
                    reduced = reduce_monomial_dict({m1 + mid + m2: Fraction(c) for mid, c in rel.items()})
                    assert all(c == 0 for c in reduced.values()), (m1, rel, m2)
    # standard monomials are fixed, and there are as many as the ideal has non-pivots
    standard = [m for m in itertools.product(letters, repeat=degree) if _standard(m)]
    for m in standard:
        assert reduce_monomial_dict({m: Fraction(1)}) == {m: Fraction(1)}
    assert len(standard) == 5 ** degree - len(_rref_table(degree)) == 3 ** (degree + 1) - 2 ** (degree + 1)


def _elements(cap):
    word = st.lists(st.integers(0, len(FREE_LETTERS) - 1), max_size=3).map(tuple)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(word, coeff, max_size=4).map(lambda d: BraidElement(cap, reduce_monomial_dict(d)))


@settings(max_examples=60, deadline=None)
@given(a=_elements(5), b=_elements(5), c=_elements(5))
def test_product_is_associative(a, b, c):
    assert not ((a * b) * c - a * (b * c)).coeffs
    assert all(_standard(m) for m in (a * b).coeffs)


def _random_group_like(weight: int, seed: int) -> NCSeries:
    """The group-like series over QQ with random rational Lyndon coordinates."""
    rng = random.Random(seed)
    values = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for w in lyndon_words(weight)}
    return character_series(values, weight, QQ)


@pytest.mark.parametrize("pair", PENTAGON_PAIRS)
def test_the_antipode_evaluates_to_the_inverse_factor(pair):
    """The premise of `pentagon_residual`: for a group-like phi, phi.invert()
    at a generator pair is the inverse of phi there, exactly."""
    phi = _random_group_like(5, 1)
    product = pentagon_factor(phi.invert(), pair) * pentagon_factor(phi, pair)
    assert not (product - braid_one(5)).coeffs


def test_pentagon_residual_is_the_five_cycle_between_its_end_inverses():
    """f2 f3 f4 - f1^-1 f5^-1 = f1^-1 (f1 f2 f3 f4 f5 - 1) f5^-1, exactly."""
    phi = _random_group_like(4, 2)
    first, last = (pentagon_factor(phi.invert(), PENTAGON_PAIRS[i]) for i in (0, 4))
    assert not (pentagon_residual(phi) - first * five_cycle_residual(phi) * last).coeffs


@pytest.mark.parametrize("weight", [2, 3, 4, 5, 6, 7])
def test_pentagon_and_the_five_cycle_hold_for_the_kz_associator(weight):
    phi = build_numeric_kz(weight)
    assert pentagon_residual(phi).max_abs() < 1e-9
    assert five_cycle_residual(phi).max_abs() < 1e-9


@pytest.mark.parametrize("weight", [4, 5, 6, 7])
def test_pentagon_catches_a_perturbed_coefficient(weight):
    phi = build_numeric_kz(weight)
    word = "A" * (weight - 1) + "B"
    coeffs = dict(phi.coeffs)
    coeffs[word] = coeffs.get(word, 0) + 0.01
    bad = NCSeries(phi.ring, phi.truncation, coeffs)
    assert pentagon_residual(bad).max_abs() > 1e-3
    assert five_cycle_residual(bad).max_abs() > 1e-3


# wrong ways to write f2 f3 f4 - f1^-1 f5^-1, from the factors f and the inverse factors g
_MUTANTS = {
    "phi in place of its inverse": lambda f, g: f[1] * f[2] * f[3] - f[0] * f[4],
    "right factors swapped": lambda f, g: f[1] * f[2] * f[3] - g[4] * g[0],
    "f3 dropped": lambda f, g: f[1] * f[3] - g[0] * g[4],
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_a_mutated_pentagon_residual_is_far_from_zero(mutant):
    phi = build_numeric_kz(6)
    f = [pentagon_factor(phi, pair) for pair in PENTAGON_PAIRS]
    g = [pentagon_factor(phi.invert(), pair) for pair in PENTAGON_PAIRS]
    assert _MUTANTS[mutant](f, g).max_abs() > 1e-3


def test_cli_pentagon_weight5_passes():
    result = CliRunner().invoke(assoc, ["verify", "--identity", "pentagon", "--weight", "5"])
    assert result.exit_code == 0, result.output
    assert '"status": "pass"' in result.output


def test_cli_pentagon_passes_at_the_weight_cap():
    weight = MAX_VERIFY_WEIGHT["pentagon"]
    result = CliRunner().invoke(assoc, ["verify", "--identity", "pentagon", "--weight", str(weight)])
    assert result.exit_code == 0, result.output
    (check,) = json.loads(result.output)["checks"]
    assert check["status"] == "pass" and check["residual"] < 1e-11


def test_evaluate_series_unit_and_letter():
    one = NCSeries.one(QQ, 3)
    x = BraidElement.generator(1, 2, 3)
    y = BraidElement.generator(2, 3, 3)
    assert not (evaluate_series(one, x, y) - braid_one(3)).coeffs
    a = NCSeries.letter(QQ, "A", 3)
    assert not (evaluate_series(a, x, y) - x).coeffs


def test_pentagon_for_trivial_series():
    assert not five_cycle_residual(NCSeries.one(QQ, 4)).coeffs


def test_scalar_coefficients_pass_through():
    y = BraidElement.generator(1, 3, 2, unit=0.5)
    assert y.coeffs and all(abs(c) <= 0.5 + 1e-12 for c in y.coeffs.values())
