import itertools
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from mzv.braid import (
    FREE_LETTERS,
    BraidElement,
    evaluate_series,
    generator_form,
    graded_dimension,
    reduce_monomial_dict,
    _quadratic_relations,
    _reduction_table,
)
from mzv.cli import assoc
from mzv.rings import QQ
from mzv.series import NCSeries


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
        assert acc.is_zero(), i


def test_disjoint_commutators_vanish():
    pairs = list(itertools.combinations(range(1, 6), 2))
    for a, b in itertools.combinations(pairs, 2):
        if set(a) & set(b):
            continue
        x = BraidElement.generator(*a, 4)
        y = BraidElement.generator(*b, 4)
        assert x.commutator(y).is_zero(), (a, b)


def test_infinitesimal_braid_relations_follow():
    # [X_ij, X_ik + X_jk] = 0 is a consequence of the presentation
    for i, j, k in itertools.permutations(range(1, 6), 3):
        x = BraidElement.generator(i, j, 3)
        s = BraidElement.generator(i, k, 3) + BraidElement.generator(j, k, 3)
        assert x.commutator(s).is_zero(), (i, j, k)


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
            assert BraidElement(4, coeffs).is_zero()


def test_graded_dimensions_are_stable():
    assert graded_dimension(1) == 5
    assert [graded_dimension(d) for d in (2, 3, 4)] == [19, 65, 211]
    # the Hilbert series of U(f_3) (x) U(f_2), from t_{0,5} = f_3 x| f_2
    assert [graded_dimension(d) for d in range(6)] == [3 ** (d + 1) - 2 ** (d + 1) for d in range(6)]


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_reduction_table_equals_rref_of_the_whole_ideal(degree):
    table = _reduction_table(degree)
    assert table == _rref_table(degree)
    for expr in table.values():
        assert list(expr) == sorted(expr)


def test_float_reduction_is_bit_identical_to_exact_table():
    rng = random.Random(5)
    coeffs = {}
    for _ in range(300):
        m = tuple(rng.randrange(len(FREE_LETTERS)) for _ in range(rng.randint(0, 5)))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        coeffs[m] = c if rng.random() < 0.8 else c.real
    want = {}
    for m, c in coeffs.items():
        expr = _reduction_table(len(m)).get(m)
        if expr is None:
            want[m] = want[m] + c if m in want else c
            continue
        for m2, c2 in expr.items():
            add = c * Fraction(c2)
            want[m2] = want[m2] + add if m2 in want else add

    def bits(reduced):
        return [(m, type(c), c.real.hex(), c.imag.hex()) for m, c in reduced.items()]

    assert bits(reduce_monomial_dict(coeffs)) == bits(want)


def test_cli_pentagon_weight5_passes():
    result = CliRunner().invoke(assoc, ["verify", "--identity", "pentagon", "--weight", "5"])
    assert result.exit_code == 0, result.output
    assert '"status": "pass"' in result.output


def test_evaluate_series_unit_and_letter():
    one = NCSeries.one(QQ, 3)
    x = BraidElement.generator(1, 2, 3)
    y = BraidElement.generator(2, 3, 3)
    assert (evaluate_series(one, x, y) - BraidElement.one(3)).is_zero()
    a = NCSeries.letter(QQ, "A", 3)
    assert (evaluate_series(a, x, y) - x).is_zero()


def test_pentagon_for_trivial_series():
    one = NCSeries.one(QQ, 4)
    pairs = [(1, 2, 2, 3), (3, 4, 4, 5), (5, 1, 1, 2), (2, 3, 3, 4), (4, 5, 5, 1)]
    acc = BraidElement.one(4)
    for i, j, k, l in pairs:
        acc = acc * evaluate_series(one, BraidElement.generator(i, j, 4), BraidElement.generator(k, l, 4))
    assert (acc - BraidElement.one(4)).is_zero()


def test_scalar_coefficients_pass_through():
    x = BraidElement.generator(1, 3, 2, unit=1.0)
    y = x.scale(0.5)
    assert all(abs(c) <= 0.5 + 1e-12 for c in y.coeffs.values())
