import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mzv.rings import QQ, SYMBOLIC
from mzv.series import NCSeries, character_series
from mzv.shufflealg import (
    ReductionResult,
    RelationRow,
    _PRIMES,
    _certify,
    _mono,
    _pivot_key,
    _product_row,
    _rref_mod,
    admissible_indices,
    convergent_words,
    generate_double_shuffle,
    index_of_word,
    monomial_str,
    reduce_relations,
    shuffle_regularized,
    shuffle_words,
    stuffle_indices,
    stuffle_regularized,
    word_of_index,
    zeta_monomials,
)
from mzv.symbols import SymbolPoly, ZetaSym
from mzv.words import Word, all_words, lyndon_words, words_up_to

import shuffle_reference
from character_recovery import InconsistentCharacterError, recover_character
from series_reference import is_group_like


def brute_shuffle(u: str, v: str) -> dict[str, int]:
    """Independent oracle: enumerate position subsets for the first word."""
    out: dict[str, int] = {}
    n, m = len(u), len(v)
    for positions in itertools.combinations(range(n + m), n):
        letters = [None] * (n + m)
        ui = iter(u)
        vi = iter(v)
        pos = set(positions)
        for i in range(n + m):
            letters[i] = next(ui) if i in pos else next(vi)
        w = Word("".join(letters))
        out[w] = out.get(w, 0) + 1
    return out


def test_index_word_codec():
    assert word_of_index((2,)) == (Word("AB"), -1)
    assert word_of_index((1, 2)) == (Word("ABB"), 1)
    assert word_of_index((1, 1, 2)) == (Word("ABBB"), -1)
    assert index_of_word(Word("ABB")) == ((1, 2), 1)
    for weight in range(1, 6):
        for w in all_words(weight):
            if w.endswith("B"):
                entries, sign = index_of_word(w)
                assert word_of_index(entries) == (w, sign)
    with pytest.raises(ValueError):
        index_of_word(Word("ABA"))


def test_admissible_indices_match_convergent_words():
    for w in range(2, 6):
        idx = admissible_indices(w)
        assert len(idx) == len(convergent_words(w)) == 2 ** (w - 2)
        assert all(i[-1] >= 2 for i in idx)


def test_shuffle_examples():
    u = Word("AB")
    assert shuffle_words(u, "") == {u: 1}
    assert shuffle_words(Word("B"), Word("AB")) == {Word("BAB"): 1, Word("ABB"): 2}
    assert shuffle_words(u, u) == {Word("ABAB"): 2, Word("AABB"): 4}


def test_shuffle_against_brute_force_up_to_3_plus_3():
    for u in words_up_to(3):
        for v in words_up_to(3):
            assert shuffle_words(u, v) == brute_shuffle(u, v), (u, v)


def test_shuffle_commutative_associative_weight_additive():
    rng = random.Random(1)
    ws = words_up_to(3)
    for _ in range(40):
        u, v, w = rng.choice(ws), rng.choice(ws), rng.choice(ws)
        assert shuffle_words(u, v) == shuffle_words(v, u)
        lhs: dict[str, int] = {}
        for t, c in shuffle_words(u, v).items():
            for s, c2 in shuffle_words(t, w).items():
                lhs[s] = lhs.get(s, 0) + c * c2
        rhs: dict[str, int] = {}
        for t, c in shuffle_words(v, w).items():
            for s, c2 in shuffle_words(u, t).items():
                rhs[s] = rhs.get(s, 0) + c * c2
        assert lhs == rhs
        assert all(len(t) == len(u) + len(v) for t in shuffle_words(u, v))


def test_shuffle_coefficient_sum_is_binomial():
    for u in words_up_to(3):
        for v in words_up_to(3):
            total = sum(shuffle_words(u, v).values())
            assert total == math.comb(len(u) + len(v), len(u))


def test_stuffle_examples():
    assert stuffle_indices((3,), ()) == {(3,): 1}
    for k1, k2 in ((2, 3), (2, 2), (4, 5)):
        got = stuffle_indices((k1,), (k2,))
        want = {(k1, k2): 1, (k1 + k2,): 1}
        want[(k2, k1)] = want.get((k2, k1), 0) + 1
        assert got == want
    assert stuffle_indices((1,), (1, 2)) == {(1, 1, 2): 2, (1, 2, 1): 1, (2, 2): 1, (1, 3): 1}


def test_stuffle_commutative_and_associative():
    rng = random.Random(2)
    pool = [(2,), (3,), (1, 2), (2, 1), (1,), (2, 2)]
    for _ in range(25):
        i, j, k = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert stuffle_indices(i, j) == stuffle_indices(j, i)
        lhs: dict[tuple, int] = {}
        for t, c in stuffle_indices(i, j).items():
            for s, c2 in stuffle_indices(t, k).items():
                lhs[s] = lhs.get(s, 0) + c * c2
        rhs: dict[tuple, int] = {}
        for t, c in stuffle_indices(j, k).items():
            for s, c2 in stuffle_indices(i, t).items():
                rhs[s] = rhs.get(s, 0) + c * c2
        assert lhs == rhs


def test_stuffle_matches_truncated_nested_sums():
    # the quasi-shuffle law is forced by the series product of nested sums
    cutoff = 60

    def nested(idx, top):
        depth = len(idx)
        total = 0.0
        for ns in itertools.combinations(range(1, top + 1), depth):
            t = 1.0
            for n, k in zip(ns, idx):
                t *= n ** (-k)
            total += t
        return total

    for i, j in (((2,), (3,)), ((2,), (2, 2))):
        lhs = nested(i, cutoff) * nested(j, cutoff)
        rhs = sum(c * nested(t, cutoff) for t, c in stuffle_indices(i, j).items())
        # both sides are the same finite double sum up to terms beyond the cutoff
        assert abs(lhs - rhs) < 5e-2


def test_stuffle_numeric_for_admissible_operands():
    from mzv.arch_eval import mzv

    for i, j in (((2,), (2,)), ((2,), (3,)), ((2,), (1, 2))):
        lhs = mzv(i) * mzv(j)
        rhs = sum(c * mzv(t) for t, c in stuffle_indices(i, j).items())
        assert abs(lhs - rhs) < 1e-8


def _zeta_known(max_weight):
    known = {}
    for wt in range(2, max_weight + 1):
        for w in convergent_words(wt):
            entries, sign = index_of_word(w)
            known[w] = SymbolPoly.gen(ZetaSym("complex", entries), Fraction(sign))
    return known


def test_recovery_trivial_character():
    known = {w: QQ.zero for wt in range(2, 5) for w in convergent_words(wt)}
    got = recover_character(known, Fraction(0), Fraction(0), 4, QQ)
    f = NCSeries(QQ, 4, got)
    assert f == NCSeries.one(QQ, 4)


def test_recovery_zeta_flavor_divergent_words():
    got = recover_character(_zeta_known(3), SymbolPoly.ZERO, SymbolPoly.ZERO, 3, SYMBOLIC,
                            check_consistency=False)
    assert (got[Word("BAB")] + 2 * got[Word("ABB")]).is_zero()
    assert got[Word("B")].is_zero() and got[Word("A")].is_zero()


def test_recovery_g0_flavor_log_squared():
    from mzv.symbols import ARG_Z, LiSym, LogSym

    log = SymbolPoly.gen(LogSym(ARG_Z))
    known = {}
    for wt in range(2, 4):
        for w in convergent_words(wt):
            entries, sign = index_of_word(w)
            known[w] = SymbolPoly.gen(LiSym(entries, ARG_Z), Fraction(sign))
    got = recover_character(known, log, -SymbolPoly.gen(LiSym((1,), ARG_Z)), 3, SYMBOLIC,
                            check_consistency=False)
    assert (got[Word("AA")] - Fraction(1, 2) * log * log).is_zero()


def test_recovery_agrees_with_character_series():
    rng = random.Random(3)
    for _ in range(10):
        assignments = {w: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for w in lyndon_words(5)}
        f = character_series(assignments, 5, QQ)
        known = {w: f[w] for wt in range(2, 6) for w in convergent_words(wt)}
        got = recover_character(known, f[Word("A")], f[Word("B")], 5, QQ)
        assert NCSeries(QQ, 5, got) == f


def test_recovery_output_is_group_like():
    rng = random.Random(4)
    assignments = {w: Fraction(rng.randint(-4, 4)) for w in lyndon_words(4) if len(w) >= 2}
    f = character_series(assignments, 4, QQ)
    known = {w: f[w] for wt in range(2, 5) for w in convergent_words(wt)}
    got = recover_character(known, Fraction(0), Fraction(0), 4, QQ)
    assert is_group_like(NCSeries(QQ, 4, got))


def test_recovery_rejects_inconsistent_data():
    known = {w: Fraction(0) for wt in range(2, 5) for w in convergent_words(wt)}
    known[Word("AB")] = Fraction(1)  # zeta(2) = 1 but all weight-4 products vanish
    with pytest.raises(InconsistentCharacterError):
        recover_character(known, Fraction(0), Fraction(0), 4, QQ)


def test_regularized_values():
    assert shuffle_regularized((2,)) == {(2,): Fraction(1)}
    assert shuffle_regularized((1,)) == {}
    assert shuffle_regularized((2, 1)) == {(1, 2): Fraction(-2)}
    assert stuffle_regularized((2, 1)) == {(1, 2): Fraction(-1), (3,): Fraction(-1)}
    # deeper trailing ones still resolve to admissible combinations
    for d in ((3, 1), (2, 1, 1), (1, 2, 1)):
        for table in (shuffle_regularized(d), stuffle_regularized(d)):
            assert all(idx[-1] >= 2 for idx in table)


def _indices(weight):
    """All indices (tuples of positive entries) of the given weight."""
    return [tuple(b - a for a, b in zip((0,) + cut, cut + (weight,)))
            for r in range(weight) for cut in itertools.combinations(range(1, weight), r)]


def test_stuffle_regularization_kills_the_product_with_zeta1():
    """sum_t mult_t reg(t) over (1) * j is reg(1) reg(j) = 0 for every index
    j, also when j+(1,) ends in two or more 1's."""
    for weight in range(2, 9):
        for idx in _indices(weight):
            if idx[-1] != 1:
                continue
            total: dict = {}
            for t, mult in stuffle_indices((1,), idx[:-1]).items():
                for base, c in stuffle_regularized(t).items():
                    total[base] = total.get(base, 0) + mult * c
            assert not any(total.values()), idx
    # zeta*(1,1) = T^2/2 - zeta(2)/2 at T = 0
    assert stuffle_regularized((1, 1)) == {(2,): Fraction(-1, 2)}


def test_stuffle_regularization_is_multiplicative_numerically():
    from mzv.arch_eval import mzv

    def value(table):
        return sum(float(c) * mzv(idx) for idx, c in table.items())

    for a in ((2,), (3,), (1, 2)):
        for b in (b for w in range(2, 5) for b in _indices(w) if b[-1] == 1):
            rhs = sum(m * value(stuffle_regularized(t)) for t, m in stuffle_indices(a, b).items())
            assert abs(mzv(a) * value(stuffle_regularized(b)) - rhs) < 1e-8, (a, b)


def test_double_shuffle_weight2_is_empty():
    assert generate_double_shuffle(2) == []
    red = reduce_relations([], 2)
    assert red.rank == 0 and red.basis == zeta_monomials(2)


def test_double_shuffle_weight3_forces_euler_relation():
    rows = generate_double_shuffle(3)
    assert len(rows) == 1
    (row,) = rows
    assert row.coeffs == {((3,),): Fraction(1), ((1, 2),): Fraction(-1)}
    red = reduce_relations(rows, 3)
    assert red.rank == 1
    assert red.expressions[((1, 2),)] == {((3,),): Fraction(1)}


def test_double_shuffle_weight4_dimension_one():
    rows = generate_double_shuffle(4)
    red = reduce_relations(rows, 4)
    assert red.dimension_bound == 1
    assert red.basis == [(((2,), (2,)))] or red.basis == [((2,), (2,))]
    mu = ((2,), (2,))
    assert red.expressions[((4,),)] == {mu: Fraction(2, 5)}
    assert red.expressions[((1, 3),)] == {mu: Fraction(1, 10)}
    assert red.expressions[((2, 2),)] == {mu: Fraction(3, 10)}
    assert red.expressions[((1, 1, 2),)] == {mu: Fraction(2, 5)}


def test_double_shuffle_weight4_pair_example():
    # the (2)x(2) difference row: zeta(4) = 4 zeta(1,3)
    rows = generate_double_shuffle(4)
    diffs = None
    for r in rows:
        if r.coeffs.get(((4,),)) and r.coeffs.get(((1, 3),)) and ((2, 2),) not in r.coeffs and len(r.coeffs) <= 3:
            diffs = r
    red = reduce_relations(rows, 4)
    got = red.expressions[((4,),)]
    want13 = red.expressions[((1, 3),)]
    assert got[((2,), (2,))] == 4 * want13[((2,), (2,))]


def test_double_shuffle_weight5_bound_two():
    rows = generate_double_shuffle(5)
    red = reduce_relations(rows, 5)
    assert red.dimension_bound <= 2


def _zagier_d(n: int) -> int:
    d = [1, 0, 1]
    while len(d) <= n:
        d.append(d[-2] + d[-3])
    return d[n]


@pytest.mark.parametrize("weight", range(2, 11))
def test_dimension_bound_is_zagier_dn(weight):
    red = reduce_relations(generate_double_shuffle(weight), weight)
    assert red.dimension_bound == _zagier_d(weight)


def test_product_rows_vanish_numerically():
    from mzv.arch_eval import evaluate_relation_row

    products = [r for r in generate_double_shuffle(7) if r.provenance.startswith("shuffle product of ")]
    assert [r.provenance for r in products] == ["shuffle product of zeta[1,2]*zeta[2]^2",
                                                "shuffle product of zeta[2]^2*zeta[3]"]
    for row in products:
        residual, tolerance = evaluate_relation_row(row)
        assert abs(residual) <= tolerance < 1e-13, row.provenance


def test_rows_are_weight_homogeneous_and_nonzero():
    for w in (3, 4, 5):
        for row in generate_double_shuffle(w):
            assert row.coeffs
            assert all(sum(sum(i) for i in m) == w for m in row.coeffs)


def test_rows_vanish_numerically():
    from mzv.arch_eval import evaluate_relation_row

    for w in (3, 4, 5):
        for row in generate_double_shuffle(w):
            residual, tolerance = evaluate_relation_row(row)
            assert abs(residual) <= tolerance < 1e-13, row.provenance


def test_reduce_relations_empty_input():
    red = reduce_relations([], 4)
    assert red.rank == 0
    assert sorted(red.basis) == zeta_monomials(4)
    assert red.expressions == {}


def test_monomial_str():
    assert monomial_str(((2,), (2,))) == "zeta[2]^2"
    assert monomial_str(((1, 2),), "p-adic") == "zeta_p[1,2]"


def _dense_reduce(rows, weight):
    """The dense Bareiss reduction over every monomial column, kept as the
    reference for the modular elimination."""
    monos = sorted(zeta_monomials(weight), key=_pivot_key, reverse=True)
    col_of = {m: k for k, m in enumerate(monos)}
    matrix = []
    for row in rows:
        denom = math.lcm(*(c.denominator for c in row.coeffs.values()))
        vec = [0] * len(monos)
        for m, c in row.coeffs.items():
            vec[col_of[m]] = int(c * denom)
        matrix.append(vec)
    pivots = []
    r = 0
    prev = 1
    for col in range(len(monos)):
        sel = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
        if sel is None:
            continue
        matrix[r], matrix[sel] = matrix[sel], matrix[r]
        for i in range(r + 1, len(matrix)):
            if all(x == 0 for x in matrix[i]):
                continue
            for c2 in range(len(monos)):
                if c2 == col:
                    continue
                matrix[i][c2] = (matrix[r][col] * matrix[i][c2] - matrix[i][col] * matrix[r][c2]) // prev
            matrix[i][col] = 0
        prev = matrix[r][col]
        pivots.append((r, col))
        r += 1
    pivot_cols = [c for _, c in pivots]
    basis = sorted((m for k, m in enumerate(monos) if k not in pivot_cols), key=_pivot_key)
    expressions = {}
    for rr, cc in reversed(pivots):
        expr = {}
        lead = Fraction(matrix[rr][cc])
        for c2 in range(cc + 1, len(monos)):
            val = Fraction(matrix[rr][c2])
            if not val:
                continue
            coeff = -val / lead
            tgt = monos[c2]
            if tgt in expressions:
                for bm, bc in expressions[tgt].items():
                    expr[bm] = expr.get(bm, Fraction(0)) + coeff * bc
            else:
                expr[tgt] = expr.get(tgt, Fraction(0)) + coeff
        expressions[monos[cc]] = {m: c for m, c in expr.items() if c}
    return ReductionResult(weight, len(pivots), basis, expressions)


@pytest.mark.parametrize("weight", range(2, 9))
def test_sparse_reduction_equals_dense_bareiss(weight):
    rows = generate_double_shuffle(weight)
    got = reduce_relations(rows, weight)
    want = _dense_reduce(rows, weight)
    assert got.rank == want.rank
    assert got.basis == want.basis
    # same pivots in the same order, every expression value, and the terms
    # of each expression in basis order
    assert list(got.expressions) == list(want.expressions)
    assert got.expressions == want.expressions
    for mono, expr in got.expressions.items():
        assert list(expr) == [b for b in got.basis if b in expr], mono


def _canonical_sha256(red):
    doc = {"rank": red.rank, "basis": [repr(m) for m in red.basis],
           "expressions": sorted((repr(m), sorted((repr(b), str(c)) for b, c in e.items()))
                                 for m, e in red.expressions.items())}
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# recorded from the fraction-free elimination the modular one replaced
@pytest.mark.parametrize("weight,digest", [
    (9, "7067cadbc7e7b849e72427d25aadf3fb7cae62da47d160c2b4d48151a80c0ac0"),
    (10, "ff07d28f5efb47f6b22ca0c79ca93e5ef0b7a5a694b01438684c300a31712591"),
])
def test_reduction_equals_the_fraction_free_one(weight, digest):
    assert _canonical_sha256(reduce_relations(generate_double_shuffle(weight), weight)) == digest


def _integer_rows(weight):
    monos = sorted(zeta_monomials(weight), key=_pivot_key, reverse=True)
    col_of = {m: k for k, m in enumerate(monos)}
    matrix = []
    for row in generate_double_shuffle(weight):
        denom = math.lcm(*(c.denominator for c in row.coeffs.values()))
        matrix.append({col_of[m]: int(c * denom) for m, c in row.coeffs.items()})
    return monos, matrix


def test_primes_are_prime_and_below_2_31():
    assert len(set(_PRIMES)) == len(_PRIMES)
    for p in _PRIMES:
        assert p < 2**31 and all(p % d for d in itertools.chain((2,), range(3, math.isqrt(p) + 1, 2))), p


def test_certificate_rejects_any_changed_coefficient():
    weight = 7
    monos, matrix = _integer_rows(weight)
    red = reduce_relations(generate_double_shuffle(weight), weight)
    col_of = {m: k for k, m in enumerate(monos)}
    pivots = sorted(col_of[m] for m in red.expressions)
    free = sorted(col_of[m] for m in red.basis)
    values = [[-red.expressions[monos[c]].get(monos[f], Fraction(0)) for f in free] for c in pivots]
    assert _certify(matrix, pivots, free, values)
    for i, j in itertools.product(range(len(pivots)), range(len(free))):
        changed = [list(vs) for vs in values]
        changed[i][j] += Fraction(1, 7919)
        assert not _certify(matrix, pivots, free, changed), (monos[pivots[i]], monos[free[j]])


def test_certificate_rejects_a_spanning_candidate_out_of_echelon_form():
    # pivot on the basis monomial zeta(2)^2 instead of the first pivot: the
    # rows span the same space, but the new free column is left of pivots
    weight = 4
    monos, matrix = _integer_rows(weight)
    red = reduce_relations(generate_double_shuffle(weight), weight)
    col_of = {m: k for k, m in enumerate(monos)}
    (f,) = [col_of[m] for m in red.basis]
    pivots = sorted(col_of[m] for m in red.expressions)
    e = {c: -red.expressions[monos[c]][monos[f]] for c in pivots}  # row c: x_c + e_c x_f
    first = pivots[0]
    swapped = sorted(pivots[1:] + [f])
    values = [[1 / e[first]] if c == f else [-e[c] / e[first]] for c in swapped]
    assert not _certify(matrix, swapped, [first], values)


@pytest.fixture(scope="module")
def weight8_reference():
    return _dense_reduce(generate_double_shuffle(8), 8)


@pytest.mark.parametrize("first", [
    (5,),            # fewer pivots: restarts the combination
    (3,),            # as many pivots, at later columns: restarts it
    (10007,),        # the right pivots, but too small to lift the coefficients from
    (10007, 5),      # combined with the next good prime; 5 in between is skipped
])
def test_reduction_survives_unlucky_and_small_primes(monkeypatch, weight8_reference, first):
    from mzv import shufflealg

    monos, matrix = _integer_rows(8)
    true_pivots = _rref_mod(matrix, len(monos), _PRIMES[0])[0]
    assert [_rref_mod(matrix, len(monos), p)[0] == true_pivots for p in first] == [p == 10007 for p in first]
    calls = []
    monkeypatch.setattr(shufflealg, "_PRIMES", first + _PRIMES)
    monkeypatch.setattr(shufflealg, "_rref_mod", lambda *args: calls.append(args[2]) or _rref_mod(*args))
    got = reduce_relations(generate_double_shuffle(8), 8)
    assert calls == list(first) + [_PRIMES[0]]
    want = weight8_reference
    assert (got.rank, got.basis, got.expressions) == (want.rank, want.basis, want.expressions)


def _gauss_jordan(matrix, ncols, p=None):
    """Textbook dense Gauss-Jordan over GF(p), or over Q in Fractions when p
    is None: the pivot columns, the free columns, and each pivot row's
    free-column entries in the reduced row echelon form."""
    field = (lambda x: x % p) if p else Fraction
    rows = [[field(row.get(c, 0)) for c in range(ncols)] for row in matrix]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][col], -1, p) if p else 1 / rows[r][col]
        rows[r] = [field(x * inv) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [field(x - row[col] * y) for x, y in zip(row, rows[r])]
        pivots.append(col)
    free = [c for c in range(ncols) if c not in pivots]
    return pivots, free, [[rows[r][f] for f in free] for r in range(len(pivots))]


@st.composite
def _sparse_matrices(draw):
    """A prime and sparse integer rows with entries that vanish mod p, plus
    duplicated, dependent and empty rows, in any order."""
    p = draw(st.sampled_from([3, 5, 7, 10007, _PRIMES[0]]))
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-20, 20), st.integers(-3, 3).map(lambda k: k * p))
    base = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols), min_size=1, max_size=6))
    matrix = list(base)
    for kind in draw(st.lists(st.sampled_from(["duplicate", "combination", "empty"]), max_size=4)):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        matrix.append({"duplicate": dict(a), "empty": {},
                       "combination": {c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()}}[kind])
    return p, ncols, draw(st.permutations(matrix))


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_rref_mod_equals_dense_gauss_jordan(case):
    p, ncols, matrix = case
    got = _rref_mod(matrix, ncols, p)
    assert got == _gauss_jordan(matrix, ncols, p)
    # over Q: the rank mod p is at most the rational one, and where the
    # pivots agree the echelon form mod p is the rational one reduced mod p
    pivots, free, image = _gauss_jordan(matrix, ncols)
    assert len(got[0]) <= len(pivots)
    if got[0] == pivots:
        assert got[2] == [[v.numerator * pow(v.denominator, -1, p) % p for v in vs] for vs in image]


def _table_regularized(index, table):
    """shuffle_regularized through the full character table that
    recover_character builds from free zeta symbols."""
    word, sign = word_of_index(index)
    out = {}
    for mono, c in table[word].terms.items():
        ((sym, _),) = mono
        out[sym.index] = out.get(sym.index, Fraction(0)) + sign * c
    return {k: v for k, v in out.items() if v}


def test_regularization_equals_character_table():
    top = 8
    table = recover_character(_zeta_known(top), SymbolPoly.ZERO, SymbolPoly.ZERO, top, SYMBOLIC,
                              check_consistency=False)
    for wt in range(2, top):
        for j in admissible_indices(wt):
            for ones in ((1,), (1, 1)):
                d = tuple(j) + ones
                if sum(d) > top:
                    continue
                want = _table_regularized(d, table)
                assert list(shuffle_regularized(d).items()) == list(want.items()), d
    assert shuffle_regularized((1, 1)) == {}
    with pytest.raises(ValueError):
        shuffle_regularized(())


def _pair_shuffle_row(a, b):
    """The integral-shuffle row of a pair as it was built before it shared
    the product-row builder: one shuffle of the two words, read back as
    indices, zero totals dropped, subtracted from the product monomial."""
    (wa, sa), (wb, sb) = word_of_index(a), word_of_index(b)
    expansion: dict = {}
    for t, m in shuffle_words(wa, wb).items():
        entries, st = index_of_word(t)
        mono = _mono(entries)
        expansion[mono] = expansion.get(mono, Fraction(0)) + Fraction(m * st * sa * sb)
    coeffs = {_mono(a, b): Fraction(1)}
    for m, c in expansion.items():
        if c:
            coeffs[m] = coeffs.get(m, Fraction(0)) - c
    return RelationRow(sum(a) + sum(b), coeffs)


@pytest.mark.parametrize("weight", range(4, 11))
def test_pair_shuffle_rows_are_product_rows(weight):
    """The integral-shuffle row of every pair is its product row: the same
    terms in the same dict order, never empty."""
    lower = [idx for wt in range(2, weight - 1) for idx in admissible_indices(wt)]
    pairs = [(a, b) for a, b in itertools.combinations_with_replacement(lower, 2) if sum(a) + sum(b) == weight]
    assert pairs
    for a, b in pairs:
        got = RelationRow(weight, _product_row(_mono(a, b)))
        assert list(got.coeffs.items()) == list(_pair_shuffle_row(a, b).coeffs.items()), (a, b)


def test_integer_form_is_shared_exactly_by_rescaled_rows():
    z2, z3, z4, z22 = (2,), (3,), (4,), (2, 2)
    row = RelationRow(4, {_mono(z4): Fraction(2, 3), _mono(z22): Fraction(-1, 6), _mono(z2, z2): 1})
    # the largest monomial by pivot preference is zeta(2,2): its entry is positive
    assert max(row.coeffs, key=_pivot_key) == _mono(z22)
    assert row.integer_form == {_mono(z4): -4, _mono(z22): 1, _mono(z2, z2): -6}
    scaled = RelationRow(4, {m: Fraction(-7, 5) * c for m, c in row.coeffs.items()})
    assert scaled.integer_form == row.integer_form
    other = RelationRow(4, {_mono(z4): Fraction(2, 3), _mono(z22): Fraction(1, 6), _mono(z2, z2): 1})
    assert other.integer_form != row.integer_form
    assert RelationRow(5, {_mono(z2, z3): 3, _mono((5,)): -6}).integer_form == {_mono(z2, z3): -1, _mono((5,)): 2}


@pytest.mark.parametrize("weight", range(2, 11))
def test_integer_rows_equal_the_fraction_reference(weight):
    """The generator gives the rows of the Fraction reference, in the same
    order and with the same provenance, each with the same monomials in the
    same order and equal coefficients that print alike; all of them ints."""
    got = generate_double_shuffle(weight)
    want = shuffle_reference.generate_double_shuffle(weight)
    assert [row.provenance for row in got] == [row.provenance for row in want]
    for g, w in zip(got, want):
        assert g.weight == w.weight == weight
        assert list(g.coeffs) == list(w.coeffs), g.provenance
        assert list(g.coeffs.values()) == list(w.coeffs.values()), g.provenance
        assert [str(c) for c in g.coeffs.values()] == [str(c) for c in w.coeffs.values()], g.provenance
        assert all(type(c) is int for c in g.coeffs.values()), g.provenance


def test_memoized_helpers_hand_out_fresh_values():
    """Changing what a cached helper returned leaves its next answer as it was."""
    for helper, arg in ((stuffle_regularized, (2, 1)), (stuffle_regularized, (2, 1, 1)),
                        (shuffle_regularized, (2, 1, 1)), (zeta_monomials, 6)):
        want = helper(arg)
        helper(arg).clear()
        assert helper(arg) == want and want, (helper.__name__, arg)
    assert isinstance(admissible_indices(5), tuple)
