"""The substitution and inversion kernels against straightforward references.

Each reference is the earlier, rebuild-per-term form of a kernel: invert
by a scan over every coefficient of each weight, substitute and
evaluate_series by adding one image per word, SymbolPoly.substitute by
adding one product per term.  The kernels must give the same values, and
invert over the complex ring the same floats in the same order.
"""

import random
from fractions import Fraction

import pytest

from mzv.associator import build_numeric_kz
from mzv.braid import BraidElement, evaluate_series
from mzv.rings import QQ, SYMBOLIC, complex_ring
from mzv.series import NCSeries, coproduct, is_group_like, random_series
from mzv.symbols import ARG_Z, LambdaSym, LiSym, LogSym, SymbolPoly, ZetaSym, parse_symbol_poly
from mzv.words import all_words


def _invert_reference(f: NCSeries) -> NCSeries:
    inv0 = f.ring.invert(f.constant_term())
    n = f.truncation
    out = {"": inv0}
    by_weight = [f.weight_part(k) for k in range(n + 1)]
    for weight in range(1, n + 1):
        for w in all_words(weight):
            acc = None
            for k in range(1, weight + 1):
                for u, cu in by_weight[k].items():
                    if w.startswith(u):
                        g = out.get(w[len(u):])
                        if g is not None:
                            term = cu * g
                            acc = term if acc is None else acc + term
            if acc is not None:
                out[w] = -(inv0 * acc)
    return NCSeries(f.ring, n, out)


def _substitute_reference(f: NCSeries, img_a: NCSeries, img_b: NCSeries) -> NCSeries:
    n = min(f.truncation, img_a.truncation, img_b.truncation)
    images = {"A": img_a.truncate(n), "B": img_b.truncate(n)}
    memo = {"": NCSeries.one(f.ring, n)}

    def image(word):
        if word not in memo:
            memo[word] = image(word[:-1]) * images[word[-1]]
        return memo[word]

    acc = NCSeries.zero(f.ring, n)
    for w, c in f.coeffs.items():
        if len(w) <= n:
            acc = acc + image(w).scale(c)
    return acc


def _evaluate_series_reference(f: NCSeries, x: BraidElement, y: BraidElement, cap: int) -> BraidElement:
    images = {"A": x, "B": y}
    memo = {"": BraidElement.one(cap)}

    def image(letters):
        if letters not in memo:
            memo[letters] = image(letters[:-1]) * images[letters[-1]]
        return memo[letters]

    acc = BraidElement(cap, {}, _reduced=True)
    for w, c in f.coeffs.items():
        if len(w) <= cap:
            acc = acc + image(w).scale(c)
    return acc


def _symbol_substitute_reference(poly: SymbolPoly, mapping) -> SymbolPoly:
    out = SymbolPoly.ZERO
    for mono, c in poly.terms.items():
        term = SymbolPoly.constant(c)
        for g, e in mono:
            base = mapping.get(g)
            term = term * (base**e if base is not None else SymbolPoly({((g, e),): Fraction(1)}))
        out = out + term
    return out


_GENS = [LambdaSym("c", "AB"), LambdaSym("c", "AAB"), ZetaSym("complex", (2,)), LiSym("plain", (1, 2), ARG_Z),
         LogSym(ARG_Z)]


def _random_poly(rng, gens=_GENS, terms=3, max_exp=2) -> SymbolPoly:
    out = SymbolPoly.ZERO
    for _ in range(rng.randint(1, terms)):
        mono = SymbolPoly.constant(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for g in rng.sample(gens, rng.randint(0, 2)):
            mono = mono * SymbolPoly.gen(g) ** rng.randint(1, max_exp)
        out = out + mono
    return out


def _random_symbolic_series(rng, n, constant=None) -> NCSeries:
    coeffs = {"": SymbolPoly.constant(constant if constant is not None else rng.randint(-2, 2))}
    for w in (w for k in range(1, n + 1) for w in all_words(k)):
        if rng.random() < 0.6:
            coeffs[w] = _random_poly(rng)
    return NCSeries(SYMBOLIC, n, coeffs)


@pytest.mark.parametrize("seed", range(6))
def test_invert_matches_reference_over_qq_and_symbolic(seed):
    rng = random.Random(seed)
    n = 3 + seed % 3
    f = random_series(QQ, n, rng, constant=Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
    assert f.invert() == _invert_reference(f)
    g = _random_symbolic_series(rng, 4, constant=rng.choice([-2, 1, 3]))
    assert g.invert() == _invert_reference(g)


@pytest.mark.parametrize("n", [4, 6])
def test_invert_over_the_complex_ring_is_bit_identical(n):
    ring = complex_ring(1e-9)
    rng = random.Random(n)
    coeffs = {w: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for k in range(n + 1) for w in all_words(k)
              if rng.random() < 0.8}
    coeffs[""] = complex(1.5, -0.25)
    for f in (NCSeries(ring, n, coeffs), build_numeric_kz(n)):
        assert list(f.invert().coeffs.items()) == list(_invert_reference(f).coeffs.items())


@pytest.mark.parametrize("seed", range(6))
def test_substitute_matches_reference_over_qq_and_symbolic(seed):
    rng = random.Random(100 + seed)
    n = 3 + seed % 3
    f = random_series(QQ, n, rng)
    img_a = random_series(QQ, n, rng, constant=0)
    img_b = random_series(QQ, n, rng, constant=0)
    assert f.substitute(img_a, img_b) == _substitute_reference(f, img_a, img_b)
    g = _random_symbolic_series(rng, 4)
    sa, sb = _random_symbolic_series(rng, 4, constant=0), _random_symbolic_series(rng, 4, constant=0)
    assert g.substitute(sa, sb) == _substitute_reference(g, sa, sb)


def _random_braid(rng, cap, unit=Fraction(1)):
    acc = BraidElement(cap, {}, _reduced=True)
    pairs = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 5)]
    for _ in range(3):
        i, j = rng.choice(pairs)
        acc = acc + BraidElement.generator(i, j, cap, unit=unit * Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return acc


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_series_matches_reference(seed):
    rng = random.Random(200 + seed)
    cap = 4
    f = random_series(QQ, cap, rng)
    x, y = _random_braid(rng, cap), _random_braid(rng, cap)
    got = evaluate_series(f, x, y, cap)
    want = _evaluate_series_reference(f, x, y, cap)
    assert (got - want).is_zero()
    g = _random_symbolic_series(rng, 3)
    got = evaluate_series(g, x, y, 3)
    want = _evaluate_series_reference(g, x, y, 3)
    assert (got - want).is_zero()


@pytest.mark.parametrize("seed", range(10))
def test_symbol_substitute_matches_reference(seed):
    rng = random.Random(300 + seed)
    poly = _random_poly(rng, terms=6, max_exp=3)
    mapping = {g: _random_poly(rng, gens=[LambdaSym("p", "AB"), LambdaSym("p", "ABB"), LogSym(ARG_Z)])
               for g in rng.sample(_GENS, 3)}
    mapping[rng.choice(_GENS)] = SymbolPoly.ZERO
    got = poly.substitute(mapping)
    assert got == _symbol_substitute_reference(poly, mapping)
    assert parse_symbol_poly(str(got)) == got
    # a monomial image cache shared between calls with one mapping
    images = {}
    other = _random_poly(rng, terms=6, max_exp=3)
    for p in (poly, other, poly * other):
        assert p.substitute(mapping, images) == _symbol_substitute_reference(p, mapping)
    assert images


def test_group_like_fails_on_a_pair_missing_from_the_coproduct():
    # 1 + A: every coproduct term is a product, but f[A] f[A] = 1 has no
    # coproduct term (A, A)
    f = NCSeries(QQ, 2, {"": Fraction(1), "A": Fraction(1)})
    cop = coproduct(f)
    assert ("A", "A") not in cop
    assert all(c == f[u] * f[v] for (u, v), c in cop.items())
    assert not is_group_like(f)
    assert is_group_like(NCSeries.letter(QQ, "A", 2).exp())


def test_group_like_fails_on_a_coproduct_key_with_no_product_pair():
    # 1 + AB: every product of two coefficients matches the coproduct, but
    # its (A, B) and (B, A) terms pair two zero coefficients
    f = NCSeries(QQ, 2, {"": Fraction(1), "AB": Fraction(1)})
    cop = coproduct(f)
    assert cop[("A", "B")] == cop[("B", "A")] == 1
    assert all(cop.get((u, v), 0) == f[u] * f[v] for u in f.coeffs for v in f.coeffs if len(u) + len(v) <= 2)
    assert not is_group_like(f)
