"""The substitution, inversion and product kernels against straightforward references.

Each reference is the earlier, rebuild-per-term form of a kernel: invert
by the general prefix recursion (on group-like series, where it equals the
antipode), NCSeries.substitute and evaluate_series by adding the image of
every word, built and held per prefix, SymbolPoly.substitute by adding one product per term, the NCSeries
product by testing the length of every pair, the BraidElement product and
reduce_monomial_dict by one `_product` per pair of monomials, and the
SymbolPoly arithmetic before its generators were interned.  The kernels
must give the same values, and the product over the complex ring the same
floats in the same order.  Over the complex ring the reference inverse
rounds where the antipode only permutes and negates, and a substitution sums
in Horner order, so both agree with their references within a stated
rounding bound.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from mzv.associator import build_numeric_kz
from mzv.braid import BraidElement, _move_right, _split, evaluate_series, reduce_monomial_dict
from mzv.rings import QQ, SYMBOLIC, complex_ring
from mzv.series import NCSeries, character_series
from mzv.symbols import (
    ARG_ABS_Z_SQ,
    ARG_ONE_MINUS_Z,
    ARG_Z,
    ARG_Z_CONJ,
    ARG_Z_POW_P,
    Z,
    LambdaSym,
    LiSym,
    LogSym,
    SymbolPoly,
    ZetaSym,
    ZSym,
    _d_generator,
    _wrap,
    formal_derivative,
    parse_symbol_poly,
)
from mzv.words import all_words, lyndon_words

from series_reference import coproduct, is_group_like, random_series, reference_invert


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

    acc = BraidElement(cap, {})
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


def _random_character(rng, ring, n, value) -> NCSeries:
    return character_series({w: value(rng) for w in lyndon_words(n)}, n, ring)


@pytest.mark.parametrize("seed", range(6))
def test_invert_matches_reference_over_qq_and_symbolic(seed):
    rng = random.Random(seed)
    n = 3 + seed % 3
    f = _random_character(rng, QQ, n, lambda r: Fraction(r.randint(-4, 4), r.randint(1, 3)))
    assert f.invert() == reference_invert(f)
    g = _random_character(rng, SYMBOLIC, 4, _random_poly)
    assert g.invert() == reference_invert(g)


@pytest.mark.parametrize("n", [4, 6])
def test_invert_over_the_complex_ring_matches_reference(n):
    ring = complex_ring(1e-9)
    f = _random_character(random.Random(n), ring, n, lambda r: complex(r.uniform(-2, 2), r.uniform(-2, 2)))
    for g in (f, build_numeric_kz(n)):
        inv, want = g.invert(), reference_invert(g)
        scale = max(abs(c) for c in want.coeffs.values())
        assert inv.coeffs.keys() == want.coeffs.keys()
        assert max(abs(inv[w] - c) for w, c in want.coeffs.items()) <= 1e-12 * scale


def _series_with_tail(ring, truncation, top, rng, coeff) -> NCSeries:
    """A series with zero constant term and terms up to length `top`."""
    return NCSeries(ring, truncation, {w: coeff() for k in range(1, top + 1) for w in all_words(k)
                                       if rng.random() < 0.6})


@pytest.mark.parametrize("seed", range(6))
def test_substitute_matches_reference_over_qq_and_symbolic(seed):
    """Also for images of a higher truncation than the series, with terms past
    it, and of unequal truncations: the result stops at the least of the three."""
    rng = random.Random(100 + seed)
    n = 3 + seed % 3
    f = random_series(QQ, n, rng)
    img_a = random_series(QQ, n, rng, constant=0)
    img_b = random_series(QQ, n, rng, constant=0)
    assert f.substitute(img_a, img_b) == _substitute_reference(f, img_a, img_b)
    g = _random_symbolic_series(rng, 4)
    sa, sb = _random_symbolic_series(rng, 4, constant=0), _random_symbolic_series(rng, 4, constant=0)
    assert g.substitute(sa, sb) == _substitute_reference(g, sa, sb)

    def coeff():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for ta, tb in ((n + 2, n + 2), (n - 1, n + 1), (n + 1, 2)):
        img_a, img_b = _series_with_tail(QQ, ta, ta, rng, coeff), _series_with_tail(QQ, tb, tb, rng, coeff)
        got = f.substitute(img_a, img_b)
        assert got.truncation == min(n, ta, tb)
        assert got == _substitute_reference(f, img_a, img_b)


@pytest.mark.parametrize("seed", range(3))
def test_substitute_over_the_exact_complex_ring_is_within_rounding(seed):
    """Over complex_ring(0.0) no coefficient is dropped, and Horner's rule only
    reorders the sums: every coefficient is within 1e-12 of the reference,
    relative to the same sum taken over the absolute values."""
    ring = complex_ring(0.0)
    rng = random.Random(170 + seed)

    def coeff():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    n = 5
    f = NCSeries(ring, n, {w: coeff() for k in range(n + 1) for w in all_words(k) if rng.random() < 0.7})
    img_a, img_b = _series_with_tail(ring, n, 3, rng, coeff), _series_with_tail(ring, 6, 6, rng, coeff)
    got, want = f.substitute(img_a, img_b), _substitute_reference(f, img_a, img_b)

    def absolute(g):
        return NCSeries(ring, g.truncation, {w: abs(c) for w, c in g.coeffs.items()})

    scale = _substitute_reference(absolute(f), absolute(img_a), absolute(img_b))
    assert got.truncation == want.truncation == n
    assert set(got.coeffs) <= set(scale.coeffs) and set(want.coeffs) <= set(scale.coeffs)
    for w, bound in scale.coeffs.items():
        assert abs(got.coeffs.get(w, 0) - want.coeffs.get(w, 0)) <= 1e-12 * bound.real


def _random_braid(rng, cap, unit=Fraction(1)):
    acc = BraidElement(cap, {})
    pairs = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 5)]
    for _ in range(3):
        i, j = rng.choice(pairs)
        acc = acc + BraidElement.generator(i, j, cap, unit=unit * Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return acc


def _edge_series(kind, ring, n, rng):
    def coeff():
        return ring.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) if ring is QQ else _random_poly(rng)

    if kind == "zero":
        return NCSeries.zero(ring, n)
    if kind == "constant":
        return NCSeries(ring, n, {"": coeff()})
    # "sparse": only words of length >= 3, so the shorter prefixes carry no coefficient
    return NCSeries(ring, n, {w: coeff() for k in range(3, n + 1) for w in all_words(k) if rng.random() < 0.5})


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_series_matches_reference(seed):
    """Horner over the prefixes that occur is the sum of the word images, also for
    words that skip prefixes, the zero and constant series, a cap below the
    truncation, and an image of degrees 1 and 2."""
    rng = random.Random(200 + seed)
    cap = 4
    f = random_series(QQ, cap, rng)
    x, y = _random_braid(rng, cap), _random_braid(rng, cap)
    cases = [(f, x, y, cap), (_random_symbolic_series(rng, 3), x, y, 3)]
    y2 = y + _random_braid(rng, cap) * _random_braid(rng, cap)
    for ring in (QQ, SYMBOLIC):
        for kind in ("sparse", "zero", "constant"):
            g = _edge_series(kind, ring, 5, rng)
            cases += [(g, x, y2, 3), (g, x, y2, 4)]
    for g, a, b, c in cases:
        got, want = evaluate_series(g, a, b, c), _evaluate_series_reference(g, a, b, c)
        assert got.degree_cap == want.degree_cap == c
        assert (got - want).is_zero()
        assert g.coeffs or got.is_zero()


def _product(m1, m2):
    """m1*m2 for standard monomials, as integer multiples of standard monomials."""
    f1, b1 = _split(m1)
    f2, b2 = _split(m2)
    return ((f1 + mid + b2, k) for mid, k in _move_right(b1, f2))


def _braid_product_reference(a: BraidElement, b: BraidElement) -> BraidElement:
    """a*b by one `_product` per pair of monomials."""
    cap = min(a.degree_cap, b.degree_cap)
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            if len(m1) + len(m2) <= cap:
                for m, k in _product(m1, m2):
                    add = c1 * c2 * k
                    out[m] = out[m] + add if m in out else add
    return BraidElement(cap, out)


def _random_standard(rng, cap, fibre=True, base=True) -> BraidElement:
    """Up to six standard monomials (fibre letters 0-2, then base letters 3-4)."""
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        d = rng.randint(0, cap)
        nf = rng.randint(0, d) if fibre and base else (d if fibre else 0)
        m = tuple(rng.randrange(3) for _ in range(nf)) + tuple(rng.randrange(3, 5) for _ in range(d - nf))
        coeffs[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return BraidElement(cap, coeffs)


@pytest.mark.parametrize("seed", range(12))
def test_braid_product_matches_the_pairwise_reference(seed):
    """Fibre-only left factors take the concatenation shortcut, base-only right
    factors have no fibre word to move past, unequal caps truncate, and
    symbolic coefficients multiply like rationals."""
    rng = random.Random(500 + seed)
    left = [_random_standard(rng, 4), _random_standard(rng, 4, base=False), _random_standard(rng, 3),
            _random_standard(rng, 4).scale(_random_poly(rng))]
    right = [_random_standard(rng, 4), _random_standard(rng, 4, fibre=False), _random_standard(rng, 5)]
    for a in left:
        for b in right:
            got, want = a * b, _braid_product_reference(a, b)
            assert got.degree_cap == want.degree_cap
            assert got.coeffs == want.coeffs


def _reduce_reference(coeffs: dict) -> dict:
    """Each word in standard monomials by one `_product` per letter."""
    out = {}
    for word, c in coeffs.items():
        terms = {(): 1}
        for x in word:
            nxt = {}
            for m, k in terms.items():
                for m2, k2 in _product(m, (x,)):
                    nxt[m2] = nxt.get(m2, 0) + k * k2
            terms = nxt
        for m, k in terms.items():
            if k:
                add = c * k
                out[m] = out[m] + add if m in out else add
    return out


@pytest.mark.parametrize("seed", range(4))
def test_reduce_monomial_dict_matches_the_letterwise_reference(seed):
    """Arbitrary words in the five letters, base letters before fibre letters
    included, with rational, symbolic and complex coefficients."""
    rng = random.Random(600 + seed)
    words = {tuple(rng.randrange(5) for _ in range(rng.randint(0, 5))) for _ in range(12)}
    for coeff in (lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3)), lambda: _random_poly(rng),
                  lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))):
        coeffs = {w: coeff() for w in words}
        got, want = reduce_monomial_dict(coeffs), _reduce_reference(coeffs)
        assert list(got) == list(want)
        assert all(got[m] == want[m] for m in want)


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


# -- the NCSeries product against the pair loop that tests every length ----------


def _series_mul_reference(f: NCSeries, g: NCSeries) -> NCSeries:
    n = min(f.truncation, g.truncation)
    out = {}
    for u, cu in f.coeffs.items():
        room = n - len(u)
        if room < 0:
            continue
        for v, cv in g.coeffs.items():
            if len(v) > room:
                continue
            w = u + v
            add = cu * cv
            out[w] = out[w] + add if w in out else add
    return NCSeries(f.ring, n, out)


def _shuffled(f: NCSeries, rng) -> NCSeries:
    items = list(f.coeffs.items())
    rng.shuffle(items)
    return NCSeries(f.ring, f.truncation, dict(items))


def _exact_coeffs(f: NCSeries) -> list:
    """The coefficients in dict order: SymbolPoly terms in their order, floats bit for bit."""
    if isinstance(next(iter(f.coeffs.values()), None), SymbolPoly):
        return [(w, list(c.terms.items())) for w, c in f.coeffs.items()]
    if isinstance(next(iter(f.coeffs.values()), None), complex):
        return [(w, c.real.hex(), c.imag.hex()) for w, c in f.coeffs.items()]
    return list(f.coeffs.items())


def _random_complex_series(rng, n) -> NCSeries:
    coeffs = {w: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for k in range(n + 1) for w in all_words(k)
              if rng.random() < 0.7}
    return NCSeries(complex_ring(1e-9), n, coeffs)


@pytest.mark.parametrize("seed", range(4))
def test_series_product_matches_the_pair_loop_in_order(seed):
    rng = random.Random(500 + seed)
    cases = [(random_series(QQ, 5, rng), random_series(QQ, 4, rng)),
             (_random_symbolic_series(rng, 4), _random_symbolic_series(rng, 3)),
             (_random_complex_series(rng, 5), _random_complex_series(rng, 6)),
             (build_numeric_kz(4 + seed % 2), _random_complex_series(rng, 5))]
    for f, g in cases:
        f, g = _shuffled(f, rng), _shuffled(g, rng)
        for x, y in ((f, g), (g, f), (f, f)):
            assert _exact_coeffs(x * y) == _exact_coeffs(_series_mul_reference(x, y))


# -- the SymbolPoly kernel against its form before generators were interned ------
# There a generator's sort key was rebuilt from str() at every merge, every
# product was re-sorted, and every result went through the coercing constructor.

_OLD_RANK = {ZetaSym: 0, LiSym: 1, LogSym: 2, LambdaSym: 3, ZSym: 4}


def _old_gen_key(g):
    return (_OLD_RANK[type(g)], str(g))


def _old_mono_key(m):
    return tuple((_old_gen_key(g), e) for g, e in m)


def _old_merge(m1, m2):
    acc = {}
    for g, e in m1 + m2:
        acc[g] = acc.get(g, 0) + e
    return tuple(sorted(acc.items(), key=lambda ge: _old_gen_key(ge[0])))


def _old_clean(terms: dict) -> dict:
    clean = {}
    for mono, c in terms.items():
        if isinstance(c, int):
            c = Fraction(c)
        if c:
            clean[mono] = c
    return clean


def _old_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out[m] + c if m in out else c
    return _old_clean(out)


def _old_neg(a: dict) -> dict:
    return _old_clean({m: -c for m, c in a.items()})


def _old_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _old_merge(m1, m2)
            c = c1 * c2
            out[m] = out[m] + c if m in out else c
    return _old_clean(out)


def _old_pow(a: dict, k: int) -> dict:
    out, base = {(): Fraction(1)}, a
    while k:
        if k & 1:
            out = _old_mul(out, base)
        base = _old_mul(base, base)
        k >>= 1
    return out


def _old_substitute(a: dict, mapping) -> dict:
    powers, images, out = {}, {}, {}
    for mono, c in a.items():
        if mono not in images:
            image = {(): Fraction(1)}
            for g, e in mono:
                if (g, e) not in powers:
                    base = mapping.get(g)
                    powers[g, e] = _old_pow(base.terms, e) if base is not None else {((g, e),): Fraction(1)}
                image = _old_mul(image, powers[g, e])
            images[mono] = image
        for m, v in images[mono].items():
            out[m] = out.get(m, 0) + c * v
    return _old_clean(out)


def _old_derivative(a: dict, p) -> dict:
    out = {}
    for mono, c in a.items():
        for i, (g, e) in enumerate(mono):
            if isinstance(g, (ZetaSym, LambdaSym)):
                continue
            rest = mono[:i] + (((g, e - 1),) if e > 1 else ()) + mono[i + 1:]
            for m2, c2 in _d_generator(g, p).terms.items():
                m = _old_merge(rest, m2)
                out[m] = out.get(m, 0) + c * e * c2
    return _old_clean(out)


def _old_str(a: dict) -> str:
    parts = []
    for mono in sorted(a, key=_old_mono_key):
        c = a[mono]
        body = "*".join(str(g) if e == 1 else f"{g}^{e}" for g, e in mono)
        parts.append(str(c) if not body else body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}")
    out = parts[0] if parts else "0"
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


_DIFFERENTIABLE = [ZetaSym("complex", (2,)), LambdaSym("c", "AB"), Z, LogSym(ARG_Z), LogSym(ARG_ONE_MINUS_Z),
                   LiSym("plain", (1, 2), ARG_Z), LiSym("dagger", (2, 1), ARG_Z)]
_AT_ZP = [LiSym("plain", (2,), ARG_Z_POW_P), LiSym("dagger", (1,), ARG_Z_POW_P), LogSym(ARG_Z_POW_P)]
_EVERY_KIND = _DIFFERENTIABLE + _AT_ZP + [
    ZetaSym("p-adic", (1, 2)), ZetaSym("p-adic-Deligne", (3,)), LiSym("minus", (3,), ARG_Z_CONJ),
    LogSym(ARG_ABS_Z_SQ), LambdaSym("p", "AAB")]


def _random_terms(rng, gens, terms=5, max_exp=3) -> dict:
    """Terms for the public constructor: monomials in the earlier order, int,
    Fraction and zero coefficients."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        chosen = rng.sample(gens, rng.randint(0, 3))
        mono = tuple(sorted(((g, rng.randint(1, max_exp)) for g in chosen), key=lambda ge: _old_gen_key(ge[0])))
        out[mono] = rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
    return out


def _in_lowest_terms(poly: SymbolPoly) -> bool:
    return poly.den >= 1 and math.gcd(poly.den, *poly.nums.values()) == 1 and all(poly.nums.values())


def _same(poly: SymbolPoly, ref: dict) -> bool:
    assert _in_lowest_terms(poly), (poly.den, poly.nums)
    return list(poly.terms.items()) == list(ref.items())


@pytest.mark.parametrize("seed", range(12))
def test_symbol_arithmetic_matches_the_earlier_kernel_in_order(seed):
    rng = random.Random(400 + seed)
    ta, tb = _random_terms(rng, _EVERY_KIND), _random_terms(rng, _EVERY_KIND)
    a, b = SymbolPoly(ta), SymbolPoly(tb)
    ra, rb = _old_clean(ta), _old_clean(tb)
    assert _same(a, ra) and _same(b, rb)
    assert _same(a + b, _old_add(ra, rb))
    assert _same(a - b, _old_add(ra, _old_neg(rb)))
    assert _same(-a, _old_neg(ra))
    assert _same(a * b, _old_mul(ra, rb))
    assert _same(a * a, _old_mul(ra, ra))
    # the cross terms cancel
    assert _same((a + b) * (a - b), _old_mul(_old_add(ra, rb), _old_add(ra, _old_neg(rb))))
    assert _same(3 * a - 2, _old_add(_old_mul({(): Fraction(3)}, ra), {(): Fraction(-2)}))
    assert _same(a**3, _old_pow(ra, 3))
    mapping = {g: SymbolPoly(_random_terms(rng, _EVERY_KIND, terms=3, max_exp=2)) for g in rng.sample(_EVERY_KIND, 5)}
    assert _same(a.substitute(mapping), _old_substitute(ra, mapping))
    assert str(a * b) == _old_str(_old_mul(ra, rb))
    for poly, ref in ((a, ra), (a * b, _old_mul(ra, rb))):
        assert _same(parse_symbol_poly(str(poly)), {m: ref[m] for m in sorted(ref, key=_old_mono_key)})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_symbol_arithmetic_divides_out_the_content(p, k):
    x, y = SymbolPoly.gen(LogSym(ARG_Z)), SymbolPoly.gen(ZetaSym("complex", (2,)))
    half_x, two_y = x / 2, 2 * y
    assert (half_x.den, two_y.den) == (2, 1)
    prod = half_x * two_y
    assert _in_lowest_terms(prod) and prod.den == 1 and prod == x * y
    c = p**k
    a = _random_poly(random.Random(p * 100 + k), terms=4) + Fraction(1, 3)
    for q in (a / c * c, (a * Fraction(1, c)) * c, c * (a / c), (a / -c) * -c):
        assert _in_lowest_terms(q) and q == a and q.den == a.den
    # sums whose numerators cancel, and sums whose content is an integer
    for q in (a - a, a + (-a), a / c - a / c, (x + y) / c - x / c - y / c, half_x + half_x - x):
        assert q == SymbolPoly.ZERO and (q.den, q.nums) == (1, {})
    whole = Fraction(1, 6) * x + Fraction(5, 6) * x
    assert _in_lowest_terms(whole) and (whole.den, whole.nums) == (1, {((LogSym(ARG_Z), 1),): 1})
    assert (x / c).substitute({LogSym(ARG_Z): c * y}) == y
    assert formal_derivative(SymbolPoly.gen(LiSym("plain", (1, 2), ARG_Z), Fraction(1, c))).den == c


def test_unreduced_numerators_compare_unequal():
    # equality compares the canonical (den, nums) and does not reduce first
    g = LambdaSym("c", "AB")
    unreduced = _wrap({((g, 1),): 2}, 2)
    assert not _in_lowest_terms(unreduced)
    assert unreduced.terms == SymbolPoly.gen(g).terms
    assert unreduced != SymbolPoly.gen(g)
    assert _wrap({(): 0}, 1) != SymbolPoly.ZERO


@pytest.mark.parametrize("p", [None, 3])
@pytest.mark.parametrize("seed", range(6))
def test_formal_derivative_matches_the_earlier_kernel_in_order(seed, p):
    rng = random.Random(450 + seed)
    terms = _random_terms(rng, _DIFFERENTIABLE + (_AT_ZP if p else []), terms=6)
    assert _same(formal_derivative(SymbolPoly(terms), p), _old_derivative(_old_clean(terms), p))


@pytest.mark.parametrize("cls,args", [
    (ZetaSym, {"flavor": "p-adic", "index": (1, 2)}),
    (LiSym, {"flavor": "dagger", "index": (2,), "arg": ARG_Z_POW_P}),
    (LogSym, {"arg": ARG_ABS_Z_SQ}),
    (LambdaSym, {"tag": "c", "word": "AAB"}),
    (ZSym, {}),
])
def test_generators_are_interned(cls, args):
    g = cls(*args.values())
    assert cls(*args.values()) is g
    assert cls(**args) is g
    if args:
        first, *rest = args
        assert cls(args[first], **{k: args[k] for k in rest}) is g
    assert g.key == _old_gen_key(g)
    assert copy.deepcopy(g) is g
    assert pickle.loads(pickle.dumps(g)) is g
    ((parsed, _),) = next(iter(parse_symbol_poly(str(g)).terms))
    assert parsed is g
    assert {g: 1}[cls(**args)] == 1


def test_interned_generators_stay_distinct():
    assert ZSym() is Z
    assert ZetaSym("complex", (2,)) is not ZetaSym("p-adic", (2,))
    assert LiSym("plain", (2,), ARG_Z) is not LiSym("plain", (2,), ARG_Z_CONJ)
    assert LambdaSym("c", "AB") != LambdaSym("p", "AB")
