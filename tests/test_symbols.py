import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    NotDifferentiableError,
    SymbolPoly,
    ZetaSym,
    formal_derivative,
    parse_symbol_poly,
    z_poly,
)

from series_reference import terms


def _rand_poly(rng):
    gens = [
        ZetaSym("complex", (2,)),
        ZetaSym("p-adic", (1, 2)),
        LiSym((2,), ARG_Z),
        LogSym(ARG_Z),
        LambdaSym("p", "AB"),
    ]
    out = SymbolPoly.constant(Fraction(rng.randint(-3, 3)))
    for _ in range(rng.randint(1, 3)):
        mono = SymbolPoly.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 2)):
            mono = mono * SymbolPoly.gen(rng.choice(gens))
        out = out + mono
    return out


def test_commutativity_and_collection():
    a = SymbolPoly.gen(ZetaSym("complex", (2,)))
    b = SymbolPoly.gen(LogSym(ARG_Z))
    assert (a * b - b * a).is_zero()
    assert ((a + a) - 2 * a).is_zero()
    sq = a * a
    ((gen, exp),) = list(sq.nums)[0]
    assert exp == 2


def test_leibniz_rule_on_random_products():
    rng = random.Random(17)
    for _ in range(12):
        f, g = _rand_poly(rng), _rand_poly(rng)
        lhs = formal_derivative(f * g, p=5)
        rhs = formal_derivative(f, p=5) * g + f * formal_derivative(g, p=5)
        assert (lhs - rhs).is_zero()


def test_derivative_generator_rules():
    # D d/dz with D = z(1-z): the old rational kernels times D
    dlog = formal_derivative(SymbolPoly.gen(LogSym(ARG_Z)))
    assert (dlog - z_poly([1, -1])).is_zero()  # D/z

    dli1 = formal_derivative(SymbolPoly.gen(LiSym((1,), ARG_Z)))
    assert (dli1 - z_poly([0, 1])).is_zero()  # D/(1-z)

    dli12 = formal_derivative(SymbolPoly.gen(LiSym((1, 2), ARG_Z)))
    want = SymbolPoly.gen(LiSym((1, 1), ARG_Z)) * z_poly([1, -1])
    assert (dli12 - want).is_zero()

    # last entry 1 strips to the prefix with the D/(1-z) kernel
    dli21 = formal_derivative(SymbolPoly.gen(LiSym((2, 1), ARG_Z)))
    want = SymbolPoly.gen(LiSym((2,), ARG_Z)) * z_poly([0, 1])
    assert (dli21 - want).is_zero()

    dlog1mz = formal_derivative(SymbolPoly.gen(LogSym(ARG_ONE_MINUS_Z)))
    assert (dlog1mz - z_poly([0, -1])).is_zero()  # -D/(1-z)

    # z itself differentiates to D
    assert (formal_derivative(SymbolPoly.gen(Z, Fraction(3))) - z_poly([0, 3, -3])).is_zero()


def test_derivative_chain_rule_for_zp():
    # D = z(1-z^3): p/z times D is 3(1-z^3)
    p = 3
    dlog = formal_derivative(SymbolPoly.gen(LogSym(ARG_Z_POW_P)), p=p)
    assert (dlog - z_poly([3, 0, 0, -3])).is_zero()
    dli2 = formal_derivative(SymbolPoly.gen(LiSym((2,), ARG_Z_POW_P)), p=p)
    want = SymbolPoly.gen(LiSym((1,), ARG_Z_POW_P)) * z_poly([3, 0, 0, -3])
    assert (dli2 - want).is_zero()
    # p z^(p-1)/(1-z^p) times D is p z^p
    dli1 = formal_derivative(SymbolPoly.gen(LiSym((1,), ARG_Z_POW_P)), p=p)
    assert (dli1 - z_poly([0, 0, 0, 3])).is_zero()
    # chain rule needs the prime
    with pytest.raises(NotDifferentiableError):
        formal_derivative(SymbolPoly.gen(LogSym(ARG_Z_POW_P)))


# -- d/dz over Q(z), as the reference for D d/dz --------------------------------
# An element of Q(z) is a (numerator, denominator) pair of Fraction coefficient
# lists, constant term first, in no normal form: two are equal when their cross
# products are.


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _q_eq(f, g):
    return _trim(_pmul(f[0], g[1])) == _trim(_pmul(g[0], f[1]))


def _z(k, c=1):
    """c z^k as a coefficient list."""
    return [Fraction(0)] * k + [Fraction(c)]


def _rational_derivative(g, p):
    """d/dz of one Li/log generator as {generator or None: element of Q(z)}."""
    if isinstance(g, LogSym):
        return {None: {ARG_Z: ([1], _z(1)), ARG_ONE_MINUS_Z: ([-1], [1, -1]), ARG_Z_POW_P: ([p], _z(1))}[g.arg]}
    x, dx = (_z(1), [1]) if g.arg == ARG_Z else (_z(p), _z(p - 1, p))
    idx = g.index
    if idx[-1] >= 2:
        return {LiSym(idx[:-1] + (idx[-1] - 1,), g.arg): (dx, x)}
    return {LiSym(idx[:-1], g.arg) if idx[:-1] else None: (dx, [1] + x[1:-1] + [-1])}


def _by_symbol(q):
    """A SymbolPoly of degree <= 1 in the symbols as {generator or None: polynomial in z}."""
    out = {}
    for mono, c in terms(q).items():
        zk = dict(mono).get(Z, 0)
        rest = [g for g, _ in mono if g != Z]
        num = out.setdefault(rest[0] if rest else None, [])
        num.extend([Fraction(0)] * (zk + 1 - len(num)))
        num[zk] += c
    return out


_GENERATORS = [LogSym(ARG_Z), LogSym(ARG_ONE_MINUS_Z), LogSym(ARG_Z_POW_P)] + [
    LiSym(idx, arg) for idx in [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1, 1), (2, 1), (1, 3)]
    for arg in (ARG_Z, ARG_Z_POW_P)
]
# the cases at (2, 1) and (1, 3) keep their established test ids
_IDS = {(2, 1): "Lidag[2,1]", (1, 3): "Liminus[1,3]"}


def _case_id(v):
    return f"{_IDS[v.index]}({v.arg})" if isinstance(v, LiSym) and v.index in _IDS else str(v)


# a z^p symbol has no derivative without p
@pytest.mark.parametrize("g,p", [(g, p) for g in _GENERATORS for p in (None, 2, 3, 5, 7)
                                 if p is not None or g.arg != ARG_Z_POW_P], ids=_case_id)
def test_derivative_is_the_rational_derivative_times_d(g, p):
    d = _z(1) + [Fraction(0)] * ((p or 1) - 1) + [Fraction(-1)]  # D = z(1 - z^p), or z(1 - z)
    want = _rational_derivative(g, p)
    got = _by_symbol(formal_derivative(SymbolPoly.gen(g), p))
    assert got.keys() == want.keys()
    assert all(_q_eq((got[k], [1]), (_pmul(d, num), den)) for k, (num, den) in want.items())


def test_conjugate_arguments_are_rejected():
    with pytest.raises(NotDifferentiableError):
        formal_derivative(SymbolPoly.gen(LiSym((2,), ARG_Z_CONJ)))
    with pytest.raises(NotDifferentiableError):
        formal_derivative(SymbolPoly.gen(LogSym(ARG_ABS_Z_SQ)))


def test_zeta_and_lambda_are_constants():
    q = SymbolPoly.gen(ZetaSym("p-adic", (3,))) * SymbolPoly.gen(LambdaSym("p", "AAB"))
    assert formal_derivative(q).is_zero()


def test_canonical_printing_grammar():
    assert str(SymbolPoly.gen(ZetaSym("p-adic", (2, 3)))) == "zeta_p[2,3]"
    assert str(SymbolPoly.gen(ZetaSym("p-adic-Deligne", (2,)))) == "zetaDe_p[2]"
    assert str(SymbolPoly.gen(LiSym((1, 2), ARG_Z))) == "Li[1,2](z)"
    assert str(SymbolPoly.gen(LiSym((3,), ARG_Z_CONJ))) == "Li[3](zbar)"
    assert str(SymbolPoly.gen(LogSym(ARG_Z))) == "log(z)"
    assert str(SymbolPoly.gen(LogSym(ARG_ABS_Z_SQ))) == "log|z|^2"


def test_parse_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        q = _rand_poly(rng)
        again = parse_symbol_poly(str(q))
        assert (q - again).is_zero(), f"round trip failed for {q}"


def test_parse_specific_forms():
    q = parse_symbol_poly("3/2*zeta_p[2]*lam_p[AB]^2 - log|z|^2 + Li[1,2](z^p)")
    assert (q - (Fraction(3, 2) * SymbolPoly.gen(ZetaSym("p-adic", (2,))) * SymbolPoly.gen(LambdaSym("p", "AB")) ** 2
                 - SymbolPoly.gen(LogSym(ARG_ABS_Z_SQ))
                 + SymbolPoly.gen(LiSym((1, 2), ARG_Z_POW_P)))).is_zero()


# -- properties of the ring and of D d/dz ----------------------------------------

_CONSTANT_GENS = [ZetaSym("complex", (3,)), ZetaSym("p-adic", (1, 2)), LambdaSym("p", "AB")]
_Z_GENS = [Z, LiSym((2,), ARG_Z), LiSym((1,), ARG_Z), LiSym((1, 2), ARG_Z),
           LogSym(ARG_Z), LogSym(ARG_ONE_MINUS_Z)]
_ZP_GENS = [LiSym((2,), ARG_Z_POW_P), LiSym((2, 1), ARG_Z_POW_P), LogSym(ARG_Z_POW_P)]


def _polys(gens):
    """Small SymbolPolys in `gens`, z-polynomials among them."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    term = st.tuples(coeff, st.lists(st.sampled_from(gens), max_size=3))
    z_polys = st.lists(coeff, max_size=4).map(z_poly)
    return st.one_of(st.lists(term, max_size=4).map(_from_terms), z_polys)


def _from_terms(terms):
    out = SymbolPoly.ZERO
    for c, gens in terms:
        t = SymbolPoly.constant(c)
        for g in gens:
            t = t * SymbolPoly.gen(g)
        out = out + t
    return out


_RING = _polys(_CONSTANT_GENS + _Z_GENS + _ZP_GENS)


@settings(max_examples=80, deadline=None)
@given(a=_RING, b=_RING, c=_RING)
def test_commutative_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + SymbolPoly.ZERO == a
    assert (a + (-a)).is_zero()
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * SymbolPoly.ONE == a
    assert a * (b + c) == a * b + a * c
    assert parse_symbol_poly(str(a)) == a


@settings(max_examples=60, deadline=None)
@given(f=_polys(_CONSTANT_GENS + _Z_GENS), g=_polys(_CONSTANT_GENS + _Z_GENS))
def test_leibniz_rule_without_p(f, g):
    assert formal_derivative(f * g) == formal_derivative(f) * g + f * formal_derivative(g)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), f=_polys(_Z_GENS + _ZP_GENS), g=_polys(_CONSTANT_GENS + _ZP_GENS))
def test_leibniz_rule_with_p(p, f, g):
    assert formal_derivative(f * g, p) == formal_derivative(f, p) * g + f * formal_derivative(g, p)


def test_z_prints_after_every_other_generator():
    q = SymbolPoly.gen(Z) ** 2 * SymbolPoly.gen(LambdaSym("p", "AB")) * SymbolPoly.gen(LogSym(ARG_Z))
    assert str(q) == "log(z)*lam_p[AB]*z^2"
    assert str(z_poly([1, 0, -2])) == "1 - 2*z^2"
