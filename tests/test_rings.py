import json
import random
from fractions import Fraction

import pytest

from mzv.padics import PadicNumber
from mzv.rings import QQ, SYMBOLIC, RingMismatchError, complex_ring
from mzv.serialize import ring_from_tag, ring_tag, series_from_json, series_to_json
from mzv.series import NCSeries
from mzv.symbols import SymbolPoly, ZetaSym

from padic_reference import div, from_rational, mul, padic_log, teichmuller_unit


@pytest.mark.parametrize("ring,sample", [
    (QQ, lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 7))),
    (complex_ring(1e-9), lambda rng: complex(rng.randint(-9, 9), rng.randint(-9, 9)) / rng.randint(1, 7)),
    (SYMBOLIC, lambda rng: SymbolPoly.constant(Fraction(rng.randint(-5, 5)))
        + SymbolPoly.gen(ZetaSym("complex", (2,)), Fraction(rng.randint(-3, 3)))),
])
def test_ring_axioms_randomized(ring, sample):
    rng = random.Random(11)
    for _ in range(25):
        x, y, z = sample(rng), sample(rng), sample(rng)
        assert ring.eq((x + y) + z, x + (y + z))
        assert ring.eq(x + y, y + x)
        assert ring.eq((x * y) * z, x * (y * z))
        assert ring.eq(x * (y + z), x * y + x * z)
        assert ring.eq(x + ring.zero, x)
        assert ring.eq(x * ring.one, x)
        assert ring.eq(x - x, ring.zero)


def test_padic_normalization_and_equality():
    x = from_rational(Fraction(50), 5, 10)
    assert x.valuation() == 2
    y = from_rational(Fraction(50) + 5**9, 5, 9)
    # equal modulo 5^min(aprec)
    assert x == y
    assert not x == from_rational(51, 5, 10)


def test_padic_precision_tracking():
    x = from_rational(Fraction(1, 5), 5, 8)  # valuation -1
    y = from_rational(5, 5, 8)
    assert mul(x, y).valuation() == 0
    # division by higher-valuation element costs absolute precision
    q = div(from_rational(1, 5, 8), y)
    assert q.aprec < 8


def test_padic_division_by_zero():
    z = PadicNumber.zero(5, 10)
    with pytest.raises(ZeroDivisionError):
        div(from_rational(1, 5, 10), z)


def test_padic_log_examples():
    p = 5
    one = from_rational(1, p, 30)
    assert padic_log(one).is_zero()
    # the branch value is exactly log(p)
    lp = padic_log(from_rational(p, p, 30), branch=Fraction(7))
    assert lp == from_rational(7, p, 29)
    # Teichmuller units are torsion, so they map to 0
    w = teichmuller_unit(2, p, 20)
    tw = PadicNumber(p, 0, w, 20)
    assert padic_log(tw).is_zero()


def test_padic_log_zero_input():
    with pytest.raises(ValueError):
        padic_log(PadicNumber.zero(5, 10))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_padic_log_is_homomorphism(p):
    rng = random.Random(p)
    for _ in range(8):
        x = from_rational(Fraction(rng.randint(1, 400), rng.choice([1, 3, 7, 11, 13])), p, 30)
        y = from_rational(Fraction(rng.randint(1, 400), rng.choice([1, 3, 7, 11, 13])), p, 30)
        lhs = padic_log(mul(x, y), branch=Fraction(2))
        rhs = padic_log(x, branch=Fraction(2)) + padic_log(y, branch=Fraction(2))
        assert (lhs - rhs).is_zero()


def test_complex_ring_tolerance():
    ring = complex_ring(1e-9)
    assert ring.eq(1.0 + 0j, 1.0 + 1e-12j)
    assert not ring.eq(1.0 + 0j, 1.0 + 1e-6j)
    assert ring.is_zero(1e-9) and not ring.is_zero(2e-9)
    # tolerance 0 is exact: 0j is zero and every nonzero float is not
    exact = complex_ring(0.0)
    assert exact.is_zero(0j) and not exact.is_zero(1e-300)


@pytest.mark.parametrize("ring", [QQ, SYMBOLIC, complex_ring(0.0), complex_ring(1e-9)], ids=repr)
def test_a_ring_is_one_shared_constant_per_tag(ring):
    assert ring_from_tag(ring_tag(ring)) is ring


@pytest.mark.parametrize("tolerance", [0.0, 1e-9])
def test_complex_ring_is_one_constant_per_tolerance(tolerance):
    assert complex_ring(tolerance) is complex_ring(tolerance)


def test_series_over_two_complex_tolerances_do_not_mix():
    exact, loose = NCSeries.one(complex_ring(0.0), 2), NCSeries.one(complex_ring(1e-9), 2)
    with pytest.raises(RingMismatchError):
        exact + loose


def test_a_negative_zero_tolerance_keeps_its_tag():
    """The cache is keyed by the tag, so -0.0 is not merged into 0.0."""
    complex_ring(0.0)
    document = {"format": "ncseries/1", "ring": "C:-0.0", "truncation": 2,
                "terms": [{"word": "", "coeff": "1.0+0.0j"}, {"word": "AB", "coeff": "0.5-0.25j"}]}
    assert series_to_json(series_from_json(json.dumps(document))) == json.dumps(document, indent=2) + "\n"


# -- ring axioms of PadicNumber under congruence at the lower precision ------

from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _padic_triples(draw):
    """Three p-adic numbers of one prime, each with its own valuation and
    absolute precision (zero to precision included)."""
    p = draw(st.sampled_from([2, 3, 5]))

    def one():
        num = draw(st.integers(-400, 400))
        den = draw(st.integers(1, 60).filter(lambda d: d % p))
        v = draw(st.integers(-3, 6))
        aprec = draw(st.integers(-2, 25))
        return from_rational(Fraction(num, den) * Fraction(p) ** v, p, aprec)

    return one(), one(), one()


@settings(max_examples=300, deadline=None)
@given(_padic_triples())
def test_padic_ring_axioms(abc):
    a, b, c = abc
    zero = PadicNumber.zero(a.p, 10**6)
    assert (a + b) + c == a + (b + c)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert a + b == b + a
    assert mul(a, b) == mul(b, a)
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert mul(a + b, c) == mul(a, c) + mul(b, c)
    assert a + (-a) == zero
    assert a - b == -(b - a)
