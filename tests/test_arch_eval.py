import cmath
import math
import random
from fractions import Fraction

import pytest

from mzv import arch_eval
from mzv.arch_eval import (
    InadmissibleIndexError,
    bernoulli,
    evaluate_relation_row,
    evaluate_symbol_poly,
    log_abs_sq,
    mzv,
    mzv_numeric,
    polylog,
    polylog2,
    sv_depth2_book_residual,
    sv_depth2_direct,
    sv_polylog,
    zagier_p,
)

ZETA3 = 1.2020569031595943


def test_depth1_values_against_closed_forms():
    v2, e2 = mzv_numeric((2,), 1e-8)
    assert abs(v2 - math.pi**2 / 6) < 1e-8
    assert e2 < 1e-8
    v3, _ = mzv_numeric((3,), 1e-8)
    assert abs(v3 - ZETA3) < 1e-8
    v4, _ = mzv_numeric((4,))
    assert abs(v4 - math.pi**4 / 90) < 1e-8


def test_euler_relation_numeric():
    v12, e12 = mzv_numeric((1, 2))
    v3, e3 = mzv_numeric((3,))
    assert abs(v12 - v3) < 2e-6
    assert e12 + e3 < 2e-6


def test_inadmissible_rejected():
    with pytest.raises(InadmissibleIndexError):
        mzv_numeric((2, 1))
    with pytest.raises(InadmissibleIndexError):
        mzv_numeric((1,))


def test_depth_up_to_four():
    v, e = mzv_numeric((1, 1, 1, 2))
    v5, _ = mzv_numeric((5,))
    assert abs(v - v5) < 1e-8  # classical duality instance
    assert e < 1e-6


def test_error_bounds_are_honest():
    # recomputing with a doubled cutoff agrees within the claimed bounds
    from mzv.arch_eval import _mzv_with_bound

    for idx in ((1, 2), (2, 2), (1, 1, 2)):
        v1, e1 = _mzv_with_bound(idx, 1_000_000)
        v2, e2 = _mzv_with_bound(idx, 2_000_000)
        assert abs(v1 - v2) <= e1 + e2


def test_bernoulli_spot_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)


def test_polylog_series_accuracy():
    z = 0.4 + 0.3j
    # Li_1 = -log(1-z)
    assert abs(polylog(1, z) + cmath.log(1 - z)) < 1e-12
    # dilogarithm functional value at 1/2 is pi^2/12 - log(2)^2/2
    assert abs(polylog(2, 0.5) - (math.pi**2 / 12 - math.log(2) ** 2 / 2)) < 1e-12


def test_polylog2_against_shuffle_identity():
    rng = random.Random(5)
    for _ in range(10):
        r = 0.1 + 0.7 * rng.random()
        th = rng.uniform(-math.pi, math.pi)
        z = r * cmath.exp(1j * th)
        lhs = polylog(1, z) * polylog(2, z)
        rhs = polylog2(2, 1, z) + 2 * polylog2(1, 2, z)
        assert abs(lhs - rhs) < 1e-10


def test_p1_is_minus_log_abs_one_minus_z():
    rng = random.Random(6)
    for _ in range(10):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        if abs(z) < 0.05:
            continue
        assert abs(zagier_p(1, z) + math.log(abs(1 - z))) < 1e-12


def test_domain_errors():
    with pytest.raises(ValueError):
        sv_polylog(2, 0)
    with pytest.raises(ValueError):
        sv_polylog(2, 1.2)
    with pytest.raises(ValueError):
        zagier_p(2, 0)


def test_series_cutoff_is_capped_near_the_unit_circle(monkeypatch):
    def no_arange(*args, **kwargs):
        raise AssertionError("the series was summed instead of refused")

    monkeypatch.setattr(arch_eval.np, "arange", no_arange)
    z = 0.999999999j
    for evaluate in (lambda: polylog(2, z), lambda: polylog2(1, 2, z)):
        with pytest.raises(ValueError, match=r"\|z\| = 0\.999999999 needs \d\.\d+e\+10 terms"):
            evaluate()


def test_bernoulli_projection_consistency():
    # the Bernoulli-weighted sum over the single-valued functions halves the projection
    rng = random.Random(7)
    for _ in range(25):
        r = 0.08 + 0.8 * rng.random()
        th = rng.uniform(0.05, math.pi - 0.05) * rng.choice([-1, 1])
        z = r * cmath.exp(1j * th)
        for k in (1, 2, 3, 4):
            ell = log_abs_sq(z)
            acc = sum(float(bernoulli(i)) / math.factorial(i) * ell**i * sv_polylog(k - i, z)
                      for i in range(k))
            proj = acc.real if k % 2 == 1 else acc.imag
            assert abs(zagier_p(k, z) - 0.5 * proj) < 1e-9


def test_sv_polylog_is_single_valued_looking():
    # values at conjugate points are conjugate (real-analyticity sanity)
    z = 0.3 + 0.2j
    a = sv_polylog(2, z)
    b = sv_polylog(2, z.conjugate())
    # the combination picks up a sign under conjugation at even weight
    assert abs(a + b.conjugate() - 0) < 1e-9 or abs(a - b.conjugate()) < 1e-9


def test_depth2_direct_degenerates_at_zero():
    vals = [abs(sv_depth2_direct(1, 2, complex(t, 0.0))) for t in (1e-3, 1e-4)]
    assert vals[1] < vals[0] < 1e-5


def test_depth2_book_residual_points():
    assert sv_depth2_book_residual(1, 2, 0.3 + 0.2j) < 1e-8
    assert sv_depth2_book_residual(1, 2, complex(0.55)) < 1e-8


def test_sv_cross_module_depth1():
    from mzv.associator import single_valued_g0_coefficient

    z = 0.37 + 0.21j
    for k in (1, 2, 3):
        poly = single_valued_g0_coefficient((k,))
        assert abs(evaluate_symbol_poly(poly, z=z) - sv_polylog(k, z)) < 1e-9


def test_scaled_derivative_matches_a_finite_difference():
    """D d/dz of Li_k(z) and log(1-z), evaluated with z as a generator,
    against D(z) = z(1-z) times a central difference of the numeric value."""
    from mzv.symbols import ARG_ONE_MINUS_Z, ARG_Z, LiSym, LogSym, SymbolPoly, formal_derivative

    z, h = 0.3 + 0.2j, 1e-5
    cases = [(LiSym("plain", (k,), ARG_Z), lambda x, k=k: polylog(k, x)) for k in (1, 2, 3)]
    cases.append((LogSym(ARG_ONE_MINUS_Z), lambda x: cmath.log(1 - x)))
    for g, f in cases:
        scaled = evaluate_symbol_poly(formal_derivative(SymbolPoly.gen(g)), z=z)
        assert abs(scaled - z * (1 - z) * (f(z + h) - f(z - h)) / (2 * h)) < 1e-8


def test_relation_rows_vanish_within_tolerance():
    from mzv.shufflealg import generate_double_shuffle

    for w in (3, 4, 5):
        for row in generate_double_shuffle(w):
            assert abs(evaluate_relation_row(row)) < 1e-5
