import cmath
import functools
import math
import random
from fractions import Fraction

import pytest

from mzv import arch_eval
from mzv.arch_eval import (
    InadmissibleIndexError,
    bernoulli,
    evaluate_relation_row,
    log_abs_sq,
    mzv,
    mzv_numeric,
    polylog,
    polylog2,
    sv_polylog,
    zagier_p,
)
from sv_reference import evaluate_symbol_poly, sv_depth2_book_residual, sv_depth2_direct

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
    # closed forms: zeta(1,2) = zeta(3), zeta(2,2) = 3/4 zeta(4), zeta(1,1,2) = zeta(4)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for idx, want in (((1, 2), mpmath.zeta(3)), ((2, 2), mpmath.zeta(4) * 3 / 4),
                          ((1, 1, 2), mpmath.zeta(4))):
            value, bound = mzv_numeric(idx)
            assert abs(value - want) <= bound, idx


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
    def no_powers(*args, **kwargs):
        raise AssertionError("the series was summed instead of refused")

    monkeypatch.setattr(arch_eval, "_powers", no_powers)
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
    from mzv.associator import single_valued_g0, zeta_lambda_expr

    z = 0.37 + 0.21j
    for k in (1, 2, 3):
        poly = zeta_lambda_expr(single_valued_g0(max(k, 2)), (k,))
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

    for w in (3, 4, 5, 7):
        for row in generate_double_shuffle(w):
            residual, tolerance = evaluate_relation_row(row)
            assert abs(residual) <= tolerance < 1e-13


def test_a_relation_row_wrong_by_one_part_in_a_billion_fails():
    from mzv.shufflealg import generate_double_shuffle

    for row in generate_double_shuffle(7):
        mono = max(row.coeffs, key=lambda m: abs(row.coeffs[m]))
        row.coeffs[mono] *= 1 + Fraction(1, 10**9)
        residual, tolerance = evaluate_relation_row(row)
        assert abs(residual) > tolerance, row.provenance


# -- independent oracles from mpmath ------------------------------------------


def _disk_points(seed, count, radius=0.9):
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if 0.05 < abs(z) < radius:
            points.append(z)
    return points


def test_polylog_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for z in _disk_points(11, 12):
        for k in range(1, 7):
            want = complex(mpmath.polylog(k, z))
            assert abs(polylog(k, z) - want) < 1e-11 * max(1.0, abs(want)), (k, z)


def test_one_polylog_pass_gives_every_order(monkeypatch):
    """Li_1..Li_k at z come from one pass over the powers of z, each within
    1e-11 of mpmath, at random points of |z| <= 0.9 and at the slow point
    z = 0.99996 with k = 16; and Li_j(zbar) is the conjugate of Li_j(z)."""
    mpmath = pytest.importorskip("mpmath")
    passes = []
    powers = arch_eval._powers
    monkeypatch.setattr(arch_eval, "_powers", lambda z, n: passes.append(z) or powers(z, n))
    monkeypatch.setattr(arch_eval, "_LAST_POLYLOGS", (0j, []))
    rng = random.Random(17)
    points = [(cmath.rect(0.9 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)), 8) for _ in range(12)]
    for z, k in points + [(0.99996, 16)]:
        passes.clear()
        values = [polylog(j, z) for j in range(k, 0, -1)][::-1]
        assert passes == [z]
        for j, value in enumerate(values, 1):
            want = complex(mpmath.polylog(j, z))
            assert abs(value - want) < 1e-11 * max(1.0, abs(want)), (j, z)
            conj = polylog(j, z.conjugate())
            assert abs(conj - value.conjugate()) < 1e-15 * max(1.0, abs(value)), (j, z)


def test_zagier_p_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for z in _disk_points(12, 8):
        ell = mpmath.log(abs(mpmath.mpc(z)) ** 2)
        for k in range(1, 6):
            acc = sum(mpmath.bernoulli(a) / mpmath.factorial(a) * ell**a * mpmath.polylog(k - a, z)
                      for a in range(k))
            want = float(acc.real if k % 2 == 1 else acc.imag)
            assert abs(zagier_p(k, z) - want) < 1e-10, (k, z)


def test_sv_polylog_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for z in _disk_points(13, 8):
        ell = mpmath.log(abs(mpmath.mpc(z)) ** 2)
        zb = mpmath.conj(mpmath.mpc(z))
        for k in range(1, 6):
            want = mpmath.polylog(k, z) - sum(
                (-1) ** (k - a) * ell**a / mpmath.factorial(a) * mpmath.polylog(k - a, zb)
                for a in range(k))
            assert abs(sv_polylog(k, z) - complex(want)) < 1e-10, (k, z)
        # weight one is -log|1 - z|^2
        assert abs(sv_polylog(1, z) + float(mpmath.log(abs(1 - mpmath.mpc(z)) ** 2))) < 1e-11


def test_single_valued_polylogs_near_zero_against_mpmath():
    """At |z| = 1e-6, 1e-10 and 1e-13 the weights (log|z|^2)^a / a! reach
    1e14 at k = 16, so every Li_j must be right relative to |z|, Li_1 too:
    sv_polylog and zagier_p stay within the tolerance `sv polylog` reports."""
    mpmath = pytest.importorskip("mpmath")
    from mzv.cli import SV_TOLERANCE

    k = 16
    with mpmath.workdps(30):
        for r in (1e-6, 1e-10, 1e-13):
            for z in (complex(r, 0.0), cmath.rect(r, 2.0), cmath.rect(r, -0.7)):
                zm = mpmath.mpc(z)
                ell = mpmath.log(abs(zm) ** 2)
                li = {j: mpmath.polylog(j, zm) for j in range(1, k + 1)}
                want = li[k] - sum((-1) ** (k - a) * ell**a / mpmath.factorial(a) * mpmath.conj(li[k - a])
                                   for a in range(k))
                got = sv_polylog(k, z)
                assert abs(got - complex(want)) <= SV_TOLERANCE * max(1.0, abs(got)), (r, z)
                for kp in (k, k - 1):
                    acc = sum(mpmath.bernoulli(a) / mpmath.factorial(a) * ell**a * li[kp - a] for a in range(kp))
                    want_p = float(acc.real if kp % 2 == 1 else acc.imag)
                    got_p = zagier_p(kp, z)
                    assert abs(got_p - want_p) <= SV_TOLERANCE * max(1.0, abs(got_p)), (kp, z)


def test_depth1_mzv_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for k in range(2, 31):
            value, bound = mzv_numeric((k,))
            assert bound < 1e-9
            assert abs(value - mpmath.zeta(k)) <= bound, k


# -- multiple zeta values against independent references --------------------


def _admissible_through(weight):
    from mzv.shufflealg import admissible_indices

    return [e for w in range(2, weight + 1) for e in admissible_indices(w)]


def test_stuffle_products_against_mpmath():
    """zeta(a) zeta(b) = zeta(a,b) + zeta(b,a) + zeta(a+b) for a, b <= 6,
    within the reported bounds of a 40-digit product.  (Duality would prove
    nothing: the Hölder sum is dual-symmetric by construction.)"""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for a in range(2, 7):
            for b in range(2, 7):
                (x, ex), (y, ey), (z, ez) = mzv_numeric((a, b)), mzv_numeric((b, a)), mzv_numeric((a + b,))
                residual = mpmath.mpf(x) + mpmath.mpf(y) + mpmath.mpf(z) - mpmath.zeta(a) * mpmath.zeta(b)
                assert abs(residual) <= ex + ey + ez, (a, b)


def test_bounds_through_weight_twelve_are_below_1e_15():
    """The fixed-point error is W(W+3) 2^-80; the rest is the final half ulp."""
    for entries in _admissible_through(12):
        value, bound = mzv_numeric(entries)
        assert math.ulp(value) / 2 < bound <= 1e-15, entries


def test_batch_and_single_index_give_the_same_bounds(monkeypatch):
    """The memo only saves work: a value is the same whichever indices
    were evaluated before it, in whatever order."""
    indices = _admissible_through(7)
    monkeypatch.setattr(arch_eval, "_VECTORS", {})
    batched = [mzv_numeric(e) for e in indices]
    monkeypatch.setattr(arch_eval, "_VECTORS", {})
    assert [mzv_numeric(e) for e in reversed(indices)] == batched[::-1]
    for entries, want in zip(indices, batched):
        monkeypatch.setattr(arch_eval, "_VECTORS", {})
        assert mzv_numeric(entries) == want, entries


def test_mzv_numeric_batch_is_cached_and_unchanged(monkeypatch):
    """Every prefix of a word and of its dual is kept, up to the memo's
    bound, and a memo that overflows gives the same values."""
    indices = [(2,), (3,), (1, 2), (2, 3), (1, 1, 3)]
    monkeypatch.setattr(arch_eval, "_VECTORS", {})
    single = [mzv_numeric(e) for e in indices]
    # words 10, 100, 110, 1010, 10100 and their duals' prefixes: 1, 11, 111, 1101, ...
    assert {0b10, 0b100, 0b110, 0b1010, 0b10100, 0b11, 0b111, 0b1101} <= set(arch_eval._VECTORS)
    monkeypatch.setattr(arch_eval, "_VECTORS", {})
    monkeypatch.setattr(arch_eval, "_MAX_VECTORS", 4)
    assert [mzv_numeric(e) for e in indices] == single
    assert len(arch_eval._VECTORS) <= 4
    with pytest.raises(InadmissibleIndexError):
        mzv_numeric((2, 1))


_DEEP = [(1,) * (d - 1) + (2,) for d in range(1, 31)]  # zeta(1^(d-1), 2) = zeta(d + 1)


def _weight_nine_indices():
    return _admissible_through(9)


@functools.lru_cache(maxsize=None)
def _inverse_power(n, s):
    import mpmath

    with mpmath.workdps(30):
        return mpmath.mpf(1) / mpmath.mpf(n) ** s


@functools.lru_cache(maxsize=None)
def _at_half(word):
    """I(0; word; 1/2) to 30 digits for a 0/1 word starting with 1 (1 opens
    a block, each 0 raises it): the nested sum over n_1 < ... < n_d of
    2^-n_d / prod n_i^s_i, cut after 128 terms (tail below 2^-100)."""
    import mpmath

    if not word:
        return mpmath.mpf(1)
    blocks = []
    for letter in word:
        if letter:
            blocks.append(1)
        else:
            blocks[-1] += 1
    with mpmath.workdps(30):
        partial = [mpmath.mpf(0)] * len(blocks)
        total = mpmath.mpf(0)
        for n in range(1, 129):
            new = [_inverse_power(n, blocks[0])]
            new += [partial[j - 1] * _inverse_power(n, s) for j, s in enumerate(blocks) if j]
            total += mpmath.ldexp(new[-1], -n)
            partial = [a + b for a, b in zip(partial, new)]
        return total


def _holder_reference(index):
    """zeta(index) by the Hölder convolution at 1/2 (Borwein, Bradley,
    Broadhurst and Lisonek, Trans. AMS 2001): the iterated integral over
    [0, 1] splits at 1/2, and t -> 1 - t maps the piece over [1/2, 1] to
    [0, 1/2] with its word reversed and its letters swapped."""
    import mpmath

    word = tuple(x for k in index for x in (1,) + (0,) * (k - 1))
    with mpmath.workdps(30):
        return mpmath.fsum(_at_half(word[:j]) * _at_half(tuple(1 - a for a in reversed(word[j:])))
                           for j in range(len(word) + 1))


def test_values_meet_their_bounds_against_the_holder_reference():
    """Every admissible index of weight <= 9 and zeta(1^(d-1), 2) for
    d <= 30 lie within their reported bound of an independent 30-digit
    value, and within 1e-13 relative."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        cases = [(e, _holder_reference(e)) for e in _weight_nine_indices()]
        cases += [(e, mpmath.zeta(len(e) + 1)) for e in _DEEP]
        for entries, ref in cases:
            value, bound = mzv_numeric(entries)
            assert abs(value - ref) <= bound, entries
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(value)), (entries, value - ref)
