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

    for w in (3, 4, 5):
        for row in generate_double_shuffle(w):
            assert abs(evaluate_relation_row(row)) < 1e-5


def _stream_prefixes_per_index(entries, cutoff):
    """The per-index streaming loop the batched pass replaced, kept as the
    reference its floats must match: F_j(cutoff) for j = 1..depth."""
    np = arch_eval.np
    chunk = arch_eval._CHUNK
    carries = [0.0] * len(entries)
    g_buf, prev_buf = np.empty(chunk), np.empty(chunk)
    lo = 1
    while lo <= cutoff:
        hi = min(lo + chunk, cutoff + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        g, prev_excl = g_buf[: hi - lo], prev_buf[: hi - lo]
        for j, k in enumerate(entries):
            g[:] = n
            g **= -float(k)
            if j:
                g *= prev_excl
            np.cumsum(g, out=g)
            g += carries[j]
            prev_excl[0] = carries[j]
            prev_excl[1:] = g[:-1]
            carries[j] = float(g[-1])
        lo = hi
    return carries


def test_batched_stream_is_bit_identical_to_the_per_index_loop():
    from mzv.shufflealg import admissible_indices

    # crosses three chunk seams and many block seams, and ends mid-block
    cutoff = 3 * arch_eval._CHUNK + 12_345
    assert cutoff % arch_eval._BLOCK and arch_eval._CHUNK % arch_eval._BLOCK
    indices = [e for w in range(2, 8) for e in admissible_indices(w)]
    batched = arch_eval._stream_prefixes(indices, cutoff)
    for entries in indices:
        want = _stream_prefixes_per_index(entries, cutoff)
        got = [batched[entries[: j + 1]] for j in range(len(entries))]
        assert got == want, entries


def test_batch_and_single_index_give_the_same_bounds(monkeypatch):
    from mzv.shufflealg import admissible_indices

    cutoff = arch_eval._CHUNK + 4_321
    indices = [e for w in range(2, 7) for e in admissible_indices(w)]
    monkeypatch.setattr(arch_eval, "_BOUNDS", {})
    arch_eval._stream_batch(indices, cutoff)
    batched = dict(arch_eval._BOUNDS)
    assert len(batched) == len(indices)
    monkeypatch.setattr(arch_eval, "_BOUNDS", {})
    for entries in indices:
        assert arch_eval._mzv_with_bound(entries, cutoff) == batched[entries, cutoff], entries


def test_mzv_numeric_batch_is_cached_and_unchanged(monkeypatch):
    indices = [(2,), (3,), (1, 2), (2, 3), (1, 1, 3)]
    monkeypatch.setattr(arch_eval, "_BOUNDS", {})
    single = [mzv_numeric(e) for e in indices]
    monkeypatch.setattr(arch_eval, "_BOUNDS", {})
    arch_eval.prefetch_mzvs(indices)
    assert len(arch_eval._BOUNDS) == len(indices)
    assert [mzv_numeric(e) for e in indices] == single
    with pytest.raises(InadmissibleIndexError):
        arch_eval.prefetch_mzvs([(2,), (2, 1)])


def _unmemoized_tail(entries, prefixes, cutoff):
    """The tail recursion before it was memoized, kept as the reference its
    floats must match: three calls per level, 3^(d-1) at depth d."""
    m = float(cutoff)
    k = entries[-1]
    if len(entries) == 1:
        return arch_eval._power_tail(k, m), arch_eval._power_tail_error(k, m)
    head = prefixes[entries[:-1]]
    kp, rest = entries[-2], entries[:-2]
    t1, e1 = _unmemoized_tail(rest + (kp + k - 1,), prefixes, cutoff)
    t2, e2 = _unmemoized_tail(rest + (kp + k,), prefixes, cutoff)
    t3, e3 = _unmemoized_tail(rest + (kp + k + 1,), prefixes, cutoff)
    value = head * arch_eval._power_tail(k, m) + t1 / (k - 1) - t2 / 2 + k * t3 / 12
    rem = (math.log(m) + 2) ** (len(entries) - 1) * arch_eval._power_tail_error(k, m) * m
    err = head * arch_eval._power_tail_error(k, m) + e1 / (k - 1) + e2 / 2 + k * e3 / 12 + rem
    return value, err


def test_memoized_tail_is_bit_identical_to_the_plain_recursion(monkeypatch):
    """One batch shares the memo across indices whose tails overlap."""
    cutoff = arch_eval._CHUNK + 4_321
    indices = [(1,) * 10 + (2,), (1,) * 8 + (3,), (2, 1, 1, 3), (1, 2, 1, 1, 1, 2), (4,)]
    monkeypatch.setattr(arch_eval, "_BOUNDS", {})
    arch_eval._stream_batch(indices, cutoff)
    prefixes = arch_eval._stream_prefixes(indices, cutoff)
    for entries in indices:
        tail, err = _unmemoized_tail(entries, prefixes, cutoff)
        roundoff = 5e-11 * (cutoff / 1e6 + 1) * len(entries)
        assert arch_eval._BOUNDS[entries, cutoff] == (prefixes[entries] + tail, err + roundoff), entries


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


def test_depth1_mzv_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for k in range(2, 17):
        value, bound = mzv_numeric((k,))
        assert bound < 1e-9
        assert abs(value - float(mpmath.zeta(k))) <= bound, k


# -- the per-depth cutoff against an independent reference --------------------


_DEEP = [(1,) * (d - 1) + (2,) for d in range(1, 17)]  # zeta(1^(d-1), 2) = zeta(d + 1)


def _weight_nine_indices():
    from mzv.shufflealg import admissible_indices

    return [e for w in range(2, 10) for e in admissible_indices(w)]


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
        return float(mpmath.fsum(_at_half(word[:j]) * _at_half(tuple(1 - a for a in reversed(word[j:])))
                                 for j in range(len(word) + 1)))


def test_values_meet_their_bounds_against_the_holder_reference():
    """Every admissible index of weight <= 9 and zeta(1^(d-1), 2) for
    d <= 16 lie within their reported bound of an independent 30-digit
    value, and within 1e-13 relative."""
    mpmath = pytest.importorskip("mpmath")
    arch_eval.prefetch_mzvs(_weight_nine_indices() + _DEEP)
    with mpmath.workdps(30):
        cases = [(e, _holder_reference(e)) for e in _weight_nine_indices()]
        cases += [(e, float(mpmath.zeta(len(e) + 1))) for e in _DEEP]
    for entries, ref in cases:
        value, bound = mzv_numeric(entries)
        assert abs(value - ref) <= bound, entries
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(value)), (entries, value - ref)


def test_bounds_are_no_larger_than_at_the_fixed_cutoffs():
    """The fixed cutoffs were 100,000 at depth one and 2,000,000 deeper.
    Where the cutoff moved, the old bound is at least its roundoff
    allowance, which is checked for every index; the whole old bound is
    also computed for weight <= 6 and for zeta(1^(d-1), 2) through depth 12."""
    from mzv.shufflealg import admissible_indices

    def old_cutoff(entries):
        return 100_000 if len(entries) == 1 else arch_eval._CUTOFF

    for entries in _weight_nine_indices() + _DEEP:
        if arch_eval._cutoff(entries) == old_cutoff(entries):
            continue  # depth >= 13: the same pass and the same bound
        old_roundoff = 5e-11 * (old_cutoff(entries) / 1e6 + 1) * len(entries)
        assert mzv_numeric(entries)[1] <= old_roundoff, entries
    full = [e for w in range(2, 7) for e in admissible_indices(w)] + _DEEP[:12]
    for cutoff in (100_000, arch_eval._CUTOFF):
        arch_eval._stream_batch([e for e in full if old_cutoff(e) == cutoff], cutoff)
    for entries in full:
        assert mzv_numeric(entries)[1] <= arch_eval._mzv_with_bound(entries, old_cutoff(entries))[1], entries


def test_cutoff_is_the_smallest_power_of_two_meeting_the_remainder():
    cutoffs = [arch_eval._cutoff((2,) * depth) for depth in range(1, 25)]
    assert cutoffs == sorted(cutoffs)
    assert cutoffs[:12] == [4_096] * 4 + [2**j for j in range(13, 21)]
    assert cutoffs[12:] == [arch_eval._CUTOFF] * 12
    for depth, m in enumerate(cutoffs, 1):
        assert m <= arch_eval._CUTOFF
        assert m == arch_eval._CUTOFF or arch_eval._remainder(depth, 2, m) <= 1e-12
        if 4_096 < m < arch_eval._CUTOFF:
            assert arch_eval._remainder(depth, 2, m // 2) > 1e-12
        # k = 2 is the largest remainder for any last exponent
        assert all(arch_eval._remainder(depth, k, m) <= arch_eval._remainder(depth, 2, m)
                   for k in range(3, 12))
