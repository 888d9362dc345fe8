import random
import time
from fractions import Fraction

import pytest

from mzv.padic_eval import OutsideDiskError, _plan, padic_polylog
from mzv.padics import PadicNumber, _int_valuation

from padic_reference import padic_log, padic_mpl2, polylog_reference


def _disk_point(rng, p):
    num = p * rng.randint(1, 40)
    den = rng.choice([d for d in range(1, 50) if d % p])
    return Fraction(num, den)


def _digits(x: PadicNumber):
    return x.p, x.val, x.unit, x.aprec


def test_polylog_at_zero():
    assert _digits(padic_polylog(3, 0, 5, 30)) == _digits(PadicNumber.zero(5, 30))
    assert padic_polylog(2, Fraction(0), 5, 30, skip_p_multiples=True).is_zero()
    assert padic_mpl2(1, 2, PadicNumber.zero(5, 30)).is_zero()


def test_outside_disk_rejected():
    for z in (7, Fraction(1, 5), Fraction(3, 2)):
        for fn in (lambda: padic_polylog(2, z, 5, 20), lambda: padic_polylog(2, z, 5, 20, skip_p_multiples=True),
                   lambda: padic_mpl2(1, 2, PadicNumber.from_rational(z, 5, 20)),
                   lambda: polylog_reference(2, z, 5, 20)):
            with pytest.raises(OutsideDiskError):
                fn()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_li1_is_minus_log_one_minus_z(p):
    rng = random.Random(p)
    for _ in range(6):
        zq = _disk_point(rng, p)
        one_minus = PadicNumber.from_rational(1 - zq, p, 30)
        # 1 - z is a 1-unit, so the branch does not enter
        assert (padic_polylog(1, zq, p, 30) + padic_log(one_minus)).is_zero()


def test_against_independent_reference():
    for p, k in ((5, 2), (3, 3), (7, 1)):
        zq = Fraction(p, p + 2)
        assert padic_polylog(k, zq, p, 20) == polylog_reference(k, zq, p, 20)
    # at p = 2, k = 16 the term n = 128 has valuation 128 - 16*7 = 16, so a
    # partial sum that stops before it is wrong modulo 2^20
    zq, acc = Fraction(38, 7), Fraction(0)
    for n in range(600, 0, -1):
        acc = acc * zq + Fraction(1, n**16)
    assert polylog_reference(16, zq, 2, 20) == PadicNumber.from_rational(acc * zq, 2, 20)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dagger_equals_frobenius_combination(p, k):
    rng = random.Random(100 * p + k)
    for _ in range(3):
        zq = _disk_point(rng, p)
        lhs = padic_polylog(k, zq, p, 30, skip_p_multiples=True)
        rhs = padic_polylog(k, zq, p, 30) - padic_polylog(k, zq**p, p, 30 + k).shift(-k)
        diff = lhs - rhs
        assert diff.is_zero() and diff.aprec == 30


def test_depth2_shuffle_identities():
    # C_B^2 = 2 C_BB and the (B, AB) interleaving at the function level
    for p in (3, 5):
        rng = random.Random(p)
        zq = _disk_point(rng, p)
        z = PadicNumber.from_rational(zq, p, 30)
        li1 = padic_polylog(1, zq, p, 30)
        li2 = padic_polylog(2, zq, p, 30)
        assert (li1 * li1 - 2 * padic_mpl2(1, 1, z)).is_zero()
        assert (li1 * li2 - padic_mpl2(2, 1, z) - 2 * padic_mpl2(1, 2, z)).is_zero()


def test_depth2_identities_emitted_by_shuffle_module():
    # every depth-<=2 identity from the word-level expansion evaluates to 0
    from mzv.shufflealg import index_of_word, shuffle_words, word_of_index

    p, zq = 5, Fraction(5, 7)
    z = PadicNumber.from_rational(zq, p, 30)

    def li(entries):
        if len(entries) == 1:
            return padic_polylog(entries[0], zq, p, 30)
        return padic_mpl2(entries[0], entries[1], z)

    for i in ((1,), (2,)):
        for j in ((1,), (2,), (3,)):
            wi, si = word_of_index(i)
            wj, sj = word_of_index(j)
            acc = si * sj * li(i) * li(j)
            for t, c in shuffle_words(wi, wj).items():
                entries, st = index_of_word(t)
                if len(entries) > 2:
                    break
                acc = acc - Fraction(c * st) * li(entries)
            else:
                assert acc.is_zero(), (i, j)


def test_higher_precision_confirms_claimed_digits():
    p, k, zq = 5, 2, Fraction(5, 7)
    lo, hi = padic_polylog(k, zq, p, 18), padic_polylog(k, zq, p, 34)
    assert (lo.aprec, hi.aprec) == (18, 34)
    assert (hi - lo).is_zero()  # compared at min precision


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_known_to_keeps_the_requested_digits(p):
    # at large k the denominators n^k reach far below p^0; the value is still
    # known to exactly the requested digits, checked against the exact sum
    rng = random.Random(40 + p)
    for k in (6, 11, 16):
        den = rng.choice([d for d in range(1, 40) if d % p])
        zq = Fraction(p ** rng.randint(1, 2) * rng.randint(1, 20), den)
        for dagger in (False, True):
            value = padic_polylog(k, zq, p, 20, skip_p_multiples=dagger)
            assert value.aprec == 20
            assert value == polylog_reference(k, zq, p, 20, skip_p_multiples=dagger)
    assert padic_polylog(16, Fraction(0), p, 20).is_zero()
    with pytest.raises(OutsideDiskError):
        padic_polylog(3, Fraction(1, p + 1), p, 20)


def test_shift_multiplies_by_a_power_of_p_exactly():
    x = PadicNumber.from_rational(Fraction(10, 7), 5, 12)
    y = x.shift(-3)
    assert (y.val, y.aprec) == (x.val - 3, x.aprec - 3)
    assert y == PadicNumber.from_rational(Fraction(10, 7 * 125), 5, 9)
    assert y.shift(3) == x
    zero = PadicNumber.zero(5, 12).shift(2)
    assert zero.is_zero() and zero.aprec == 14


def _last_term_below(k, p, v, prec, dagger):
    """The largest summed n whose term z^n / n^k has valuation below prec,
    by brute force past the point where n v - k log_p n >= prec."""
    last, n = 0, 1
    while n <= 4 * (prec + k * 8):  # n v - k log_p n >= prec well before this
        j = _int_valuation(n, p)
        if not (dagger and j) and n * v - k * j < prec:
            last = n
        n += 1
    return last


# --p 13 --k 12 --z 13/2 --prec 2 was wrong from 13^1 (n = 13 was never
# summed), --p 2 --k 3 --z 2 --prec 1000 from 2^994 (n = 1024), --p 11 --k 16
# --z 11 --prec 100 from 11^89 (n = 121) and --p 7 --k 10 --z -182/23 --prec
# 1000 at 7^999, when the sum stopped after ten consecutive terms past prec
REPRODUCERS = [(13, 12, Fraction(13, 2), 2), (2, 3, Fraction(2), 1000), (11, 16, Fraction(11), 100),
               (7, 10, Fraction(-182, 23), 1000)]


def test_polylog_is_bit_identical_to_the_term_by_term_sum():
    """Exactly prec digits, equal to the exact rational partial sum modulo
    p^prec, with the last summed term the last one below p^prec."""
    rng = random.Random(2026)
    cases = [(p, k, zq, prec, dagger) for p, k, zq, prec in REPRODUCERS for dagger in (False, True)]
    for p in (2, 3, 5, 7, 11, 13, 101):
        cases += [(p, 16, Fraction(0), 20, dagger) for dagger in (False, True)]
    while len(cases) < 2100:
        p, k, v = rng.choice([2, 3, 5, 7, 11, 13, 101]), rng.randint(1, 16), rng.randint(1, 3)
        prec, dagger = rng.randint(1, 120), rng.random() < 0.5
        den = rng.choice([d for d in range(1, 100) if d % p])
        zq = Fraction(rng.choice([1, -1]) * p**v * rng.choice([x for x in range(1, 200) if x % p]), den)
        cases.append((p, k, zq, prec, dagger))
    start = time.monotonic()
    for p, k, zq, prec, dagger in cases:
        value = padic_polylog(k, zq, p, prec, skip_p_multiples=dagger)
        assert value.aprec == prec, (p, k, zq, prec, dagger)
        expected = polylog_reference(k, zq, p, prec, skip_p_multiples=dagger)
        assert _digits(value) == _digits(expected), (p, k, zq, prec, dagger)
        if zq:
            v = _int_valuation(zq.numerator, p)
            plan = _plan(k, p, v, prec, dagger)
            last = 1 + sum(d for _, _, d in plan[2]) if plan else 0
            if prec <= 120:
                assert last == _last_term_below(k, p, v, prec, dagger), (p, k, zq, prec, dagger)
    assert time.monotonic() - start < 10.0


def test_exact_operands_never_limit_the_precision():
    x = PadicNumber.from_rational(Fraction(1, 2), 3, 10)
    assert (x * 27).aprec == 13 and x * 27 == PadicNumber.from_rational(Fraction(27, 2), 3, 13)
    assert (x / 27).aprec == 7 and x / 27 == PadicNumber.from_rational(Fraction(1, 54), 3, 7)
    # Li_16(z^3) / 3^16 used to read 3^16 at the quotient's own absolute
    # precision, as zero, and raise "division by a p-adic zero"
    big = padic_polylog(16, Fraction(27, 8), 3, 30)
    assert big / Fraction(3) ** 16 == big.shift(-16)
    assert (big / Fraction(3) ** 16).aprec == big.shift(-16).aprec
