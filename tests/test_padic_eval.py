import random
from fractions import Fraction

import pytest

from mzv.padic_eval import OutsideDiskError, _lost_digits, known_to, padic_li_dagger, padic_polylog
from mzv.padics import PadicNumber, _int_valuation, padic_log

from padic_reference import _guard, padic_mpl2, polylog_reference


def _disk_point(rng, p, prec=30):
    num = p * rng.randint(1, 40)
    den = rng.choice([d for d in range(1, 50) if d % p])
    return PadicNumber.from_rational(Fraction(num, den), p, prec), Fraction(num, den)


def test_polylog_at_zero():
    z = PadicNumber.zero(5, 30)
    assert padic_polylog(3, z).is_zero()
    assert padic_li_dagger(2, z).is_zero()
    assert padic_mpl2(1, 2, z).is_zero()


def test_outside_disk_rejected():
    z = PadicNumber.from_rational(Fraction(7), 5, 20)
    for fn in (lambda: padic_polylog(2, z), lambda: padic_li_dagger(2, z), lambda: padic_mpl2(1, 2, z)):
        with pytest.raises(OutsideDiskError):
            fn()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_li1_is_minus_log_one_minus_z(p):
    rng = random.Random(p)
    for _ in range(6):
        z, zq = _disk_point(rng, p)
        one_minus = PadicNumber.from_rational(1 - zq, p, 30)
        # 1 - z is a 1-unit, so the branch does not enter
        assert (padic_polylog(1, z) + padic_log(one_minus)).is_zero()


def test_against_independent_reference():
    for p, k in ((5, 2), (3, 3), (7, 1)):
        zq = Fraction(p, p + 2)
        z = PadicNumber.from_rational(zq, p, 20)
        direct = padic_polylog(k, z)
        ref = polylog_reference(k, zq, p, 20)
        assert (direct - ref).is_zero()
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
        z, _ = _disk_point(rng, p)
        lhs = padic_li_dagger(k, z)
        rhs = padic_polylog(k, z) - padic_polylog(k, z**p) / Fraction(p) ** k
        diff = lhs - rhs
        assert diff.is_zero() and diff.aprec >= 20


def test_depth2_shuffle_identities():
    # C_B^2 = 2 C_BB and the (B, AB) interleaving at the function level
    for p in (3, 5):
        rng = random.Random(p)
        z, _ = _disk_point(rng, p)
        li1 = padic_polylog(1, z)
        li2 = padic_polylog(2, z)
        assert (li1 * li1 - 2 * padic_mpl2(1, 1, z)).is_zero()
        assert (li1 * li2 - padic_mpl2(2, 1, z) - 2 * padic_mpl2(1, 2, z)).is_zero()


def test_depth2_identities_emitted_by_shuffle_module():
    # every depth-<=2 identity from the word-level expansion evaluates to 0
    from mzv.shufflealg import index_of_word, shuffle_words, word_of_index

    p = 5
    z = PadicNumber.from_rational(Fraction(5, 7), p, 30)

    def li(entries):
        if len(entries) == 1:
            return padic_polylog(entries[0], z)
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
    p, k = 5, 2
    zq = Fraction(5, 7)
    lo = padic_polylog(k, PadicNumber.from_rational(zq, p, 18))
    hi = padic_polylog(k, PadicNumber.from_rational(zq, p, 34))
    assert (hi - lo).is_zero()  # compared at min precision


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_known_to_keeps_the_requested_digits(p):
    # at large k the series lose digits of z to the denominators n^k; known_to
    # gives an exact z enough digits, checked against the exact partial sum
    rng = random.Random(40 + p)
    for k in (6, 11, 16):
        den = rng.choice([d for d in range(1, 40) if d % p])
        zq = Fraction(p ** rng.randint(1, 2) * rng.randint(1, 20), den)
        value = known_to(20, padic_polylog, k, zq, p)
        assert value.aprec >= 20
        assert value == polylog_reference(k, zq, p, 20)
        assert known_to(20, padic_li_dagger, k, zq, p).aprec >= 20
    assert known_to(20, padic_polylog, 16, Fraction(0), p).is_zero()
    with pytest.raises(OutsideDiskError):
        known_to(20, padic_polylog, 3, Fraction(1, p + 1), p)


def test_shift_multiplies_by_a_power_of_p_exactly():
    x = PadicNumber.from_rational(Fraction(10, 7), 5, 12)
    y = x.shift(-3)
    assert (y.val, y.aprec) == (x.val - 3, x.aprec - 3)
    assert y == PadicNumber.from_rational(Fraction(10, 7 * 125), 5, 9)
    assert y.shift(3) == x
    zero = PadicNumber.zero(5, 12).shift(2)
    assert zero.is_zero() and zero.aprec == 14


def _polylog_by_terms(k, z, skip_p_multiples=False):
    """The term-by-term PadicNumber sum padic_polylog replaced: z^n, then n^k
    read at the precision of z^n, then the quotient, added until ten
    consecutive summed terms have valuation at least aprec."""
    p, aprec = z.p, z.aprec
    if z.is_zero():
        return PadicNumber.zero(p, aprec)

    def terms():
        zn = PadicNumber.from_rational(1, p, aprec + _guard(p, aprec, k))
        n = 0
        while True:
            n += 1
            zn = zn * z
            if skip_p_multiples and n % p == 0:
                continue
            yield zn / PadicNumber.from_rational(Fraction(n) ** k, p, zn.aprec)

    acc, flat = PadicNumber.zero(p, aprec), 0
    for t in terms():
        acc = acc + t
        if t.is_zero() or t.valuation() >= aprec:
            flat += 1
            if flat >= 10:
                break
        else:
            flat = 0
    return acc


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except ZeroDivisionError as exc:
        return "ZeroDivisionError", str(exc)
    return value.p, value.val, value.unit, value.aprec


def test_polylog_is_bit_identical_to_the_term_by_term_sum():
    rng = random.Random(2024)
    raised = 0
    for _ in range(2000):
        p, k, v = rng.choice([2, 3, 5, 7, 11]), rng.randint(1, 16), rng.randint(1, 3)
        prec, dagger = rng.choice([1, 5, 20, 60, 120]), rng.random() < 0.5
        den = rng.choice([d for d in range(1, 100) if d % p])
        zq = Fraction(rng.choice([1, -1]) * p**v * rng.choice([x for x in range(1, 200) if x % p]), den)
        z = PadicNumber.from_rational(zq, p, prec)
        expected = _outcome(_polylog_by_terms, k, z, dagger)
        assert _outcome(padic_polylog, k, z, dagger) == expected, (p, k, zq, prec, dagger)
        raised += expected[0] == "ZeroDivisionError"
    # both outcomes are exercised: values and the same division-by-zero error
    assert 0 < raised < 200


def test_known_to_sums_the_exact_lift_to_the_term_by_term_digits():
    # known_to sums z = P/Q itself, a lift of PadicNumber.from_rational(z, p,
    # prec + loss); the reported value must not depend on the lift
    rng = random.Random(2025)
    cases = []
    for _ in range(2000):
        p, k, v = rng.choice([2, 3, 5, 7, 11]), rng.randint(1, 16), rng.randint(1, 3)
        den = rng.choice([d for d in range(1, 100) if d % p])
        zq = Fraction(rng.choice([1, -1]) * p**v * rng.choice([x for x in range(1, 200) if x % p]), den)
        cases.append((p, k, zq, rng.choice([1, 5, 20, 60, 120, 400]), rng.random() < 0.5))
    for p in (2, 3, 5, 7, 11):
        cases.append((p, 16, Fraction(0), 20, False))
        # a lift wider than the Horner modulus
        wide = Fraction(-p * (p * rng.getrandbits(3000) + 1), p * rng.getrandbits(2000) + 1)
        cases += [(p, k, wide, prec, dagger) for k, prec, dagger in ((2, 20, False), (16, 60, True))]
        # a z whose valuation is at least prec + loss reads as O(p^(prec + loss))
        for k, prec in ((1, 1), (3, 2), (16, 5)):
            v = prec + _lost_digits(k, prec, p)
            cases += [(p, k, Fraction(p**v, 7 if p != 7 else 5), prec, dagger) for dagger in (False, True)]
    for p, k, zq, prec, dagger in cases:
        series = padic_li_dagger if dagger else padic_polylog
        v = _int_valuation(zq.numerator, p) - _int_valuation(zq.denominator, p) if zq else prec
        z = PadicNumber.from_rational(zq, p, prec + _lost_digits(k, v, p))
        expected = _outcome(_polylog_by_terms, k, z, dagger)
        assert _outcome(known_to, prec, series, k, zq, p) == expected, (p, k, zq, prec, dagger)
        # the added digits are the ones whose loss would divide by a p-adic zero
        assert expected[0] != "ZeroDivisionError" and expected[3] >= prec, (p, k, zq, prec, dagger)


def test_lift_must_be_congruent_to_z():
    z = PadicNumber.from_rational(Fraction(5, 7), 5, 20)
    assert padic_polylog(3, z, lift=Fraction(5 + 5**20, 7)) == padic_polylog(3, z)
    with pytest.raises(ValueError):
        padic_polylog(3, z, lift=Fraction(5 + 5**19, 7))


def test_exact_operands_never_limit_the_precision():
    x = PadicNumber.from_rational(Fraction(1, 2), 3, 10)
    assert (x * 27).aprec == 13 and x * 27 == PadicNumber.from_rational(Fraction(27, 2), 3, 13)
    assert (x / 27).aprec == 7 and x / 27 == PadicNumber.from_rational(Fraction(1, 54), 3, 7)
    # Li_16(z^3) / 3^16 used to read 3^16 at the quotient's own absolute
    # precision, as zero, and raise "division by a p-adic zero"
    z = PadicNumber.from_rational(Fraction(3, 2), 3, 30)
    big = padic_polylog(16, z**3)
    assert big / Fraction(3) ** 16 == big.shift(-16)
    assert (big / Fraction(3) ** 16).aprec == big.shift(-16).aprec
