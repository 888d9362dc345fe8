"""Numeric p-adic polylogarithms on the open unit disk.

Li_k(z) = sum z^n / n^k is summed in two passes over plain integers.  The
plan needs only small ints: with z = p^v u and n = p^j m, term n has
valuation nv - kj and, read at the precision z^n is known to (aprec +
(n-1)v digits), is known to min(aprec + (n-1)v - kj, aprec + (n-1)v - 2kj +
nv) digits.  Terms are taken until ten consecutive ones have valuation at
least aprec (the term valuation is eventually increasing, but not
monotonically, so a single-term test is unsafe), and the value is known to
the least of aprec and every term's precision.  The plan depends only on
(k, p, v, aprec, prime-to-p or not), so it is memoized in a bounded LRU
cache, with its per-term constants p^(K - kj) and m^k (K the largest kj).

The sum is then one backward Horner pass modulo a single power of p, with
one modular inverse at the end.  Its multiplier is z as an integer pair
(P, Q), z = P / Q with Q prime to p: `known_to` passes an exact rational's
numerator and denominator, a bare PadicNumber passes (p^v u, 1).  A step
from n to the next summed n' = n + d (d is 1, or 2 when multiples of p are
skipped) multiplies the full-width numerator and denominator by
p^(K - kj) Q^d and m^k P^d, which are small for a small rational, and the
reduction that follows has a quotient of a few digits.

These precisions are the ones a term-by-term PadicNumber sum tracks (z^n,
then n^k read at the precision of z^n, then the quotient), and that
tracking is sound, so the value modulo p^precision, and with it the
reported digits, is the same as that sum's.  The same argument makes the
digits independent of the lift: two rationals congruent modulo p^aprec
change term n by something of valuation at least aprec + (n-1)v - kj, so
the exact rational and the full-width unit give the same residue.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from .padics import PadicNumber, _int_valuation

_CONSECUTIVE = 10
# the largest precision the CLI accepts: the work grows as the square of the
# precision (a Horner step per digit, each linear in the width), and
# Li_16(7/3) at p = 7 takes ~0.25 s at 5,000 digits on a 2-vCPU box
MAX_PADIC_PRECISION = 5_000
# digits of a large p cost more: the CLI also bounds prec * p.bit_length(),
# which keeps every p <= 7 at 5,000 digits; Li_2(p/3) at the bound took
# ~0.08 s at p = 101 (2,142 digits) and ~0.07 s at p = 1009 (1,500 digits)
MAX_PADIC_BITS = 3 * MAX_PADIC_PRECISION
# Horner plans kept by _plan: one is ~0.75 MB at MAX_PADIC_PRECISION, and
# `padic verify-spain` needs a handful at a time (one per p, k, v and series)
_PLANS = 32


class OutsideDiskError(ValueError):
    pass


def _require_disk(z: PadicNumber):
    if z.is_zero():
        return
    if z.valuation() < 1:
        raise OutsideDiskError(f"|z|_p >= 1 (valuation {z.valuation()}); the series only converges on the open disk")


@functools.lru_cache(maxsize=_PLANS)
def _plan(k: int, p: int, v: int, aprec: int, skip_p_multiples: bool):
    """(final, top, mod, steps) for Li_k at a z of valuation v known to aprec
    digits: the precision of the value, the largest kj, the Horner modulus
    p^(final - v + top), and for every summed n = p^j m, last first,
    (p^(top - kj), m^k % mod, d) with d the gap to the next summed n (0 for
    the last).  See the module docstring."""
    terms = []  # (n, m, j) for every summed term
    final, flat, n = aprec, 0, 0
    while flat < _CONSECUTIVE:
        n += 1
        if skip_p_multiples and n % p == 0:
            continue
        m, j = n, 0
        while m % p == 0:
            m //= p
            j += 1
        kj, known = k * j, aprec + (n - 1) * v
        if known <= kj:
            raise ZeroDivisionError("division by a p-adic zero (to working precision)")
        final = min(final, known - kj, known - 2 * kj + n * v)
        flat = flat + 1 if n * v - kj >= aprec else 0
        terms.append((n, m, j))
    jmax = max(j for _, _, j in terms)
    top, mod = k * jmax, p ** (final - v + k * jmax)
    shifts = [p ** (top - k * j) for j in range(jmax + 1)]
    steps, nxt = [], terms[-1][0]
    for n, m, j in reversed(terms):
        steps.append((shifts[j], pow(m, k, mod), nxt - n))
        nxt = n
    return final, top, mod, tuple(steps)


def padic_polylog(k: int, z: PadicNumber, skip_p_multiples: bool = False,
                  lift: Fraction | None = None) -> PadicNumber:
    """Li_k(z) = sum z^n / n^k for |z|_p < 1.

    With `skip_p_multiples` the summation runs over n prime to p, which is
    the overconvergent variant of the function.  `lift`, an exact rational
    congruent to z modulo p^aprec, is summed in place of z's full-width
    unit: the digits are the same, and each Horner step is a small multiply.
    """
    _require_disk(z)
    p, aprec = z.p, z.aprec
    if z.is_zero():
        return PadicNumber.zero(p, aprec)
    v, zint = z.val, p**z.val * z.unit
    P, Q = (zint, 1) if lift is None else (lift.numerator, lift.denominator)
    if (P - Q * zint) % p**aprec:
        raise ValueError(f"{lift} is not congruent to z modulo {p}^{aprec}")
    final, top, mod, steps = _plan(k, p, v, aprec, skip_p_multiples)

    # p^top sum z^n / n^k = z T_1 with T_n = p^(top - kj) / m^k + z^d T_n'
    # for consecutive summed n < n' = n + d; with z = P / Q and T = num /
    # den, den prime to p: num' = p^(top - kj) Q^d den + m^k P^d num and
    # den' = m^k Q^d den, both modulo p^(final - v + top); a lift wider than
    # that modulus is reduced, so no multiplier is wider than it
    P1, Q1 = (x if abs(x) < mod else x % mod for x in (P, Q))
    powers_p, powers_q = (1, P1, P1 * P1 % mod), (1, Q1, Q1 * Q1 % mod)
    num, den = 0, 1
    for shift, mk, d in steps:
        qd = powers_q[d]
        num = (shift * qd * den + mk * powers_p[d] * num) % mod
        den = mk * qd * den % mod
    return PadicNumber(p, v - top, P // p**v % mod * num * pow(Q1 * den, -1, mod) % mod, final)


def padic_li_dagger(k: int, z: PadicNumber, lift: Fraction | None = None) -> PadicNumber:
    """The prime-to-p subseries sum_{(n,p)=1} z^n / n^k."""
    return padic_polylog(k, z, skip_p_multiples=True, lift=lift)


def known_to(prec: int, series, k: int, z_rational, p: int) -> PadicNumber:
    """series(k, z) for an exact rational z on the open disk, known at least
    modulo p^prec: z is given the digits the series loses to the p-power
    denominators n^k on top of prec.

    With z known to W digits and v = v_p(z) >= 1, the term z^n / n^k for
    n = p^j m is known to W + (n-1)v - kj digits, and n^k read at the
    precision of z^n costs kj - nv more where that is positive; both are
    worst at m = 1, and no digit is lost once p^j v > 2kj.
    """
    z = Fraction(z_rational)
    _require_disk(PadicNumber.from_rational(z, p, 1))
    v = _int_valuation(z.numerator, p) - _int_valuation(z.denominator, p) if z else prec
    return series(k, PadicNumber.from_rational(z, p, prec + _lost_digits(k, v, p)), lift=z)


def _lost_digits(k: int, v: int, p: int) -> int:
    """The digits of z (v = v_p(z) >= 1) that `known_to` adds on top of prec."""
    loss, j = 0, 1
    while p**j * v <= 2 * k * j:
        loss = max(loss, k * j - (p**j - 1) * v, 2 * k * j - (2 * p**j - 1) * v)
        j += 1
    return loss
