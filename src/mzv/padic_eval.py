"""Numeric p-adic polylogarithms on the open unit disk.

Li_k(z) = sum z^n / n^k is summed in two passes over plain integers.  The
plan needs only small ints: with z = p^v u and n = p^j m, term n has
valuation nv - kj and, read at the precision z^n is known to (aprec +
(n-1)v digits), is known to min(aprec + (n-1)v - kj, aprec + (n-1)v - 2kj +
nv) digits.  Terms are taken until ten consecutive ones have valuation at
least aprec (the term valuation is eventually increasing, but not
monotonically, so a single-term test is unsafe), and the value is known to
the least of aprec and every term's precision.  The sum is then one backward
Horner pass modulo a single power of p, with one modular inverse at the end.

These precisions are the ones a term-by-term PadicNumber sum tracks (z^n,
then n^k read at the precision of z^n, then the quotient), and that
tracking is sound, so the value modulo p^precision, and with it the
reported digits, is the same as that sum's.
"""

from __future__ import annotations

from fractions import Fraction

from .padics import PadicNumber, _int_valuation

_CONSECUTIVE = 10
# the largest precision the CLI accepts: the work grows as the cube of the
# precision, and Li_16(7/3) at p = 7 takes ~2.7 s at 5,000 digits
MAX_PADIC_PRECISION = 5_000
# digits of a large p cost more: the CLI also bounds prec * p.bit_length(),
# which keeps every p <= 7 at 5,000 digits; Li_2(p/3) at the bound took
# ~1.4 s at p = 101 (2,142 digits) and ~1.0 s at p = 1009 (1,500 digits)
MAX_PADIC_BITS = 3 * MAX_PADIC_PRECISION


class OutsideDiskError(ValueError):
    pass


def _require_disk(z: PadicNumber):
    if z.is_zero():
        return
    if z.valuation() < 1:
        raise OutsideDiskError(f"|z|_p >= 1 (valuation {z.valuation()}); the series only converges on the open disk")


def padic_polylog(k: int, z: PadicNumber, skip_p_multiples: bool = False) -> PadicNumber:
    """Li_k(z) = sum z^n / n^k for |z|_p < 1.

    With `skip_p_multiples` the summation runs over n prime to p, which is
    the overconvergent variant of the function.
    """
    _require_disk(z)
    p, aprec = z.p, z.aprec
    if z.is_zero():
        return PadicNumber.zero(p, aprec)
    v, u = z.val, z.unit

    # the plan, in small ints (see the module docstring): n = p^j m, and
    # z^n is known to aprec + (n-1)v digits
    plan = []  # (n, m, kj) for every summed term
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
        plan.append((n, m, kj))

    # the sum: p^K sum z^n / n^k = z T_1 with T_n = p^(K - kj) / m^k +
    # z^(n' - n) T_n' over consecutive summed n < n', K the largest kj; T is
    # kept as num / den, den prime to p, modulo p^(final - v + K)
    top = max(kj for _, _, kj in plan)
    mod = p ** (final - v + top)
    zint = p**v * u % mod
    num, den, nxt = 0, 1, plan[-1][0]
    for n, m, kj in reversed(plan):
        mk = pow(m, k, mod)
        num = (p ** (top - kj) * den + mk * pow(zint, nxt - n, mod) * num) % mod
        den = den * mk % mod
        nxt = n
    return PadicNumber(p, v - top, u * num * pow(den, -1, mod) % mod, final)


def padic_li_dagger(k: int, z: PadicNumber) -> PadicNumber:
    """The prime-to-p subseries sum_{(n,p)=1} z^n / n^k."""
    return padic_polylog(k, z, skip_p_multiples=True)


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
    loss, j = 0, 1
    while p**j * v <= 2 * k * j:
        loss = max(loss, k * j - (p**j - 1) * v, 2 * k * j - (2 * p**j - 1) * v)
        j += 1
    return series(k, PadicNumber.from_rational(z, p, prec + loss))
