"""Test-only p-adic references: the depth-2 polylogarithm summed term by
term in PadicNumber arithmetic, and an exact rational partial sum of Li_k
reduced once at the end."""

import math
from fractions import Fraction

from mzv.padic_eval import _CONSECUTIVE, OutsideDiskError, _require_disk
from mzv.padics import DEFAULT_PRECISION, PadicNumber, _int_valuation


def _sum_until_flat(terms, p: int, aprec: int) -> PadicNumber:
    acc = PadicNumber.zero(p, aprec)
    flat = 0
    for t in terms:
        acc = acc + t
        if t.is_zero() or t.valuation() >= aprec:
            flat += 1
            if flat >= _CONSECUTIVE:
                break
        else:
            flat = 0
    return acc


def padic_mpl2(a: int, b: int, z: PadicNumber) -> PadicNumber:
    """Depth-2 multiple polylogarithm sum_{n1<n2} z^n2 / (n1^a n2^b)."""
    _require_disk(z)
    p, aprec = z.p, z.aprec
    if z.is_zero():
        return PadicNumber.zero(p, aprec)
    guard = _guard(p, aprec, a + b)

    def terms():
        work = aprec + guard
        inner = PadicNumber.zero(p, work)
        zn = PadicNumber.from_rational(1, p, work)
        n = 0
        while True:
            n += 1
            zn = zn * z
            if n > 1:
                inner = inner + PadicNumber.from_rational(Fraction(1, (n - 1) ** a), p, work)
            yield zn * inner / PadicNumber.from_rational(Fraction(n) ** b, p, zn.aprec)

    return _sum_until_flat(terms(), p, aprec)


def polylog_reference(k: int, z_rational, p: int, aprec: int = DEFAULT_PRECISION) -> PadicNumber:
    """Independent oracle: exact rational partial sum reduced at the end.

    Sums Horner-style over a fixed range long enough that the dropped tail
    has valuation >= aprec, then converts once.
    """
    z = Fraction(z_rational)
    vz = _int_valuation(z.numerator, p) - _int_valuation(z.denominator, p)
    if vz < 1:
        raise OutsideDiskError("the reference series needs |z|_p < 1")
    # a dropped term n > top has valuation n*vz - k*v_p(n) >= n*vz - k*log_p(n),
    # which increases once n > k / (vz ln p): past that, checking top suffices
    top = aprec + k * _log_floor(p, aprec) + 8
    while top * vz * math.log(p) <= k or top * vz - k * math.log(top, p) < aprec + 2:
        top += 8
    acc = Fraction(0)
    for n in range(top, 0, -1):
        acc = acc * z + Fraction(1, n**k)
    acc *= z
    return PadicNumber.from_rational(acc, p, aprec)


def _log_floor(p: int, n: int) -> int:
    out = 0
    q = p
    while q <= n:
        q *= p
        out += 1
    return out


def _guard(p: int, aprec: int, k: int) -> int:
    return k * (_log_floor(p, 4 * aprec + 64) + 1) + 6
