"""p-adic polylogarithms of an exact rational on the open unit disk.

Li_k(z) = sum z^n / n^k, or its prime-to-p part sum_{p∤n} z^n / n^k, at a
rational z of valuation v >= 1 is returned known to exactly prec digits.
Since z is exact, the only question is which terms reach below p^prec.
Term n = p^j m (p ∤ m) has valuation nv - kj.  Every term with v_p(n) = j
and valuation below prec has n <= N_j, the largest multiple of p^j with
N_j v <= prec + kj - 1.  Once p^j v > prec + kj - 1 for a j >= 1, p^j v >
kj >= k, so the step (p - 1) p^j v - k to j + 1 is positive and p^j v - kj
only grows: no larger j has a term in range.  So the sum runs over
n = 1..max_j N_j (n <= (prec - 1) / v for the prime-to-p series), every
later term has valuation at least prec, and the value is exact modulo
p^prec.  This plan depends only on (k, p, v, prec, prime-to-p or not), so
it is memoized in a bounded LRU cache, with its per-term constants
p^(K - kj) and m^k (K the largest kj).

The sum is then one backward Horner pass modulo p^(prec - v + K), with one
modular inverse at the end.  Its multiplier is z = P / Q as an integer pair
(Q prime to p): a step from n to the next summed n' = n + d (d is 1, or 2
when multiples of p are skipped) multiplies the numerator and denominator
by p^(K - kj) Q^d and m^k P^d, which are small for a small rational, and
the reduction that follows has a quotient of a few digits.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from .padics import PadicNumber, _int_valuation

# the largest precision the CLI accepts: the work grows as the square of the
# precision (a Horner step per digit, each linear in the width), and
# Li_16(7/3) at p = 7 takes ~0.14 s at 5,000 digits on a 2-vCPU box
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


@functools.lru_cache(maxsize=_PLANS)
def _plan(k: int, p: int, v: int, prec: int, skip_p_multiples: bool):
    """(top, mod, steps) for Li_k to prec digits at a z of valuation v: the
    largest kj, the Horner modulus p^(prec - v + top), and for every summed
    n = p^j m, last first, (p^(top - kj), m^k % mod, d) with d the gap to the
    next summed n (0 for the last); None when no term is below p^prec.  See
    the module docstring."""
    last, j = (prec - 1) // v, 1
    while not skip_p_multiples and p**j * v <= prec + k * j - 1:
        last = max(last, (prec + k * j - 1) // (p**j * v) * p**j)
        j += 1
    terms = []  # (n, m, j) for every summed term
    for n in range(1, last + 1):
        m, j = n, 0
        while m % p == 0:
            m //= p
            j += 1
        if not (skip_p_multiples and j):
            terms.append((n, m, j))
    if not terms:
        return None
    jmax = max(j for _, _, j in terms)
    top, mod = k * jmax, p ** (prec - v + k * jmax)
    shifts = [p ** (top - k * j) for j in range(jmax + 1)]
    steps, nxt = [], terms[-1][0]
    for n, m, j in reversed(terms):
        steps.append((shifts[j], pow(m, k, mod), nxt - n))
        nxt = n
    return top, mod, tuple(steps)


def padic_polylog(k: int, z: int | Fraction, p: int, prec: int,
                  skip_p_multiples: bool = False) -> PadicNumber:
    """Li_k(z) = sum z^n / n^k for a rational z with |z|_p < 1, known to
    exactly prec digits.

    With `skip_p_multiples` the summation runs over n prime to p, which is
    the overconvergent variant of the function.
    """
    z = Fraction(z)
    if not z:
        return PadicNumber.zero(p, prec)
    P, Q = z.numerator, z.denominator
    v = _int_valuation(P, p) - _int_valuation(Q, p)
    if v < 1:
        raise OutsideDiskError(f"|z|_p >= 1 (valuation {v}); the series only converges on the open disk")
    plan = _plan(k, p, v, prec, skip_p_multiples)
    if plan is None:
        return PadicNumber.zero(p, prec)
    top, mod, steps = plan

    # p^top sum z^n / n^k = z T_1 with T_n = p^(top - kj) / m^k + z^d T_n'
    # for consecutive summed n < n' = n + d; with T = num / den, den prime to
    # p: num' = p^(top - kj) Q^d den + m^k P^d num and den' = m^k Q^d den,
    # both modulo p^(prec - v + top); a z wider than that is reduced first
    P1, Q1 = (x if abs(x) < mod else x % mod for x in (P, Q))
    powers_p, powers_q = (1, P1, P1 * P1 % mod), (1, Q1, Q1 * Q1 % mod)
    num, den = 0, 1
    for shift, mk, d in steps:
        qd = powers_q[d]
        num = (shift * qd * den + mk * powers_p[d] * num) % mod
        den = mk * qd * den % mod
    return PadicNumber(p, v - top, P // p**v % mod * num * pow(Q1 * den, -1, mod) % mod, prec)
