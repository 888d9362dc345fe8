"""Complex-numeric evaluation: multiple zeta values, disk polylogarithms,
single-valued combinations, and numeric checks of relation rows.

Multiple zeta values are exact integer sums: the Hölder convolution at 1/2
writes each one as a sum of products of two positive series in 2^-n, whose
coefficients are kept in fixed point with floor division, so the error
bound is a closed form in the weight and the only float step is the final
correctly rounded division (see mzv_numeric).  The series of each word is
kept in a bounded memo, so the indices of one command share their
prefixes.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from .shufflealg import RelationRow

MZV_TOLERANCE = 1e-6
# the largest weight evaluated: the worst index there takes ~0.5 s (a cold
# `mzv eval` ~0.7 s on a 2-vCPU box), the cost growing with the weight
MAX_MZV_WEIGHT = 10_000
_BITS = 80  # fixed-point scale 2^_BITS, and the number of terms of every series
_ONE = 1 << _BITS
_EMPTY = 1 << (2 * _BITS)  # the integral of the empty word, 1
_N = range(1, _BITS + 1)
_SHIFTS = range(_BITS - 1, -1, -1)
# word -> (its coefficient vector, its integral), keyed by the integer with the
# word's letters for binary digits (every word starts with 1); ~3.6 KB an entry,
# emptied when _MAX_VECTORS are held
_VECTORS: dict[int, tuple[list[int], int]] = {}
_MAX_VECTORS = 4_096


class InadmissibleIndexError(ValueError):
    pass


def _admissible(index) -> tuple[int, ...]:
    entries = tuple(index)
    if not entries or entries[-1] < 2:
        raise InadmissibleIndexError(f"index {entries} is not admissible")
    if any(k < 1 for k in entries):
        raise InadmissibleIndexError(f"index {entries} has nonpositive entries")
    if sum(entries) > MAX_MZV_WEIGHT:
        raise ValueError(f"the index has weight {sum(entries)}, past the cap of {MAX_MZV_WEIGHT}")
    return entries


def _prefix_integrals(word: tuple[int, ...]) -> list[int]:
    """I(0; word[:j]; 1/2) * 2^(2 _BITS) rounded down, for j = 1..len(word).

    A word starting with 1 stands for sum_n a[n] x^n at x = 1/2, with a
    letter 1 opening a block and each 0 raising it: appending 0 divides a[n]
    by n, and appending 1 replaces a[n] by sum_{m<n} a[m] / n (the empty
    word is the constant 1, its a[0]).  The vector
    a[1.._BITS] is kept scaled by 2^_BITS with floor division, so each
    letter loses less than one unit per entry, and the integral sums it
    exactly against 2^-n.
    """
    out, key, vec = [], 0, []
    for letter in word:
        key = 2 * key + letter
        hit = _VECTORS.get(key)
        if hit is None:
            if letter:
                sums = accumulate(vec, initial=0) if vec else repeat(_ONE)
                vec = [s // n for n, s in zip(_N, sums)]
            else:
                vec = [a // n for n, a in zip(_N, vec)]
            if len(_VECTORS) >= _MAX_VECTORS:
                _VECTORS.clear()
            hit = _VECTORS[key] = vec, sum(a << s for a, s in zip(vec, _SHIFTS))
        vec = hit[0]
        out.append(hit[1])
    return out


def mzv_numeric(index, tolerance: float = MZV_TOLERANCE) -> tuple[float, float]:
    """Numeric value of an admissible multiple zeta value with an error bound.

    The Hölder convolution at 1/2 (Borwein, Bradley, Broadhurst and
    Lisonek, Trans. AMS 2001) splits the iterated integral of the word w:
    zeta(w) = sum_j I(w[:j]) I(w~_j), with w~_j the suffix w[j:] reversed
    and its letters swapped, so every w~_j is a prefix of the dual word
    w~_0 and both factors are positive series in 2^-n (_prefix_integrals).
    Those vectors are kept per word, so a command's indices share prefixes.

    The bound is a closed form.  Each computed entry a[n] is below the
    true one by less than |u| units of 2^-_BITS, and a[n] <= 1 (a word
    with d letters 1 is dominated by 1^d, and the coefficients of
    (-log(1-x))^d/d! over all d sum to 1), so each factor is at most 1 and
    low by less than (|u| + 1) 2^-_BITS with the tail past _BITS terms;
    the sum is low by less than W(W+3) 2^-_BITS at weight W.  Half an ulp
    for the rounding to float comes on top: 1.1e-16 for every value in
    [1, 2).  A ValueError is raised if the bound exceeds the tolerance.
    """
    entries = _admissible(index)
    word = tuple(x for k in entries for x in (1,) + (0,) * (k - 1))
    left = [_EMPTY] + _prefix_integrals(word)
    right = [_EMPTY] + _prefix_integrals(tuple(1 - a for a in reversed(word)))
    weight = len(word)
    value = sum(map(mul, left, reversed(right))) / _EMPTY**2
    bound = math.ldexp(weight * (weight + 3), -_BITS) + math.ulp(value) / 2
    if bound > tolerance:
        raise ValueError(f"the error bound {bound:g} is above the tolerance {tolerance:g}")
    return value, bound


def mzv(index) -> float:
    return mzv_numeric(index)[0]


# -- Bernoulli numbers -------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli numbers with B_1 = -1/2 (generating function t/(e^t - 1))."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += Fraction(math.comb(n + 1, j)) * bernoulli(j)
    return -acc / (n + 1)


# -- disk polylogarithms ------------------------------------------------------


# the most terms a disk series may sum; near |z| = 1 the count blows up
MAX_SERIES_TERMS = 1_000_000
# the last polylog pass: its point and [Li_1, ..., Li_K] there
_LAST_POLYLOGS: tuple[complex, list[complex]] = (0j, [])


def _series_cutoff(abs_z: float, tolerance: float) -> int:
    if abs_z >= 1:
        raise ValueError("polylogarithm series need |z| < 1")
    n = max(8, int(math.log(tolerance * (1 - abs_z)) / math.log(abs_z)) + 2)
    if n > MAX_SERIES_TERMS:
        raise ValueError(f"the polylogarithm series at |z| = {abs_z!r} needs {n:.3g} terms, "
                         f"past the cap of {MAX_SERIES_TERMS}")
    return n


def _powers(z: complex, n: int) -> list[complex]:
    """z, z^2, ..., z^n by repeated multiplication: the terms every disk
    series is summed from."""
    return list(accumulate(repeat(z, n), mul))


def _fsum(terms: list[complex]) -> complex:
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _term_cutoffs(r: float, k: int, n: int) -> list[int]:
    """For j = 2..k the first N with r^N / (N^j (1 - r)) < 1e-12, a bound on
    the tail of Li_j at |z| = r past its first N - 1 terms, but at least 9,
    so that every sum keeps 8 terms, as _series_cutoff does: near z = 0 the
    absolute bound alone would keep none, while the single-valued
    combinations weight Li_j by powers of log|z|^2.  The log of the bound
    falls strictly in N, and is below log(1e-12) at N = n, the
    _series_cutoff, so each N is found by bisection on [1, n]."""
    log_r, floor = math.log(r), math.log(1e-12 * (1 - r))
    out = []
    for j in range(2, k + 1):
        lo = 1
        while lo < n:
            mid = (lo + n) // 2
            if mid * log_r - j * math.log(mid) < floor:
                n = mid
            else:
                lo = mid + 1
        out.append(max(9, n))
    return out


def _li1(z: complex) -> complex:
    """Li_1(z) = -log(1 - z) to a few ulps relative.  Left of Re z = 1/2,
    log|1 - z|^2 is log1p(x(x - 2) + y^2), which forming 1 - z would round
    away at small |z|; right of it 1 - x is exact."""
    x, y = z.real, z.imag
    if x > 0.5:
        return -cmath.log(1 - z)
    return complex(-0.5 * math.log1p(x * (x - 2) + y * y), math.atan2(y, 1 - x))


def polylog(k: int, z: complex) -> complex:
    """Li_k on the open unit disk, with a tail below 1e-12.

    One pass gives Li_1..Li_k at z: Li_1 is the closed form -log(1 - z)
    (_li1), and each Li_j, j >= 2, sums z^n / n^j over the powers of z below
    its own cutoff (_term_cutoffs), real and imaginary parts by math.fsum.
    The last pass is kept, so a single-valued combination, which needs every
    order up to k at one point, sums the series once.
    """
    global _LAST_POLYLOGS
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    last, known = _LAST_POLYLOGS
    if last != z or len(known) < k:
        cutoffs = _term_cutoffs(abs(z), k, _series_cutoff(abs(z), 1e-12))
        powers = _powers(z, cutoffs[0] - 1 if cutoffs else 0)
        known = [_li1(z)]
        for j, cutoff in enumerate(cutoffs, 2):
            known.append(_fsum([p * n ** -j for n, p in zip(range(1, cutoff), powers)]))
        _LAST_POLYLOGS = (z, known)
    return known[k - 1]


# no caller in mzv: perfbench/tracer.py times it under `arch_eval.polylog` (tests/test_perfbench_contract.py)
def polylog2(a: int, b: int, z: complex) -> complex:
    """Li_{a,b}(z) = sum_{n1<n2} z^n2 / (n1^a n2^b) on the open disk, to 1e-12."""
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    cutoff = _series_cutoff(abs(z), 1e-12 / 4) + 32
    inner = accumulate((n ** -a for n in range(1, cutoff)), initial=0.0)  # sum_{m<n} m^-a
    return _fsum([p * n ** -b * s for n, p, s in zip(range(1, cutoff + 1), _powers(z, cutoff), inner)])


def log_abs_sq(z: complex) -> float:
    return 2.0 * math.log(abs(z))


def sv_polylog(k: int, z: complex) -> complex:
    """The single-valued combination of Li_k and its conjugate-argument twin.

    Evaluates Li_k(z) - sum_{a=0}^{k-1} (-1)^(k-a) (log|z|^2)^a / a! *
    Li_{k-a}(zbar) pointwise on the punctured open disk, with Li_j(zbar) the
    conjugate of Li_j(z), so one polylog pass at z gives every term.
    """
    z = complex(z)
    if z == 0 or abs(z) >= 1:
        raise ValueError("sv_polylog is evaluated on the punctured open unit disk")
    ell = log_abs_sq(z)
    acc = polylog(k, z)
    for a in range(k):
        acc -= (-1) ** (k - a) * ell**a / math.factorial(a) * polylog(k - a, z).conjugate()
    return acc


def zagier_p(k: int, z: complex) -> float:
    """Bernoulli-weighted real/imaginary projection of the polylogarithm:
    Re for odd k, Im for even k."""
    z = complex(z)
    if z == 0 or abs(z) >= 1:
        raise ValueError("zagier_p is evaluated on the punctured open unit disk")
    ell = log_abs_sq(z)
    acc = 0.0 + 0.0j
    for a in range(k):
        acc += float(bernoulli(a)) / math.factorial(a) * ell**a * polylog(k - a, z)
    return acc.real if k % 2 == 1 else acc.imag


# -- numeric character values and relation rows --------------------------------


def lambda_value(word: str) -> float:
    """Numeric character value of the complex associator on a Lyndon word."""
    from .shufflealg import index_of_word, is_convergent_word

    if not is_convergent_word(word):
        return 0.0
    entries, sign = index_of_word(word)
    return sign * mzv(entries)


def evaluate_relation_row(row: RelationRow) -> tuple[float, float]:
    """Numeric residual of a relation row under the MZV evaluator, and the
    largest residual a true relation can show: each monomial c M, M the
    float product of d values x with bounds b, is off by at most
    |c M| (sum b / x + (d + n + 2) 2^-53) with n the row's term count, which
    covers the factor bounds, the rounding of c and of the d products, and
    the n - 1 roundings of the sum."""
    residual = tolerance = 0.0
    for mono, c in row.coeffs.items():
        term, rel = float(c), (len(mono) + len(row.coeffs) + 2) * 2.0**-53
        for idx in mono:
            value, bound = mzv_numeric(idx)
            term *= value
            rel += bound / value
        residual += term
        tolerance += abs(term) * rel
    return residual, tolerance
