"""Complex-numeric evaluation: multiple zeta values, disk polylogarithms,
single-valued combinations, and numeric checks of relation rows.

Multiple zeta values are computed by one streaming pass of nested prefix
sums up to a cutoff M followed by an exact tail correction: the tail of a
nested sum telescopes into tails of strictly shallower nested sums with
larger last exponent, and the depth-one base case is Euler-Maclaurin with
three terms.  Everything is elementary summation; no acceleration beyond
the integral comparison is used, and the reported error bound adds the
analytic remainder to a float-roundoff allowance.  The cutoff M depends only
on the depth: the smallest power of two from 4,096 up at which the largest
remainder the tail adds is at most 1e-12, so 4,096 through depth 4, doubling
per depth from there, and _CUTOFF from depth 13 on.  A short sum also
collects less roundoff than a long one.

One pass serves a whole batch of indices at the same cutoff: each distinct
prefix is summed once and each power n^-k once per block.  The pass works
in physical blocks of _BLOCK terms nested in logical chunks of _CHUNK
terms; within a chunk the cumulative sum is sequential and continued across
blocks, and the carry from earlier chunks is added per element, so a value
is bit-identical whichever batch it was computed in.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .shufflealg import Monomial, RelationRow
from .symbols import (
    ARG_ABS_Z_SQ,
    ARG_ONE_MINUS_Z,
    ARG_ONE_MINUS_Z_CONJ,
    ARG_Z,
    ARG_Z_CONJ,
    LambdaSym,
    LiSym,
    LogSym,
    SymbolPoly,
    ZetaSym,
    ZSym,
)

MZV_TOLERANCE = 1e-6
_CUTOFF = 2_000_000
_CHUNK = 250_000
_BLOCK = 16_384


class InadmissibleIndexError(ValueError):
    pass


def _power_tail(k: int, m: float) -> float:
    """sum_{n>M} n^-k by Euler-Maclaurin with three terms."""
    return m ** (1 - k) / (k - 1) - m ** (-k) / 2 + k * m ** (-k - 1) / 12


def _power_tail_error(k: int, m: float) -> float:
    return k * (k + 1) * (k + 2) / 720.0 * m ** (-k - 3)


def _remainder(depth: int, k: int, m: float) -> float:
    """The remainder of _tail's Euler-Maclaurin expansion summed against the
    prefix, bounded with F_{d-2}(n) <= (log n + 2)^(d-2); largest at k = 2."""
    return (math.log(m) + 2) ** (depth - 1) * _power_tail_error(k, m) * m


def _stream_prefixes(indices, cutoff: int) -> dict[tuple[int, ...], float]:
    """F_p(cutoff) for every prefix p = (k_1..k_j) of every index, where
    F_p(n) = sum_{n_1 < ... < n_j <= n} n_1^-k_1 ... n_j^-k_j.

    One pass over n <= cutoff serves the whole batch.  Each distinct prefix
    is accumulated once, in sorted order, so it comes right after its parent
    and each n^-k is computed once per block for every prefix ending in k.

    The floats are those of a per-index loop over logical chunks of _CHUNK
    terms (cumsum within the chunk, then add the carry F_p(chunk start - 1)),
    worked in physical blocks of _BLOCK terms: np.cumsum is sequential, so
    adding the chunk's running sum into a block's first element continues
    the chunk's cumsum exactly, and the carry is added per element as before.
    """
    prefixes = sorted({e[:j] for e in indices for j in range(1, len(e) + 1)})
    powers = {k: np.empty(_BLOCK) for k in {p[-1] for p in prefixes}}
    # levels[j][0] holds F_p(block start - 1) and levels[j][1:] holds F_p(n)
    # over the block, for the last prefix p of depth j + 1: levels[j][:-1] is
    # the exclusive prefix F_p(n - 1) that its children multiply by
    levels = [np.empty(_BLOCK + 1) for _ in range(max(map(len, prefixes)))]
    steps = [(levels[len(p) - 1], powers[p[-1]], levels[len(p) - 2] if len(p) > 1 else None)
             for p in prefixes]
    carries = [0.0] * len(prefixes)  # F_p at the end of the last whole chunk
    runs = [0.0] * len(prefixes)     # cumsum of the current chunk so far
    for lo in range(1, cutoff + 1, _CHUNK):
        chunk_hi = min(lo + _CHUNK, cutoff + 1)
        for block_lo in range(lo, chunk_hi, _BLOCK):
            size = min(_BLOCK, chunk_hi - block_lo)
            n = np.arange(block_lo, block_lo + size, dtype=np.float64)
            for k, buf in powers.items():
                power = buf[:size]
                power[:] = n
                power **= -float(k)
            for i, (level, power, parent) in enumerate(steps):
                g = level[1 : size + 1]
                if parent is None:
                    g[:] = power[:size]
                else:
                    np.multiply(power[:size], parent[:size], out=g)
                run, carry = runs[i], carries[i]
                level[0] = run + carry
                g[0] += run
                np.cumsum(g, out=g)
                runs[i] = float(g[-1])
                g += carry
        carries = [r + c for r, c in zip(runs, carries)]
        runs = [0.0] * len(prefixes)
    return dict(zip(prefixes, carries))


def _tail(entries: tuple[int, ...], prefixes: dict, cutoff: int, memo: dict) -> tuple[float, float]:
    """(tail value, error bound) of sum_{n>cutoff} F_{d-1}(n-1) n^-k_d.

    Telescopes F_{d-1}(n-1) = F_{d-1}(M) + increments, swaps the order of
    summation, and expands the inner power tail by Euler-Maclaurin, which
    reduces the depth by one at a larger last exponent.  Each level asks for
    three shorter tails that overlap those of its neighbours, so `memo`
    (entries -> result, one per batch) keeps the work polynomial in depth.
    """
    if entries in memo:
        return memo[entries]
    m = float(cutoff)
    depth = len(entries)
    k = entries[-1]
    if depth == 1:
        memo[entries] = _power_tail(k, m), _power_tail_error(k, m)
        return memo[entries]
    head = prefixes[entries[:-1]]
    base = head * _power_tail(k, m)
    base_err = head * _power_tail_error(k, m)
    kp = entries[-2]
    rest = entries[:-2]
    t1, e1 = _tail(rest + (kp + k - 1,), prefixes, cutoff, memo)
    t2, e2 = _tail(rest + (kp + k,), prefixes, cutoff, memo)
    t3, e3 = _tail(rest + (kp + k + 1,), prefixes, cutoff, memo)
    value = base + t1 / (k - 1) - t2 / 2 + k * t3 / 12
    err = base_err + e1 / (k - 1) + e2 / 2 + k * e3 / 12 + _remainder(depth, k, m)
    memo[entries] = value, err
    return value, err


# (entries, cutoff) -> (value, error bound); a batch fills it in one pass
_BOUNDS: dict[tuple[tuple[int, ...], int], tuple[float, float]] = {}


def _stream_batch(indices, cutoff: int) -> None:
    missing = sorted({e for e in indices if (e, cutoff) not in _BOUNDS})
    if not missing:
        return
    prefixes = _stream_prefixes(missing, cutoff)
    memo: dict = {}
    for entries in missing:
        tail, err = _tail(entries, prefixes, cutoff, memo)
        roundoff = 5e-11 * (cutoff / 1e6 + 1) * len(entries)
        _BOUNDS[entries, cutoff] = (prefixes[entries] + tail, err + roundoff)


def _mzv_with_bound(entries: tuple[int, ...], cutoff: int) -> tuple[float, float]:
    _stream_batch([entries], cutoff)
    return _BOUNDS[entries, cutoff]


def _admissible(index) -> tuple[int, ...]:
    entries = tuple(index)
    if not entries or entries[-1] < 2:
        raise InadmissibleIndexError(f"index {entries} is not admissible")
    if any(k < 1 for k in entries):
        raise InadmissibleIndexError(f"index {entries} has nonpositive entries")
    return entries


def _cutoff(entries: tuple[int, ...]) -> int:
    """The smallest power of two >= 4,096 at which the largest remainder term
    of _tail, the k = 2 one, is at most 1e-12, capped at _CUTOFF: 4,096
    through depth 4, doubling per depth to 1,048,576 at depth 12, and
    _CUTOFF from depth 13 on."""
    m = 4_096
    while m < _CUTOFF and _remainder(len(entries), 2, m) > 1e-12:
        m *= 2
    return min(m, _CUTOFF)


def mzv_numeric(index, tolerance: float = MZV_TOLERANCE) -> tuple[float, float]:
    """Numeric value of an admissible multiple zeta value with an error bound.

    The cutoff depends only on the depth (see _cutoff).  The achieved bound
    is far below the default tolerance for every index the commands use
    (at most 3.1e-10 at weight 7, where `mzv relations --check-numeric`
    reaches depth 6); a ValueError is raised if the cutoff cannot meet the
    tolerance.
    """
    entries = _admissible(index)
    cutoff = _cutoff(entries)
    value, err = _mzv_with_bound(entries, cutoff)
    if err > tolerance:
        raise ValueError(f"cutoff {cutoff} only reaches error {err:g} > {tolerance:g}")
    return value, err


def mzv(index) -> float:
    return mzv_numeric(index)[0]


def prefetch_mzvs(indices) -> None:
    """Evaluate these admissible indices in one shared-prefix pass per cutoff
    and keep them, so that later mzv/mzv_numeric calls for them are lookups;
    the floats do not depend on the batch."""
    wanted = set(map(_admissible, indices))
    for c in {_cutoff(e) for e in wanted}:
        _stream_batch([e for e in wanted if _cutoff(e) == c], c)


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


def _series_cutoff(abs_z: float, tolerance: float) -> int:
    if abs_z >= 1:
        raise ValueError("polylogarithm series need |z| < 1")
    n = max(8, int(math.log(tolerance * (1 - abs_z)) / math.log(abs_z)) + 2)
    if n > MAX_SERIES_TERMS:
        raise ValueError(f"the polylogarithm series at |z| = {abs_z!r} needs {n:.3g} terms, "
                         f"past the cap of {MAX_SERIES_TERMS}")
    return n


def polylog(k: int, z: complex) -> complex:
    """Li_k on the open unit disk by direct summation, cut where the
    geometric tail bound falls below 1e-12."""
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    cutoff = _series_cutoff(abs(z), 1e-12)
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    return complex(np.sum(z ** n / n ** float(k)))


def polylog2(a: int, b: int, z: complex) -> complex:
    """Li_{a,b}(z) = sum_{n1<n2} z^n2 / (n1^a n2^b) on the open disk, to 1e-12."""
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    cutoff = _series_cutoff(abs(z), 1e-12 / 4) + 32
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    inner = np.concatenate(([0.0], np.cumsum(n ** (-float(a)))[:-1]))
    return complex(np.sum(z ** n * n ** (-float(b)) * inner))


def log_abs_sq(z: complex) -> float:
    return 2.0 * math.log(abs(z))


def sv_polylog(k: int, z: complex) -> complex:
    """The single-valued combination of Li_k and its conjugate-argument twin.

    Evaluates Li_k(z) - sum_{a=0}^{k-1} (-1)^(k-a) (log|z|^2)^a / a! *
    Li_{k-a}(zbar) pointwise on the punctured open disk.
    """
    z = complex(z)
    if z == 0 or abs(z) >= 1:
        raise ValueError("sv_polylog is evaluated on the punctured open unit disk")
    ell = log_abs_sq(z)
    acc = polylog(k, z)
    for a in range(k):
        acc -= (-1) ** (k - a) * ell**a / math.factorial(a) * polylog(k - a, z.conjugate())
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


def sv_depth2_direct(a: int, b: int, z: complex) -> complex:
    """The closed-form single-valued depth-2 polylogarithm evaluated literally.

    Divergent zeta(1)-type constants are regularized to 0.
    """
    z = complex(z)
    zb = z.conjugate()
    ell = log_abs_sq(z)

    def zeta_reg(k: int) -> float:
        return 0.0 if k <= 1 else mzv((k,))

    def li(k: int, arg: complex) -> complex:
        return polylog(k, arg)

    total = polylog2(a, b, z)
    for r in range(a):
        for s in range(r + 1):
            outer = (
                (-1) ** (a + r + s)
                * math.comb(b - 1 + s, s)
                * ell ** (r - s)
                / math.factorial(r - s)
                * li(a - r, zb)
            )
            inner = li(b + s, z)
            for w in range(b + s):
                inner -= (-1) ** (b + s + w) * ell**w / math.factorial(w) * li(b + s - w, zb)
            total -= outer * inner
    for u in range(b):
        bracket = (-1) ** (a + b + u) * polylog2(a, b - u, zb)
        bracket += ((-1) ** (b + u) - (-1) ** (a + b + u)) * zeta_reg(a) * li(b - u, zb)
        for v in range(b - u):
            bracket += (
                ((-1) ** (a + b + u + v) - (-1) ** (b + u))
                * math.comb(a + v - 1, a - 1)
                * zeta_reg(a + v)
                * li(b - u - v, zb)
            )
        total -= ell**u / math.factorial(u) * bracket
    return total


# -- numeric evaluation of symbolic expressions --------------------------------


def lambda_value(word: str) -> float:
    """Numeric character value of the complex associator on a Lyndon word."""
    from .shufflealg import index_of_word, is_convergent_word

    if not is_convergent_word(word):
        return 0.0
    entries, sign = index_of_word(word)
    return sign * mzv(entries)


def evaluate_symbol_poly(poly: SymbolPoly, z: complex | None = None) -> complex:
    """Evaluate a symbolic polynomial at a disk point with numeric MZVs.

    Complex-flavor zeta symbols and lambda symbols of the complex tag "c" map to
    numeric multiple zeta values; Li and log symbols are evaluated at z /
    zbar.  p-adic symbols have no complex value and raise.
    """
    args: dict[str, complex] = {}
    if z is not None:
        z = complex(z)
        args = {ARG_Z: z, ARG_Z_CONJ: z.conjugate()}

    def gen_value(g) -> complex:
        if isinstance(g, ZetaSym):
            if g.flavor != "complex":
                raise ValueError(f"{g} has no complex numeric value")
            return 0.0 if g.index == (1,) else mzv(g.index)
        if isinstance(g, LambdaSym):
            if g.tag != "c":
                raise ValueError(f"lambda symbol {g} does not match tag 'c'")
            return lambda_value(g.word)
        if isinstance(g, ZSym):
            if ARG_Z not in args:
                raise ValueError("no numeric value for z")
            return args[ARG_Z]
        if isinstance(g, LogSym):
            if g.arg == ARG_ABS_Z_SQ:
                return log_abs_sq(args[ARG_Z])
            if g.arg == ARG_ONE_MINUS_Z:
                return cmath.log(1 - args[ARG_Z])
            if g.arg == ARG_ONE_MINUS_Z_CONJ:
                return cmath.log(1 - args[ARG_Z_CONJ])
            if g.arg not in args:
                raise ValueError(f"no numeric value for the argument of {g}")
            return cmath.log(args[g.arg])
        if isinstance(g, LiSym):
            if g.arg not in args:
                raise ValueError(f"no numeric value for the argument of {g}")
            target = args[g.arg]
            if len(g.index) == 1:
                return polylog(g.index[0], target)
            if len(g.index) == 2:
                return polylog2(g.index[0], g.index[1], target)
            raise ValueError(f"no numeric evaluator for depth {len(g.index)} Li symbol")
        raise TypeError(f"unknown generator {g!r}")

    total = 0.0 + 0.0j
    for mono, c in poly.terms.items():
        term = complex(c)
        for g, e in mono:
            term *= gen_value(g) ** e
        total += term
    return total


def evaluate_monomial(mono: Monomial) -> float:
    out = 1.0
    for idx in mono:
        out *= mzv(idx)
    return out


def evaluate_relation_row(row: RelationRow) -> float:
    """Numeric residual of a relation row under the complex MZV evaluator."""
    return sum(float(c) * evaluate_monomial(m) for m, c in row.coeffs.items())


def evaluate_relation_rows(rows: list[RelationRow]) -> list[float]:
    """Numeric residuals of relation rows, every MZV from one batch."""
    prefetch_mzvs({idx for row in rows for mono in row.coeffs for idx in mono})
    return [evaluate_relation_row(row) for row in rows]


def sv_depth2_book_residual(a: int, b: int, z: complex) -> float:
    """|direct depth-2 single-valued formula - symbolic expansion| at z.

    The symbolic side is the word coefficient of the single-valued series
    built in the associator module, evaluated with numeric polylogarithms
    and zeta values; the direct side is the closed-form depth-2 display.
    """
    from .associator import single_valued_g0, zeta_lambda_expr

    sym = zeta_lambda_expr(single_valued_g0(max(a + b, 2)), (a, b))
    lhs = evaluate_symbol_poly(sym, z=z)
    rhs = sv_depth2_direct(a, b, z)
    return abs(lhs - rhs)
