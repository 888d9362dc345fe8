"""Test-only single-valued references: the depth-2 closed form evaluated
literally, a numeric evaluator of symbolic polynomials, and the residual
between the closed form and the word coefficient of the single-valued
series."""

import cmath
import math

from mzv.arch_eval import lambda_value, log_abs_sq, mzv, polylog, polylog2
from mzv.associator import single_valued_g0, zeta_lambda_expr
from mzv.symbols import (
    ARG_ABS_Z_SQ,
    ARG_ONE_MINUS_Z,
    ARG_Z,
    ARG_Z_CONJ,
    LambdaSym,
    LiSym,
    LogSym,
    SymbolPoly,
    ZetaSym,
    ZSym,
)

# the argument tag of log(1-zbar): the package mints no symbol at 1 - zbar,
# so only the evaluator below names it
ARG_ONE_MINUS_Z_CONJ = "1-zbar"


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


def sv_depth2_book_residual(a: int, b: int, z: complex) -> float:
    """|direct depth-2 single-valued formula - symbolic expansion| at z.

    The symbolic side is the word coefficient of the single-valued series
    built in the associator module, evaluated with numeric polylogarithms
    and zeta values; the direct side is the closed-form depth-2 display.
    """
    sym = zeta_lambda_expr(single_valued_g0(max(a + b, 2)), (a, b))
    lhs = evaluate_symbol_poly(sym, z=z)
    rhs = sv_depth2_direct(a, b, z)
    return abs(lhs - rhs)
