"""Test-only single-valued reference: the depth-2 closed form against the
word coefficient of the single-valued series."""

from mzv.arch_eval import evaluate_symbol_poly, sv_depth2_direct
from mzv.associator import single_valued_g0, zeta_lambda_expr


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
