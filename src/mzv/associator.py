"""Associator-type group-like series, their twisted quotients, and the
machinery that verifies the worked identities.

Symbolic associators are parameterized by free character coordinates
(lambda symbols) on Lyndon words of weight >= 2; zeta symbols of every
flavor are derived expressions: the flavor's zeta value at an index is
the sign-adjusted word coefficient of the corresponding series.  Every
symbolic identity is compared in one canonical form,
`canonicalize_li_symbols(lhs - rhs, truncation, p).is_zero()`: the ring
homomorphism that sends each zeta symbol to its lambda expression, each Li
symbol at a non-Lyndon index to a polynomial in Lyndon-index Li symbols
and logarithms, log(z^p) to p log z and log|z|^2 to log z + log zbar.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from .braid import BraidElement, evaluate_series
from .rings import SYMBOLIC, complex_ring
from .series import NCSeries, character_series
from .shufflealg import admissible_indices, index_of_word, word_of_index
from .symbols import (
    ARG_ABS_Z_SQ,
    ARG_Z,
    ARG_Z_CONJ,
    ARG_Z_POW_P,
    LambdaSym,
    LiSym,
    LogSym,
    SymbolPoly,
    ZetaSym,
    derivative_kernels,
    formal_derivative,
    z_poly,
)
from .words import is_lyndon, lyndon_words

COMPLEX_KZ = "complex_KZ"
PADIC_KZ = "padic_KZ"
PADIC_DELIGNE = "padic_Deligne"
MINUS_KZ = "minus_KZ"
SYMBOLIC_LAMBDA = "symbolic_lambda"
FLAVORS = (COMPLEX_KZ, PADIC_KZ, PADIC_DELIGNE, MINUS_KZ, SYMBOLIC_LAMBDA)

# -- the twisted substitution ----------------------------------------------------


def twisted_substitution(f: NCSeries, g: NCSeries, s) -> NCSeries:
    """f(sA, g^-1 (sB) g): the substitution behind the Frobenius and
    conjugation quotients and the comparison identity."""
    ring = f.ring
    n = min(f.truncation, g.truncation)
    s = ring.from_fraction(s) if isinstance(s, (int, Fraction)) else s
    img_a = NCSeries.letter(ring, "A", n, coeff=s)
    img_b = g.invert() * NCSeries.letter(ring, "B", n, coeff=s) * g
    return f.substitute(img_a, img_b)


# -- symbolic and numeric associator builders ----------------------------------


@lru_cache(maxsize=None)
def build_symbolic_associator(tag: str, truncation: int) -> NCSeries:
    """Group-like series with free lambda coordinates on Lyndon words of
    weight >= 2 and vanishing letter coefficients."""
    assignments = {}
    for w in lyndon_words(truncation):
        if len(w) >= 2:
            assignments[w] = SymbolPoly.gen(LambdaSym(tag, w))
    return character_series(assignments, truncation, SYMBOLIC)


@lru_cache(maxsize=None)
def build_numeric_kz(truncation: int) -> NCSeries:
    """The complex associator with numeric multiple zeta value coefficients,
    over the complex ring that treats |c| <= 1e-9 as zero."""
    from .arch_eval import lambda_value

    words = lyndon_words(truncation)
    return character_series({w: complex(lambda_value(w)) for w in words}, truncation, complex_ring(1e-9))


@lru_cache(maxsize=None)
def build_associator(flavor: str, truncation: int, p: int | None = None) -> NCSeries:
    """The associator of the given flavor; each (flavor, truncation, p) is
    built once per process, so a command solves each twisted quotient once."""
    if flavor == COMPLEX_KZ:
        return build_numeric_kz(truncation)
    if flavor in (PADIC_KZ,):
        return build_symbolic_associator("p", truncation)
    if flavor == SYMBOLIC_LAMBDA:
        return build_symbolic_associator("c", truncation)
    if flavor == PADIC_DELIGNE:
        if p is None:
            raise ValueError("the Deligne-type associator needs the prime p")
        return solve_deligne(build_symbolic_associator("p", truncation), p)
    if flavor == MINUS_KZ:
        return solve_minus(build_symbolic_associator("c", truncation))
    raise ValueError(f"unknown flavor {flavor!r}; pick one of {FLAVORS}")


def zeta_lambda_expr(series: NCSeries, index: tuple[int, ...]) -> SymbolPoly:
    """The flavor's zeta value at `index` as a polynomial in lambda symbols:
    the sign-adjusted word coefficient of the series."""
    word, sign = word_of_index(index)
    return Fraction(sign) * series[word]


_ZETA_SERIES = {"p-adic": PADIC_KZ, "complex": SYMBOLIC_LAMBDA, "p-adic-Deligne": PADIC_DELIGNE}


@lru_cache(maxsize=None)
def _zeta_substitution_table(flavor: str, truncation: int, p: int | None):
    """Lambda expressions of one zeta flavor at every admissible index of
    weight 2..truncation."""
    series = build_associator(_ZETA_SERIES[flavor], truncation, p)
    return {ZetaSym(flavor, idx): zeta_lambda_expr(series, idx)
            for weight in range(2, truncation + 1) for idx in admissible_indices(weight)}


# -- twisted self-referential solvers -------------------------------------------


def _solve_twisted(phi: NCSeries, scale) -> NCSeries:
    """Solve G = phi * phi(scale*A, G^-1 (scale*B) G)^-1, one weight per pass.

    Invariant: the weight-k part of the right-hand side depends on G only
    through its weights < k, because every G factor of the conjugated letter
    sits next to a B of weight one.  So with G exact at truncation k-1, the
    right-hand side evaluated at truncation k is G exact at truncation k.

    Each pass lifts G to truncation k with a zero weight-k part, so G is
    group-like only below weight k, and `invert` (the antipode, which works
    weight by weight) gives G^-1 exactly below weight k.  Its weight-k part
    only ever multiplies scale*B, so the truncation cuts it off.  phi must be
    group-like; then so is the twisted series that each pass inverts.
    """
    ring = phi.ring
    g = NCSeries.one(ring, 0)
    for k in range(1, phi.truncation + 1):
        phi_k = phi.truncate(k)
        g = phi_k * twisted_substitution(phi_k, NCSeries(ring, k, g.coeffs), scale).invert()
    return g


def solve_deligne(phi_kz: NCSeries, p: int) -> NCSeries:
    """The Frobenius-quotient associator determined by phi_kz and p."""
    return _solve_twisted(phi_kz, Fraction(1, p))


def solve_minus(phi_kz: NCSeries) -> NCSeries:
    """The complex-conjugation quotient of the associator (scale -1)."""
    return _solve_twisted(phi_kz, Fraction(-1))


def comparison_residual(phi_kz: NCSeries, g: NCSeries, scale) -> NCSeries:
    """phi_kz - g * phi_kz(scale*A, g^-1 (scale*B) g); exact zero certifies
    the twisted-quotient identity."""
    return phi_kz - g * twisted_substitution(phi_kz, g, scale)


# -- fundamental-solution builders ----------------------------------------------


@lru_cache(maxsize=None)
def g0_symbolic(arg: str, truncation: int, li_flavor: str) -> NCSeries:
    """The fundamental-solution series at the given argument tag.

    Character values on Lyndon words: A maps to log(arg), B to -Li_1(arg),
    and every other Lyndon word to its (-1)^depth-signed Li symbol.  The
    flavor has no default, so every caller shares one cache entry per table.
    """
    assignments: dict[str, SymbolPoly] = {
        "A": SymbolPoly.gen(LogSym(arg)),
        "B": -SymbolPoly.gen(LiSym(li_flavor, (1,), arg)),
    }
    for w in lyndon_words(truncation):
        if len(w) >= 2:
            entries, sign = index_of_word(w)
            assignments[w] = SymbolPoly.gen(LiSym(li_flavor, entries, arg), Fraction(sign))
    return character_series(assignments, truncation, SYMBOLIC)


@lru_cache(maxsize=None)
def overconvergent_g0(p: int, truncation: int) -> NCSeries:
    """G0(z) * [G0 at z^p twisted by A -> A/p, B -> phi_de^-1 (B/p) phi_de]^-1.

    The word coefficients, sign-adjusted, define the overconvergent
    polylogarithm expressions.
    """
    phi_de = build_associator(PADIC_DELIGNE, truncation, p)
    base = g0_symbolic(ARG_Z, truncation, "plain")
    shifted = g0_symbolic(ARG_Z_POW_P, truncation, "plain")
    return base * twisted_substitution(shifted, phi_de, Fraction(1, p)).invert()


@lru_cache(maxsize=None)
def single_valued_g0(truncation: int) -> NCSeries:
    """G0(z) * [G0 at zbar twisted by A -> -A, B -> phi_minus^-1 (-B) phi_minus]^-1."""
    phi_minus = build_associator(MINUS_KZ, truncation)
    base = g0_symbolic(ARG_Z, truncation, "plain")
    conj = g0_symbolic(ARG_Z_CONJ, truncation, "plain")
    return base * twisted_substitution(conj, phi_minus, -1).invert()


# -- the canonical form of symbolic identities -----------------------------------


@lru_cache(maxsize=None)
def _canonical_image(g, truncation: int, p: int | None) -> SymbolPoly | None:
    """The image of one generator under `canonicalize_li_symbols`, or None
    when the generator is fixed.  Every image is a fixpoint of the map."""
    if isinstance(g, ZetaSym):
        if g.index == (1,):
            return SymbolPoly.ZERO
        if g.flavor == "p-adic-Deligne" and p is None:
            return None
        return _zeta_substitution_table(g.flavor, truncation, p).get(g)
    if isinstance(g, LogSym):
        if g.arg == ARG_Z_POW_P and p is not None:
            return Fraction(p) * SymbolPoly.gen(LogSym(ARG_Z))
        if g.arg == ARG_ABS_Z_SQ:
            return SymbolPoly.gen(LogSym(ARG_Z)) + SymbolPoly.gen(LogSym(ARG_Z_CONJ))
        return None
    if isinstance(g, LiSym) and not is_lyndon(word_of_index(g.index)[0]):
        if g.weight > truncation:
            raise ValueError(f"{g} has weight above the truncation {truncation}")
        table = g0_symbolic(g.arg, truncation, g.flavor)
        return canonicalize_li_symbols(zeta_lambda_expr(table, g.index), truncation, p)
    return None


def canonicalize_li_symbols(poly: SymbolPoly, truncation: int, p: int | None = None) -> SymbolPoly:
    """The canonical form in which every symbolic identity is compared (see
    the module docstring): zeta at index (1) maps to zero, and the Deligne
    flavor and log(z^p) stay symbols when p is not given.  A non-Lyndon Li
    index maps to its word coefficient in the fundamental solution at its
    argument, because the polylogarithms satisfy the shuffle relations.
    Every image is itself canonical, so the map is idempotent."""
    mapping = {g: image for g in poly.generators() if (image := _canonical_image(g, truncation, p)) is not None}
    return poly.substitute(mapping, _canonical_monomials(truncation, p)) if mapping else poly


@lru_cache(maxsize=None)
def _canonical_monomials(truncation: int, p: int | None) -> dict:
    """Monomial images of `canonicalize_li_symbols`, shared between its calls."""
    return {}


# -- differential-equation residuals ---------------------------------------------


def verify_kz_equation(g: NCSeries, p: int | None = None,
                       frobenius_conjugator: NCSeries | None = None) -> NCSeries:
    """Residual of the differential equation satisfied by a fundamental
    solution, dG - (A/z + B/(z-1)) G, minus the right-multiplier term
    G (A dz^p/(p z^p) + conj(B) dz^p/(p(z^p-1))) when a Frobenius
    conjugator is supplied (the modified equation for the overconvergent
    solution), all multiplied by D = z(1-z), or z(1-z^p) when p is given.

    D clears every denominator, so the scaled residual is a polynomial in z
    and the symbols: the right-multiplier term becomes
    G (A (1-z^p) - conj(B) z^p).  D is a nonzero polynomial, so the scaled
    residual is identically zero in the symbol ring exactly when the
    residual is; the canonical form fixes z, so it commutes with the
    scaling.
    """
    n = g.truncation
    dg = NCSeries(SYMBOLIC, n, {w: formal_derivative(c, p) for w, c in g.coeffs.items()})
    _, d_over_z, d_over_1mz = derivative_kernels(p)
    # D (A/z + B/(z-1)) = A D/z - B D/(1-z)
    residual = dg - NCSeries(SYMBOLIC, n, {"A": d_over_z, "B": -d_over_1mz}) * g
    if frobenius_conjugator is not None:
        if p is None:
            raise ValueError("the modified equation needs the prime p")
        # conj(B) = phi_de^-1 B phi_de: the twisted substitution at scale 1
        conj = twisted_substitution(NCSeries.letter(SYMBOLIC, "B", n), frobenius_conjugator, 1)
        z_p = z_poly([0] * p + [1])
        right = NCSeries(SYMBOLIC, n, {"A": 1 - z_p}) - conj.scale(z_p)
        residual = residual + g * right
    # derivatives mint Li symbols at non-Lyndon indices; the canonical form
    # reduces them to the Lyndon parameterization so that exact zero is decidable
    return NCSeries(SYMBOLIC, n, {w: canonicalize_li_symbols(c, n, p) for w, c in residual.coeffs.items()})


# -- defining relations: duality, hexagon and pentagon ---------------------------


def duality_residual(phi: NCSeries) -> NCSeries:
    """phi(A,B) phi(B,A) - 1."""
    n, ring = phi.truncation, phi.ring
    a, b = NCSeries.letter(ring, "A", n), NCSeries.letter(ring, "B", n)
    return phi * phi.substitute(b, a) - NCSeries.one(ring, n)


def hexagon_residual(phi: NCSeries, mu) -> NCSeries:
    """The three-cycle product with C = -A-B, minus 1.

    mu = 0 gives the plain product phi(C,A) phi(B,C) phi(A,B), whose
    symbolic coefficients are polynomial constraints; mu = 2 pi i (see
    `complex_hexagon_scale`) dresses it as the complex associator's hexagon,
    e^(mu A/2) phi(C,A) e^(mu C/2) phi(B,C) e^(mu B/2) phi(A,B), multiplied
    left to right.
    """
    n, ring = phi.truncation, phi.ring
    a, b = NCSeries.letter(ring, "A", n), NCSeries.letter(ring, "B", n)
    c = -a - b
    if not mu:
        return phi.substitute(c, a) * phi.substitute(b, c) * phi - NCSeries.one(ring, n)
    half = mu / 2
    e_a = NCSeries.letter(ring, "A", n, coeff=half).exp()
    e_c = (NCSeries.letter(ring, "A", n, coeff=-half) + NCSeries.letter(ring, "B", n, coeff=-half)).exp()
    e_b = NCSeries.letter(ring, "B", n, coeff=half).exp()
    return e_a * phi.substitute(c, a) * e_c * phi.substitute(b, c) * e_b * phi - NCSeries.one(ring, n)


def pentagon_residual(phi: NCSeries) -> BraidElement:
    """The five-cycle pentagon product minus 1 in the reduced braid algebra."""
    n, unit = phi.truncation, phi.ring.one
    acc = BraidElement.one(n, unit=unit)
    for i, j, k, l in ((1, 2, 2, 3), (3, 4, 4, 5), (5, 1, 1, 2), (2, 3, 3, 4), (4, 5, 5, 1)):
        x = BraidElement.generator(i, j, n, unit=unit)
        y = BraidElement.generator(k, l, n, unit=unit)
        acc = acc * evaluate_series(phi, x, y, n)
    return acc - BraidElement.one(n, unit=unit)


def complex_hexagon_scale() -> complex:
    return 2j * math.pi


# -- worked-identity formulas -----------------------------------------------------


def check_formula(series: NCSeries, index: tuple[int, ...], formula: SymbolPoly, p: int | None = None) -> bool:
    """The sign-adjusted coefficient of `series` at `index` equals `formula`
    in the canonical form at the series' truncation."""
    return canonicalize_li_symbols(zeta_lambda_expr(series, index) - formula, series.truncation, p).is_zero()


def _zeta(flavor: str, index: tuple[int, ...]) -> SymbolPoly:
    return SymbolPoly.ZERO if index == (1,) else SymbolPoly.gen(ZetaSym(flavor, index))


def deligne_depth1_formula(k: int, p: int) -> SymbolPoly:
    """zetaDe(k) = (1 - p^-k) zeta_p(k)."""
    return (1 - Fraction(1, p**k)) * _zeta("p-adic", (k,))


def deligne_depth2_formula(a: int, b: int, p: int) -> SymbolPoly:
    """The depth-2 comparison between the two p-adic zeta flavors."""
    zeta = partial(_zeta, "p-adic")
    q = lambda e: Fraction(1, p**e)
    out = (1 - q(a + b)) * zeta((a, b))
    out = out - (q(b) - q(a + b)) * zeta((a,)) * zeta((b,))
    for r in range(a):
        out = out - Fraction((-1) ** r) * (q(a - r) - q(a + b)) * math.comb(b - 1 + r, b - 1) * zeta((a - r,)) * zeta((b + r,))
    for s in range(b):
        out = out - Fraction((-1) ** a) * (q(b - s) - q(a + b)) * math.comb(a - 1 + s, a - 1) * zeta((a + s,)) * zeta((b - s,))
    return out


def _li(index, arg: str) -> SymbolPoly:
    return SymbolPoly.gen(LiSym("plain", tuple(index), arg))


def dagger_depth1_formula(k: int, p: int) -> SymbolPoly:
    """Li-dagger_k(z) = Li_k(z) - p^-k Li_k(z^p)."""
    return _li((k,), ARG_Z) - Fraction(1, p**k) * _li((k,), ARG_Z_POW_P)


def dagger_depth2_formula(a: int, b: int, p: int) -> SymbolPoly:
    """The depth-2 overconvergent polylogarithm in plain polylogarithms."""
    zeta = partial(_zeta, "p-adic")
    q = lambda e: Fraction(1, p**e)
    out = _li((a, b), ARG_Z) - q(a + b) * _li((a, b), ARG_Z_POW_P)
    out = out - (q(b) - q(a + b)) * zeta((a,)) * _li((b,), ARG_Z_POW_P)
    for r in range(a):
        inner = _li((b + r,), ARG_Z) - q(b + r) * _li((b + r,), ARG_Z_POW_P)
        out = out - Fraction((-1) ** r) * q(a - r) * math.comb(b - 1 + r, r) * _li((a - r,), ARG_Z_POW_P) * inner
    for s in range(b):
        out = out - Fraction((-1) ** a) * (q(b - s) - q(a + b)) * math.comb(a - 1 + s, a - 1) * zeta((a + s,)) * _li((b - s,), ARG_Z_POW_P)
    return out


def sv_depth1_formula(k: int) -> SymbolPoly:
    """Li-minus_k(z) = Li_k(z) - sum (-1)^(k-a) (log|z|^2)^a / a! Li_(k-a)(zbar)."""
    ell = SymbolPoly.gen(LogSym(ARG_ABS_Z_SQ))
    out = _li((k,), ARG_Z)
    for a in range(k):
        out = out - Fraction((-1) ** (k - a), math.factorial(a)) * ell**a * _li((k - a,), ARG_Z_CONJ)
    return out


def sv_depth2_formula(a: int, b: int) -> SymbolPoly:
    """The depth-2 single-valued polylogarithm in plain polylogarithms."""
    zeta = partial(_zeta, "complex")
    ell = SymbolPoly.gen(LogSym(ARG_ABS_Z_SQ))
    out = _li((a, b), ARG_Z)
    for r in range(a):
        for s in range(r + 1):
            outer = (Fraction((-1) ** (a + r + s) * math.comb(b - 1 + s, s), math.factorial(r - s))
                     * ell ** (r - s) * _li((a - r,), ARG_Z_CONJ))
            inner = _li((b + s,), ARG_Z)
            for w in range(b + s):
                inner = inner - Fraction((-1) ** (b + s + w), math.factorial(w)) * ell**w * _li((b + s - w,), ARG_Z_CONJ)
            out = out - outer * inner
    for u in range(b):
        bracket = Fraction((-1) ** (a + b + u)) * _li((a, b - u), ARG_Z_CONJ)
        bracket = bracket + Fraction((-1) ** (b + u) - (-1) ** (a + b + u)) * zeta((a,)) * _li((b - u,), ARG_Z_CONJ)
        for v in range(b - u):
            bracket = bracket + (Fraction((-1) ** (a + b + u + v) - (-1) ** (b + u)) * math.comb(a + v - 1, a - 1)
                                 * zeta((a + v,)) * _li((b - u - v,), ARG_Z_CONJ))
        out = out - Fraction(1, math.factorial(u)) * ell**u * bracket
    return out
