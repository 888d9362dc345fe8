import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

import mzv.associator as asc
from mzv.arch_eval import mzv
from mzv.associator import (
    COMPLEX_KZ,
    MINUS_KZ,
    PADIC_DELIGNE,
    PADIC_KZ,
    build_associator,
    build_numeric_kz,
    build_symbolic_associator,
    canonicalize_li_symbols,
    check_formula,
    comparison_residual,
    complex_hexagon_scale,
    dagger_depth1_formula,
    dagger_depth2_formula,
    deligne_depth1_formula,
    deligne_depth2_formula,
    duality_residual,
    g0_symbolic,
    hexagon_residual,
    overconvergent_g0,
    pentagon_residual,
    single_valued_g0,
    solve_deligne,
    solve_minus,
    sv_depth1_formula,
    sv_depth2_formula,
    twisted_substitution,
    verify_kz_equation,
    zeta_lambda_expr,
)
from mzv.cli import _verify_identity, assoc
from mzv.rings import QQ, SYMBOLIC, complex_ring
from mzv.series import NCSeries, character_series
from mzv.symbols import (
    ARG_ABS_Z_SQ,
    ARG_Z,
    ARG_Z_CONJ,
    ARG_Z_POW_P,
    LambdaSym,
    LiSym,
    LogSym,
    SymbolPoly,
    ZetaSym,
    z_poly,
)
from mzv.words import lyndon_words

from series_reference import gt_compose, is_group_like, reference_invert, terms


def _random_pair(rng, n=4):
    assignments = {w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for w in lyndon_words(n) if len(w) >= 2}
    return Fraction(rng.choice([1, 2, 3, -2, 5])), character_series(assignments, n, QQ)


def test_gt_associativity_exact():
    rng = random.Random(2)
    for _ in range(6):
        x, y, z = (_random_pair(rng) for _ in range(3))
        assert gt_compose(gt_compose(x, y), z) == gt_compose(x, gt_compose(y, z))


def test_gt_associativity_symbolic():
    phi = build_symbolic_associator("p", 3)
    x = (Fraction(2), phi)
    y = (Fraction(3), phi.substitute(NCSeries.letter(SYMBOLIC, "B", 3), NCSeries.letter(SYMBOLIC, "A", 3)))
    z = (Fraction(1), phi)
    (lhs_c, lhs_g), (rhs_c, rhs_g) = gt_compose(gt_compose(x, y), z), gt_compose(x, gt_compose(y, z))
    assert lhs_c == rhs_c and lhs_g == rhs_g


def test_composition_recovers_twisted_quotient():
    # (p, solved) o (1, phi) == (p, phi) at weight 5
    p = 3
    phi = build_symbolic_associator("p", 5)
    de = solve_deligne(phi, p)
    c, g = gt_compose((Fraction(p), de), (Fraction(1), phi))
    assert c == p and g == phi


def test_solver_fixes_the_identity_exactly():
    for p in (2, 7):
        phi = build_symbolic_associator("p", 4)
        de = solve_deligne(phi, p)
        assert is_group_like(de)
        assert comparison_residual(phi, de, Fraction(1, p)).is_zero()
    phi = build_symbolic_associator("c", 4)
    minus = solve_minus(phi)
    assert is_group_like(minus)
    assert comparison_residual(phi, minus, Fraction(-1)).is_zero()


def test_solver_trivial_input():
    one = NCSeries.one(SYMBOLIC, 4)
    assert solve_deligne(one, 5) == one


def _twisted_substitution_reference(f, g, scale):
    ring, n = f.ring, f.truncation
    s = ring.one * scale
    img_b = reference_invert(g) * NCSeries.letter(ring, "B", n, coeff=s) * g
    return f.substitute(NCSeries.letter(ring, "A", n, coeff=s), img_b)


def _fixed_point_solve(phi, scale):
    """Reference: iterate G <- phi * twisted_substitution(phi, G, scale)^-1
    at full truncation from G = 1 until it stops changing, with the general
    inverse inside twisted_substitution too."""
    g = NCSeries.one(phi.ring, phi.truncation)
    for _ in range(phi.truncation + 1):
        nxt = phi * reference_invert(_twisted_substitution_reference(phi, g, scale))
        if nxt == g:
            return g
        g = nxt
    raise AssertionError("the fixed-point loop did not settle")


SOLVER_SCALES = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(-1)]


@pytest.mark.parametrize("scale", SOLVER_SCALES, ids=str)
@pytest.mark.parametrize("weight", [2, 3, 4, 5, 6])
def test_graded_solver_equals_fixed_point_loop(weight, scale):
    rng = random.Random(weight)
    assignments = {w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for w in lyndon_words(weight) if len(w) >= 2}
    phi = character_series(assignments, weight, QQ)
    got, want = asc._solve_twisted(phi, scale), _fixed_point_solve(phi, scale)
    assert got.truncation == want.truncation == weight
    assert got.coeffs == want.coeffs
    if weight <= 4:
        phi = build_symbolic_associator("p", weight)
        assert asc._solve_twisted(phi, scale).coeffs == _fixed_point_solve(phi, scale).coeffs


def _clear_associator_caches():
    for fn in (asc.build_associator, asc._zeta_substitution_table, asc._canonical_image,
               asc._canonical_monomials, asc.overconvergent_g0, asc.single_valued_g0):
        fn.cache_clear()


def _count_solves(monkeypatch):
    calls = []
    solve = asc._solve_twisted

    def counted(phi, scale):
        calls.append((phi.truncation, scale))
        return solve(phi, scale)

    _clear_associator_caches()
    monkeypatch.setattr(asc, "_solve_twisted", counted)
    return calls


@pytest.mark.parametrize("identity, weight, p", [
    ("netherland", 5, 5), ("czech", 5, 5), ("princeton", 4, 3), ("moldova", 5, None),
])
def test_verify_identity_solves_once(monkeypatch, identity, weight, p):
    calls = _count_solves(monkeypatch)
    checks = _verify_identity(identity, weight, p, "complex_KZ", 1e-6)
    assert checks and all(c["status"] == "exact-zero" for c in checks)
    assert len(calls) == 1
    _clear_associator_caches()


@pytest.mark.parametrize("identity, p", [("netherland", 3), ("czech", 5), ("moldova", None), ("princeton", 3)])
def test_verify_inverts_series_that_are_group_like_below_their_top_weight(monkeypatch, identity, p):
    """On every series that `assoc verify` inverts, the antipode agrees with
    the general inverse below the top weight, and at every weight where the
    series is group-like throughout."""
    antipode, seen = NCSeries.invert, []

    def checked(f):
        got, want = antipode(f), reference_invert(f)
        below = f.truncation - 1
        assert got.truncate(below) == want.truncate(below)
        seen.append(is_group_like(f))
        if seen[-1]:
            assert got == want
        return got

    _clear_associator_caches()
    monkeypatch.setattr(NCSeries, "invert", checked)
    result = CliRunner().invoke(assoc, ["verify", "--identity", identity, "--weight", "5"]
                                + (["--p", str(p)] if p else []))
    assert result.exit_code == 0, result.output
    assert seen and any(seen)
    _clear_associator_caches()


def test_zeta_substitution_builds_only_the_flavors_used(monkeypatch):
    calls = _count_solves(monkeypatch)
    poly = SymbolPoly.gen(ZetaSym("p-adic", (2,))) + SymbolPoly.gen(ZetaSym("p-adic", (1,)))
    want = zeta_lambda_expr(build_symbolic_associator("p", 4), (2,))
    assert (canonicalize_li_symbols(poly, 4, 5) - want).is_zero()
    assert calls == []
    assert asc._zeta_substitution_table.cache_info().currsize == 1
    # the Deligne flavor without a prime stays a symbol
    zeta_de = SymbolPoly.gen(ZetaSym("p-adic-Deligne", (2,)))
    assert (canonicalize_li_symbols(zeta_de, 4) - zeta_de).is_zero()
    assert calls == []
    _clear_associator_caches()


def test_canonical_form_refuses_a_zeta_symbol_above_the_truncation():
    """A zeta symbol the truncation cannot express fails loudly instead of
    staying a symbol beside canonicalized ones."""
    assert (canonicalize_li_symbols(SymbolPoly.gen(ZetaSym("p-adic", (3,))), 4, 5)
            + SymbolPoly.gen(LambdaSym("p", "AAB"))).is_zero()
    with pytest.raises(ValueError, match=r"zeta_p\[7\] has weight above the truncation 4"):
        canonicalize_li_symbols(SymbolPoly.gen(ZetaSym("p-adic", (7,))), 4, 5)
    _clear_associator_caches()


def test_depth1_and_depth2_comparison_formulas():
    for p in (2, 5):
        de = build_associator(PADIC_DELIGNE, 4, p)
        assert check_formula(de, (2,), deligne_depth1_formula(2, p), p)
        assert check_formula(de, (3,), deligne_depth1_formula(3, p), p)
        for a, b in ((1, 2), (2, 2), (1, 3)):
            assert check_formula(de, (a, b), deligne_depth2_formula(a, b, p), p)


def test_weight2_comparison_coefficient():
    # weight-2: zetaDe(2) = (1 - p^-2) zeta_p(2) read off directly
    p = 5
    phi = build_symbolic_associator("p", 2)
    de = solve_deligne(phi, p)
    lhs = zeta_lambda_expr(de, (2,))
    rhs = (1 - Fraction(1, p**2)) * zeta_lambda_expr(phi, (2,))
    assert (lhs - rhs).is_zero()


def test_substitution_wrappers():
    a = NCSeries.letter(SYMBOLIC, "A", 3)
    b = NCSeries.letter(SYMBOLIC, "B", 3)
    one = NCSeries.one(SYMBOLIC, 3)
    # infinity twist (scale -1) sends A to -A
    assert twisted_substitution(a, one, -1) == -a
    # Frobenius twist with trivial conjugator: B maps to B/p
    assert twisted_substitution(b, one, Fraction(1, 5)) == b.scale(Fraction(1, 5))
    # period twist applied twice with trivial conjugator scales A by (2 pi i)^2
    ring = complex_ring(1e-9)
    ac = NCSeries.letter(ring, "A", 3)
    onec = NCSeries.one(ring, 3)
    mu = 2j * math.pi
    twice = twisted_substitution(twisted_substitution(ac, onec, mu), onec, mu)
    assert abs(twice["A"] - mu * mu) < 1e-9


def test_g0_low_coefficients():
    g0 = g0_symbolic(ARG_Z, 4)
    log = SymbolPoly.gen(LogSym(ARG_Z))
    li1 = SymbolPoly.gen(LiSym((1,), ARG_Z))
    assert (g0["A"] - log).is_zero()
    assert (g0["B"] + li1).is_zero()
    assert (g0["AA"] - Fraction(1, 2) * log * log).is_zero()
    assert is_group_like(g0)


def test_overconvergent_and_single_valued_are_group_like():
    assert is_group_like(overconvergent_g0(3, 4))
    assert is_group_like(single_valued_g0(4))


def test_overconvergent_letter_a_vanishes():
    for p in (3, 5):
        coeff = canonicalize_li_symbols(overconvergent_g0(p, 4)["A"], 4, p)
        assert coeff.is_zero()


def test_single_valued_letter_a():
    coeff = single_valued_g0(4)["A"]
    want = SymbolPoly.gen(LogSym(ARG_Z)) + SymbolPoly.gen(LogSym(ARG_Z_CONJ))
    assert (coeff - want).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_overconvergent_formulas(p):
    g = overconvergent_g0(p, 4)
    for k in (1, 2, 3, 4):
        assert check_formula(g, (k,), dagger_depth1_formula(k, p), p)
    assert check_formula(g, (1, 2), dagger_depth2_formula(1, 2, p), p)


def test_single_valued_formulas():
    g = single_valued_g0(4)
    for k in (1, 2, 3, 4):
        assert check_formula(g, (k,), sv_depth1_formula(k))
    assert check_formula(g, (1, 2), sv_depth2_formula(1, 2))


def test_kz_residuals():
    assert verify_kz_equation(g0_symbolic(ARG_Z, 4)).is_zero()
    one = NCSeries.one(SYMBOLIC, 3)
    res = verify_kz_equation(one)
    # constants are not solutions: the residual is minus the connection
    # applied to 1, -A/z - B/(z-1), times D = z(1-z)
    assert (res["A"] - z_poly([-1, 1])).is_zero()
    assert (res["B"] - z_poly([0, 1])).is_zero()
    assert all(res[w].is_zero() for w in res.coeffs if len(w) > 1)
    p = 3
    phi_de = solve_deligne(build_symbolic_associator("p", 4), p)
    res2 = verify_kz_equation(overconvergent_g0(p, 4), p=p, frobenius_conjugator=phi_de)
    assert res2.is_zero()


@pytest.mark.parametrize("word", ["A", "B", "AB", "BBA", "ABAB", "AABBB", "BABAB"])
def test_kz_residual_detects_a_corrupted_coefficient(word):
    g = g0_symbolic(ARG_Z, 5)
    assert not g[word].is_zero()
    bad = NCSeries(SYMBOLIC, 5, {**g.coeffs, word: 2 * g[word]})
    assert not verify_kz_equation(bad).is_zero()


@pytest.mark.parametrize("p,other", [(3, None), (3, 5), (5, 3), (7, None)])
def test_princeton_residual_detects_a_wrong_conjugator(p, other):
    """The modified equation fails for the Frobenius conjugator 1 and for the
    Deligne associator of another prime."""
    n = 4
    g = overconvergent_g0(p, n)
    conj = NCSeries.one(SYMBOLIC, n) if other is None else build_associator(PADIC_DELIGNE, n, other)
    assert verify_kz_equation(g, p=p, frobenius_conjugator=build_associator(PADIC_DELIGNE, n, p)).is_zero()
    assert not verify_kz_equation(g, p=p, frobenius_conjugator=conj).is_zero()


def test_grt_trivial_input():
    one = NCSeries.one(QQ, 4)
    assert is_group_like(one)
    assert duality_residual(one).is_zero() and hexagon_residual(one, 0).is_zero()
    assert not pentagon_residual(one).coeffs


def test_grt_numeric_relations():
    phi = build_numeric_kz(4)
    assert is_group_like(phi)
    assert abs(phi["A"]) < 1e-6 and abs(phi["B"]) < 1e-6
    for rel in (duality_residual(phi), hexagon_residual(phi, complex_hexagon_scale())):
        assert max([abs(c) for c in rel.coeffs.values()], default=0.0) < 1e-6
    assert pentagon_residual(phi).max_abs() < 1e-6


def test_grt_plain_three_cycle_fails_for_complex():
    # without the exponential dressing the three-cycle product detects zeta(2)
    phi = build_numeric_kz(2)
    residual = hexagon_residual(phi, 0)["AB"]
    assert abs(residual - 3 * phi["AB"]) < 1e-9


def test_grt_symbolic_weight2_forces_zeta2():
    phi = build_symbolic_associator("p", 2)
    constraint = hexagon_residual(phi, 0)["AB"]
    zeta2 = zeta_lambda_expr(phi, (2,))
    assert not constraint.is_zero()
    assert (constraint + 3 * zeta2).is_zero()  # constraint is -3 zeta_p(2)
    assert duality_residual(phi).is_zero()


@pytest.mark.parametrize("identity", ["dual", "hexagon", "pentagon"])
def test_relation_identities_compute_only_their_residual(identity):
    """dual, hexagon and pentagon report one check, on their residual."""
    (check,) = _verify_identity(identity, 3, None, "complex_KZ", 1e-6)
    assert check["status"] == "pass"


@pytest.mark.parametrize("identity, moved", [("dual", 1e-11), ("hexagon", 2e-11)])
def test_relation_residuals_keep_coefficients_below_the_ring_tolerance(monkeypatch, identity, moved):
    """1e-11 added to the top-weight AAAB coefficient of phi moves the dual
    residual's BBBA coefficient by 1e-11 and the hexagon's by -2e-11; every
    coefficient of both residuals is below the 1e-9 tolerance of phi's ring.
    The dual residual is exactly 0.0 at weight 4, so the nudge is compared
    up to its own rounding, an ulp of the AAAB coefficient."""
    phi = build_numeric_kz(4)
    baseline = _verify_identity(identity, 4, None, "complex_KZ", 1e-6)[0]["residual"]
    assert 0 <= baseline < 5e-12
    nudged = NCSeries(phi.ring, 4, {**phi.coeffs, "AAAB": phi["AAAB"] + 1e-11})
    monkeypatch.setattr(asc, "build_numeric_kz", lambda weight: nudged)
    (check,) = _verify_identity(identity, 4, None, "complex_KZ", 1e-6)
    assert abs(check["residual"] - moved) <= baseline + math.ulp(abs(phi["AAAB"]))


def test_flavor_dispatch_and_group_likeness():
    for flavor, p in ((COMPLEX_KZ, None), (PADIC_KZ, None), (PADIC_DELIGNE, 3), (MINUS_KZ, None)):
        f = build_associator(flavor, 3, p)
        assert is_group_like(f)
    with pytest.raises(ValueError):
        build_associator(PADIC_DELIGNE, 3)
    with pytest.raises(ValueError):
        build_associator("nope", 3)


def test_numeric_kz_coefficients():
    phi = build_numeric_kz(3)
    assert abs(phi["AB"] + mzv((2,))) < 1e-9
    assert abs(phi["A"]) == 0 and abs(phi["B"]) == 0
    # divergent leading-B word is determined by the convergent data
    assert abs(phi["BAB"] + 2 * phi["ABB"]) < 1e-9


def test_dagger_coefficient_depth1_shape():
    p = 3
    expr = canonicalize_li_symbols(zeta_lambda_expr(overconvergent_g0(p, 2), (2,)), 2, p)
    want = SymbolPoly.gen(LiSym((2,), ARG_Z)) - Fraction(1, p**2) * SymbolPoly.gen(LiSym((2,), "z^p"))
    assert (expr - want).is_zero()


def test_dagger_expansion_agrees_with_padic_evaluation():
    # evaluate the symbolic overconvergent coefficient p-adically and compare
    # with the direct prime-to-p series on disk points
    from mzv.padic_eval import padic_polylog
    from mzv.padics import PadicNumber
    from mzv.symbols import ARG_Z_POW_P

    from padic_reference import from_rational, mul

    p, z = 5, Fraction(10, 3)
    for k in (1, 2, 3):
        n = max(k, 2)
        expr = canonicalize_li_symbols(zeta_lambda_expr(overconvergent_g0(p, n), (k,)), n, p)
        total = PadicNumber.zero(p, 30)
        for mono, c in terms(expr).items():
            term = from_rational(c, p, 40)
            for g, e in mono:
                assert isinstance(g, LiSym) and g.index == (k,)
                base = padic_polylog(k, z if g.arg == ARG_Z else z**p, p, 30)
                for _ in range(e):
                    term = mul(term, base)
            total = total + term
        assert (total - padic_polylog(k, z, p, 30, skip_p_multiples=True)).is_zero()


# -- the canonical form ---------------------------------------------------------

# generators of every kind the canonical form moves or fixes, at weight <= 4
_CANONICAL_GENS = [
    ZetaSym("p-adic", (2,)), ZetaSym("p-adic", (1, 2)), ZetaSym("p-adic", (1,)),
    ZetaSym("complex", (3,)), ZetaSym("complex", (2, 1)), ZetaSym("p-adic-Deligne", (3,)),
    LiSym((2,), ARG_Z), LiSym((1, 2), ARG_Z),  # Lyndon
    LiSym((1, 1), ARG_Z), LiSym((2, 1), ARG_Z),  # non-Lyndon
    LiSym((2, 2), ARG_Z_POW_P), LiSym((1, 1), ARG_Z_CONJ),
    LogSym(ARG_Z), LogSym(ARG_Z_POW_P), LogSym(ARG_ABS_Z_SQ), LambdaSym("p", "AB"),
]


def _random_symbol_poly(rng, terms=3):
    out = SymbolPoly.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for _ in range(terms):
        term = SymbolPoly.constant(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for g in rng.sample(_CANONICAL_GENS, rng.randint(1, 3)):
            term = term * SymbolPoly.gen(g) ** rng.randint(1, 2)
        out = out + term
    return out


@pytest.mark.parametrize("p", [None, 3])
@pytest.mark.parametrize("seed", range(4))
def test_canonical_form_is_an_idempotent_homomorphism(seed, p):
    rng = random.Random(seed)
    canon = lambda poly: canonicalize_li_symbols(poly, 4, p)
    x, y = _random_symbol_poly(rng), _random_symbol_poly(rng)
    c = Fraction(rng.randint(-7, 7), 5)
    assert canon(SymbolPoly.constant(c)) == c
    assert canon(x + y) == canon(x) + canon(y)
    assert canon(x * y) == canon(x) * canon(y)
    assert canon(canon(x * y)) == canon(x * y)
    for g in _CANONICAL_GENS:
        assert canon(canon(SymbolPoly.gen(g))) == canon(SymbolPoly.gen(g))


def test_canonical_form_generator_images():
    canon = lambda g, p=None: canonicalize_li_symbols(SymbolPoly.gen(g), 4, p)
    log_z, log_zbar = SymbolPoly.gen(LogSym(ARG_Z)), SymbolPoly.gen(LogSym(ARG_Z_CONJ))
    assert canon(LogSym(ARG_Z_POW_P), 5) == 5 * log_z
    assert canon(LogSym(ARG_Z_POW_P)) == SymbolPoly.gen(LogSym(ARG_Z_POW_P))
    assert canon(LogSym(ARG_ABS_Z_SQ)) == log_z + log_zbar
    assert canon(ZetaSym("complex", (1,))).is_zero()
    assert canon(ZetaSym("p-adic-Deligne", (3,))) == SymbolPoly.gen(ZetaSym("p-adic-Deligne", (3,)))
    assert canon(ZetaSym("p-adic-Deligne", (3,)), 5) == zeta_lambda_expr(build_associator(PADIC_DELIGNE, 4, 5), (3,))
    # Li_{1,1}(x) = Li_1(x)^2 / 2 and Li_{2,1}(x) = Li_1(x) Li_2(x) - 2 Li_{1,2}(x)
    li = lambda index, arg: SymbolPoly.gen(LiSym(index, arg))
    assert canon(LiSym((1, 1), ARG_Z)) == Fraction(1, 2) * li((1,), ARG_Z) ** 2
    for arg in (ARG_Z, ARG_Z_POW_P, ARG_Z_CONJ):
        want = li((1,), arg) * li((2,), arg) - 2 * li((1, 2), arg)
        assert canon(LiSym((2, 1), arg), 3) == want
    with pytest.raises(ValueError):
        canon(LiSym((2, 2, 1), ARG_Z))


def _with_one_term_doubled(formula, term):
    def changed(*args):
        poly = formula(*args)
        mono = sorted(terms(poly), key=str)[term % len(poly.nums)]
        return poly + SymbolPoly({mono: terms(poly)[mono]})
    return changed


# (formula, its arguments, the identity that checks it at weight 4, p, check name)
_FORMULA_CHECKS = [
    ("deligne_depth1_formula", (3, 5), "netherland", 5, "depth-1 comparison k=3"),
    ("deligne_depth2_formula", (1, 3, 5), "netherland", 5, "depth-2 comparison (a,b)=(1,3)"),
    ("dagger_depth1_formula", (3, 3), "czech", 3, "depth-1 overconvergent formula k=3"),
    ("dagger_depth2_formula", (1, 2, 3), "czech", 3, "depth-2 overconvergent formula (1,2)"),
    ("sv_depth1_formula", (3,), "moldova", None, "depth-1 single-valued formula k=3"),
    ("sv_depth2_formula", (1, 2), "moldova", None, "depth-2 single-valued formula (1,2)"),
]


@pytest.mark.parametrize("formula, args, identity, p, check", _FORMULA_CHECKS,
                         ids=[case[0].removesuffix("_formula") for case in _FORMULA_CHECKS])
def test_a_doubled_formula_term_fails_its_check(monkeypatch, formula, args, identity, p, check):
    """The `assoc verify` check of each formula reports fail when any one of
    the formula's terms is doubled."""
    def status():
        return {c["name"]: c["status"] for c in _verify_identity(identity, 4, p, "complex_KZ", 1e-6)}[check]

    assert status() == "exact-zero"
    original = getattr(asc, formula)
    count = len(original(*args).nums)
    assert count
    for term in range(count):
        monkeypatch.setattr(asc, formula, _with_one_term_doubled(original, term))
        assert status() == "fail", (formula, term)


@pytest.mark.parametrize("word", ["A", "B", "AB", "BAB", "ABBA"])
def test_modified_kz_residual_detects_a_corrupted_coefficient(word):
    p, n = 3, 4
    g = overconvergent_g0(p, n)
    conj = build_associator(PADIC_DELIGNE, n, p)
    bad = NCSeries(SYMBOLIC, n, {**g.coeffs, word: g[word] + SymbolPoly.gen(LogSym(ARG_Z_POW_P))})
    assert not verify_kz_equation(bad, p=p, frobenius_conjugator=conj).is_zero()


def test_clearing_the_caches_clears_the_canonical_form():
    canonicalize_li_symbols(SymbolPoly.gen(LiSym((1, 1), ARG_Z)), 3)
    assert asc._canonical_image.cache_info().currsize and asc._canonical_monomials.cache_info().currsize
    _clear_associator_caches()
    assert asc._canonical_image.cache_info().currsize == 0
    assert asc._canonical_monomials.cache_info().currsize == 0


def test_one_fundamental_solution_table_per_argument():
    _clear_associator_caches()
    g0_symbolic.cache_clear()
    assert verify_kz_equation(g0_symbolic(ARG_Z, 7)).is_zero()
    assert g0_symbolic.cache_info().currsize == 1
