"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion."""

import itertools
import math
import random
from fractions import Fraction

from mzv.arch_eval import (
    bernoulli,
    evaluate_relation_row,
    log_abs_sq,
    mzv,
    sv_polylog,
    zagier_p,
)
from mzv.associator import (
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
    verify_kz_equation,
    zeta_lambda_expr,
)
from mzv.padic_eval import padic_polylog
from mzv.rings import QQ
from mzv.series import NCSeries, character_series
from mzv.shufflealg import (
    convergent_words,
    generate_double_shuffle,
    reduce_relations,
    shuffle_words,
    stuffle_indices,
)
from mzv.symbols import ARG_Z
from mzv.words import Word, lyndon_words, words_up_to

from character_recovery import recover_character
from series_reference import gt_compose, is_group_like, series_character
from sv_reference import sv_depth2_book_residual, sv_depth2_direct


def _line(n, label, ok):
    print(f"ACCEPTANCE {n} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {n} failed: {label}"


def test_criterion_1_frobenius_comparison():
    ok = True
    for p in (2, 3, 5, 7):
        phi = build_symbolic_associator("p", 5)
        de = solve_deligne(phi, p)
        ok &= comparison_residual(phi, de, Fraction(1, p)).is_zero()
        ok &= all(check_formula(de, (k,), deligne_depth1_formula(k, p), p) for k in (2, 3, 4))
        ok &= all(check_formula(de, (a, b), deligne_depth2_formula(a, b, p), p) for a, b in ((1, 2), (2, 2), (1, 3)))
    _line(1, "comparison identity exact at weight 5 for p in {2,3,5,7}; "
             "depth-1 (k=2,3,4) and depth-2 ((1,2),(2,2),(1,3)) formulas symbol-for-symbol", ok)


def test_criterion_2_overconvergent_expansion():
    ok = True
    # exact symbolic checks at weight 4 (prime-independent statements per prime)
    for p in (3, 5, 7):
        g = overconvergent_g0(p, 4)
        ok &= canonicalize_li_symbols(g["A"], 4, p).is_zero()
        ok &= all(check_formula(g, (k,), dagger_depth1_formula(k, p), p) for k in (1, 2, 3, 4))
        ok &= check_formula(g, (1, 2), dagger_depth2_formula(1, 2, p), p)
    # numeric depth-1 identity to >= 20 digits at working precision 30
    rng = random.Random(0)
    for p in (3, 5, 7):
        for k in (1, 2, 3, 4):
            for _ in range(20):
                num = p * rng.randint(1, 50)
                den = rng.choice([d for d in range(1, 60) if d % p])
                z = Fraction(num, den)
                lhs = padic_polylog(k, z, p, 30, skip_p_multiples=True)
                rhs = padic_polylog(k, z, p, 30) - padic_polylog(k, z**p, p, 30 + k).shift(-k)
                diff = lhs - rhs
                ok &= diff.is_zero() and diff.aprec >= 20
    _line(2, "overconvergent expansion: depth-1/depth-2 formulas exact at weight 4, "
             "letter-A coefficient 0, numeric identity to >= 20 digits (p in {3,5,7}, k <= 4, 20 pts)", ok)


def test_criterion_3_single_valued_expansion():
    ok = True
    g = single_valued_g0(4)
    ok &= all(check_formula(g, (k,), sv_depth1_formula(k)) for k in (1, 2, 3, 4))
    ok &= check_formula(g, (1, 2), sv_depth2_formula(1, 2))
    # Bernoulli projection identity to 1e-9 on 50 disk points for k <= 4
    rng = random.Random(1)
    pts = 0
    while pts < 50:
        r = 0.05 + 0.88 * rng.random()
        th = rng.uniform(0.04, math.pi - 0.04) * rng.choice([-1, 1])
        z = r * complex(math.cos(th), math.sin(th))
        pts += 1
        for k in (1, 2, 3, 4):
            ell = log_abs_sq(z)
            acc = sum(float(bernoulli(i)) / math.factorial(i) * ell**i * sv_polylog(k - i, z)
                      for i in range(k))
            proj = acc.real if k % 2 == 1 else acc.imag
            ok &= abs(zagier_p(k, z) - 0.5 * proj) < 1e-9
    # depth-2 closed form against the series coefficient
    ok &= sv_depth2_book_residual(1, 2, 0.3 + 0.2j) < 1e-8
    ok &= sv_depth2_book_residual(1, 2, complex(0.6)) < 1e-8
    ok &= abs(sv_depth2_direct(1, 2, complex(1e-4))) < 1e-7
    _line(3, "single-valued expansion exact at weight 4 (depth 1 k<=4, depth 2 (1,2)); "
             "Bernoulli projection to 1e-9 on 50 points; depth-2 residual < 1e-8", ok)


def test_criterion_4_defining_relations():
    phi = build_numeric_kz(4)
    # log phi = phi - 1 at the letters: (phi - 1)^k starts at weight k
    ok = is_group_like(phi) and abs(phi["A"]) < 1e-6 and abs(phi["B"]) < 1e-6
    for rel in (duality_residual(phi), hexagon_residual(phi, complex_hexagon_scale())):
        ok &= max([abs(c) for c in rel.coeffs.values()], default=0.0) < 1e-6
    ok &= pentagon_residual(phi).max_abs() < 1e-6
    # symbolic weight 2: the three-cycle constraint forces zeta_p(2) = 0
    phi_p = build_symbolic_associator("p", 2)
    constraint = hexagon_residual(phi_p, 0)["AB"]
    zeta2 = zeta_lambda_expr(phi_p, (2,))
    forced = (not constraint.is_zero()) and (constraint + 3 * zeta2).is_zero()
    ok &= forced
    _line(4, "duality/hexagon/pentagon residuals < 1e-6 at truncation 4; "
             "weight-2 symbolic constraint forces zeta_p(2) = 0 exactly", ok)


def test_criterion_5_double_shuffle():
    ok = True
    rows3 = generate_double_shuffle(3)
    red3 = reduce_relations(rows3, 3)
    ok &= red3.expressions[((1, 2),)] == {((3,),): Fraction(1)}
    rows4 = generate_double_shuffle(4)
    red4 = reduce_relations(rows4, 4)
    mu = ((2,), (2,))
    ok &= red4.dimension_bound == 1 and red4.basis == [mu]
    for idx in ((4,), (1, 3), (2, 2), (1, 1, 2)):
        expr = red4.expressions[(idx,)]
        ok &= set(expr) == {mu}
    ratio = red4.expressions[((4,),)][mu]
    ok &= ratio == Fraction(2, 5)
    ok &= abs(mzv((4,)) - float(ratio) * mzv((2,)) ** 2) < 1e-5
    rows5 = generate_double_shuffle(5)
    ok &= reduce_relations(rows5, 5).dimension_bound <= 2
    for rows in (rows3, rows4, rows5):
        for row in rows:
            residual, tolerance = evaluate_relation_row(row)
            ok &= abs(residual) <= tolerance
    _line(5, "weight-3 rows force zeta(1,2)=zeta(3); weight-4 dimension bound 1 with "
             "zeta(4)/zeta(2)^2 = 2/5 (numeric to 1e-5); weight-5 bound <= 2; rows vanish within their bounds", ok)


def test_criterion_6_differential_equations():
    ok = verify_kz_equation(g0_symbolic(ARG_Z, 4)).is_zero()
    for p in (3, 5):
        phi_de = solve_deligne(build_symbolic_associator("p", 4), p)
        ok &= verify_kz_equation(overconvergent_g0(p, 4), p=p,
                                 frobenius_conjugator=phi_de).is_zero()
    _line(6, "fundamental-solution equation exactly zero at weight 4; "
             "modified-equation residual exactly zero at weight 4 (p in {3,5})", ok)


def test_criterion_7_property_suites():
    ok = True
    # group-likeness of every constructed series
    ok &= is_group_like(build_numeric_kz(4))
    phi_p = build_symbolic_associator("p", 4)
    phi_c = build_symbolic_associator("c", 4)
    ok &= is_group_like(phi_p) and is_group_like(phi_c)
    for p in (3, 5):
        ok &= is_group_like(solve_deligne(phi_p, p))
        ok &= is_group_like(overconvergent_g0(p, 4))
    ok &= is_group_like(solve_minus(phi_c))
    ok &= is_group_like(g0_symbolic(ARG_Z, 4)) and is_group_like(single_valued_g0(4))

    # character round trip on 100 random Lyndon assignments
    rng = random.Random(2)
    for _ in range(100):
        assignments = {w: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for w in lyndon_words(4) if rng.random() < 0.85}
        f = character_series(assignments, 4, QQ)
        ok &= is_group_like(f)
        ok &= character_series(series_character(f), 4, QQ) == f

    # recovery agrees with the character construction wherever both apply
    for _ in range(10):
        assignments = {w: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for w in lyndon_words(4)}
        f = character_series(assignments, 4, QQ)
        known = {w: f[w] for wt in range(2, 5) for w in convergent_words(wt)}
        got = recover_character(known, f[Word("A")], f[Word("B")], 4, QQ)
        ok &= NCSeries(QQ, 4, got) == f

    # brute-force shuffle oracle up to weight 3 + 3
    def brute(u, v):
        out = {}
        for pos in itertools.combinations(range(len(u) + len(v)), len(u)):
            it_u, it_v, s = iter(u), iter(v), []
            for i in range(len(u) + len(v)):
                s.append(next(it_u) if i in pos else next(it_v))
            w = Word("".join(s))
            out[w] = out.get(w, 0) + 1
        return out

    for u in words_up_to(3):
        for v in words_up_to(3):
            ok &= shuffle_words(u, v) == brute(u, v)

    # stuffle associativity on random triples
    pool = [(2,), (3,), (1, 2), (2, 1), (1,), (2, 2)]
    for _ in range(20):
        i, j, k = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        lhs, rhs = {}, {}
        for t, c in stuffle_indices(i, j).items():
            for s, c2 in stuffle_indices(t, k).items():
                lhs[s] = lhs.get(s, 0) + c * c2
        for t, c in stuffle_indices(j, k).items():
            for s, c2 in stuffle_indices(i, t).items():
                rhs[s] = rhs.get(s, 0) + c * c2
        ok &= lhs == rhs

    # composition-law associativity on random triples
    for _ in range(6):
        pairs = []
        for _ in range(3):
            assignments = {w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for w in lyndon_words(4) if len(w) >= 2}
            pairs.append((Fraction(rng.choice([1, 2, -2, 3])), character_series(assignments, 4, QQ)))
        x, y, z = pairs
        ok &= gt_compose(gt_compose(x, y), z) == gt_compose(x, gt_compose(y, z))

    _line(7, "group-likeness of all constructed series; 100 character round trips; "
             "recovery/character agreement; shuffle oracle <= 3+3; stuffle and "
             "composition-law associativity", ok)
