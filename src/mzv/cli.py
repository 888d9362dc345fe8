"""Command-line frontend: every verification and evaluation as a subcommand
with machine-readable JSON output (human tables behind --pretty).

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage or
domain errors, 3 internal invariant violations.  Defaults can be supplied
through ASSOCIATOR_* environment variables.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
import sys
from fractions import Fraction

import click

CONTEXT_SETTINGS = {"auto_envvar_prefix": "ASSOCIATOR", "help_option_names": ["-h", "--help"]}

_IDENTITIES = ("dual", "hexagon", "pentagon", "netherland", "czech", "moldova", "kz", "princeton")
# the identities whose checks involve no prime
_PRIMELESS = ("dual", "hexagon", "pentagon", "moldova", "kz")

# the highest `assoc verify --weight` per identity, where a cold run on a 2-CPU
# box stays within about 10 s and 1 GB: pentagon w7 1.0-1.7 s and 78 MB (w8 12
# s), hexagon w14 3.6-6.2 s and 410 MB (w15 9 s and 1.1 GB), dual w14 3.4-6 s
# and 400 MB (w15 15 s and 1.1 GB), netherland w10 2.6-3.7 s and 57 MB for p
# from 5 to 3.2e23 (w11 13 s at p = 1,000,003), czech w10 5.6-6.9 s and 173 MB
# (w11 20 s), moldova w10 3.5-3.7 s and 83 MB (w11 14 s), kz w11 4.8 s and 128
# MB (w12 23 s); past it the command exits 2 before any work
MAX_VERIFY_WEIGHT = {"pentagon": 7, "hexagon": 14, "dual": 14, "netherland": 10, "czech": 10, "moldova": 10,
                     "kz": 11}

# the highest `series dump --weight` per flavor, on the same budget: complex_KZ
# w14 3.3 s and 418 MB (w15 7.6 s and 1.1 GB), padic_KZ and symbolic_lambda w12
# 5.6-6.5 s and 123 MB (w13 26 s), minus_KZ w11 4.9-5.7 s and 72 MB (w12 24
# s), padic_Deligne w10 2.0-3.0 s and 109 MB (w11 6.7 s at p = 5, 10.8 s at
# p = 3.2e23)
MAX_DUMP_WEIGHT = {"complex_KZ": 14, "padic_KZ": 12, "padic_Deligne": 10, "minus_KZ": 11, "symbolic_lambda": 12}

# the largest (p + 10) * 3.5**weight that the princeton identity runs (its
# kernels z + ... + z^p have p terms): near it, cold on the same box, p = 163,003
# at w2 takes 10.6 s and 550 MB, 1,009 at w6 9.7 s and 540 MB, 13 at w9 7.8 s
# and 340 MB; past it, p = 3 at w10 28 s and at w11 115 s and 2.1 GB
MAX_PRINCETON_COST = 2_000_000

# `_is_prime` is exact below the least strong pseudoprime to its twelve bases
PRIME_BOUND = 318_665_857_834_031_151_167_461

# the accuracy `sv polylog` reports, |error| <= SV_TOLERANCE * max(1, |value|):
# each disk series is cut where its tail falls below 1e-12
SV_TOLERANCE = 1e-9

# the cost of one `padic verify-spain` run, in units of 0.15 ms: on a 2-vCPU box
# a check at b = prec * p.bit_length() bits takes about 0.1 + 1.2 b/1000 +
# 1.05 (b/1000)^2 ms (0.35 ms at --prec 60 and p = 7, 0.25 s at 15,000 bits),
# so a run at the bound takes ~3 s
MAX_SPAIN_CHECKS = 25_000


def _report(command: str, checks: list[dict], **extra) -> dict:
    status = "pass"
    if any(c["status"] == "fail" for c in checks):
        status = "fail"
    elif checks and all(c["status"] == "exact-zero" for c in checks):
        status = "exact-zero"
    out = {"schema": "mzv-report/1", "command": command, "status": status, "checks": checks}
    out.update(extra)
    return out


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        click.echo(f"== {report['command']}  [{report['status']}]")
        for c in report["checks"]:
            bits = [f"{c['name']:<40}", c["status"]]
            if c.get("residual") is not None:
                bits.append(f"residual={c['residual']}")
            if c.get("tolerance") is not None:
                bits.append(f"tol={c['tolerance']}")
            if c.get("value") is not None:
                bits.append(f"value={c['value']}")
            click.echo("  " + "  ".join(str(b) for b in bits))
    else:
        click.echo(json.dumps(report, indent=2, default=str))
    if report["status"] == "fail":
        sys.exit(1)


def _internal_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (click.ClickException, click.exceptions.Abort, SystemExit):
            raise
        except (ValueError, ZeroDivisionError, KeyError) as exc:
            raise click.UsageError(str(exc))
        except Exception as exc:  # invariant violation: distinct exit code
            click.echo(json.dumps({"schema": "mzv-report/1", "command": fn.__name__,
                                   "status": "fail", "checks": [],
                                   "error": f"internal: {exc!r}"}), err=False)
            sys.exit(3)

    return wrapper


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact for n < PRIME_BOUND."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(ctx, param, p):
    if p is not None and p >= PRIME_BOUND:
        raise click.BadParameter(f"p = {p} is not below {PRIME_BOUND}, where primality is decided exactly")
    if p is not None and not _is_prime(p):
        raise click.BadParameter(f"p = {p} is not prime")
    return p


def _primes(ctx, param, text):
    try:
        primes = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.BadParameter(f"cannot parse {text!r}; expected e.g. 3,5,7")
    for p in primes:
        _prime(ctx, param, p)
    return primes


def _weight(ctx, param, value):
    """A weight or polylog index: 1..MAX_TRUNCATION, like the series truncation."""
    from .series import MAX_TRUNCATION

    if not 1 <= value <= MAX_TRUNCATION:
        raise click.BadParameter(f"{param.name} {value} is outside 1..{MAX_TRUNCATION}")
    return value


def _check_weight_cap(caps: dict[str, int], name: str, weight: int) -> None:
    """Exit 2 before any work when `weight` is past the cap of the identity or flavor `name`."""
    cap = caps.get(name)
    if cap is not None and weight > cap:
        raise click.UsageError(f"--weight {weight} is past the {name}'s limit of {cap}")


def _padic_precision(ctx, param, value):
    """A p-adic precision: 1..MAX_PADIC_PRECISION digits."""
    from .padic_eval import MAX_PADIC_PRECISION

    if not 1 <= value <= MAX_PADIC_PRECISION:
        raise click.BadParameter(f"{param.name} {value} is outside 1..{MAX_PADIC_PRECISION}")
    return value


def _check_padic_bits(p: int, prec: int) -> None:
    from .padic_eval import MAX_PADIC_BITS

    if prec * p.bit_length() > MAX_PADIC_BITS:
        raise click.UsageError(f"--prec {prec} at p = {p} asks for {prec * p.bit_length()} bits "
                               f"(prec * p.bit_length()); at most {MAX_PADIC_BITS} are computed")


def _positive(ctx, param, value):
    if value < 1:
        raise click.BadParameter(f"{param.name} {value} is not positive")
    return value


def _tolerance(ctx, param, value):
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"{param.name} {value} is not a positive finite number")
    return value


def _relations_weight(ctx, param, weight):
    from .shufflealg import MAX_RELATIONS_WEIGHT

    if not 2 <= weight <= MAX_RELATIONS_WEIGHT:
        raise click.BadParameter(f"weight {weight} is outside 2..{MAX_RELATIONS_WEIGHT}")
    return weight


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        entries = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse index {text!r}; expected e.g. 1,2")
    if not entries or any(k < 1 for k in entries):
        raise click.UsageError(f"index entries must be positive integers, got {text!r}")
    return entries


def _parse_complex(text: str) -> complex:
    """A --z point such as 0.3+0.2i: a trailing i is the imaginary unit, so
    `inf` and `nan` are read as numbers, and then refused."""
    compact = text.replace(" ", "")
    try:
        z = complex(compact[:-1] + "j" if compact.endswith("i") else compact)
    except ValueError:
        raise click.UsageError(f"cannot parse complex number {text!r}")
    if not cmath.isfinite(z):
        raise click.UsageError(f"--z must be finite, got {text!r}")
    return z


# ---------------------------------------------------------------- mzv group


@click.group(context_settings=CONTEXT_SETTINGS)
def mzv():
    """Multiple zeta values: numeric evaluation and relation tables."""


@mzv.command("eval")
@click.option("--index", required=True, help="index tuple, e.g. 1,2")
@click.option("--tolerance", default=1e-6, show_default=True, callback=_tolerance)
@click.option("--pretty", is_flag=True)
@_internal_errors
def mzv_eval(index, tolerance, pretty):
    """Evaluate one multiple zeta value with an error bound."""
    from .arch_eval import mzv_numeric

    entries = _parse_index(index)
    value, bound = mzv_numeric(entries, tolerance)
    check = {"name": f"zeta{entries}", "status": "pass", "value": value,
             "residual": bound, "tolerance": tolerance}
    _emit(_report("mzv eval", [check]), pretty)


@mzv.command("relations")
@click.option("--weight", type=int, required=True, callback=_relations_weight)
@click.option("--flavor", default="complex", show_default=True,
              type=click.Choice(["complex", "p-adic", "p-adic-Deligne"]),
              help="rename the symbols of the complex reduction; a p-adic basis may list "
                   "zeta_p[2]^2 although zeta_p(2) = 0")
@click.option("--format", "fmt", default="csv", show_default=True, type=click.Choice(["csv", "json"]))
@click.option("--check-numeric/--no-check-numeric", default=False,
              help="also evaluate every row numerically (complex flavor); residuals appear only "
                   "with --format json, and CSV shows a failure only through exit code 1")
@_internal_errors
def mzv_relations(weight, flavor, fmt, check_numeric):
    """Double-shuffle relation rows and their exact rank reduction."""
    from .shufflealg import generate_double_shuffle, monomial_str, reduce_relations

    rows = generate_double_shuffle(weight)
    red = reduce_relations(rows, weight)
    numeric = {}
    if check_numeric:
        from .arch_eval import evaluate_relation_row

        numeric = {i: evaluate_relation_row(row) for i, row in enumerate(rows)}
    failures = sum(1 for residual, tolerance in numeric.values() if abs(residual) > tolerance)
    if fmt == "csv":
        # one echo: click flushes the stream after each
        click.echo("\n".join(["row,weight,provenance,monomial,coefficient"] + [
            f"{i},{weight},\"{row.provenance}\",{monomial_str(mono, flavor)},{c}"
            for i, row in enumerate(rows) for mono, c in sorted(row.coeffs.items())]))
    else:
        payload = {
            "schema": "mzv-report/1",
            "command": "mzv relations",
            "status": "fail" if failures else "pass",
            "weight": weight,
            "flavor": flavor,
            "rank": red.rank,
            "dimension_bound": red.dimension_bound,
            "basis": [monomial_str(m, flavor) for m in red.basis],
            "checks": [],
            "rows": [
                {
                    "provenance": row.provenance,
                    "coefficients": {monomial_str(m, flavor): str(c) for m, c in sorted(row.coeffs.items())},
                    **({"numeric_residual": numeric[i][0], "tolerance": numeric[i][1]} if i in numeric else {}),
                }
                for i, row in enumerate(rows)
            ],
            "expressions": {
                monomial_str(m, flavor): {monomial_str(b, flavor): str(c) for b, c in expr.items()}
                for m, expr in red.expressions.items()
            },
        }
        click.echo(json.dumps(payload, indent=2))
    if failures:
        sys.exit(1)


# ---------------------------------------------------------------- assoc group


@click.group(context_settings=CONTEXT_SETTINGS)
def assoc():
    """Associator-type series: identity verification."""


def _verify_identity(identity: str, weight: int, p: int | None, flavor: str, tolerance: float) -> list[dict]:
    from . import associator as asc

    if p is not None and identity in _PRIMELESS:
        raise click.UsageError(f"--identity {identity} takes no --p")
    if flavor == "padic_KZ" and identity != "hexagon":
        raise click.UsageError("--flavor padic_KZ is only read by --identity hexagon")
    checks: list[dict] = []

    def exact(name, is_zero, detail=None):
        checks.append({"name": name, "status": "exact-zero" if is_zero else "fail",
                       "residual": "0" if is_zero else "nonzero", "tolerance": "exact", "detail": detail})

    def numeric(name, residual):
        checks.append({"name": name, "status": "pass" if residual < tolerance else "fail",
                       "residual": residual, "tolerance": tolerance})

    _check_weight_cap(MAX_VERIFY_WEIGHT, identity, weight)
    if identity in ("dual", "hexagon", "pentagon"):
        if flavor == "padic_KZ":
            if weight != 2:
                raise click.UsageError("the symbolic relations are exposed at weight 2 for the hexagon")
            phi = asc.build_symbolic_associator("p", 2)
            constraint = asc.hexagon_residual(phi, 0)["AB"]
            zeta2 = asc.zeta_lambda_expr(phi, (2,))
            forced = (not constraint.is_zero()) and (3 * zeta2 + constraint).is_zero()
            exact("hexagon constraint forces zeta_p(2) = 0", forced,
                  detail=f"{constraint} = 0 with zeta_p[2] = {zeta2}")
            return checks
        phi = asc.build_numeric_kz(weight)
        if identity == "pentagon":
            residual = asc.pentagon_residual(phi).max_abs()
        else:
            from .rings import complex_ring
            from .series import NCSeries

            # over the exact complex ring, so that no coefficient of the residual is dropped
            phi = NCSeries(complex_ring(0.0), phi.truncation, phi.coeffs)
            rel = (asc.duality_residual(phi) if identity == "dual"
                   else asc.hexagon_residual(phi, asc.complex_hexagon_scale()))
            residual = max([abs(c) for c in rel.coeffs.values()], default=0.0)
        numeric(f"{identity} residual at weight {weight}", residual)
        return checks

    if identity == "netherland":
        if p is None:
            raise click.UsageError("--p is required for this identity")
        phi = asc.build_symbolic_associator("p", weight)
        de = asc.build_associator(asc.PADIC_DELIGNE, weight, p)
        exact(f"comparison identity at weight {weight}, p={p}",
              asc.comparison_residual(phi, de, Fraction(1, p)).is_zero())
        for k in (2, 3, 4):
            if k <= weight:
                exact(f"depth-1 comparison k={k}", asc.check_formula(de, (k,), asc.deligne_depth1_formula(k, p), p))
        for a, b in ((1, 2), (2, 2), (1, 3)):
            if a + b <= weight:
                exact(f"depth-2 comparison (a,b)=({a},{b})",
                      asc.check_formula(de, (a, b), asc.deligne_depth2_formula(a, b, p), p))
        return checks

    if identity == "czech":
        if p is None:
            raise click.UsageError("--p is required for this identity")
        g = asc.overconvergent_g0(p, weight)
        exact("letter-A coefficient vanishes after log rewrite",
              asc.canonicalize_li_symbols(g["A"], weight, p).is_zero())
        for k in (1, 2, 3, 4):
            if k <= weight:
                exact(f"depth-1 overconvergent formula k={k}",
                      asc.check_formula(g, (k,), asc.dagger_depth1_formula(k, p), p))
        if weight >= 3:
            exact("depth-2 overconvergent formula (1,2)",
                  asc.check_formula(g, (1, 2), asc.dagger_depth2_formula(1, 2, p), p))
        return checks

    if identity == "moldova":
        from .symbols import ARG_Z, ARG_Z_CONJ, LogSym, SymbolPoly

        g = asc.single_valued_g0(weight)
        want = SymbolPoly.gen(LogSym(ARG_Z)) + SymbolPoly.gen(LogSym(ARG_Z_CONJ))
        exact("letter-A coefficient is log z + log zbar", (g["A"] - want).is_zero())
        for k in (1, 2, 3, 4):
            if k <= weight:
                exact(f"depth-1 single-valued formula k={k}", asc.check_formula(g, (k,), asc.sv_depth1_formula(k)))
        if weight >= 3:
            exact("depth-2 single-valued formula (1,2)", asc.check_formula(g, (1, 2), asc.sv_depth2_formula(1, 2)))
        return checks

    if identity == "kz":
        from .symbols import ARG_Z

        res = asc.verify_kz_equation(asc.g0_symbolic(ARG_Z, weight))
        exact(f"differential equation residual at weight {weight}", res.is_zero())
        return checks

    if identity == "princeton":
        if p is None:
            raise click.UsageError("--p is required for this identity")
        if (p + 10) * 3.5**weight > MAX_PRINCETON_COST:
            raise click.UsageError(f"--p {p} at --weight {weight} is past the princeton's limit "
                                   f"(p + 10) * 3.5^weight <= {MAX_PRINCETON_COST}")
        phi_de = asc.build_associator(asc.PADIC_DELIGNE, weight, p)
        res = asc.verify_kz_equation(asc.overconvergent_g0(p, weight), p=p, frobenius_conjugator=phi_de)
        exact(f"modified differential equation residual at weight {weight}, p={p}", res.is_zero())
        return checks

    raise click.UsageError(f"unknown identity {identity!r}")


@assoc.command("verify")
@click.option("--identity", required=True, type=click.Choice(_IDENTITIES))
@click.option("--weight", type=int, default=4, show_default=True, callback=_weight)
@click.option("--p", type=int, default=None, callback=_prime)
@click.option("--flavor", default="complex_KZ", show_default=True,
              type=click.Choice(["complex_KZ", "padic_KZ"]))
@click.option("--tolerance", default=1e-6, show_default=True, callback=_tolerance)
@click.option("--format", "fmt", default="json", show_default=True, type=click.Choice(["json", "csv"]),
              help="csv emits one line per check (symbolic constraints land in the detail column)")
@click.option("--pretty", is_flag=True)
@_internal_errors
def assoc_verify(identity, weight, p, flavor, tolerance, fmt, pretty):
    """Verify one defining identity and report residuals."""
    checks = _verify_identity(identity, weight, p, flavor, tolerance)
    if fmt == "csv":
        click.echo("name,status,residual,tolerance,detail")
        for c in checks:
            detail = (c.get("detail") or "").replace('"', "'")
            click.echo(f"\"{c['name']}\",{c['status']},{c.get('residual')},{c.get('tolerance')},\"{detail}\"")
        if any(c["status"] == "fail" for c in checks):
            sys.exit(1)
        return
    _emit(_report(f"assoc verify --identity {identity}", checks,
                  truncation=weight, prime=p, flavor=flavor), pretty)


# ---------------------------------------------------------------- padic group


@click.group(context_settings=CONTEXT_SETTINGS)
def padic():
    """p-adic polylogarithm evaluation on the open unit disk."""


@padic.command("polylog")
@click.option("--p", type=int, required=True, callback=_prime)
@click.option("--k", type=int, required=True, callback=_weight)
@click.option("--z", required=True, help="rational point, e.g. 5/7")
@click.option("--prec", type=int, default=30, show_default=True, callback=_padic_precision)
@click.option("--dagger", is_flag=True, help="sum only over n prime to p")
@click.option("--pretty", is_flag=True)
@_internal_errors
def padic_polylog_cmd(p, k, z, prec, dagger, pretty):
    """Evaluate Li_k (or its prime-to-p variant) at a rational disk point."""
    from .padic_eval import padic_polylog

    _check_padic_bits(p, prec)
    try:
        zq = Fraction(z)
    except ValueError:
        raise click.UsageError(f"cannot parse rational {z!r}")
    val = padic_polylog(k, zq, p, prec, skip_p_multiples=dagger)
    name = f"Li{'_dagger' if dagger else ''}[{k}]({z})"
    check = {"name": name, "status": "pass", "value": str(val),
             "tolerance": f"O({p}^{val.aprec})", "detail": f"absolute precision {val.aprec}"}
    _emit(_report("padic polylog", [check], prime=p), pretty)


@padic.command("verify-spain")
@click.option("--primes", default="3,5,7", show_default=True, callback=_primes)
@click.option("--kmax", type=int, default=4, show_default=True, callback=_weight)
@click.option("--points", type=int, default=20, show_default=True, callback=_positive)
@click.option("--prec", type=int, default=30, show_default=True, callback=_padic_precision)
@click.option("--digits", type=int, default=20, show_default=True, callback=_positive,
              help="required agreement digits")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--pretty", is_flag=True)
@_internal_errors
def padic_verify_spain(primes, kmax, points, prec, digits, seed, pretty):
    """Check the depth-1 overconvergent identity numerically on random points."""
    from .padic_eval import padic_polylog

    if digits > prec:
        raise click.UsageError(f"--digits {digits} cannot be certified at --prec {prec}")
    _check_padic_bits(max(primes), prec)
    bits = [prec * p.bit_length() for p in primes]
    cost = math.ceil(kmax * points * sum(0.1 + 1.2e-3 * b + 1.05e-6 * b * b for b in bits) / 0.15)
    if cost > MAX_SPAIN_CHECKS:
        raise click.UsageError(f"--primes x --kmax x --points at --prec {prec} costs {cost} units of "
                               f"0.15 ms; at most {MAX_SPAIN_CHECKS} are run")
    rng = random.Random(seed)
    tasks = []
    for p in primes:
        for k in range(1, kmax + 1):
            for _ in range(points):
                num = p * rng.randint(1, 50)
                den = rng.choice([d for d in range(1, 60) if d % p])
                tasks.append((p, k, Fraction(num, den)))

    def run(task):
        p, k, zq = task
        lhs = padic_polylog(k, zq, p, prec, skip_p_multiples=True)
        # Li_k(z^p) is summed k digits deeper and divided by p^k exactly
        frobenius = padic_polylog(k, zq**p, p, prec + k).shift(-k)
        rhs = padic_polylog(k, zq, p, prec) - frobenius
        diff = lhs - rhs
        # a difference that is zero to precision certifies only aprec digits
        ok = (diff.aprec if diff.is_zero() else diff.valuation()) >= digits
        return {"name": f"p={p} k={k} z={zq}", "status": "pass" if ok else "fail",
                "residual": str(diff), "tolerance": f"agreement to {digits} digits"}

    checks = [run(task) for task in tasks]
    _emit(_report("padic verify-spain", checks), pretty)


# ---------------------------------------------------------------- sv group


@click.group(context_settings=CONTEXT_SETTINGS)
def sv():
    """Single-valued polylogarithm combinations on the punctured disk."""


@sv.command("polylog")
@click.option("--k", type=int, required=True, callback=_weight)
@click.option("--z", required=True, help="complex point, e.g. 0.3+0.2i")
@click.option("--zagier", is_flag=True, help="also print the Bernoulli-weighted projection")
@click.option("--pretty", is_flag=True)
@_internal_errors
def sv_polylog_cmd(k, z, zagier, pretty):
    """Evaluate the single-valued polylogarithm at a disk point."""
    from .arch_eval import sv_polylog, zagier_p

    zc = _parse_complex(z)
    val = sv_polylog(k, zc)
    checks = [{"name": f"Li_minus[{k}]({z})", "status": "pass",
               "value": f"{val.real!r}{val.imag:+}j", "tolerance": SV_TOLERANCE}]
    if zagier:
        checks.append({"name": f"P[{k}]({z})", "status": "pass",
                       "value": zagier_p(k, zc), "tolerance": SV_TOLERANCE})
    _emit(_report("sv polylog", checks), pretty)


# ---------------------------------------------------------------- series group


@click.group(context_settings=CONTEXT_SETTINGS)
def series():
    """Canonical series serialization."""


@series.command("dump")
@click.option("--flavor", default="padic_KZ", show_default=True,
              type=click.Choice(list(MAX_DUMP_WEIGHT)))
@click.option("--weight", type=int, default=4, show_default=True, callback=_weight)
@click.option("--p", type=int, default=None, callback=_prime)
@_internal_errors
def series_dump(flavor, weight, p):
    """Serialize a built series to canonical JSON on stdout."""
    from .associator import PADIC_DELIGNE, build_associator
    from .serialize import series_to_json

    if p is not None and flavor != PADIC_DELIGNE:
        raise click.UsageError(f"--flavor {flavor} takes no --p")
    _check_weight_cap(MAX_DUMP_WEIGHT, flavor, weight)
    click.echo(series_to_json(build_associator(flavor, weight, p)), nl=False)


@series.command("parse")
@click.argument("source", type=click.File("r"), default="-")
@_internal_errors
def series_parse(source):
    """Parse canonical JSON from stdin (or a file) and re-emit it canonically."""
    from .serialize import series_from_json, series_to_json

    click.echo(series_to_json(series_from_json(source.read())), nl=False)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(mzv())
