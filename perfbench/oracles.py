"""Output checks for every benchmark command.

Each oracle takes the command, its stdout bytes and the stdout of the
commands run before it in the same pass, and raises OracleError when the
output is wrong.  On success it returns a small dict of facts worth keeping
(counts, not assertions: e.g. the double-shuffle dimension bound).

The references are computed here, independently of the package:
  * multiple zeta values by Hoelder convolution of the iterated integral at
    1/2 (all terms positive, so plain floats are accurate to ~1e-15);
  * p-adic polylogarithms as an exact rational partial sum;
  * disk polylogarithms with mpmath.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class OracleError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise OracleError(message)


# -- reports -----------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _validator():
    import jsonschema

    with open(os.path.join(ROOT, "src", "mzv", "report-schema.json")) as fh:
        schema = json.load(fh)
    return jsonschema.Draft7Validator(schema)


def report(out: bytes) -> dict:
    """Parse an mzv-report/1 document and validate it against the package schema."""
    try:
        doc = json.loads(out)
    except ValueError as exc:
        raise OracleError(f"not JSON: {exc}") from None
    errors = sorted(_validator().iter_errors(doc), key=str)
    _require(not errors, f"schema: {errors[0].message}" if errors else "")
    return doc


def _checks(doc: dict, count: int | None, status: str) -> list[dict]:
    checks = doc["checks"]
    _require(count is None or len(checks) == count, f"expected {count} checks, got {len(checks)}")
    _require(all(c["status"] == status for c in checks), f"a check is not {status}")
    _require(doc["status"] == status, f"report status {doc['status']!r}, expected {status!r}")
    return checks


def exact(cmd, out, prior) -> dict:
    """Every check is an exact zero, and there are as many as the identity has."""
    checks = _checks(report(out), cmd.expect["checks"], "exact-zero")
    _require(all(c.get("residual") == "0" for c in checks), "nonzero exact residual")
    return {"checks": len(checks)}


def residual(cmd, out, prior) -> dict:
    """Numeric identity: every residual is a number below its tolerance."""
    checks = _checks(report(out), cmd.expect["checks"], "pass")
    for c in checks:
        res, tol = c.get("residual"), c.get("tolerance")
        _require(isinstance(res, (int, float)) and isinstance(tol, (int, float)), "residual is not numeric")
        _require(0 <= res < tol, f"residual {res} not below tolerance {tol}")
    return {"residual": max(c["residual"] for c in checks)}


def all_pass(cmd, out, prior) -> dict:
    _checks(report(out), cmd.expect["checks"], "pass")
    return {"checks": cmd.expect["checks"]}


def series_json(cmd, out, prior) -> dict:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        raise OracleError(f"not JSON: {exc}") from None
    _require(doc.get("format") == "ncseries/1", "not an ncseries/1 document")
    _require(doc.get("truncation") == cmd.expect["weight"], "wrong truncation")
    _require(len(doc.get("terms", ())) > 1, "empty series")
    return {"terms": len(doc["terms"])}


def roundtrip(cmd, out, prior) -> dict:
    source = prior[cmd.expect["of"]]
    _require(len(out) > 0 and out == source, "parse output differs from the dump it read")
    return {"bytes": len(out)}


# -- multiple zeta values ------------------------------------------------------


def _iterated_at_half(word: tuple[int, ...], terms: int = 64) -> float:
    """I(0; word; 1/2) for a word in {0, 1} starting with 1 (dt/t = 0, dt/(1-t) = 1),
    as the nested sum over n_1 < ... < n_d of 2^-n_d / prod n_i^s_i."""
    if not word:
        return 1.0
    blocks: list[int] = []
    for letter in word:
        if letter == 1:
            blocks.append(1)
        else:
            blocks[-1] += 1
    depth = len(blocks)
    partial = [0.0] * depth  # partial[j]: sum over chains of length j+1 ending below n
    total, weight = 0.0, 1.0
    for n in range(1, terms + 1):
        weight *= 0.5
        new = [1.0 / n ** blocks[0]] + [partial[j - 1] / n ** blocks[j] for j in range(1, depth)]
        total += new[-1] * weight
        for j in range(depth):
            partial[j] += new[j]
    return total


@functools.lru_cache(maxsize=None)
def mzv_reference(index: tuple[int, ...]) -> float:
    """zeta(k_1, ..., k_m) = sum over n_1 < ... < n_m of prod n_i^-k_i (k_m >= 2).

    The iterated integral over [0, 1] is split at 1/2; the piece over
    [1/2, 1] maps to [0, 1/2] under t -> 1 - t, which reverses the word and
    swaps its letters.  Every term is a product of two positive sums."""
    word = tuple(x for k in index for x in (1,) + (0,) * (k - 1))
    return sum(_iterated_at_half(word[:j]) * _iterated_at_half(tuple(1 - a for a in reversed(word[j:])))
               for j in range(len(word) + 1))


def mzv_eval(cmd, out, prior) -> dict:
    (check,) = _checks(report(out), 1, "pass")
    value, bound, tol = check.get("value"), check.get("residual"), check.get("tolerance")
    _require(all(isinstance(x, (int, float)) for x in (value, bound, tol)), "value/bound not numeric")
    ref = mzv_reference(tuple(cmd.expect["index"]))
    _require(bound <= tol, f"error bound {bound} exceeds tolerance {tol}")
    _require(abs(value - ref) <= tol, f"value {value} differs from reference {ref} by more than {tol}")
    return {"error": abs(value - ref)}


# -- double shuffle relations -------------------------------------------------


_MONO_RE = re.compile(r"^(?:zeta|zeta_p|zetaDe_p)\[(\d+(?:,\d+)*)\](?:\^(\d+))?$")


@functools.lru_cache(maxsize=None)
def monomial(text: str) -> tuple[tuple[int, ...], ...]:
    """'zeta[1,2]^2*zeta[3]' -> sorted tuple of indices (with multiplicity)."""
    out = []
    for factor in text.split("*"):
        m = _MONO_RE.match(factor)
        _require(m is not None, f"malformed monomial {text!r}")
        index = tuple(int(x) for x in m.group(1).split(","))
        _require(index[-1] >= 2, f"divergent index in {text!r}")
        out += [index] * int(m.group(2) or 1)
    return tuple(sorted(out))


def monomial_count(weight: int) -> int:
    """Number of products of admissible indices of total weight `weight`:
    the coefficient of x^weight in prod_{k>=2} (1 - x^k)^-(2^(k-2))."""
    series = [1] + [0] * weight
    for k in range(2, weight + 1):
        for _ in range(2 ** (k - 2)):  # one factor 1/(1 - x^k) per admissible index of weight k
            for n in range(k, weight + 1):
                series[n] += series[n - k]
    return series[weight]


def rank_mod_prime(vectors: list[list[int]], prime: int = 2_147_483_647) -> int:
    """Rank over GF(prime); equals the rational rank unless the prime divides a minor."""
    import numpy as np

    if not vectors:
        return 0
    m = np.array(vectors, dtype=np.int64) % prime
    rank = 0
    for col in range(m.shape[1]):
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), prime - 2, prime) % prime
        below = rank + 1 + np.nonzero(m[rank + 1:, col])[0]
        if below.size:
            m[below] = (m[below] - m[below, col][:, None] * m[rank] % prime) % prime
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def row_vectors(rows: list[dict[tuple, Fraction]], prime: int = 2_147_483_647) -> list[list[int]]:
    columns = sorted({m for row in rows for m in row})
    col = {m: k for k, m in enumerate(columns)}
    vectors = []
    for row in rows:
        vec = [0] * len(columns)
        for m, c in row.items():
            vec[col[m]] = c.numerator % prime * pow(c.denominator, prime - 2, prime) % prime
        vectors.append(vec)
    return vectors


def _check_weight(monos, weight: int):
    for m in monos:
        _require(sum(sum(idx) for idx in m) == weight, f"monomial {m} is not of weight {weight}")


def relations_json(cmd, out, prior) -> dict:
    """Every row reduces to exactly zero under the emitted expression table;
    basis and pivots partition the weight's monomials; the rank of the
    emitted rows equals the reported rank."""
    doc = report(out)
    weight = cmd.expect["weight"]
    _require(doc.get("weight") == weight, "wrong weight")
    basis = [monomial(b) for b in doc["basis"]]
    expressions = {monomial(m): {monomial(b): Fraction(c) for b, c in expr.items()}
                   for m, expr in doc["expressions"].items()}
    total = monomial_count(weight)
    _check_weight(basis, weight)
    _check_weight(expressions, weight)
    _require(len(set(basis)) == len(basis) and not set(basis) & set(expressions), "basis overlaps the pivots")
    _require(len(basis) + len(expressions) == total,
             f"basis and pivots cover {len(basis) + len(expressions)} of {total} monomials")
    _require(doc["dimension_bound"] == len(basis) and doc["rank"] == len(expressions), "rank/dimension mismatch")
    _require(doc["rank"] + doc["dimension_bound"] == total, "rank + dimension_bound != monomial count")
    basis_set = set(basis)
    for expr in expressions.values():
        _require(set(expr) <= basis_set, "expression uses a non-basis monomial")
    rows = []
    for k, row in enumerate(doc["rows"]):
        coeffs = {monomial(m): Fraction(c) for m, c in row["coefficients"].items()}
        _check_weight(coeffs, weight)
        acc: dict = {}
        for m, c in coeffs.items():
            for b, e in (expressions[m].items() if m in expressions else ((m, Fraction(1)),)):
                acc[b] = acc.get(b, 0) + c * e
        _require(not any(acc.values()), f"row {k} ({row['provenance']}) does not reduce to zero")
        rows.append(coeffs)
    rank = rank_mod_prime(row_vectors(rows))
    _require(rank == doc["rank"], f"emitted rows have rank {rank}, report says {doc['rank']}")
    if cmd.expect.get("numeric"):
        _require(doc["status"] == "pass", "numeric check failed")
        for row in doc["rows"]:
            _require(abs(row["numeric_residual"]) <= row["tolerance"], "numeric residual above tolerance")
    return {"rows": len(rows), "rank": doc["rank"], "dimension_bound": doc["dimension_bound"],
            "monomials": total}


def _csv_rows(out: bytes, weight: int) -> list[dict]:
    lines = out.decode().splitlines()
    _require(lines and lines[0] == "row,weight,provenance,monomial,coefficient", "bad CSV header")
    rows: list[dict] = []
    for line in lines[1:]:
        m = re.fullmatch(r'(\d+),(\d+),"([^"]*)",(.+),(-?\d+(?:/\d+)?)', line)
        _require(m is not None, f"malformed CSV line {line!r}")
        idx, wt = int(m.group(1)), int(m.group(2))
        _require(wt == weight, "wrong weight column")
        if idx == len(rows):
            rows.append({})
        _require(idx == len(rows) - 1, "row numbers are not consecutive")
        rows[-1][monomial(m.group(4))] = Fraction(m.group(5))
    return rows


def relations_csv(cmd, out, prior) -> dict:
    """Each CSV row is a relation among multiple zeta values: it vanishes
    numerically against the independent reference values."""
    weight = cmd.expect["weight"]
    rows = _csv_rows(out, weight)
    _require(rows, "no relation rows")
    for k, row in enumerate(rows):
        _check_weight(row, weight)
        _require(all(row.values()), "zero coefficient")
        terms = [float(c) * math.prod(mzv_reference(idx) for idx in m) for m, c in row.items()]
        scale = sum(abs(t) for t in terms)
        _require(abs(sum(terms)) <= 1e-11 * scale, f"row {k} does not vanish numerically: {sum(terms)}")
    return {"rows": len(rows), "rank": rank_mod_prime(row_vectors(rows))}


# -- p-adic polylogarithm -------------------------------------------------------


_PADIC_TERM = re.compile(r"^(\d+)(?:\*(\d+)(?:\^(-?\d+))?)?$")


def parse_padic(text: str, p: int) -> tuple[Fraction, int]:
    """'d*p^e + ... + O(p^N)' -> (value, N)."""
    body, sep, tail = text.rpartition("O(")
    m = re.fullmatch(rf"{p}\^(-?\d+)\)", tail.strip())
    _require(sep and m, f"no precision term in {text[:40]!r}")
    value = Fraction(0)
    for term in filter(None, (t.strip() for t in body.split("+"))):
        t = _PADIC_TERM.match(term)
        _require(t is not None and (t.group(2) is None or int(t.group(2)) == p), f"bad p-adic term {term!r}")
        digit = int(t.group(1))
        _require(0 < digit < p, f"digit {digit} out of range")
        exp = 0 if t.group(2) is None else int(t.group(3) or 1)
        value += digit * Fraction(p) ** exp
    return value, int(m.group(1))


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def polylog_partial_sum(k: int, z: Fraction, p: int, aprec: int) -> Fraction:
    """sum_{n<=N} z^n / n^k exactly, with N so large that every later term has
    valuation >= aprec (z has valuation >= 1)."""
    vz = _valuation(z.numerator, p) - _valuation(z.denominator, p)
    _require(vz >= 1, "z is not in the open unit disk")
    n = 1
    while True:  # n*vz - k*log_p(n) is increasing once it is positive
        if all(m * vz - k * math.log(m, p) >= aprec for m in (n + 1, n + 2)):
            break
        n += 1
    # Common denominator b^N * lcm(1..N)^k, so the sum is one integer numerator.
    lcm = 1
    for m in range(1, n + 1):
        lcm = lcm * m // math.gcd(lcm, m)
    lk = lcm ** k
    a, b = z.numerator, z.denominator
    num = sum(a ** m * b ** (n - m) * (lk // m ** k) for m in range(1, n + 1))
    return Fraction(num, b ** n * lk)


def padic_polylog(cmd, out, prior) -> dict:
    p, k, prec = cmd.expect["p"], cmd.expect["k"], cmd.expect["prec"]
    (check,) = _checks(report(out), 1, "pass")
    value, aprec = parse_padic(check["value"], p)
    floor = prec - k * (int(math.log(prec * k, p)) + 1)
    _require(aprec >= floor, f"precision {aprec} below {floor}")
    diff = polylog_partial_sum(k, Fraction(cmd.expect["z"]), p, aprec) - value
    if diff:
        v = _valuation(diff.numerator, p) - _valuation(diff.denominator, p)
        _require(v >= aprec, f"value agrees only to p^{v}, claims O({p}^{aprec})")
    return {"aprec": aprec}


# -- single-valued polylogarithm ----------------------------------------------


def sv_reference(k: int, z: complex) -> tuple[complex, float]:
    import mpmath

    mpmath.mp.dps = 30
    zz = mpmath.mpc(z.real, z.imag)
    ell = 2 * mpmath.log(abs(zz))
    li_minus = mpmath.polylog(k, zz) - sum(
        (-1) ** (k - a) * ell ** a / mpmath.factorial(a) * mpmath.polylog(k - a, mpmath.conj(zz))
        for a in range(k))
    proj = sum(mpmath.bernoulli(a) / mpmath.factorial(a) * ell ** a * mpmath.polylog(k - a, zz)
               for a in range(k))
    proj = proj.real if k % 2 else proj.imag
    return complex(li_minus), float(proj)


def sv_polylog(cmd, out, prior) -> dict:
    k, (x, y) = cmd.expect["k"], cmd.expect["z"]
    checks = _checks(report(out), 2, "pass")
    li_ref, p_ref = sv_reference(k, complex(x, y))
    try:
        li_val = complex(str(checks[0]["value"]))
        p_val = float(checks[1]["value"])
    except (TypeError, ValueError):
        raise OracleError("value is not a number") from None
    for val, ref, tol in ((li_val, li_ref, checks[0]["tolerance"]), (p_val, p_ref, checks[1]["tolerance"])):
        _require(abs(val - ref) <= tol * max(1.0, abs(ref)), f"value {val} differs from reference {ref}")
    return {"error": max(abs(li_val - li_ref), abs(p_val - p_ref))}


ORACLES = {f.__name__: f for f in (exact, residual, all_pass, series_json, roundtrip, mzv_eval,
                                   relations_json, relations_csv, padic_polylog, sv_polylog)}
