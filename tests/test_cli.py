import hashlib
import json
import math
import time
from fractions import Fraction

import jsonschema
import pytest
from click.testing import CliRunner

from mzv import arch_eval
from mzv.cli import (MAX_DUMP_WEIGHT, MAX_PRINCETON_COST, MAX_SPAIN_CHECKS, MAX_VERIFY_WEIGHT, PRIME_BOUND,
                     _is_prime, assoc, mzv, padic, series, sv)

try:
    from importlib.resources import files

    SCHEMA = json.loads(files("mzv").joinpath("report-schema.json").read_text())
except Exception:  # pragma: no cover
    SCHEMA = None


def _run(group, args, **kw):
    return CliRunner().invoke(group, args, **kw)


def _validated(result):
    payload = json.loads(result.output)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_mzv_eval_reports_value_and_bound():
    result = _run(mzv, ["eval", "--index", "1,2"])
    assert result.exit_code == 0
    payload = _validated(result)
    (check,) = payload["checks"]
    assert abs(check["value"] - 1.2020569) < 1e-5
    assert check["residual"] < check["tolerance"]


def test_mzv_eval_usage_error():
    result = _run(mzv, ["eval", "--index", "oops"])
    assert result.exit_code == 2


def test_mzv_relations_csv_contains_euler_row():
    result = _run(mzv, ["relations", "--weight", "3"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "row,weight,provenance,monomial,coefficient"
    body = "\n".join(lines[1:])
    assert "zeta[1,2]" in body and "zeta[3]" in body


def test_mzv_relations_json_reduction():
    result = _run(mzv, ["relations", "--weight", "4", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dimension_bound"] == 1
    assert payload["basis"] == ["zeta[2]^2"]
    assert payload["expressions"]["zeta[4]"] == {"zeta[2]^2": "2/5"}


def test_assoc_verify_exact_zero_and_exit_codes():
    result = _run(assoc, ["verify", "--identity", "netherland", "--weight", "3", "--p", "5"])
    assert result.exit_code == 0
    payload = _validated(result)
    assert payload["status"] == "exact-zero"


def test_assoc_verify_requires_prime():
    result = _run(assoc, ["verify", "--identity", "netherland", "--weight", "3"])
    assert result.exit_code == 2


def test_is_prime_matches_trial_division():
    for n in range(-2, 3000):
        assert _is_prime(n) == (n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))), n
    # Carmichael numbers, a strong pseudoprime to bases 2, 3, 5, 7, and large primes
    assert not any(_is_prime(n) for n in (561, 41041, 3215031751, (2**61 - 1) * (2**31 - 1)))
    assert _is_prime(2**61 - 1) and _is_prime(10**18 + 9)


# the least strong pseudoprimes to the first twelve and thirteen prime bases:
# `_is_prime` calls the first prime, and both lie at or past its exact range
@pytest.mark.parametrize("p", [318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981])
def test_p_at_or_past_the_exact_primality_bound_is_a_usage_error(p):
    assert p >= PRIME_BOUND
    result = _run(padic, ["polylog", "--p", str(p), "--k", "2", "--z", f"{p}/2", "--prec", "3"])
    assert result.exit_code == 2, result.output
    assert f"p = {p} is not below {PRIME_BOUND}" in result.output


def test_a_large_prime_below_the_bound_is_accepted():
    p = 10**18 + 9
    result = _run(padic, ["polylog", "--p", str(p), "--k", "2", "--z", f"{p}/2", "--prec", "3"])
    assert result.exit_code == 0, result.output
    assert _validated(result)["status"] == "pass"


@pytest.mark.parametrize("p, weight", [(1_000_003, 2), (100_000_000_003, 1), (331, 7), (3, 10)])
def test_princeton_past_its_cost_bound_fails_before_any_work(p, weight):
    assert (p + 10) * 3.5**weight > MAX_PRINCETON_COST
    start = time.monotonic()
    result = _run(assoc, ["verify", "--identity", "princeton", "--p", str(p), "--weight", str(weight)])
    assert result.exit_code == 2, result.output
    assert f"is past the princeton's limit (p + 10) * 3.5^weight <= {MAX_PRINCETON_COST}" in result.output
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("group,args", [
    (assoc, ["verify", "--identity", "netherland", "--weight", "3", "--p", "4"]),
    (series, ["dump", "--flavor", "padic_Deligne", "--weight", "3", "--p", "4"]),
    (padic, ["polylog", "--p", "4", "--k", "2", "--z", "4/7"]),
    (padic, ["verify-spain", "--primes", "3,4", "--kmax", "1", "--points", "1"]),
])
def test_composite_p_is_a_usage_error(group, args):
    result = _run(group, args)
    assert result.exit_code == 2, result.output
    assert "p = 4 is not prime" in result.output


@pytest.mark.parametrize("group,args", [
    (assoc, ["verify", "--identity", "netherland", "--weight", "20", "--p", "5"]),
    (assoc, ["verify", "--identity", "pentagon", "--weight", "20"]),
    (assoc, ["verify", "--identity", "pentagon", "--weight", "9"]),
    (assoc, ["verify", "--identity", "dual", "--weight", "0"]),
    (series, ["dump", "--weight", "17"]),
    (mzv, ["relations", "--weight", "13"]),
])
def test_weight_past_the_cap_fails_before_any_work(group, args):
    start = time.monotonic()
    result = _run(group, args)
    assert result.exit_code == 2, result.output
    assert "--weight" in result.output
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("identity", sorted(MAX_VERIFY_WEIGHT))
def test_weight_one_past_an_identity_cap_fails_before_any_work(identity):
    cap = MAX_VERIFY_WEIGHT[identity]
    start = time.monotonic()
    result = _run(assoc, ["verify", "--identity", identity, "--weight", str(cap + 1)])
    assert result.exit_code == 2, result.output
    assert f"--weight {cap + 1} is past the {identity}'s limit of {cap}" in result.output
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("flavor", sorted(MAX_DUMP_WEIGHT))
def test_weight_one_past_a_dump_cap_fails_before_any_work(flavor):
    cap = MAX_DUMP_WEIGHT[flavor]
    start = time.monotonic()
    result = _run(series, ["dump", "--flavor", flavor, "--weight", str(cap + 1)]
                  + (["--p", "5"] if flavor == "padic_Deligne" else []))
    assert result.exit_code == 2, result.output
    assert f"--weight {cap + 1} is past the {flavor}'s limit of {cap}" in result.output
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("group,args,option", [
    (sv, ["polylog", "--k", "200", "--z", "0.5"], "--k"),
    (sv, ["polylog", "--k", "0", "--z", "0.5", "--zagier"], "--k"),
    (padic, ["polylog", "--p", "5", "--k", "100000", "--z", "5/7"], "--k"),
    (padic, ["polylog", "--p", "5", "--k", "-1", "--z", "5/7"], "--k"),
    (padic, ["verify-spain", "--primes", "5", "--kmax", "10000", "--points", "1"], "--kmax"),
])
def test_polylog_index_past_the_cap_fails_before_any_work(group, args, option):
    start = time.monotonic()
    result = _run(group, args)
    assert result.exit_code == 2, result.output
    assert option in result.output and "outside 1..16" in result.output
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("args,option", [
    (["polylog", "--p", "3", "--k", "2", "--z", "3/2", "--prec", "-5"], "--prec"),
    (["polylog", "--p", "3", "--k", "2", "--z", "3/2", "--prec", "0"], "--prec"),
    (["polylog", "--p", "3", "--k", "2", "--z", "3/2", "--prec", "10000000"], "--prec"),
    (["verify-spain", "--prec", "0", "--digits", "0"], "--prec"),
    (["verify-spain", "--prec", "10000000", "--points", "1"], "--prec"),
    (["verify-spain", "--digits", "0"], "--digits"),
    (["verify-spain", "--points", "-3"], "--points"),
    (["verify-spain", "--points", "0"], "--points"),
])
def test_padic_precision_and_counts_out_of_range_fail_before_any_work(args, option):
    start = time.monotonic()
    result = _run(padic, args)
    assert result.exit_code == 2, result.output
    assert option in result.output
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("args,bits", [
    (["polylog", "--p", "1009", "--k", "2", "--z", "1009/3", "--prec", "5000"], 50_000),
    (["polylog", "--p", "101", "--k", "2", "--z", "101/3", "--prec", "2143"], 15_001),
    (["verify-spain", "--primes", "3,1009", "--prec", "5000", "--points", "1"], 50_000),
])
def test_padic_precision_past_the_bit_bound_fails_before_any_work(args, bits):
    """The cost grows with the precision in bits, so a large p gets fewer digits."""
    start = time.monotonic()
    result = _run(padic, args)
    assert result.exit_code == 2, result.output
    assert str(bits) in result.output and "15000" in result.output
    assert time.monotonic() - start < 5.0


def test_padic_precision_cap_stays_whole_for_small_primes():
    # 5,000 digits at p = 7 is 15,000 bits, on the bound
    result = _run(padic, ["polylog", "--p", "7", "--k", "2", "--z", "343/2", "--prec", "5000"])
    assert result.exit_code == 0, result.output


def test_padic_verify_spain_refuses_more_checks_than_the_bound_before_any_work():
    start = time.monotonic()
    result = _run(padic, ["verify-spain", "--points", "1000000000"])
    assert result.exit_code == 2, result.output
    assert "--points" in result.output and str(MAX_SPAIN_CHECKS) in result.output
    assert time.monotonic() - start < 5.0


def test_padic_verify_spain_bound_counts_every_check(monkeypatch):
    monkeypatch.setattr("mzv.cli.MAX_SPAIN_CHECKS", 4)
    args = ["verify-spain", "--primes", "5", "--kmax", "2", "--digits", "5", "--prec", "10"]
    assert _run(padic, args + ["--points", "2"]).exit_code == 0
    assert _run(padic, args + ["--points", "3"]).exit_code == 2
    # the benchmark's grid: 3 primes x kmax 4 x 40 points
    assert 3 * 4 * 40 <= MAX_SPAIN_CHECKS


def test_padic_verify_spain_refuses_a_costly_run_before_any_work():
    """10,000 checks at 5,000 digits would run for most of an hour."""
    start = time.monotonic()
    args = ["verify-spain", "--primes", "7", "--kmax", "10", "--points", "1000", "--prec", "5000"]
    result = _run(padic, args)
    assert result.exit_code == 2, result.output
    assert str(MAX_SPAIN_CHECKS) in result.output
    assert time.monotonic() - start < 5.0


def test_assoc_verify_numeric_identities():
    for identity in ("dual", "hexagon"):
        result = _run(assoc, ["verify", "--identity", identity, "--weight", "3"])
        assert result.exit_code == 0, result.output
        payload = _validated(result)
        assert payload["status"] == "pass"


def test_assoc_verify_symbolic_hexagon_weight2():
    result = _run(assoc, ["verify", "--identity", "hexagon", "--flavor", "padic_KZ", "--weight", "2"])
    assert result.exit_code == 0
    payload = _validated(result)
    assert payload["status"] == "exact-zero"
    assert "zeta_p(2) = 0" in payload["checks"][0]["name"]


def test_padic_polylog_value_and_domain_error():
    result = _run(padic, ["polylog", "--p", "5", "--k", "2", "--z", "5/7", "--prec", "20"])
    assert result.exit_code == 0
    payload = _validated(result)
    assert "O(5^" in payload["checks"][0]["value"]
    result = _run(padic, ["polylog", "--p", "5", "--k", "2", "--z", "7", "--prec", "10"])
    assert result.exit_code == 2


def test_padic_polylog_names_a_point_with_a_zero_denominator():
    result = _run(padic, ["polylog", "--p", "5", "--k", "2", "--z", "1/0"])
    assert result.exit_code == 2, result.output
    assert "cannot parse rational '1/0'" in result.output


def test_padic_verify_spain_small_grid():
    result = _run(padic, ["verify-spain", "--primes", "5", "--kmax", "2", "--points", "2"])
    assert result.exit_code == 0
    payload = _validated(result)
    assert payload["status"] == "pass"
    assert len(payload["checks"]) == 4


def _certified_digits(residual):
    # "... + O(3^30)" is known modulo 3^30
    return int(residual.rsplit("^", 1)[1].rstrip(")"))


@pytest.mark.parametrize("kmax", [12, 16])
def test_padic_verify_spain_passes_are_certified(kmax):
    # k >= 8 used to pass on differences known to fewer than 20 digits, and
    # k = 16 raised "division by a p-adic zero"
    result = _run(padic, ["verify-spain", "--primes", "3", "--kmax", str(kmax), "--points", "1"])
    assert result.exit_code == 0, result.output
    payload = _validated(result)
    assert len(payload["checks"]) == kmax
    for check in payload["checks"]:
        assert check["status"] == "pass", check
        assert _certified_digits(check["residual"]) >= 20, check


def test_padic_verify_spain_fails_an_agreement_it_cannot_certify(monkeypatch):
    from mzv import padic_eval

    # an evaluator that knows k fewer digits than asked leaves the k = 12
    # difference known to 18 < 20 digits, which must fail, not pass
    evaluate = padic_eval.padic_polylog
    monkeypatch.setattr(padic_eval, "padic_polylog",
                        lambda k, z, p, prec, skip_p_multiples=False: evaluate(k, z, p, prec - k, skip_p_multiples))
    result = _run(padic, ["verify-spain", "--primes", "3", "--kmax", "12", "--points", "1"])
    assert result.exit_code == 1, result.output
    checks = {c["name"].split()[1]: c for c in json.loads(result.output)["checks"]}
    assert checks["k=1"]["status"] == "pass"
    assert checks["k=12"]["status"] == "fail"
    assert _certified_digits(checks["k=12"]["residual"]) < 20


def test_padic_verify_spain_digits_past_the_precision_is_a_usage_error():
    result = _run(padic, ["verify-spain", "--prec", "10", "--digits", "20"])
    assert result.exit_code == 2, result.output
    assert "--digits 20" in result.output


def test_sv_polylog_output():
    result = _run(sv, ["polylog", "--k", "3", "--z", "0.3+0.2i", "--zagier"])
    assert result.exit_code == 0
    payload = _validated(result)
    assert len(payload["checks"]) == 2
    result = _run(sv, ["polylog", "--k", "3", "--z", "1.5"])
    assert result.exit_code == 2


def test_sv_polylog_near_the_unit_circle_is_refused(monkeypatch):
    def no_powers(*args, **kwargs):
        raise AssertionError("the series was summed instead of refused")

    monkeypatch.setattr(arch_eval, "_powers", no_powers)
    start = time.monotonic()
    result = _run(sv, ["polylog", "--k", "2", "--z", "0.999999999"])
    assert result.exit_code == 2, result.output
    assert "terms" in result.output
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("z", ["nan", "inf", "-inf", "nan+1i"])
def test_sv_polylog_refuses_a_non_finite_point(monkeypatch, z):
    def no_powers(*args, **kwargs):
        raise AssertionError("the series was summed instead of refused")

    monkeypatch.setattr(arch_eval, "_powers", no_powers)
    result = _run(sv, ["polylog", "--k", "3", "--z", z])
    assert result.exit_code == 2, result.output
    assert f"--z must be finite, got {z!r}" in result.output


def test_sv_polylog_takes_no_tolerance(monkeypatch):
    """The reported tolerance is the accuracy of the float evaluation, not a
    setting: --tolerance is refused and its environment variable is not read."""
    argv = ["polylog", "--k", "2", "--z", "0.3"]
    assert _run(sv, [*argv, "--tolerance", "1e-30"]).exit_code == 2
    default = _run(sv, argv)
    assert _validated(default)["checks"][0]["tolerance"] == 1e-9
    monkeypatch.setenv("ASSOCIATOR_SV_POLYLOG_TOLERANCE", "1e-30")
    assert _run(sv, argv).output == default.output


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("radius", [1e-3, 0.05, 0.5, 0.99, 0.999])
def test_sv_polylog_is_within_its_reported_tolerance(radius, k):
    """Both checks of `sv polylog --zagier` agree with 30-digit mpmath values
    to the reported tolerance, relative above 1."""
    mpmath = pytest.importorskip("mpmath")
    for angle in (1.0, -2.5):
        z = complex(radius * math.cos(angle), radius * math.sin(angle))
        result = _run(sv, ["polylog", "--k", str(k), "--z", repr(z).strip("()"), "--zagier"])
        assert result.exit_code == 0, result.output
        li_minus, projection = _validated(result)["checks"]
        with mpmath.workdps(30):
            zz = mpmath.mpc(z.real, z.imag)
            ell = 2 * mpmath.log(abs(zz))
            want_li = mpmath.polylog(k, zz) - sum(
                (-1) ** (k - a) * ell**a / mpmath.factorial(a) * mpmath.polylog(k - a, mpmath.conj(zz))
                for a in range(k))
            acc = sum(mpmath.bernoulli(a) / mpmath.factorial(a) * ell**a * mpmath.polylog(k - a, zz)
                      for a in range(k))
            want_p = acc.real if k % 2 else acc.imag
        for check, want in ((li_minus, complex(want_li)), (projection, float(want_p))):
            got = complex(check["value"])
            assert abs(got - want) <= check["tolerance"] * max(1.0, abs(want)), (z, check["name"], got, want)


@pytest.mark.parametrize("identity", ["dual", "hexagon", "pentagon", "moldova", "kz"])
def test_assoc_verify_refuses_a_prime_it_would_not_read(identity):
    result = _run(assoc, ["verify", "--identity", identity, "--weight", "3", "--p", "5"])
    assert result.exit_code == 2, result.output
    assert "takes no --p" in result.output


@pytest.mark.parametrize("identity", ["netherland", "czech", "princeton"])
def test_assoc_verify_requires_a_prime_where_a_check_reads_one(identity):
    result = _run(assoc, ["verify", "--identity", identity, "--weight", "3"])
    assert result.exit_code == 2, result.output
    assert "--p is required for this identity" in result.output


@pytest.mark.parametrize("identity", ["dual", "pentagon", "netherland", "czech", "moldova", "kz", "princeton"])
def test_assoc_verify_refuses_the_padic_flavor_off_the_hexagon(identity):
    args = ["verify", "--identity", identity, "--weight", "3", "--flavor", "padic_KZ"]
    if identity in ("netherland", "czech", "princeton"):
        args += ["--p", "5"]
    result = _run(assoc, args)
    assert result.exit_code == 2, result.output
    assert "--flavor padic_KZ" in result.output


@pytest.mark.parametrize("flavor", ["complex_KZ", "padic_KZ", "minus_KZ", "symbolic_lambda"])
def test_series_dump_refuses_a_prime_it_would_not_read(flavor):
    result = _run(series, ["dump", "--flavor", flavor, "--weight", "3", "--p", "3"])
    assert result.exit_code == 2, result.output
    assert "takes no --p" in result.output


def test_series_dump_parse_round_trip():
    dump = _run(series, ["dump", "--flavor", "padic_KZ", "--weight", "3"])
    assert dump.exit_code == 0
    parsed = _run(series, ["parse", "-"], input=dump.output)
    assert parsed.exit_code == 0
    assert parsed.output == dump.output


def test_series_parse_rejects_garbage():
    parsed = _run(series, ["parse", "-"], input="{}")
    assert parsed.exit_code == 2


_TERM = {"word": "A", "coeff": "1"}


@pytest.mark.parametrize("document, field", [
    ([], "JSON object"),
    ("ncseries/1", "JSON object"),
    ({"format": "ncseries/1", "truncation": 2, "terms": []}, "'ring'"),
    ({"format": "ncseries/1", "ring": "Q", "terms": []}, "'truncation'"),
    ({"format": "ncseries/1", "ring": "Q", "truncation": "2", "terms": []}, "'truncation'"),
    ({"format": "ncseries/1", "ring": "Q", "truncation": True, "terms": []}, "'truncation'"),
    ({"format": "ncseries/1", "ring": "Q", "truncation": 2, "terms": 5}, "'terms'"),
    ({"format": "ncseries/1", "ring": "Q", "truncation": 2, "terms": [5]}, "'terms'[0]"),
    ({"format": "ncseries/1", "ring": "Q", "truncation": 2, "terms": [_TERM, {"word": "B"}]}, "'terms'[1]"),
    ({"format": "ncseries/1", "ring": "Q", "truncation": 2, "terms": [{"word": 1, "coeff": "1"}]}, "'terms'[0]"),
    ({"format": "ncseries/1", "ring": "Q", "truncation": 2, "terms": [{"word": "A", "coeff": 1}]}, "'terms'[0]"),
    ({"format": "ncseries/1", "ring": "Q", "truncation": 2, "terms": [_TERM, _TERM]}, "'terms'[1] repeats"),
    ({"format": "ncseries/1", "ring": "C:inf", "truncation": 2, "terms": [_TERM]}, "finite tolerance"),
    ({"format": "ncseries/1", "ring": "C:-1", "truncation": 2, "terms": [_TERM]}, "finite tolerance"),
    ({"format": "ncseries/1", "ring": "C:nan", "truncation": 2, "terms": [_TERM]}, "finite tolerance"),
], ids=["array", "string", "no-ring", "no-truncation", "string-truncation", "bool-truncation",
        "int-terms", "int-term", "no-coeff", "int-word", "int-coeff", "repeated-word",
        "inf-tolerance", "negative-tolerance", "nan-tolerance"])
def test_series_parse_names_the_malformed_field(document, field):
    parsed = _run(series, ["parse", "-"], input=json.dumps(document))
    assert parsed.exit_code == 2, parsed.output
    assert field in parsed.output


@pytest.mark.parametrize("tag", ["Qp:5:10", "Qp:4:3"])
def test_series_parse_rejects_the_padic_ring_tag(tag):
    """No `series dump` writes a p-adic series; the tag is not read."""
    text = json.dumps({"format": "ncseries/1", "ring": tag, "truncation": 2,
                       "terms": [{"word": "", "coeff": "1 + O(5^2)"}]})
    parsed = _run(series, ["parse", "-"], input=text)
    assert parsed.exit_code == 2, parsed.output
    assert f"unknown ring tag {tag!r}" in parsed.output


@pytest.mark.parametrize("token", [
    "zeta[2](zbar)", "lam_p[AB](z)", "Li[2]", "zeta_p[2]^1", "z^1", "lam_p[BA]", "Li[2](foo)", "log(foo)",
])
def test_series_parse_refuses_a_non_canonical_generator(token):
    """A token is read only if it prints back as itself, with a Lyndon lambda
    word and an argument tag that the package mints."""
    text = json.dumps({"format": "ncseries/1", "ring": "symbolic", "truncation": 2,
                       "terms": [{"word": "", "coeff": "1"}, {"word": "AB", "coeff": f"1/2*{token}"}]})
    parsed = _run(series, ["parse", "-"], input=text)
    assert parsed.exit_code == 2, parsed.output
    assert repr(token) in parsed.output


def test_series_parse_rejects_the_integer_ring_tag():
    text = json.dumps({"format": "ncseries/1", "ring": "Z", "truncation": 2,
                       "terms": [{"word": "", "coeff": "1"}]})
    parsed = _run(series, ["parse", "-"], input=text)
    assert parsed.exit_code == 2, parsed.output
    assert "unknown ring tag 'Z'" in parsed.output


@pytest.mark.parametrize("coeff", ["Lidag[2](z)", "Liminus[1,2](zbar)"])
def test_series_parse_rejects_an_unknown_symbol(coeff):
    """Li symbols carry no flavor; no dump writes these names."""
    text = json.dumps({"format": "ncseries/1", "ring": "symbolic", "truncation": 2,
                       "terms": [{"word": "", "coeff": "1"}, {"word": "AB", "coeff": coeff}]})
    parsed = _run(series, ["parse", "-"], input=text)
    assert parsed.exit_code == 2, parsed.output
    assert "cannot parse generator" in parsed.output


@pytest.mark.parametrize("coeff, token", [
    ("lam_p[AB]^0 - 1", "lam_p[AB]^0"), ("z^0", "z^0"), ("log(z)^0", "log(z)^0"),
    ("Li[](z)", "Li[](z)"), ("1 + zeta[]", "zeta[]"), ("zeta[2,0]", "zeta[2,0]"),
    ("lam_p[AXB]", "lam_p[AXB]"),
], ids=["lambda-power-0", "z-power-0", "log-power-0", "empty-li-index", "empty-zeta-index", "zero-index-entry",
        "lambda-letter"])
def test_series_parse_rejects_a_non_canonical_token(coeff, token):
    """The exponent 0, an empty or non-positive index and a lambda word with a
    letter outside {A, B} are not printed by any dump; `lam_p[AB]^0 - 1` was
    read as a polynomial distinct from 0."""
    text = json.dumps({"format": "ncseries/1", "ring": "symbolic", "truncation": 2,
                       "terms": [{"word": "", "coeff": "1"}, {"word": "AB", "coeff": coeff}]})
    parsed = _run(series, ["parse", "-"], input=text)
    assert parsed.exit_code == 2, parsed.output
    assert f"cannot parse generator {token!r}" in parsed.output


@pytest.mark.parametrize("ring, coeff", [
    ("Q", "1/0"), ("symbolic", "1/0*zeta[2]"),
    ("symbolic", "zeta[2]-"), ("symbolic", "zeta[2]+"), ("symbolic", ""), ("symbolic", "+"),
    ("C:0.0", "nan+0j"), ("C:0.0", "1e400+0j"), ("C:0.0", "inf-infj"),
], ids=["rational-zero-denominator", "symbolic-zero-denominator", "dangling-minus", "dangling-plus",
        "empty", "lone-sign", "complex-nan", "complex-overflow", "complex-inf"])
def test_series_parse_names_the_term_of_an_unreadable_coefficient(ring, coeff):
    """A zero denominator, a symbolic coefficient that is empty or ends in a
    sign, and a complex coefficient that is not finite: none is printed by
    any dump, and each was read (or failed with only a library message)."""
    text = json.dumps({"format": "ncseries/1", "ring": ring, "truncation": 2,
                       "terms": [{"word": "", "coeff": "1"}, {"word": "AB", "coeff": coeff}]})
    parsed = _run(series, ["parse", "-"], input=text)
    assert parsed.exit_code == 2, parsed.output
    assert f"series field 'terms'[1] cannot read coeff {coeff!r}" in parsed.output


def test_series_parse_reads_a_run_of_signs_as_their_product():
    text = json.dumps({"format": "ncseries/1", "ring": "symbolic", "truncation": 2,
                       "terms": [{"word": "", "coeff": "1"}, {"word": "AB", "coeff": "--zeta[2] - -zeta[3]"}]})
    parsed = _run(series, ["parse", "-"], input=text)
    assert parsed.exit_code == 0, parsed.output
    assert json.loads(parsed.output)["terms"][1] == {"word": "AB", "coeff": "zeta[2] + zeta[3]"}


# sha256 of `series dump` stdout for every flavor at weights 4-6 (p = 3 for
# the Deligne flavor); the canonical serialization must not move by a byte
# (complex_KZ w5 and w6: re-recorded when each non-Lyndon coefficient came
# from one two-word shuffle, which rounds words of three or more Lyndon
# factors differently, by at most 1.1e-13 at weight 8; complex_KZ w4-w6
# again when each multiple zeta cutoff was sized from its Euler-Maclaurin
# remainder, which moved zeta(2) from 1.6e-14 to 9.8e-15 off; complex_KZ
# w4-w6 again when multiple zeta values became integer Hölder sums, which
# moved coefficients by at most 1.9e-13 and made zeta(2) correctly rounded)
DUMP_SHA256 = {
    ("complex_KZ", 4): "d08e0e6d6b686c6e0d50f32336d096697425a78a035851975cdd75f2ac680770",
    ("complex_KZ", 5): "9e3cb28b7b1d069dd315857332fa08d43ba657de6008ba515143724bc35118fc",
    ("complex_KZ", 6): "796ccc94094f890f26e3c6494fd7bf6272cf30d913dddd5f94f431f1ea42e57b",
    ("padic_KZ", 4): "4230e05ebe9a6ed371de192d53784ccd21fbcbf3505cbc587a8b0b26251e7928",
    ("padic_KZ", 5): "1d644ab928430f46c902ae9b7699a252b6ec25453db89d2385508c3ec04e283a",
    ("padic_KZ", 6): "035936927fe3504248352ebff3c7d6c2ffc6e064558235ef6b1df11a0d6ebc68",
    ("padic_Deligne", 4): "bcfcd2070ffe3b48dc4d2f718d8a7e2d8e139b2bfe323c2c17b1b0d66e2056c5",
    ("padic_Deligne", 5): "f71ece99e9bc12ece9ce84d3841f41887021dffcb84160499d7cd0d959fc48c0",
    ("padic_Deligne", 6): "de744adbab4f4ae996473fa4be01c24b04cdda11c2deb3c91579dadd1bfa58dc",
    ("minus_KZ", 4): "e9501c317da9604a99391ff782daad5221252aa855f7b6b2541380884e83cd79",
    ("minus_KZ", 5): "ac3e1654863ddd8cc95c9894648a18f2c653f1117a1b8454e2e7757f1c68c9c2",
    ("minus_KZ", 6): "5d9753a3d4becc79520e6f517573151dfbbf557b8142bf430a04878fb3357f0c",
    ("symbolic_lambda", 4): "7f7f8c3e3d5fad4a3dc9c6aa2b31760b68e842b7bdc343b05d30427f1e623a4c",
    ("symbolic_lambda", 5): "1213b5d5ee8726d86ea49d90aa54d0681c8783fad1db2a1518869bf1329f5b10",
    ("symbolic_lambda", 6): "af0579970579dacdebfc94618fa7d70b990695ad6ccbb622588559b0f418d178",
}


@pytest.mark.parametrize("flavor,weight", sorted(DUMP_SHA256))
def test_series_dump_golden(flavor, weight):
    args = ["dump", "--flavor", flavor, "--weight", str(weight)]
    if flavor == "padic_Deligne":
        args += ["--p", "3"]
    result = _run(series, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == DUMP_SHA256[(flavor, weight)]


# sha256 of `assoc verify` stdout for the symbolic identities, recorded
# before the twisted solver became graded and memoized (kz w6/w7 and
# princeton w5: before the residuals were scaled by D; netherland w6 at
# p = 3, 5, 7, czech w6 and princeton w5 at p = 5, and moldova w6: before the
# symbol generators were interned; netherland w7 p=7, czech w7 p=3 and
# moldova w7: before each formula check read its series' own truncation;
# netherland w8 p=5, czech w8 p=5, moldova w8 and kz w8: before the symbol
# polynomials held integer numerators over one denominator)
VERIFY_SHA256 = {
    ("netherland", 5, 3): "0eb024bb0521be4911a90d6eb032e9bf458b4d63b56b015b032dbd32a233fc3a",
    ("czech", 5, 5): "693c5eaafb8ec882814fc64a23f66e49680c87b2d3a0c0d3e73f04ac753ab438",
    ("princeton", 4, 3): "bcac6cdb63b943e92ec6f4733afd33d75f5f302bc368413f56de69fa1ccd439c",
    ("moldova", 5, None): "fc5b7b3bcc396230ba97734ff3b23be60b87d26eafb6cc648c2a300b6cdbf9ae",
    ("kz", 5, None): "4e3306b452d8859fc6900d0977414678a92299310a96b42d1d3a2cfa45af1506",
    ("kz", 6, None): "f609ff3031f9510c77d29a06549ade6ea21c9bde53d77471e248611d7bcb0638",
    ("kz", 7, None): "26cd7dd6dfbadc9d75c9c0cebd8db9c803cf2066d11be26e92857a0667e761cb",
    ("princeton", 5, 3): "4fb9c2f22076546d4347f496f7bda28a634334c5504dfff8ae5d7cc41a72e80d",
    ("princeton", 5, 7): "2d322d60336ce6239d3f485b936b920f02eefa1bd68f8ac4375442c239e9c1dc",
    ("netherland", 6, 3): "ac3c25d01ad28a39bb5d4afd94760a4253a52629b25e5d71a147b73d6ecaa245",
    ("netherland", 6, 5): "3d7b3cd8c7214dc6c944e71b6bf8e0d58736ea74c5f34a089df72113a918e245",
    ("netherland", 6, 7): "3b02ffa3e37a738045836112d9697a5986a73daaa229a38b584ed03c2862148b",
    ("czech", 6, 5): "41359b7dd1c826d417544b3801b5c51c218f49f2367b6ba80c6da8d927a704d6",
    ("princeton", 5, 5): "26c4a9856bd25b2b863930ae3ffb85b715113fe01fe33322a9863f57a2106ccd",
    ("moldova", 6, None): "9045b8d8ff58e934f9cd0c6fab646fccd11044e931a306fe040b7ebb3715a8c9",
    ("netherland", 7, 7): "4c2262aa42d42d6d05aeccc3397e95ad207c0e3b77a887cbedf46a5fd9da8eca",
    ("czech", 7, 3): "a8360b739b31455e97a9d6d3efca9769cc54660532b89e77bd356b7aa9ac0759",
    ("moldova", 7, None): "b6f3cea1c6f8f22de836b644a6a91fbacee578097cf446fca39a375e96e62203",
    ("netherland", 8, 5): "35709fa83367451af0f57b6b72c3b43724720462513436570c041b1ba8ca36dc",
    ("czech", 8, 5): "cd57b33b83a93068b2edb4cb5eca56f47aedaf3f0e288119fe5e4384cbbe8518",
    ("moldova", 8, None): "7c1150cd150f0f38d2e21d2b562a99283c5900ace50bb2b82926021daf3a73ff",
    ("kz", 8, None): "ab1ac7074499a29725edd48af62781f41fa9c3de15ad5353de0155c3e7f8d747",
}


@pytest.mark.parametrize("identity,weight,p", sorted(VERIFY_SHA256, key=str))
def test_assoc_verify_golden(identity, weight, p):
    args = ["verify", "--identity", identity, "--weight", str(weight)]
    if p is not None:
        args += ["--p", str(p)]
    result = _run(assoc, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == VERIFY_SHA256[(identity, weight, p)]


# sha256 of `mzv relations` stdout, recorded when every product of three or
# more zeta values got its own shuffle-product row (dimension bound = d_n);
# the weight 7 and 8 JSON values again when each expression came to list its
# terms in basis order (the same terms and values, and the same CSV); the
# CSV values at weights 11 and 12 recorded before CSV stopped running the
# reduction
RELATIONS_SHA256 = {
    ("json", 6, "complex"): "012b2fb2bf9275226571288c1aa257f4e4dfd11f590dc8f41ea8fbe3eb9556a7",
    ("json", 6, "p-adic-Deligne"): "5e144a1160b0b2305679373cf75daadc3b93e8e37f850ea77356b2a07351c7ff",
    ("json", 7, "complex"): "2a89c2f67e84b63c05bbe3f13965a926247c1b4953d660465b3fbeba4b682b7f",
    ("json", 7, "p-adic-Deligne"): "a788e5ba7cf739427900ad849168f9fe1818d519c2f21c850ae94af428c53ad4",
    ("json", 8, "complex"): "57072c0d0d33fddba93194bc674acc3dff1bce022a767bdccd2b3d4926283312",
    ("json", 8, "p-adic-Deligne"): "eec1cab4db92bb44a15f3a051771a4ac73f547c96697e6c51cb518f2265390ff",
    ("csv", 8, "complex"): "13727925411afe0540e72fd46d47275f4621022a206130552c3c93759995904a",
    ("json", 9, "complex"): "372953d2e28adf83e48b90f8611d57b0e62ce629817187992f6ed8bfbac66572",
    ("json", 9, "p-adic-Deligne"): "fa13dc42f49b66541413fd221b0c74a2c0f459d26db5604f090ba6778dfc526c",
    ("csv", 9, "p-adic"): "1ac9129da3532baf3f69fb80100060dc4f0f29c6db8ee85b8a207c144cd2f596",
    ("json", 10, "complex"): "a9ac599598f5439bb2359cc06a4864dd18b9e01ed6117ccdb73cd4042e47519a",
    ("csv", 11, "complex"): "daef92f4cf5f49bff187cc8721ef9da3d6445c624c3dd93fc704d69de0fe1cf9",
    ("csv", 12, "complex"): "3ae79ab1363d121f265b689250f8335e41a12e7d112f9d463f3e052cd4155ce6",
    ("csv", 12, "p-adic-Deligne"): "e9254a9f34ab317d1c8cdafbda818e9c88d489b0f4cf502d0cc8ae44d4ab462d",
}


@pytest.mark.parametrize("fmt,weight,flavor", sorted(RELATIONS_SHA256))
def test_mzv_relations_golden(fmt, weight, flavor):
    args = ["relations", "--weight", str(weight), "--format", fmt, "--flavor", flavor]
    result = _run(mzv, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == RELATIONS_SHA256[(fmt, weight, flavor)]


def test_mzv_relations_without_a_certified_reduction_is_an_internal_error(monkeypatch):
    from mzv import shufflealg

    # one prime far too small to lift the weight-8 coefficients from
    monkeypatch.setattr(shufflealg, "_PRIMES", (10007,))
    result = _run(mzv, ["relations", "--weight", "8", "--format", "json"])
    assert result.exit_code == 3, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "fail" and payload["error"].startswith("internal: RuntimeError")
    assert "expressions" not in payload


@pytest.mark.parametrize("check_numeric", [[], ["--check-numeric"]], ids=["plain", "check-numeric"])
def test_mzv_relations_csv_runs_no_reduction(monkeypatch, check_numeric):
    """CSV prints only the rows, so it never calls the elimination; JSON
    needs it and still fails as an internal error when it raises."""
    from mzv import shufflealg

    def no_reduction(rows, weight):
        raise RuntimeError("reduction called")

    monkeypatch.setattr(shufflealg, "reduce_relations", no_reduction)
    result = _run(mzv, ["relations", "--weight", "8"] + check_numeric)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == RELATIONS_SHA256[("csv", 8, "complex")]
    result = _run(mzv, ["relations", "--weight", "8", "--format", "json"] + check_numeric)
    assert result.exit_code == 3, result.output
    assert json.loads(result.output)["error"] == "internal: RuntimeError('reduction called')"


def test_mzv_relations_csv_check_numeric_reports_through_the_exit_code(monkeypatch):
    plain = _run(mzv, ["relations", "--weight", "6"])
    checked = _run(mzv, ["relations", "--weight", "6", "--check-numeric"])
    assert plain.exit_code == checked.exit_code == 0, checked.output
    assert checked.output == plain.output

    evaluate = arch_eval.evaluate_relation_row
    calls = []

    def first_row_past_its_tolerance(row):
        residual, tolerance = evaluate(row)
        calls.append(row)
        return (abs(residual) + 2 * tolerance if len(calls) == 1 else residual), tolerance

    monkeypatch.setattr(arch_eval, "evaluate_relation_row", first_row_past_its_tolerance)
    failed = _run(mzv, ["relations", "--weight", "6", "--check-numeric"])
    assert failed.exit_code == 1
    assert failed.output == plain.output
    assert len(calls) == len({line.split(",")[0] for line in plain.output.splitlines()[1:]})


def test_mzv_relations_check_numeric_fails_a_row_off_by_one_part_in_a_billion(monkeypatch):
    from mzv import shufflealg

    generate = shufflealg.generate_double_shuffle

    def with_one_wrong_coefficient(weight):
        rows = generate(weight)
        mono = next(iter(rows[0].coeffs))
        rows[0].coeffs[mono] *= 1 + Fraction(1, 10**9)
        return rows

    monkeypatch.setattr(shufflealg, "generate_double_shuffle", with_one_wrong_coefficient)
    result = _run(mzv, ["relations", "--weight", "7", "--check-numeric", "--format", "json"])
    assert result.exit_code == 1, result.output
    rows = json.loads(result.output)["rows"]
    assert abs(rows[0]["numeric_residual"]) > 1e-10 > rows[0]["tolerance"]
    assert all(abs(row["numeric_residual"]) <= row["tolerance"] < 1e-13 for row in rows[1:])


# sha256 of the numeric evaluators' stdout at a few fixed inputs, recorded
# before the polylog index got its range check (padic polylog z=3/2 again
# when z got the digits the series loses: O(3^27) became O(3^30)); the
# prec-2000, k=16 dagger and verify-spain values were recorded before the
# p-adic polylogarithm became one integer Horner pass; the depth-14 and
# depth-16 values before the Euler-Maclaurin tail recursion was memoized
# (3^(d-1) calls at depth d: 48 s at depth 16); the four shallow mzv eval
# values when each cutoff was sized from its Euler-Maclaurin remainder
# (bounds 5e-11 to 1.5e-10, were 5.5e-11 to 4.5e-10; depth 14 and 16 keep
# the 2,000,000-term cutoff); all six mzv eval values again when they became
# integer Hölder sums (values moved by at most 3.6e-15, bounds fell from
# 5e-11 to 6.5e-9 to 6.9e-18 to 1.1e-16); the k=16 dagger value when every
# p-adic value came to state exactly --prec digits (O(5^223) became O(5^200),
# with every digit below 5^200 unchanged); the three sv polylog values when
# each order Li_j stopped at its own 1e-12 tail bound in one pure-Python pass
# (each moved by at most 1.7e-12 and stays within 1e-12 max(1, |v|) of a
# 30-digit mpmath value; the old sums ran every order as long as Li_1's)
_DEPTH14, _DEPTH16 = ",".join(["1"] * 13 + ["2"]), ",".join(["1"] * 15 + ["2"])
NUMERIC_SHA256 = {
    ("mzv", "eval", "--index", "2"): "c12298c1895042f44be45dd41b684d29113bbd45fb561c0a51fc51305e977fb9",
    ("mzv", "eval", "--index", "1,2"): "114e68964616d9363a500c923f28034db3553ebcf06463d8307fc45a7f9550a1",
    ("mzv", "eval", "--index", "2,3", "--tolerance", "1e-9"):
        "a0dfd81d2b21285e102832ae3e977e8c565b6634cab14f611e1953e301d0e2df",
    ("mzv", "eval", "--index", "1,1,3"): "7b49e3aa6b1cb7e574caa0eaa07aa252a3cf7ffc22cde5e94f214fb0aafffbb7",
    ("mzv", "eval", "--index", _DEPTH14): "bead73434035459cbe1b7919631cbe97924497c0c56213b9cd33bb9c5a99f433",
    ("mzv", "eval", "--index", _DEPTH16): "5905562bef7823832767f46cab94249bf4e3ede25a59b42267c03491d2bf5957",
    ("padic", "polylog", "--p", "5", "--k", "2", "--z", "5/7", "--prec", "20"):
        "9f7f034334ff58ee276bb8fe8abd0c70f86794a9c378d0c24af23911bf6c0521",
    ("padic", "polylog", "--p", "3", "--k", "4", "--z", "3/2"):
        "75d112bd499a142add07a331bac2430e6b0e6fcc2a30f56e12fb5235dec2ea44",
    ("padic", "polylog", "--p", "7", "--k", "3", "--z", "14/5", "--dagger"):
        "4e5fcd0197b7be79d1d0e82ae52a1379c23c065b67b1a31be484e3bcb5fcf7dc",
    ("padic", "polylog", "--p", "3", "--k", "4", "--z", "42/55", "--prec", "2000"):
        "f125c1237f0f24272310bc03c65cab8dea56f2109a8799a8e2e15a0c2013f53b",
    ("padic", "polylog", "--p", "5", "--k", "16", "--z", "10/7", "--prec", "200", "--dagger"):
        "d73fd0afdab298e97780e6b01a79a61fcb3b41350a2bb7ed5835d1fe4fb2a5b5",
    ("padic", "verify-spain", "--points", "40", "--prec", "60", "--seed", "7"):
        "756911ff4868ca2622c20153fe44813c7640dcc1675afb3ae97253320099a01f",
    ("sv", "polylog", "--k", "2", "--z", "0.3+0.2i", "--zagier"):
        "e851e912c16ba0b562fc443512ad2ca501fccfe0c0c2a87e5cd596f31866b7b9",
    ("sv", "polylog", "--k", "3", "--z", "-0.5i", "--zagier"):
        "927f268f5d63133b0b1aa17151c478d1a5f3ddf1b9fbc75a179df2191708972a",
    ("sv", "polylog", "--k", "5", "--z", "0.7", "--zagier"):
        "c396e861d77b9efa6fa2682611258ab3f4883c82e5e4eb3a1e6e0c9f51284a1f",
}


@pytest.mark.parametrize("argv", sorted(NUMERIC_SHA256))
def test_numeric_evaluators_golden(argv):
    group = {"mzv": mzv, "padic": padic, "sv": sv}[argv[0]]
    result = _run(group, list(argv[1:]))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == NUMERIC_SHA256[argv]


@pytest.mark.parametrize("p,k,z,prec", [(2, 14, "2/3", 30), (3, 12, "30/29", 30), (3, 12, "30/29", 45),
                                         # each was wrong when the sum stopped after ten consecutive
                                         # terms past prec: from 13^1 (n = 13 was never summed), from
                                         # 2^994 (n = 1024), from 11^89 (n = 121), and at 7^999
                                         (13, 12, "13/2", 2), (2, 3, "2", 1000), (11, 16, "11", 100),
                                         (7, 10, "-182/23", 1000)])
def test_padic_polylog_reports_the_requested_precision(p, k, z, prec):
    """The value of an exact rational z is known to exactly --prec digits and
    agrees with the exact partial sum there."""
    from padic_reference import parse_padic, polylog_reference

    result = _run(padic, ["polylog", "--p", str(p), "--k", str(k), "--z", z, "--prec", str(prec)])
    assert result.exit_code == 0, result.output
    check = _validated(result)["checks"][0]
    assert check["tolerance"] == f"O({p}^{prec})"
    assert parse_padic(check["value"], p, prec) == polylog_reference(k, Fraction(z), p, prec)


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _li_partial_sum(k, zq, p, digits, dagger):
    """(e, r) with r = p^e * sum z^n / n^k modulo p^(digits + e), the sum over
    every n (n prime to p with `dagger`) up to a top past which each term has
    valuation >= digits, and e >= 0 the most negative term valuation.

    With z = P/Q the sum is p^-e Q^-top sum w_n / n^k, w_n = p^e P^n Q^(top-n)
    an exact integer; the fractions w_n / n^k are added by binary splitting
    modulo p^(digits + e), where every m^k of n = p^j m is a unit."""
    P, Q = zq.numerator, zq.denominator
    v = _vp(P, p)
    top = max(digits // v, 2)
    while top * v * math.log(p) <= k or top * v - k * math.log(top, p) < digits + 1:
        top += 1
    ns = [n for n in range(top, 0, -1) if not (dagger and n % p == 0)]
    e = max(0, max(k * _vp(n, p) - n * v for n in ns))
    mod = p ** (digits + e)
    terms, w, n_w = [], p**e * P**top, top
    for n in ns:
        while n_w > n:
            w, n_w = w * Q // P, n_w - 1
        j = _vp(n, p)
        terms.append((w // p ** (k * j) % mod, (n // p**j) ** k))

    def split(lo, hi):
        if hi - lo == 1:
            return terms[lo]
        (a, b), (c, d) = split(lo, (lo + hi) // 2), split((lo + hi) // 2, hi)
        return (a * d + c * b) % mod, b * d % mod

    a, b = split(0, len(terms))
    return e, a * pow(b * Q**top, -1, mod) % mod


def _scaled_value(text, p, e):
    """p^e times a "d*p^x + ... + O(p^a)" literal, as an integer (every x >= -e)."""
    digits = {}
    for part in filter(None, text.rpartition("O(")[0].rstrip(" +").split(" + ")):
        d, _, power = part.partition("*")
        digits[e + (int(power.partition("^")[2] or 1) if power else 0)] = int(d)
    assert min(digits, default=0) >= 0
    value = 0
    for i in range(max(digits, default=-1), -1, -1):
        value = value * p + digits.get(i, 0)
    return value


@pytest.mark.parametrize("p,k,z,prec,dagger", [(7, 16, "7/3", 5000, False), (7, 16, "7/3", 5000, True),
                                                (1009, 2, "1009/3", 1500, False)])
def test_padic_polylog_at_the_precision_caps(p, k, z, prec, dagger):
    """The largest accepted work (prec * p.bit_length() = 15,000) against an
    exact rational partial sum read modulo p^aprec."""
    result = _run(padic, ["polylog", "--p", str(p), "--k", str(k), "--z", z, "--prec", str(prec)]
                  + ["--dagger"] * dagger)
    assert result.exit_code == 0, result.output
    check = _validated(result)["checks"][0]
    assert check["tolerance"] == f"O({p}^{prec})"
    e, expected = _li_partial_sum(k, Fraction(z), p, prec, dagger)
    assert _scaled_value(check["value"], p, e) % p ** (prec + e) == expected


@pytest.mark.parametrize("word", ["AXB", "ABAB"])
def test_series_parse_rejects_bad_words(word):
    """A letter outside {A, B} or a word past the truncation is a usage error."""
    text = json.dumps({"format": "ncseries/1", "ring": "Q", "truncation": 3,
                       "terms": [{"word": word, "coeff": "1"}]})
    parsed = _run(series, ["parse", "-"], input=text)
    assert parsed.exit_code == 2, parsed.output


# sha256 of the stdout of the commands that evaluate many multiple zeta
# values, recorded before those values came from one shared-prefix pass (the
# relations value again when the three-factor product rows were added; the
# pentagon when the complex coefficients came from two-word shuffles, and
# the hexagon when its residual stopped dropping coefficients below 1e-9;
# all three when each cutoff was sized from its Euler-Maclaurin remainder;
# the relations value when each expression came to list its terms in basis
# order; all three when multiple zeta values became integer Hölder sums:
# the largest w7 row residual fell from 4.7e-14 to 3.3e-16, pentagon w5 from
# 4.7e-13 to 5.8e-15 and hexagon w6 from 1.7e-12 to 1.7e-14); the relations
# value when each row's tolerance came from its values' bounds (1e-05 became
# 5.7e-17 to 1.1e-14, every residual unchanged); the pentagon when each braid
# substitution came to be summed by Horner's rule, which reorders its complex
# sums (5.8e-15 became 4.0e-15); the hexagon when the series substitution came
# to be summed by the same Horner's rule (1.7024e-14 became 1.8689e-14); the
# pentagon when its residual became f2 f3 f4 - f1^-1 f5^-1 with the inverses
# from the antipode, three braid products instead of the five-cycle's four
# (3.997e-15 became 4.885e-15)
BATCHED_NUMERIC_SHA256 = {
    ("mzv", "relations", "--weight", "7", "--check-numeric", "--format", "json"):
        "e03e892ca1c558a0559a21068117aa7ab1ed19b4f089c4ee057e333ed11c6b85",
    ("assoc", "verify", "--identity", "pentagon", "--weight", "5"):
        "c065a9dcc15a42f0c179f60cc6a0fee4af9f5e97610822d8666bed465fdaca15",
    ("assoc", "verify", "--identity", "hexagon", "--weight", "6"):
        "358df70ebb2dccba63de93d753b855a3b16dad7bc466288c872c2715d498d4c0",
}


# sha256 of `assoc verify` stdout for the relation identities, recorded while
# one function computed every relation (and the group-like test) per call
# (dual w6 again when its residual stopped dropping coefficients below 1e-9;
# dual w6 and pentagon w6 when each multiple zeta cutoff was sized from its
# Euler-Maclaurin remainder, which shrank their residuals about tenfold, and
# again when multiple zeta values became integer Hölder sums: dual from
# 2.0e-13 to 1.1e-15, pentagon from 4.7e-13 to 3.4e-14; pentagon w6 again
# when each braid substitution came to be summed by Horner's rule, which
# reorders its complex sums: 3.4e-14 to 5.2e-14; pentagon w6 again when its
# residual became f2 f3 f4 - f1^-1 f5^-1 with the inverses from the antipode,
# three braid products instead of the five-cycle's four: 5.151e-14 to
# 3.553e-14)
RELATION_SHA256 = {
    ("--identity", "dual", "--weight", "6"): "c6bef2eb3b09af95c3d37b7b6f42058176bba384f6dadba2c516622c6e6bd792",
    ("--identity", "pentagon", "--weight", "6"): "31d16900d2a46dcaab0894c72adbac30aa96b2c0dfa643edb743da31a14fd9c4",
    ("--identity", "hexagon", "--flavor", "padic_KZ", "--weight", "2"):
        "3cf6443165d0fa608c6072e71998a0057839d2f3a2f953739695c4735998e1c0",
    ("--identity", "hexagon", "--flavor", "padic_KZ", "--weight", "2", "--format", "csv"):
        "a9374fa80b67b8e652e57d68da772c1c43a9da561f71c9738c43d9ca18a186f3",
}


@pytest.mark.parametrize("argv", sorted(RELATION_SHA256))
def test_relation_identities_golden(argv):
    result = _run(assoc, ["verify", *argv])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == RELATION_SHA256[argv]


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("group, argv", [
    (mzv, ["eval", "--index", "2"]),
    (assoc, ["verify", "--identity", "dual", "--weight", "2"]),
], ids=["mzv-eval", "assoc-verify"])
def test_tolerance_must_be_positive_and_finite(group, argv, value):
    """A NaN tolerance would pass or fail every check and is not valid JSON;
    every tolerance outside (0, inf) is a usage error."""
    result = _run(group, [*argv, "--tolerance", value])
    assert result.exit_code == 2, result.output
    assert "tolerance" in result.output and "positive finite" in result.output


def test_mzv_eval_answers_depth_24_within_its_bound():
    """zeta(1^23, 2) = zeta(25), with a bound near half an ulp."""
    mpmath = pytest.importorskip("mpmath")
    result = _run(mzv, ["eval", "--index", ",".join(["1"] * 23 + ["2"])])
    assert result.exit_code == 0, result.output
    (check,) = _validated(result)["checks"]
    with mpmath.workdps(40):
        assert abs(check["value"] - mpmath.zeta(25)) <= check["residual"] <= 1e-15


def test_mzv_eval_past_the_weight_cap_fails_fast():
    start = time.perf_counter()
    result = _run(mzv, ["eval", "--index", str(arch_eval.MAX_MZV_WEIGHT + 1)])
    assert result.exit_code == 2, result.output
    assert f"past the cap of {arch_eval.MAX_MZV_WEIGHT}" in result.output
    assert time.perf_counter() - start < 5
    assert _run(mzv, ["eval", "--index", str(arch_eval.MAX_MZV_WEIGHT)]).exit_code == 0


@pytest.mark.parametrize("argv", sorted(BATCHED_NUMERIC_SHA256))
def test_batched_numeric_golden(argv):
    group = {"mzv": mzv, "assoc": assoc}[argv[0]]
    result = _run(group, list(argv[1:]))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == BATCHED_NUMERIC_SHA256[argv]
