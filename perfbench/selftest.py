"""Harness self-test: every oracle must reject a corrupted copy of a real output.

The corruptions are applied to the outputs of the run's first pass:
a flipped status, a perturbed value or coefficient, a dropped relation row
and one altered dump byte.  The dropped row is one whose removal lowers the
rank of the emitted rows: removing a row that the others already imply
leaves every claim of the report true, so no oracle can (or should) see it.
"""

from __future__ import annotations

import json
import re

import oracles


def _flip_status(out: bytes) -> bytes:
    doc = json.loads(out)
    doc["checks"][0]["status"] = "fail" if doc["checks"][0]["status"] != "fail" else "pass"
    return json.dumps(doc).encode()


def _edit_check(out: bytes, field: str, change) -> bytes:
    doc = json.loads(out)
    doc["checks"][-1][field] = change(doc["checks"][-1][field])
    return json.dumps(doc).encode()


def _drop_independent_row(out: bytes) -> bytes:
    doc = json.loads(out)
    rows = [{oracles.monomial(m): oracles.Fraction(c) for m, c in r["coefficients"].items()}
            for r in doc["rows"]]
    full = oracles.rank_mod_prime(oracles.row_vectors(rows))
    for k in reversed(range(len(rows))):
        if oracles.rank_mod_prime(oracles.row_vectors(rows[:k] + rows[k + 1:])) < full:
            del doc["rows"][k]
            return json.dumps(doc).encode()
    raise AssertionError("no row carries rank")


def _perturb_csv(out: bytes) -> bytes:
    lines = out.decode().splitlines()
    head, _, coeff = lines[1].rpartition(",")
    lines[1] = f"{head},{oracles.Fraction(coeff) * 2}"
    return ("\n".join(lines) + "\n").encode()


def _alter_byte(out: bytes) -> bytes:
    k = len(out) // 2
    return out[:k] + bytes([out[k] ^ 1]) + out[k + 1:]


def corruptions(cmd, out: bytes):
    """(label, corrupted output, prior override) for one command's output."""
    if cmd.oracle in ("exact", "all_pass"):
        yield "flipped status", _flip_status(out), None
    elif cmd.oracle == "residual":
        yield "flipped status", _flip_status(out), None
        yield "perturbed residual", _edit_check(out, "residual", lambda r: 10 * r + 1.0), None
    elif cmd.oracle == "mzv_eval":
        yield "flipped status", _flip_status(out), None
        yield "perturbed value", _edit_check(out, "value", lambda v: v + 1e-5), None
    elif cmd.oracle == "sv_polylog":
        yield "perturbed value", _edit_check(out, "value", lambda v: v * (1 + 1e-6)), None
    elif cmd.oracle == "padic_polylog":
        doc = json.loads(out)
        doc["checks"][0]["value"] = _perturb_padic_value(doc["checks"][0]["value"], cmd.expect["p"])
        yield "perturbed value", json.dumps(doc).encode(), None
    elif cmd.oracle == "relations_json":
        yield "dropped relation row", _drop_independent_row(out), None
    elif cmd.oracle == "relations_csv":
        yield "perturbed coefficient", _perturb_csv(out), None
    elif cmd.oracle == "roundtrip":
        yield "altered dump byte", out, {cmd.expect["of"]: _alter_byte(out)}


def _perturb_padic_value(text: str, p: int) -> str:
    """Change the lowest-order digit of a 'd*p^e + ... + O(p^N)' string (p >= 3)."""
    digit = int(re.match(r"\d+", text).group())
    new = digit + 1 if digit + 1 < p else digit - 1
    return f"{new}{text[len(str(digit)):]}"


def run(commands, outputs: dict[str, bytes], check) -> list[dict]:
    """For each output: the clean copy must pass `check` (the run's cached
    oracle call) and every corrupted copy must be rejected by the oracle."""
    results = []
    for cmd in commands:
        if cmd.name not in outputs:
            continue
        clean, _ = check(cmd, outputs[cmd.name], outputs)
        for label, bad, prior_override in corruptions(cmd, outputs[cmd.name]):
            prior = dict(outputs, **(prior_override or {}))
            try:
                oracles.ORACLES[cmd.oracle](cmd, bad, prior)
                rejected = False
            except oracles.OracleError:
                rejected = True
            results.append({"command": cmd.name, "oracle": cmd.oracle, "corruption": label,
                            "clean_accepted": clean, "rejected": rejected,
                            "passed": clean and rejected})
    return results
