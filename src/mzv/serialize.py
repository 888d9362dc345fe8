"""Canonical JSON serialization of series.

A series dumps to a list of {word, coeff} objects sorted in the canonical
word order, together with a ring tag and the truncation weight.  For the
rational and symbolic rings the round trip is bit-exact.
"""

from __future__ import annotations

import json

from .rings import QQ, SYMBOLIC, ComplexRing, PadicRing, RationalRing, Ring, SymbolicRing
from .series import NCSeries
from .words import Word, word_key

FORMAT = "ncseries/1"


def ring_tag(ring: Ring) -> str:
    if isinstance(ring, RationalRing):
        return "Q"
    if isinstance(ring, SymbolicRing):
        return "symbolic"
    if isinstance(ring, PadicRing):
        return f"Qp:{ring.p}:{ring.precision}"
    if isinstance(ring, ComplexRing):
        return f"C:{ring.tolerance!r}"
    raise ValueError(f"no tag for ring {ring!r}")


def ring_from_tag(tag: str) -> Ring:
    if tag == "Q":
        return QQ
    if tag == "symbolic":
        return SYMBOLIC
    if tag.startswith("Qp:"):
        _, p, prec = tag.split(":")
        return PadicRing(int(p), int(prec))
    if tag.startswith("C:"):
        return ComplexRing(float(tag.split(":", 1)[1]))
    raise ValueError(f"unknown ring tag {tag!r}")


def series_to_dict(f: NCSeries) -> dict:
    return {
        "format": FORMAT,
        "ring": ring_tag(f.ring),
        "truncation": f.truncation,
        "terms": [
            {"word": w, "coeff": f.ring.coeff_str(f.coeffs[w])}
            for w in sorted(f.coeffs, key=word_key)
        ],
    }


def series_to_json(f: NCSeries) -> str:
    return json.dumps(series_to_dict(f), indent=2, sort_keys=False) + "\n"


def series_from_dict(data: dict) -> NCSeries:
    if data.get("format") != FORMAT:
        raise ValueError(f"unsupported series format {data.get('format')!r}")
    ring = ring_from_tag(data["ring"])
    coeffs = {}
    for term in data["terms"]:
        coeffs[Word(term["word"])] = ring.coeff_parse(term["coeff"])
    return NCSeries(ring, int(data["truncation"]), coeffs)


def series_from_json(text: str) -> NCSeries:
    return series_from_dict(json.loads(text))
