"""Canonical JSON serialization of series.

A series dumps to a list of {word, coeff} objects sorted in the canonical
word order, together with a ring tag and the truncation weight.  For the
rational and symbolic rings the round trip is bit-exact.
"""

from __future__ import annotations

import json
import math

from .rings import QQ, SYMBOLIC, ComplexRing, RationalRing, Ring, SymbolicRing
from .series import NCSeries
from .words import Word, word_key

FORMAT = "ncseries/1"


def ring_tag(ring: Ring) -> str:
    if isinstance(ring, RationalRing):
        return "Q"
    if isinstance(ring, SymbolicRing):
        return "symbolic"
    if isinstance(ring, ComplexRing):
        return f"C:{ring.tolerance!r}"
    raise ValueError(f"no tag for ring {ring!r}")


def ring_from_tag(tag: str) -> Ring:
    if tag == "Q":
        return QQ
    if tag == "symbolic":
        return SYMBOLIC
    if tag.startswith("C:"):
        tolerance = float(tag.split(":", 1)[1])
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise ValueError(f"ring tag {tag!r} needs a finite tolerance >= 0")
        return ComplexRing(tolerance)
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


def series_from_dict(data) -> NCSeries:
    """The series of a parsed document; a ValueError names the first field
    that does not have the shape `series_to_dict` writes."""
    if not isinstance(data, dict):
        raise ValueError(f"a series document is a JSON object, not {type(data).__name__}")
    if data.get("format") != FORMAT:
        raise ValueError(f"unsupported series format {data.get('format')!r}")
    for key, kind, name in (("ring", str, "string"), ("truncation", int, "integer"), ("terms", list, "array")):
        if not isinstance(data.get(key), kind) or isinstance(data[key], bool):
            raise ValueError(f"series field {key!r} must be a JSON {name}")
    ring = ring_from_tag(data["ring"])
    coeffs = {}
    for i, term in enumerate(data["terms"]):
        if not (isinstance(term, dict) and isinstance(term.get("word"), str) and isinstance(term.get("coeff"), str)):
            raise ValueError(f"series field 'terms'[{i}] must be an object with string 'word' and 'coeff'")
        if term["word"] in coeffs:
            raise ValueError(f"series field 'terms'[{i}] repeats the word {term['word']!r}")
        coeffs[Word(term["word"])] = ring.coeff_parse(term["coeff"])
    return NCSeries(ring, data["truncation"], coeffs)


def series_from_json(text: str) -> NCSeries:
    return series_from_dict(json.loads(text))
