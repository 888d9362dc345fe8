"""Test-only oracles on truncated series: the coproduct and the group-like
test, the general inverse by prefix recursion, the Lyndon coordinates of a
series, random series for property tests, and the twisted composition law
on bare (c, g) pairs."""

from fractions import Fraction
from functools import lru_cache

from mzv.associator import twisted_substitution
from mzv.rings import Ring
from mzv.series import NCSeries
from mzv.words import lyndon_words, words_up_to


@lru_cache(maxsize=None)
def _word_splits(letters: str) -> tuple[tuple[str, str, int], ...]:
    """All (left, right, multiplicity) splittings of a word under the coproduct
    that makes both letters primitive."""
    n = len(letters)
    acc: dict[tuple[str, str], int] = {}
    for mask in range(2**n):
        left = "".join(letters[i] for i in range(n) if mask >> i & 1)
        right = "".join(letters[i] for i in range(n) if not mask >> i & 1)
        acc[(left, right)] = acc.get((left, right), 0) + 1
    return tuple((l, r, m) for (l, r), m in acc.items())


def coproduct(f: NCSeries) -> dict[tuple[str, str], object]:
    """The coproduct with A and B primitive, truncated at f's weight, as
    {(left, right): coefficient}."""
    out: dict[tuple[str, str], object] = {}
    for w, c in f.coeffs.items():
        for left, right, mult in _word_splits(w):
            key = (left, right)
            add = c * mult
            out[key] = out[key] + add if key in out else add
    return out


def is_group_like(f: NCSeries) -> bool:
    """True iff f has constant term 1 and its coproduct equals f tensor f
    coefficientwise up to the truncation."""
    ring, n = f.ring, f.truncation
    if not ring.eq(f.constant_term(), ring.one):
        return False
    cop = coproduct(f)
    pairs = {(u, v) for u in f.coeffs for v in f.coeffs if len(u) + len(v) <= n}
    return all(ring.eq(cop.get((u, v), ring.zero), f[u] * f[v]) for u, v in pairs | cop.keys())


def reference_invert(f: NCSeries) -> NCSeries:
    """The two-sided inverse of any series with constant term one, by prefix
    recursion out[w] = -sum_{k >= 1} f[w[:k]] out[w[k:]]; on a group-like
    series it equals the antipode `NCSeries.invert`."""
    ring, n = f.ring, f.truncation
    if not ring.eq(f.constant_term(), ring.one):
        raise ValueError("the reference inverse takes a series with constant term one")
    out: dict[str, object] = {"": ring.one}
    for w in words_up_to(n)[1:]:
        acc = None
        for k in range(1, len(w) + 1):
            cu = f.coeffs.get(w[:k])
            g = out.get(w[k:]) if cu is not None else None
            if g is not None:
                term = cu * g
                acc = term if acc is None else acc + term
        if acc is not None:
            out[w] = -acc
    return NCSeries(ring, n, out)


def series_character(f: NCSeries) -> dict[str, object]:
    """Restriction of f's coefficients to Lyndon words (the free coordinates)."""
    return {w: f[w] for w in lyndon_words(f.truncation)}


def random_series(ring: Ring, truncation: int, rng, constant=None) -> NCSeries:
    """A random series: each nonempty word gets a small rational coefficient
    with probability 0.7."""
    coeffs: dict[str, object] = {}
    if constant is not None:
        coeffs[""] = ring.from_fraction(constant)
    elif rng.random() < 0.8:
        coeffs[""] = ring.from_fraction(Fraction(rng.randint(-3, 3)))
    for w in words_up_to(truncation):
        if w and rng.random() < 0.7:
            coeffs[w] = ring.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return NCSeries(ring, truncation, coeffs)


def gt_compose(p2: tuple, p1: tuple) -> tuple:
    """(c2, g2) o (c1, g1) = (c1 c2, g2 * g1(A/c2, g2^-1 (B/c2) g2)), the
    composition law whose associativity exercises `twisted_substitution`."""
    (c2, g2), (c1, g1) = p2, p1
    return c1 * c2, g2 * twisted_substitution(g1, g2, 1 / c2)
