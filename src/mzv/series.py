"""Truncated non-commutative formal power series in A and B.

All values are immutable after construction and every operation is a pure
function, so series can be shared freely.  Arithmetic truncates at the
minimum truncation weight of the operands and is weight-exact below it.
Coefficients are a flat {word: coefficient} dict.  The inverse is the
antipode of the shuffle Hopf algebra, so it is the inverse only of a
group-like series; a substitution is Horner's rule over the prefixes
(`horner`).
"""

from __future__ import annotations

from fractions import Fraction

from .rings import Ring, RingMismatchError
from .shufflealg import shuffle_words
from .words import all_words, duval_factorization, is_lyndon, word_key

DEFAULT_TRUNCATION = 5
# hard cap; reassign to go higher (word counts double per weight)
MAX_TRUNCATION = 16


class NCSeries:
    __slots__ = ("ring", "truncation", "coeffs")

    def __init__(self, ring: Ring, truncation: int, coeffs: dict[str, object] | None = None):
        if truncation < 0:
            raise ValueError("truncation weight must be nonnegative")
        if truncation > MAX_TRUNCATION:
            raise ValueError(f"truncation weight {truncation} exceeds the cap {MAX_TRUNCATION}")
        clean = {}
        for w, c in (coeffs or {}).items():
            if len(w) > truncation:
                raise ValueError(f"word {w} exceeds truncation weight {truncation}")
            if not ring.is_zero(c):
                clean[w] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCSeries is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ring: Ring, truncation: int = DEFAULT_TRUNCATION) -> "NCSeries":
        return NCSeries(ring, truncation, {})

    @staticmethod
    def one(ring: Ring, truncation: int = DEFAULT_TRUNCATION) -> "NCSeries":
        return NCSeries(ring, truncation, {"": ring.one})

    @staticmethod
    def letter(ring: Ring, name: str, truncation: int = DEFAULT_TRUNCATION, coeff=None) -> "NCSeries":
        return NCSeries(ring, truncation, {name: ring.one if coeff is None else coeff})

    # -- access ---------------------------------------------------------

    def __getitem__(self, word: str) -> object:
        if len(word) > self.truncation:
            raise KeyError(f"word {word} is beyond the truncation weight {self.truncation}")
        return self.coeffs.get(word, self.ring.zero)

    def words(self):
        return sorted(self.coeffs, key=word_key)

    def constant_term(self):
        return self[""]

    # -- ring plumbing ----------------------------------------------------

    def _join(self, other: "NCSeries") -> int:
        if not isinstance(other, NCSeries):
            raise TypeError("expected an NCSeries")
        if self.ring != other.ring:
            raise RingMismatchError(f"incompatible rings {self.ring} and {other.ring}")
        return min(self.truncation, other.truncation)

    def _from(self, truncation: int, coeffs: dict[str, object]) -> "NCSeries":
        return NCSeries(self.ring, truncation, coeffs)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NCSeries(self.ring, self.truncation, {"": self.ring.from_fraction(other)})
        n = self._join(other)
        out = {w: c for w, c in self.coeffs.items() if len(w) <= n}
        for w, c in other.coeffs.items():
            if len(w) <= n:
                out[w] = out[w] + c if w in out else c
        return self._from(n, out)

    __radd__ = __add__

    def __neg__(self):
        return self._from(self.truncation, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NCSeries(self.ring, self.truncation, {"": self.ring.from_fraction(other)})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "NCSeries":
        """Multiply every coefficient by a ring element or rational."""
        if isinstance(c, (int, Fraction)):
            c = self.ring.from_fraction(c)
        return self._from(self.truncation, {w: val * c for w, val in self.coeffs.items()})

    def truncate(self, n: int) -> "NCSeries":
        n = min(n, self.truncation)
        return self._from(n, {w: c for w, c in self.coeffs.items() if len(w) <= n})

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        n = self._join(other)
        return self._from(n, _mul_into({}, self.coeffs, other.coeffs, n))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def invert(self) -> "NCSeries":
        """The antipode S(f)[w] = (-1)^|w| f[reverse(w)], which is the two-sided
        inverse of a group-like series (Reutenauer, Free Lie Algebras, 1.5).

        It works weight by weight: if f is group-like below weight k, S(f) is
        the inverse of f below weight k.  The constant term must be one.
        """
        if not self.ring.eq(self.constant_term(), self.ring.one):
            raise ValueError("the antipode inverts a series with constant term one")
        return self._from(self.truncation, {w[::-1]: -c if len(w) % 2 else c for w, c in self.coeffs.items()})

    def substitute(self, img_a: "NCSeries", img_b: "NCSeries") -> "NCSeries":
        """The ring homomorphism A -> img_a, B -> img_b applied to the series.

        Both images must have zero constant term so that the substitution
        is weight-nondecreasing and truncation stays exact.
        """
        n = min(self.truncation, img_a.truncation, img_b.truncation)
        for img in (img_a, img_b):
            self._join(img)
            if not self.ring.is_zero(img.constant_term()):
                raise ValueError("substitution images must have zero constant term")
        images = (("A", img_a.coeffs), ("B", img_b.coeffs))
        return self._from(n, horner(self.coeffs, images, _mul_into, "", n))

    # -- exp ------------------------------------------------------------------

    def exp(self) -> "NCSeries":
        if not self.ring.is_zero(self.constant_term()):
            raise ValueError("exp is defined for series with zero constant term")
        acc = NCSeries.one(self.ring, self.truncation)
        term = NCSeries.one(self.ring, self.truncation)
        for k in range(1, self.truncation + 1):
            term = (term * self).scale(Fraction(1, k))
            if not term.coeffs:
                break
            acc = acc + term
        return acc

    # -- comparison and display -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NCSeries):
            return NotImplemented
        if self.ring != other.ring or self.truncation != other.truncation:
            return False
        for w in set(self.coeffs) | set(other.coeffs):
            if not self.ring.eq(self[w], other[w]):
                return False
        return True

    def __hash__(self):
        raise TypeError("NCSeries is unhashable")

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs.values())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = [f"({self.ring.coeff_str(self.coeffs[w])})" + (f"*{w}" if w else "") for w in self.words()]
        return " + ".join(parts)

    def __repr__(self):
        return f"NCSeries(N={self.truncation}, {self})"


def _mul_into(out: dict, left: dict, right: dict, cap: int) -> dict:
    """Add left*right, truncated at weight cap, into out, one term pair at a time."""
    # the terms of `right` that fit beside a left factor of each length that occurs
    fits = {room: [(v, cv) for v, cv in right.items() if len(v) <= room] for room in {cap - len(u) for u in left}}
    for u, cu in left.items():
        for v, cv in fits[cap - len(u)]:
            w = u + v
            add = cu * cv
            out[w] = out[w] + add if w in out else add
    return out


def horner(coeffs: dict, images, mul_into, one, cap: int) -> dict:
    """sum_w c_w image(w_1)...image(w_k) over the words of `coeffs`, truncated at degree cap.

    By Horner's rule over the prefixes u that occur, E(u) = c_u + sum_X
    image(X) E(uX), node u kept only to degree cap - |u|: `images` pairs each
    letter with its image, a dict with no constant term.  `mul_into(out, left,
    right, cap)` adds left*right into out; `one` keys the empty monomial.
    """
    prefixes = {w[:k] for w in coeffs if len(w) <= cap for k in range(len(w) + 1)}

    def node(u: str) -> dict:
        out = {one: coeffs[u]} if u in coeffs else {}
        for letter, image in images:
            if u + letter in prefixes:
                mul_into(out, image, node(u + letter), cap - len(u))
        return out

    return node("")


def character_series(assignments: dict[str, object], truncation: int, ring: Ring) -> NCSeries:
    """The unique group-like series whose shuffle character takes the given
    values on Lyndon words (missing words default to 0).

    The shuffle algebra is a polynomial ring on Lyndon words.  A non-Lyndon
    word w = l w' with l its first Lyndon factor is the largest word of the
    shuffle l ш w', with multiplicity m (the number of leading copies of l),
    and every other word u there is lexicographically smaller; so
    phi(w) = (phi(l) phi(w') - sum c_u phi(u)) / m, solved per weight in
    ascending lexicographic order.
    """
    for w in assignments:
        if not is_lyndon(w):
            raise ValueError(f"assignment on non-Lyndon word {w}")
    values: dict[str, object] = {"": ring.one}
    for weight in range(1, truncation + 1):
        for w in all_words(weight):
            if is_lyndon(w):
                values[w] = assignments.get(w, ring.zero)
                continue
            l = duval_factorization(w)[0]
            rest = w[len(l):]
            expansion = shuffle_words(l, rest)
            m = expansion.pop(w, 0)
            if not m or any(u > w for u in expansion):
                raise AssertionError(f"{w} is not the largest word of the shuffle of {l} and {rest}")
            acc = values[l] * values[rest]
            for u, c in expansion.items():
                acc = acc - values[u] * c
            values[w] = acc if m == 1 else acc * ring.from_fraction(Fraction(1, m))
    return NCSeries(ring, truncation, values)

