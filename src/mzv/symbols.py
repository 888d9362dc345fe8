"""Commutative polynomials in tagged transcendental symbols.

Generators come in five kinds:

* zeta symbols  -- multiple zeta values of a given flavor (complex, p-adic,
  p-adic Deligne), indexed by an admissible index tuple;
* Li symbols    -- one-variable multiple polylogarithm functions (plain,
  overconvergent "dagger", single-valued "minus") at an argument tag
  (z, z^p, zbar);
* log symbols   -- logarithms of the argument tags plus 1-z, 1-zbar, |z|^2;
* lambda symbols -- free character coordinates attached to Lyndon words,
  used to parameterize group-like series before any zeta relations are
  imposed;
* the variable z itself (weight 0), so that a polynomial in z is an
  ordinary SymbolPoly; only the differential-equation checks mint it.

Generators are interned: equal field values, positional or by keyword,
give the same object, so they hash and compare by identity, and each keeps
its sort key `key = (kind rank, str(g))` from when it was made.

A SymbolPoly is a finite map {monomial: int} of numerators over one
positive denominator, with monomials sorted tuples of (generator, exponent)
in `key` order; all z-dependence lives in the generators.  The form is
canonical (no zero numerator, no factor common to the denominator and every
numerator), so equality compares it directly.  Arithmetic works on ints and
divides out the common factor once per result, not a gcd per term; the
constructor takes int or `fractions.Fraction` coefficients and `terms`
gives them back as Fractions.  Each pair of monomials is merged once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import re

# argument tags for function symbols
ARG_Z = "z"
ARG_Z_POW_P = "z^p"
ARG_Z_CONJ = "zbar"
ARG_ONE_MINUS_Z = "1-z"
ARG_ABS_Z_SQ = "|z|^2"

ZETA_FLAVORS = {"complex": "zeta", "p-adic": "zeta_p", "p-adic-Deligne": "zetaDe_p"}
LI_FLAVORS = {"plain": "Li", "dagger": "Lidag", "minus": "Liminus"}
_ZETA_BY_NAME = {v: k for k, v in ZETA_FLAVORS.items()}
_LI_BY_NAME = {v: k for k, v in LI_FLAVORS.items()}


class _Interned(type):
    """One instance per class and field values, so equality is identity."""

    _pool: dict = {}

    def __call__(cls, *args, **kwargs):
        g = None if kwargs else _Interned._pool.get((cls, args))
        if g is None:
            g = super().__call__(*args, **kwargs)
            g = _Interned._pool.setdefault((cls, tuple(getattr(g, f) for f in cls.__match_args__)), g)
        return g


class _Generator(metaclass=_Interned):
    @property
    def weight(self) -> int:  # of zeta and Li symbols; the other kinds override it
        return sum(self.index)

    def __post_init__(self):
        object.__setattr__(self, "key", (_KIND_RANK[type(self)], str(self)))

    def __reduce__(self):  # copies and pickles intern too
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


@dataclass(frozen=True, eq=False)
class ZetaSym(_Generator):
    flavor: str
    index: tuple[int, ...]

    def __str__(self):
        return f"{ZETA_FLAVORS[self.flavor]}[{','.join(map(str, self.index))}]"


@dataclass(frozen=True, eq=False)
class LiSym(_Generator):
    flavor: str
    index: tuple[int, ...]
    arg: str

    def __str__(self):
        return f"{LI_FLAVORS[self.flavor]}[{','.join(map(str, self.index))}]({self.arg})"


@dataclass(frozen=True, eq=False)
class LogSym(_Generator):
    arg: str
    weight = 1

    def __str__(self):
        return f"log|z|^2" if self.arg == ARG_ABS_Z_SQ else f"log({self.arg})"


@dataclass(frozen=True, eq=False)
class LambdaSym(_Generator):
    tag: str
    word: str  # letters of the Lyndon word

    @property
    def weight(self) -> int:
        return len(self.word)

    def __str__(self):
        return f"lam_{self.tag}[{self.word}]"


@dataclass(frozen=True, eq=False)
class ZSym(_Generator):
    """The variable z."""

    weight = 0

    def __str__(self):
        return "z"


_KIND_RANK = {ZetaSym: 0, LiSym: 1, LogSym: 2, LambdaSym: 3, ZSym: 4}
Z = ZSym()


def _item_key(ge):
    return ge[0].key


Monomial = tuple[tuple[object, int], ...]


class SymbolPoly:
    """Exact commutative polynomial in the tagged generators: integer
    numerators `nums` {monomial: int} over one positive `den`, in lowest
    terms (gcd(den, *nums) == 1, no zero numerator), so equal polynomials
    have equal (den, nums)."""

    __slots__ = ("nums", "den")

    def __init__(self, terms: dict[Monomial, object] | None = None):
        """From {monomial: int or Fraction}; zero coefficients are dropped."""
        terms = {m: c for m, c in (terms or {}).items() if c}
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(c.denominator for c in terms.values()))
        _set_nums(self, {m: c.numerator * (den // c.denominator) for m, c in terms.items()})
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolPoly is immutable")

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The coefficients as {monomial: Fraction}, built on each call."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self.nums.items()}

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(c) -> "SymbolPoly":
        return SymbolPoly({(): c})

    @staticmethod
    def gen(g, c=1) -> "SymbolPoly":
        return SymbolPoly({((g, 1),): c})

    ZERO: "SymbolPoly"
    ONE: "SymbolPoly"

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def weight(self) -> int | None:
        """The common weight of all monomials, or None if mixed/zero."""
        weights = {sum(g.weight * e for g, e in m) for m in self.nums}
        return weights.pop() if len(weights) == 1 else None

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SymbolPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return SymbolPoly.constant(other)
        return None

    def _combine(self, o: "SymbolPoly", sign: int) -> "SymbolPoly":
        """self + sign * o over the lcm of the two denominators."""
        d1, d2 = self.den, o.den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        # self keeps its numerators when o's denominator divides its own
        out = dict(self.nums) if s1 == 1 else {m: c * s1 for m, c in self.nums.items()}
        for m, c in o.nums.items():
            c *= s2
            if m in out:
                c += out[m]
                if not c:  # each monomial of o comes once, so it stays out
                    del out[m]
                    continue
            out[m] = c
        return _reduced(out, d1 * s1)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, n2 = self.nums, o.nums
        # by one term, distinct monomials have distinct products: nothing cancels
        if len(n1) == 1:
            ((m1, c1),) = n1.items()
            out = {_merge_monomials(m1, m2): c1 * c2 for m2, c2 in n2.items()}
        elif len(n2) == 1:
            ((m2, c2),) = n2.items()
            out = {_merge_monomials(m1, m2): c1 * c2 for m1, c1 in n1.items()}
        else:
            out = {}
            for m1, c1 in n1.items():
                for m2, c2 in n2.items():
                    m = _merge_monomials(m1, m2)
                    c = c1 * c2
                    out[m] = out[m] + c if m in out else c
            out = {m: c for m, c in out.items() if c}
        return _reduced(out, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out, base = SymbolPoly.ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    # -- substitution ---------------------------------------------------

    def substitute(self, mapping: dict[object, "SymbolPoly"], images: dict | None = None) -> "SymbolPoly":
        """Replace each generator in `mapping` by the given polynomial; `images`
        caches monomial images, and calls whose mappings agree may share it."""
        images = {} if images is None else images
        powers: dict[tuple[object, int], SymbolPoly] = {}
        for mono in self.nums:
            if mono not in images:
                image = SymbolPoly.ONE
                for g, e in mono:
                    if (g, e) not in powers:
                        base = mapping.get(g)
                        powers[g, e] = base**e if base is not None else _wrap({((g, e),): 1}, 1)
                    image = image * powers[g, e]
                images[mono] = image
        return _sum_scaled([(c, (), images[mono]) for mono, c in self.nums.items()], self.den)

    def generators(self) -> set:
        return {g for m in self.nums for g, _ in m}

    # -- display ----------------------------------------------------------

    def __str__(self):
        if not self.nums:
            return "0"
        den = self.den
        parts = [_term_str(m, Fraction(self.nums[m], den)) for m in sorted(self.nums, key=_mono_sort_key)]
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"SymbolPoly({self})"


_set_nums = SymbolPoly.nums.__set__
_set_den = SymbolPoly.den.__set__
SymbolPoly.ZERO = SymbolPoly({})
SymbolPoly.ONE = SymbolPoly.constant(1)


def _wrap(nums: dict[Monomial, int], den: int) -> SymbolPoly:
    """A SymbolPoly around numerators and a denominator already in lowest terms."""
    out = object.__new__(SymbolPoly)
    _set_nums(out, nums)
    _set_den(out, den)
    return out


def _reduced(nums: dict[Monomial, int], den: int) -> SymbolPoly:
    """A SymbolPoly from nonzero numerators over a positive `den`, with their
    common factor divided out once."""
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g == 1:
        return _wrap(nums, den)
    return _wrap({m: c // g for m, c in nums.items()}, den // g)


def _sum_scaled(triples: list[tuple[int, Monomial, SymbolPoly]], den: int) -> SymbolPoly:
    """The sum of c * mono * q over (c, mono, q) in `triples`, divided by
    `den`: every q is brought to the lcm of their denominators, the numerators
    are added as ints, and the result is reduced once."""
    common = lcm(*(q.den for _, _, q in triples))
    out: dict[Monomial, int] = {}
    for c, mono, q in triples:
        s = c * (common // q.den)
        for m, v in q.nums.items():
            if mono:
                m = _merge_monomials(mono, m)
            v *= s
            out[m] = out[m] + v if m in out else v
    return _reduced({m: c for m, c in out.items() if c}, den * common)


_MERGED: dict[tuple[Monomial, Monomial], Monomial] = {}


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials, memoized: equal products share one tuple."""
    if not m1:
        return m2
    if not m2:
        return m1
    m = _MERGED.get((m1, m2))
    if m is None:
        acc = dict(m1)
        for g, e in m2:
            acc[g] = acc[g] + e if g in acc else e
        m = _MERGED[m1, m2] = tuple(sorted(acc.items(), key=_item_key))
    return m


def _mono_sort_key(m: Monomial):
    return tuple((g.key, e) for g, e in m)


def _term_str(mono: Monomial, c) -> str:
    body = "*".join(str(g) if e == 1 else f"{g}^{e}" for g, e in mono)
    if not body:
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"


# -- the formal derivative D d/dz -------------------------------------------


class NotDifferentiableError(ValueError):
    pass


def z_poly(coeffs) -> SymbolPoly:
    """The polynomial sum_i coeffs[i] z^i."""
    return SymbolPoly({((Z, i),) if i else (): c for i, c in enumerate(coeffs)})


@lru_cache(maxsize=None)
def derivative_kernels(p: int | None) -> tuple[SymbolPoly, SymbolPoly, SymbolPoly]:
    """(D, D/z, D/(1-z)) with D = z(1-z), or z(1-z^p) when p is given."""
    if p is None:
        return z_poly([0, 1, -1]), z_poly([1, -1]), z_poly([0, 1])
    return z_poly([0, 1] + [0] * (p - 1) + [-1]), z_poly([1] + [0] * (p - 1) + [-1]), z_poly([0] + [1] * p)


@lru_cache(maxsize=None)
def _d_generator(g, p: int | None) -> SymbolPoly:
    """D d/dz of one generator (see `formal_derivative`)."""
    d, d_over_z, d_over_1mz = derivative_kernels(p)
    if isinstance(g, ZSym):
        return d
    if isinstance(g, LogSym) and g.arg == ARG_ONE_MINUS_Z:
        return -d_over_1mz
    if g.arg not in (ARG_Z, ARG_Z_POW_P):
        raise NotDifferentiableError(f"{g} is not differentiable in z")
    at_zp = g.arg == ARG_Z_POW_P
    if at_zp and p is None:
        raise NotDifferentiableError("differentiating a z^p symbol needs the prime p")
    dlog = p * d_over_z if at_zp else d_over_z  # D dx/x for x = z^p or z
    if isinstance(g, LogSym):
        return dlog
    idx = g.index
    if idx[-1] >= 2:
        kernel, rest = dlog, idx[:-1] + (idx[-1] - 1,)
    else:
        # D dx/(1-x): p z^(p-1) z(1-z^p)/(1-z^p) = p z^p at x = z^p
        kernel, rest = (z_poly([0] * p + [p]) if at_zp else d_over_1mz), idx[:-1]
    # Li of the empty index is 1
    return kernel * SymbolPoly.gen(LiSym(g.flavor, rest, g.arg)) if rest else kernel


def formal_derivative(q: SymbolPoly, p: int | None = None) -> SymbolPoly:
    """D d/dz applied with the Leibniz rule, where D = z(1-z) when p is None
    and D = z(1-z^p) when p is given; zeta and lambda symbols are constants.

    The denominators of d/dz are z, 1-z, z^p and 1-z^p, and 1-z divides
    1-z^p, so D clears them all: the result is a polynomial in z and the
    symbols.  The derivative acts on the last index entry of an Li symbol
    (the exponent of the outermost summation variable): with x = z or z^p,
    Li[...,k](x) maps to Li[...,k-1](x) dx/x for k >= 2 and to Li[...](x)
    dx/(1-x) for k == 1.  Symbols with conjugate arguments are rejected,
    and z^p symbols need p.
    """
    triples = []
    for mono, c in q.nums.items():
        for i, (g, e) in enumerate(mono):
            if isinstance(g, (ZetaSym, LambdaSym)):
                continue
            rest = mono[:i] + (((g, e - 1),) if e > 1 else ()) + mono[i + 1 :]
            triples.append((c * e, rest, _d_generator(g, p)))
    return _sum_scaled(triples, q.den)


# -- canonical parsing --------------------------------------------------

_GEN_RE = re.compile(
    r"(?P<name>zetaDe_p|zeta_p|zeta|Lidag|Liminus|Li|lam_[A-Za-z0-9]+)"
    r"\[(?P<idx>[A-Z0-9,]*)\]"
    r"(?:\((?P<arg>[^)]*)\))?"
    r"(?:\^(?P<exp>\d+))?"
)
_LOG_RE = re.compile(r"log(?:\((?P<arg>[^)]*)\)|\|z\|\^2)(?:\^(?P<exp>\d+))?")
_Z_RE = re.compile(r"z(?:\^(?P<exp>\d+))?")


def _parse_generator(tok: str):
    m = _Z_RE.fullmatch(tok)
    if m:
        return Z, int(m.group("exp") or 1)
    m = _LOG_RE.fullmatch(tok)
    if m:
        arg = m.group("arg") if m.group("arg") else ARG_ABS_Z_SQ
        return LogSym(arg), int(m.group("exp") or 1)
    m = _GEN_RE.fullmatch(tok)
    if not m:
        raise ValueError(f"cannot parse generator {tok!r}")
    name = m.group("name")
    exp = int(m.group("exp") or 1)
    if name.startswith("lam_"):
        return LambdaSym(name[4:], m.group("idx")), exp
    idx = tuple(int(x) for x in m.group("idx").split(",") if x)
    if name in _ZETA_BY_NAME:
        return ZetaSym(_ZETA_BY_NAME[name], idx), exp
    return LiSym(_LI_BY_NAME[name], idx, m.group("arg") or ARG_Z), exp


def parse_symbol_poly(text: str) -> SymbolPoly:
    """Parse the canonical str() form back into a SymbolPoly."""
    out: dict[Monomial, Fraction] = {}
    sign = 1
    for sep, term in _split_top_level(text, "+-"):
        sign = -sign if sep == "-" else sign  # a run of signs multiplies
        if not term.strip():
            continue
        coeff, gens = Fraction(sign), {}
        for _, f in _split_top_level(term, "*"):
            f = f.strip()
            if re.fullmatch(r"\d+(/\d+)?", f):
                coeff *= Fraction(f)
            else:
                g, e = _parse_generator(f)
                gens[g] = gens.get(g, 0) + e
        mono = tuple(sorted(gens.items(), key=_item_key))
        out[mono] = out.get(mono, 0) + coeff
        sign = 1
    return SymbolPoly(out)


def _split_top_level(text: str, seps: str) -> list[tuple[str, str]]:
    """`text` cut at the characters of `seps` outside brackets, as
    (separator before, piece) pairs; the first separator is ''."""
    pieces, depth, cur, sep = [], 0, "", ""
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        if depth == 0 and ch in seps:
            pieces.append((sep, cur))
            sep, cur = ch, ""
        else:
            cur += ch
    return pieces + [(sep, cur)]
