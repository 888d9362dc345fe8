"""Fixed-precision p-adic numbers with pessimistic precision tracking.

A value is stored as p**val * unit where the whole number is known modulo
p**aprec (absolute precision).  Zero "to precision" is val == aprec with
unit == 0, i.e. O(p**aprec).  Arithmetic propagates the worst-case
precision of the operands; comparison is congruence modulo
p**min(aprec_x, aprec_y).
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRECISION = 30


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber:
    __slots__ = ("p", "aprec", "val", "unit")

    def __init__(self, p: int, val: int, unit: int, aprec: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "aprec", aprec)
        rel = aprec - val
        if rel <= 0:
            object.__setattr__(self, "val", aprec)
            object.__setattr__(self, "unit", 0)
            return
        unit %= p**rel
        if unit != 0:
            shift = _int_valuation(unit, p)
            if shift:
                val += shift
                rel = aprec - val
                unit = (unit // p**shift) % p**rel if rel > 0 else 0
        if unit == 0:
            val = aprec
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)

    def __setattr__(self, name, value):
        raise AttributeError("PadicNumber is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(p: int, aprec: int = DEFAULT_PRECISION) -> "PadicNumber":
        return PadicNumber(p, aprec, 0, aprec)

    @staticmethod
    def from_rational(q, p: int, aprec: int = DEFAULT_PRECISION) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return PadicNumber.zero(p, aprec)
        vn = _int_valuation(q.numerator, p) if q.numerator else 0
        vd = _int_valuation(q.denominator, p)
        val = vn - vd
        rel = aprec - val
        if rel <= 0:
            return PadicNumber.zero(p, aprec)
        mod = p**rel
        num = abs(q.numerator) // p**vn
        den = q.denominator // p**vd
        unit = num * pow(den, -1, mod) % mod
        if q < 0:
            unit = (-unit) % mod
        return PadicNumber(p, val, unit, aprec)

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        """Indistinguishable from zero at this precision."""
        return self.unit == 0

    def valuation(self) -> int:
        if self.is_zero():
            raise ValueError(f"valuation of O({self.p}^{self.aprec}) is not known")
        return self.val

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "PadicNumber"):
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def _coerce(self, other):
        """An exact rational is read to at least self's absolute precision
        and to at least its relative precision (at least one digit), so it
        never limits + - * /."""
        if isinstance(other, PadicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            q, aprec = Fraction(other), self.aprec
            if q:
                vq = _int_valuation(q.numerator, self.p) - _int_valuation(q.denominator, self.p)
                aprec = max(aprec, vq + max(self.aprec - self.val, 1))
            return PadicNumber.from_rational(q, self.p, aprec)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        aprec = min(self.aprec, o.aprec)
        val = min(self.val, o.val)
        rel = aprec - val
        if rel <= 0:
            return PadicNumber.zero(self.p, aprec)
        mod = self.p**rel
        s = (self.unit * self.p ** (self.val - val) + o.unit * self.p ** (o.val - val)) % mod
        return PadicNumber(self.p, val, s, aprec)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        rel = self.aprec - self.val
        return PadicNumber(self.p, self.val, (-self.unit) % self.p**rel, self.aprec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        # relative precision of a product is the min of the relative precisions
        aprec = min(self.aprec + o.val, o.aprec + self.val)
        if self.is_zero() or o.is_zero():
            return PadicNumber.zero(self.p, aprec)
        val = self.val + o.val
        rel = aprec - val
        if rel <= 0:
            return PadicNumber.zero(self.p, aprec)
        return PadicNumber(self.p, val, (self.unit * o.unit) % self.p**rel, aprec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        if o.is_zero():
            raise ZeroDivisionError("division by a p-adic zero (to working precision)")
        aprec = min(self.aprec - o.val, o.aprec - 2 * o.val + self.val)
        if self.is_zero():
            return PadicNumber.zero(self.p, aprec)
        val = self.val - o.val
        rel = aprec - val
        if rel <= 0:
            return PadicNumber.zero(self.p, aprec)
        mod = self.p**rel
        return PadicNumber(self.p, val, self.unit * pow(o.unit, -1, mod) % mod, aprec)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def shift(self, n: int) -> "PadicNumber":
        """self * p**n, exactly: the absolute precision moves with the value."""
        return PadicNumber(self.p, self.val + n, self.unit, self.aprec + n)

    def __pow__(self, k: int):
        if k < 0:
            return 1 / self ** (-k)
        out = PadicNumber.from_rational(1, self.p, self.aprec)
        base = self
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
        self._check(o)
        return (self - o).is_zero()

    def __hash__(self):  # congruence-class equality is not hash-friendly
        raise TypeError("PadicNumber is unhashable")

    # -- display -------------------------------------------------------

    def digits(self) -> list[int]:
        """Base-p digits of the unit part, least significant first."""
        u = self.unit
        out = []
        for _ in range(max(0, self.aprec - self.val)):
            out.append(u % self.p)
            u //= self.p
        return out

    def __repr__(self):
        return f"PadicNumber(p={self.p}, {self})"

    def __str__(self):
        if self.is_zero():
            return f"O({self.p}^{self.aprec})"
        parts = []
        for i, d in enumerate(self.digits()):
            if d == 0:
                continue
            e = self.val + i
            if e == 0:
                parts.append(str(d))
            elif e == 1:
                parts.append(f"{d}*{self.p}")
            else:
                parts.append(f"{d}*{self.p}^{e}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.p}^{self.aprec})"

