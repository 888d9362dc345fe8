"""Fixed-precision p-adic numbers with pessimistic precision tracking.

A value is stored as p**val * unit where the whole number is known modulo
p**aprec (absolute precision).  Zero "to precision" is val == aprec with
unit == 0, i.e. O(p**aprec).  A value offers what `padic verify-spain`
needs of it: the sum, difference and negation of two values of one prime,
known to the lower of their precisions, the exact shift by a power of p,
the zero test and printing; comparison is congruence modulo
p**min(aprec_x, aprec_y).  No command multiplies or divides p-adic numbers
(`padic_eval` sums its series on integers).
"""

from __future__ import annotations

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

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        """Indistinguishable from zero at this precision."""
        return self.unit == 0

    def valuation(self) -> int:
        if self.is_zero():
            raise ValueError(f"valuation of O({self.p}^{self.aprec}) is not known")
        return self.val

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")
        aprec = min(self.aprec, other.aprec)
        val = min(self.val, other.val)
        rel = aprec - val
        if rel <= 0:
            return PadicNumber.zero(self.p, aprec)
        mod = self.p**rel
        s = (self.unit * self.p ** (self.val - val) + other.unit * self.p ** (other.val - val)) % mod
        return PadicNumber(self.p, val, s, aprec)

    def __neg__(self):
        if self.is_zero():
            return self
        rel = self.aprec - self.val
        return PadicNumber(self.p, self.val, (-self.unit) % self.p**rel, self.aprec)

    def __sub__(self, other):
        return self + (-other)

    def shift(self, n: int) -> "PadicNumber":
        """self * p**n, exactly: the absolute precision moves with the value."""
        return PadicNumber(self.p, self.val + n, self.unit, self.aprec + n)

    def __eq__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self - other).is_zero()

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

