"""Test-only p-adic references: the depth-2 polylogarithm summed term by
term in PadicNumber arithmetic, an exact rational partial sum of Li_k
reduced once at the end, the p-adic logarithm (the Li_1 = -log(1 - z)
oracle), and a reader of printed p-adic values.  Each series stops at a
term bound proven from valuations."""

import math
from fractions import Fraction

from mzv.padic_eval import OutsideDiskError
from mzv.padics import DEFAULT_PRECISION, PadicNumber, _int_valuation


def _require_disk(v: int) -> None:
    if v < 1:
        raise OutsideDiskError(f"|z|_p >= 1 (valuation {v}); the reference series needs the open disk")


def _first_dropped(v: int, c: int, p: int, aprec: int) -> int:
    """The first n with n v ln p > c, past which g(n) = n v - c log_p n
    increases, and g(n) >= aprec + 1 (a digit of slack for the float
    logarithms).  Every term from n on whose valuation is at least g is
    zero modulo p^aprec."""
    n = 1
    while n * v * math.log(p) <= c or n * v - c * math.log(n, p) < aprec + 1:
        n += 1
    return n


def padic_mpl2(a: int, b: int, z: PadicNumber) -> PadicNumber:
    """Depth-2 multiple polylogarithm sum_{n1<n2} z^n2 / (n1^a n2^b).

    Term n has valuation at least nv - b v_p(n) - a floor(log_p(n - 1)) >=
    nv - (a + b) log_p n, so the sum stops at _first_dropped(v, a + b)."""
    p, aprec = z.p, z.aprec
    if z.is_zero():
        return PadicNumber.zero(p, aprec)
    _require_disk(z.valuation())
    work = aprec + _guard(p, aprec, a + b)
    acc = PadicNumber.zero(p, aprec)
    inner = PadicNumber.zero(p, work)
    zn = PadicNumber.from_rational(1, p, work)
    for n in range(1, _first_dropped(z.valuation(), a + b, p, aprec)):
        zn = zn * z
        if n > 1:
            inner = inner + PadicNumber.from_rational(Fraction(1, (n - 1) ** a), p, work)
        acc = acc + zn * inner / PadicNumber.from_rational(Fraction(n) ** b, p, zn.aprec)
    return acc


def polylog_reference(k: int, z_rational, p: int, aprec: int = DEFAULT_PRECISION,
                      skip_p_multiples: bool = False) -> PadicNumber:
    """Independent oracle: exact rational partial sum reduced at the end.

    Term n has valuation n v - k v_p(n) >= n v - k log_p(n), so the terms
    from _first_dropped(v, k) on are zero mod p^aprec.  The partial sum is
    one integer numerator over Q^N lcm(n)^k, converted once.
    """
    z = Fraction(z_rational)
    if not z:
        return PadicNumber.zero(p, aprec)
    v = _int_valuation(z.numerator, p) - _int_valuation(z.denominator, p)
    _require_disk(v)
    last = _first_dropped(v, k, p, aprec) - 1
    ns = [n for n in range(1, last + 1) if not (skip_p_multiples and n % p == 0)]
    lk = math.lcm(*ns) ** k
    P, Q = z.numerator, z.denominator
    num = sum(P**n * Q ** (last - n) * (lk // n**k) for n in ns)
    return PadicNumber.from_rational(Fraction(num, Q**last * lk), p, aprec)


def _log_floor(p: int, n: int) -> int:
    out = 0
    q = p
    while q <= n:
        q *= p
        out += 1
    return out


def _guard(p: int, aprec: int, k: int) -> int:
    return k * (_log_floor(p, 4 * aprec + 64) + 1) + 6


# -- the p-adic logarithm -------------------------------------------------------


def teichmuller_unit(u: int, p: int, aprec: int) -> int:
    """The Teichmuller representative of u mod p**aprec (u prime to p).

    For p == 2 the torsion is {1, -1}; the representative is chosen so that
    u divided by it is 1 mod 4.
    """
    mod = p**aprec
    if p == 2:
        return 1 if u % 4 == 1 else mod - 1
    x = u % mod
    for _ in range(aprec + 1):
        nxt = pow(x, p, mod)
        if nxt == x:
            break
        x = nxt
    return x


def padic_log(z: PadicNumber, branch=0) -> PadicNumber:
    """Branch-parameterized p-adic logarithm.

    Writes z = p**v * w * u with w the Teichmuller representative and u a
    1-unit (1 mod 4 when p == 2), and returns v*branch + log(u) using the
    alternating series on 1-units.  The branch value only fixes log(p);
    Teichmuller torsion maps to 0.
    """
    if z.is_zero():
        raise ValueError("p-adic logarithm of zero")
    p = z.p
    rel = z.aprec - z.val
    guard = _division_guard(p, rel) + 4
    work = rel + guard
    mod = p**work
    u = z.unit % mod
    w = teichmuller_unit(u, p, work)
    u1 = u * pow(w, -1, mod) % mod
    t = (u1 - 1) % mod
    acc = 0
    tn = 1
    step = 2 if p == 2 else 1  # valuation gained per factor of t
    n = 1
    while n * step <= work:
        tn = tn * t % mod
        if tn == 0:
            break
        e = _int_valuation(n, p) if n % p == 0 else 0
        q = tn // p**e
        term = q * pow(n // p**e, -1, mod) % mod
        acc = (acc + term if n % 2 == 1 else acc - term) % mod
        n += 1
    log_u = PadicNumber(p, 0, acc % p**rel, rel)
    b = branch if isinstance(branch, PadicNumber) else PadicNumber.from_rational(branch, p, z.aprec)
    return b * z.valuation() + log_u


def _division_guard(p: int, aprec: int) -> int:
    """Digits lost to the worst 1/n factor over the summation range."""
    g = 0
    n = 1
    while n <= 2 * (aprec + 8):
        n *= p
        g += 1
    return g


def parse_padic(text: str, p: int, aprec: int) -> PadicNumber:
    """The PadicNumber that str() printed as `text`, read to aprec digits."""
    text = text.strip()
    body, _, tail = text.rpartition("+ O(")
    if not tail:
        raise ValueError(f"not a p-adic literal: {text!r}")
    if not body.strip():
        return PadicNumber.zero(p, int(tail.rstrip(")").split("^")[1]) if "^" in tail else 1)
    total = Fraction(0)
    for part in body.split(" + "):
        part = part.strip()
        if not part or part == "0":
            continue
        if "*" in part:
            d, pw = part.split("*")
            base, _, exp = pw.partition("^")
            total += Fraction(int(d)) * Fraction(int(base)) ** int(exp or 1)
        else:
            total += Fraction(int(part))
    return PadicNumber.from_rational(total, p, aprec)

