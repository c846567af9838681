"""Exact scaled-rational scalars for the construction builders.

The bilateral construction's scalar choices decay doubly exponentially
(log2 magnitude roughly doubles per stage), far beyond float64 range, and the
certified residual bounds must be checked exactly. An X2 value is
num/den * 2^exp with the power-of-two part held in a machine-int exponent, so
the huge exponents never materialize as big integers during arithmetic;
mantissas stay small because every input is a float (hence dyadic) or a small
rational. Full gcd reduction is skipped on purpose (only 2-adic factors are
extracted): gcds on multi-kilobit integers are the expensive part of Fraction
arithmetic. A sum keeps one denominator when one divides the other, as the
powers of one odd number in a non-dyadic stage's terms do, and reported
bounds (round_up_bits) read the value only, never num/den.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # to_fraction imports it when called; most commands never do
    from fractions import Fraction


def _two_val(n: int) -> int:
    return (n & -n).bit_length() - 1


class X2:
    """Exact num/den * 2^exp with den > 0 and both mantissas odd (zero is
    0/1 * 2^0). No value is changed once built, so results may share X2.ZERO."""

    __slots__ = ("num", "den", "exp")

    def __init__(self, num: int, den: int = 1, exp: int = 0):
        if num & den & 1 and den > 0:
            # odd mantissas are canonical already, as every product of canonical values is
            self.num, self.den, self.exp = num, den, exp
            return
        if den == 0:
            raise ZeroDivisionError("X2 denominator is zero")
        if den < 0:
            num, den = -num, -den
        if num == 0:
            self.num, self.den, self.exp = 0, 1, 0
            return
        vn = _two_val(num)
        vd = _two_val(den)
        self.num = num >> vn
        self.den = den >> vd
        self.exp = exp + vn - vd

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_int(cls, k: int) -> "X2":
        return cls(k)

    @classmethod
    def from_float(cls, x: float) -> "X2":
        return cls(*x.as_integer_ratio())

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "X2":
        return cls(fr.numerator, fr.denominator)

    @classmethod
    def pow2(cls, e: int) -> "X2":
        return cls(1, 1, e)

    ZERO: "X2"
    ONE: "X2"

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other: "X2") -> "X2":
        # a product of canonical values is canonical: odd times odd is odd
        if not (self.num and other.num):
            return X2.ZERO
        out = X2.__new__(X2)
        out.num, out.den = self.num * other.num, self.den * other.den
        out.exp = self.exp + other.exp
        return out

    def __truediv__(self, other: "X2") -> "X2":
        if other.num == 0:
            raise ZeroDivisionError("X2 division by zero")
        return X2(self.num * other.den, self.den * other.num, self.exp - other.exp)

    def __add__(self, other: "X2") -> "X2":
        if self.num == 0:
            return other
        if other.num == 0:
            return self
        e0 = min(self.exp, other.exp)
        a, da = self.num << (self.exp - e0), self.den
        b, db = other.num << (other.exp - e0), other.den
        if da != db:  # keep one denominator when one divides the other
            if da > db:
                a, da, b, db = b, db, a, da
            q, r = divmod(db, da)
            a, b, db = (a * q, b, db) if r == 0 else (a * db, b * da, da * db)
        return X2(a + b, db, e0)

    def __sub__(self, other: "X2") -> "X2":
        return self + (-other)

    def __neg__(self) -> "X2":
        out = X2.__new__(X2)
        out.num, out.den, out.exp = -self.num, self.den, self.exp
        return out

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    # -- comparison -------------------------------------------------------

    def _cmp(self, other: "X2") -> int:
        a, b = self.num, other.num
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa != sb:
            return -1 if sa < sb else 1
        if sa == 0:
            return 0
        # magnitude bounds: log2 |num/den * 2^e| lies in (lo, hi)
        a_lo = self.exp + self.num.bit_length() - self.den.bit_length() - 1
        a_hi = a_lo + 2
        b_lo = other.exp + other.num.bit_length() - other.den.bit_length() - 1
        b_hi = b_lo + 2
        if a_lo >= b_hi:
            return sa
        if a_hi <= b_lo:
            return -sa
        e0 = min(self.exp, other.exp)
        lhs = self.num * other.den << (self.exp - e0)
        rhs = other.num * self.den << (other.exp - e0)
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return isinstance(other, X2) and self._cmp(other) == 0

    def __hash__(self):
        return hash(self.to_fraction())

    # -- conversions ------------------------------------------------------

    def to_fraction(self) -> Fraction:
        from fractions import Fraction

        if self.exp >= 0:
            return Fraction(self.num << self.exp, self.den)
        return Fraction(self.num, self.den << (-self.exp))

    def to_json(self) -> dict:
        """In lowest terms: {"num", "exp2"} when the denominator is a power of two
        (never built, so huge exponents stay cheap), {"num", "den"} otherwise."""
        g = math.gcd(self.num, self.den)
        num, den = self.num // g << max(self.exp, 0), self.den // g
        if den == 1:
            return {"num": num, "exp2": min(self.exp, 0)}
        return {"num": num, "den": den << max(-self.exp, 0)}

    def round_up_bits(self, bits: int = 64) -> "X2":
        """Smallest multiple of 2^(floor(log2 self) - bits) that is >= self
        (nonnegative self): a compact certified upper bound for reporting,
        with a mantissa of bits + 1 bits at most. It depends on the value
        only, not on how num/den represents it."""
        if self.num < 0:
            raise ValueError("round_up_bits expects a nonnegative value")
        if self.num == 0:
            return self
        s = self.num.bit_length() - self.den.bit_length()  # floor(log2 num/den) or one above
        if (self.num < self.den << s) if s >= 0 else (self.num << -s < self.den):
            s -= 1
        t = s - bits
        if self.den == 1 and t <= 0:
            return self
        if t >= 0:
            m = -((-self.num) // (self.den << t))
        else:
            m = -((-self.num << (-t)) // self.den)
        return X2(m, 1, self.exp + t)

    def log2(self) -> float:
        """Approximate log2 of the magnitude (-inf for zero); error < 1e-12."""
        if self.num == 0:
            return -math.inf
        n = abs(self.num)
        a, b = n.bit_length(), self.den.bit_length()
        sn = max(0, a - 53)
        sd = max(0, b - 53)
        return self.exp + sn - sd + math.log2((n >> sn) / (self.den >> sd))

    def __float__(self) -> float:
        if self.num == 0:
            return 0.0
        lg = self.log2()
        if lg > 1026:
            return math.inf if self.num > 0 else -math.inf
        if lg < -1080:
            return 0.0 if self.num > 0 else -0.0
        # scale to a ~63-bit integer, then ldexp back
        t = math.floor(lg) - 62
        p = self.exp - t
        if p >= 0:
            q = (abs(self.num) << p) // self.den
        else:
            q = abs(self.num) // (self.den << (-p))
        try:
            val = math.ldexp(float(q), t)
        except OverflowError:  # q rounds up to 2^1024
            val = math.inf
        return val if self.num > 0 else -val

    def __repr__(self):
        return f"X2({self.num}/{self.den} * 2^{self.exp})"


X2.ZERO = X2(0)
X2.ONE = X2(1)


class XC:
    """Exact complex number with X2 components."""

    __slots__ = ("re", "im")

    def __init__(self, re: X2, im: X2):
        self.re = re
        self.im = im

    @classmethod
    def from_complex(cls, z: complex) -> "XC":
        return cls(X2.from_float(z.real), X2.from_float(z.imag))

    @classmethod
    def from_fractions(cls, pair) -> "XC":
        re, im = pair
        return cls(X2.from_fraction(re), X2.from_fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    @property
    def on_dyadic_axis(self) -> bool:
        """Both dens 1 and a part zero. Then (c.scale(X2.pow2(e)) * self).mod_sq()
        has the triple of X2(m.num, m.den, m.exp + 2e), m = c.mod_sq() * self.mod_sq(),
        as the product scales c's parts by self's one odd mantissa g (a zero factor or
        summand passes the other through) and mod_sq's sum strips powers of two only,
        none of them from g^2. Other values mix the parts' denominators: it differs."""
        return self.re.den == self.im.den == 1 and not (self.re.num and self.im.num)

    def __add__(self, other: "XC") -> "XC":
        return XC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "XC") -> "XC":
        return XC(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "XC") -> "XC":
        return XC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "XC") -> "XC":
        d = other.mod_sq()
        if d.is_zero:
            raise ZeroDivisionError("XC division by zero")
        re = (self.re * other.re + self.im * other.im) / d
        im = (self.im * other.re - self.re * other.im) / d
        return XC(re, im)

    def scale(self, s: X2) -> "XC":
        return XC(self.re * s, self.im * s)

    def mod_sq(self) -> X2:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_fraction_pair(self):
        return (self.re.to_fraction(), self.im.to_fraction())

    def __repr__(self):
        return f"XC({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# exact sparse vectors (index -> XC)


def xvec_from_seq(v) -> dict[int, XC]:
    return {i: XC.from_complex(c) for i, c in v.entries}


def x2_sum(terms) -> X2:
    """The exact sum, added left to right from zero. X2 skips gcd reduction,
    so a non-dyadic sum's num/den (and, at a rounding tie, its float) can
    depend on this order; its value and its round_up_bits bound do not."""
    out = X2.ZERO
    for t in terms:
        out = out + t
    return out


# cell_sum grids: floors on 2^(T - _FLOOR_BITS), cells of 2^(T - _CELL_BITS)
_FLOOR_BITS = 300
_CELL_BITS = 100


def cell_sum(terms, bound: X2) -> X2:
    """x2_sum(terms) for positive terms, or a stand-in that reads the same:
    pair_sum's answer where every term is dyadic and it decides the cell,
    else the exact x2_sum, a non-dyadic term included."""
    terms = [t for t in terms if t.num]
    if all(t.den == 1 and t.num > 0 for t in terms):
        got = pair_sum([(t.num, t.exp) for t in terms], bound)
        if got is not None:
            return got
    return x2_sum(terms)


def pair_sum(pairs, bound: X2) -> X2 | None:
    """The sum of the positive dyadic terms m * 2^e given as (m, e) pairs
    with m odd, or a stand-in that reads the same, or None when the cell
    cannot be decided (the caller then adds the terms exactly).

    With T the top-bit bound of the largest term (every term < 2^T), each
    term is floored onto the grid 2^g, g = T - 300. No floored remainder:
    the grid sum is exact. Otherwise the sum lies in the open interval
    (S, S + n) * 2^g (S the floored sum, n the terms with a remainder);
    when that interval lies in one cell of the aligned grid 2^(T - 100) and
    bound is a multiple of the cell width, the cell midpoint is returned.
    The sum is at least 2^(T - 1), so every rounding or truncation boundary
    that float(), round_up_bits(64) and `<= bound` read (multiples of
    2^(top bit - 64) or coarser, powers of two, and bound) lies on the cell
    grid: they give the same answer at the midpoint as at the sum.
    """
    if not pairs:
        return X2.ZERO
    g = max(e + m.bit_length() for m, e in pairs) - _FLOOR_BITS
    s = 0
    n = 0
    for m, e in pairs:
        d = e - g
        if d >= 0:
            s += m << d
        else:
            s += m >> -d
            n += 1  # m is odd, so the dropped bits are not all zero
    if not n:
        return X2(s, 1, g)
    width = _FLOOR_BITS - _CELL_BITS
    cell = s >> width
    if (s + n - 1) >> width != cell or bound.den != 1 or bound.exp < g + width:
        return None
    return X2(2 * cell + 1, 1, g + width - 1)


def xvec_norm_sq(x: dict[int, XC]) -> X2:
    return x2_sum(x[i].mod_sq() for i in sorted(x))


def xvec_sub(a: dict[int, XC], b: dict[int, XC]) -> dict[int, XC]:
    out = dict(a)
    for i, c in b.items():
        out[i] = out[i] - c if i in out else XC(X2.ZERO, X2.ZERO) - c
    return {i: c for i, c in out.items() if not c.is_zero}
