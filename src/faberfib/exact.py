"""Exact scalar arithmetic and controlled conversion to floats.

Three scalar types form a tower over the ints: `fractions.Fraction`
(rationals), `QSqrt5` (the real quadratic field Q(sqrt 5)), and
`ExactComplex` (complex numbers whose real and imaginary parts live in
Q(sqrt 5)).  Arithmetic between levels promotes upward and is exact
everywhere; no operation in this module rounds.

A `QSqrt5` stores (a + b*sqrt5)/d as three ints with d > 0 and
gcd(a, b, d) == 1, so each value has one form and each ring operation
costs integer products and a single gcd rather than a handful of
Fraction operations.  `ExactComplex` holds two `QSqrt5` parts.

This module owns the tower int < Fraction < QSqrt5 < ExactComplex and
its float gate, for the whole package: `_rational_terms` reads the
rational inputs (here and in `tremblay`), `_tower_type` names the level
of an exact scalar, and `join_field` joins two series coefficient
fields.  Each refuses floats, whose binary expansion would otherwise
enter the exact core unnoticed.  Floats appear only in the
explicit conversion helpers at the bottom, which return a value
together with a guaranteed error bound derived from dyadic interval
enclosures on integer endpoints.

The module also owns the text grammar for scalars ("3/4",
"-1/2 + 1/2*sqrt5", "2 + 1/3*i", ...) used by the command line and by
reports.  `parse_scalar` accepts a superset of what the renderers emit,
including parenthesised coefficients, an omitted '*', and the unicode
minus sign, and round-trips every rendered value.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

__all__ = [
    "QSqrt5",
    "ExactComplex",
    "Interval",
    "IntervalStraddleError",
    "to_float",
    "fraction_sqrt",
    "render_rational",
    "render_qsqrt5",
    "render_scalar",
    "parse_rational",
    "parse_qsqrt5",
    "parse_scalar",
]


def _rational_terms(x):
    """(numerator, denominator) of an int or Fraction; floats are refused."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"exact scalars take int or Fraction components, not {type(x).__name__}")


# -- operators QSqrt5 and ExactComplex share, each through its class's _coerce


def _rsub(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return o - self


def _truediv(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return self * o.inverse()


def _rtruediv(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return o * self.inverse()


def _power(base, exponent):
    if not isinstance(exponent, int):
        return NotImplemented
    if exponent < 0:
        return base.inverse() ** (-exponent)
    result = type(base)(1)
    e = exponent
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


@total_ordering
class QSqrt5:
    """An element (a + b*sqrt(5))/d of the real quadratic field Q(sqrt 5).

    Stored as three ints `(a, b, d)` with `d > 0` and
    `gcd(a, b, d) == 1`, so every value, zero included (`(0, 0, 1)`),
    has exactly one form and equality compares the triples.  The
    constructor takes the rational and radical parts as int or Fraction
    (never float); `rational_part` and `radical_part` give them back as
    Fractions.  Every ring operation works on the ints and reduces its
    result once, by one gcd.  Ordering is the order inherited from the
    reals and is decided exactly by comparing squares of integers,
    never through floating point.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a=0, b=0):
        if isinstance(a, QSqrt5):
            if b != 0:
                raise TypeError("cannot combine a QSqrt5 with a second component")
            self._a, self._b, self._d = a._a, a._b, a._d
            return
        na, da = _rational_terms(a)
        nb, db = _rational_terms(b)
        na, nb, d = na * db, nb * da, da * db
        g = math.gcd(na, nb, d)
        self._a, self._b, self._d = na // g, nb // g, d // g

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def radical_part(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QSqrt5):
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrt5(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _reduced(self._a + o._a, self._b + o._b, d)
        return _reduced(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _reduced(self._a - o._a, self._b - o._b, d)
        return _reduced(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    __rsub__ = _rsub

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, f = self._a, self._b, o._a, o._b
        return _reduced(a * c + 5 * b * f, a * f + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def conjugate(self) -> "QSqrt5":
        """The field conjugate (a - b*sqrt(5))/d."""
        return _reduced(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm (a**2 - 5*b**2)/d**2 (a rational)."""
        return Fraction(self._a * self._a - 5 * self._b * self._b, self._d * self._d)

    def inverse(self) -> "QSqrt5":
        a, b, d = self._a, self._b, self._d
        n = a * a - 5 * b * b
        if n == 0:
            # a**2 == 5*b**2 with integers forces a == b == 0
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        # d/(a + b*sqrt5) = d*(a - b*sqrt5)/n, with the sign of n moved up
        if n < 0:
            return _reduced(-d * a, d * b, -n)
        return _reduced(d * a, -d * b, n)

    __truediv__ = _truediv

    __rtruediv__ = _rtruediv

    __pow__ = _power

    # -- exact order ----------------------------------------------------

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(5): -1, 0 or +1, decided exactly."""
        a, b = self._a, self._b  # d > 0 does not change the sign
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: the larger of a**2 and 5*b**2 wins (never equal for b != 0)
        dominant = 1 if a > 0 else -1  # sign if |a| > |b|sqrt5
        if a * a > 5 * b * b:
            return dominant
        return -dominant

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, ExactComplex):
                return other == self
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        if self._b == 0:
            return hash(self.rational_part)
        return hash((self.rational_part, self.radical_part, "sqrt5"))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- views ------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def to_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self} has an irrational part")
        return self.rational_part

    def __float__(self):
        """The double nearest the midpoint of an enclosure of relative width 2**-60.

        In the normal double range, |float(x) - x| <= |x|*(2**-53 + 2**-61)/(1 - 2**-61):
        the midpoint m of an enclosure no wider than |m|*2**-60 lies within
        |m|*2**-61 of x, rounding m moves it by at most |m|*2**-53, and
        |m| <= |x|/(1 - 2**-61).  A rational x is rounded once, within |x|*2**-53.
        """
        if self._b == 0:
            return self._a / self._d
        bits = 128
        while True:
            # width w/e at most |m/(2e)| * 2**-60, for the midpoint m/(2e)
            m, w, e = Interval.from_qsqrt5(self, bits)._mid_width()
            if m != 0 and w << 61 <= abs(m):
                return m / (2 * e)
            bits *= 2

    def __repr__(self):
        return f"QSqrt5({self.rational_part!r}, {self.radical_part!r})"

    def __str__(self):
        return render_qsqrt5(self)


_new = object.__new__


def _reduced(a: int, b: int, d: int) -> QSqrt5:
    """The QSqrt5 (a + b*sqrt5)/d for ints with d > 0, reduced by one gcd."""
    x = _new(QSqrt5)
    g = math.gcd(a, b, d)
    if g == 1:
        x._a, x._b, x._d = a, b, d
    else:
        x._a, x._b, x._d = a // g, b // g, d // g
    return x


class ExactComplex:
    """A complex number re + im*i with re, im in Q(sqrt 5).

    Closed under +, -, *, / and exact; the squared modulus stays in
    Q(sqrt 5), which is what downstream sign decisions need.
    """

    __slots__ = ("_re", "_im")

    def __init__(self, re=0, im=0):
        if isinstance(re, ExactComplex):
            if im != 0:
                raise TypeError("cannot combine an ExactComplex with a second component")
            self._re = re._re
            self._im = re._im
            return
        # QSqrt5 values are immutable, so they are shared, not copied
        self._re = re if type(re) is QSqrt5 else QSqrt5(re)
        self._im = im if type(im) is QSqrt5 else QSqrt5(im)

    @property
    def real(self) -> QSqrt5:
        return self._re

    @property
    def imag(self) -> QSqrt5:
        return self._im

    def _coerce(self, other):
        if isinstance(other, ExactComplex):
            return other
        if isinstance(other, (int, Fraction, QSqrt5)):
            return ExactComplex(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self._re + o._re, self._im + o._im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self._re - o._re, self._im - o._im)

    __rsub__ = _rsub

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(
            self._re * o._re - self._im * o._im,
            self._re * o._im + self._im * o._re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ExactComplex(-self._re, -self._im)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self._re, -self._im)

    def abs_squared(self) -> QSqrt5:
        """|z|**2, exact in Q(sqrt 5)."""
        return self._re * self._re + self._im * self._im

    def inverse(self) -> "ExactComplex":
        m = self.abs_squared()
        if m.sign() == 0:
            raise ZeroDivisionError("division by complex zero")
        conj = self.conjugate()
        return ExactComplex(conj._re / m, conj._im / m)

    __truediv__ = _truediv

    __rtruediv__ = _rtruediv

    __pow__ = _power

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._re == o._re and self._im == o._im

    def __hash__(self):
        if not self._im:
            return hash(self._re)
        return hash((self._re, self._im, "i"))

    def __bool__(self):
        return bool(self._re) or bool(self._im)

    @property
    def is_real(self) -> bool:
        return not self._im

    def to_qsqrt5(self) -> QSqrt5:
        if self._im:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self._re

    def to_fraction(self) -> Fraction:
        return self.to_qsqrt5().to_fraction()

    def __complex__(self):
        return complex(float(self._re), float(self._im))

    def __repr__(self):
        return f"ExactComplex({self._re!r}, {self._im!r})"

    def __str__(self):
        return render_scalar(self)


# the exact tower from the bottom up; an int is the ring Z, not a series field
_TOWER = (int, Fraction, QSqrt5, ExactComplex)


def _tower_type(x):
    """The level of the tower that `x` belongs to; floats and every other type are refused."""
    for kind in _TOWER:
        if isinstance(x, kind):
            return kind
    raise TypeError(f"exact scalars required, got {type(x).__name__}")


def join_field(first, second):
    """Smallest field in the Fraction < QSqrt5 < ExactComplex tower holding both.

    Either argument may also be `int`, the ring below the three fields,
    so a series field joins with the level of any exact scalar.
    """
    if first is second:
        return first
    try:
        return _TOWER[max(_TOWER.index(first), _TOWER.index(second))]
    except ValueError:
        raise TypeError(
            f"cannot join coefficient fields {first.__name__} and {second.__name__}"
        ) from None


# -- integer coordinates over a shared denominator ---------------------------
#
# Integer kernels inside the package (series composition and reversion)
# take a list of values of one field over one shared denominator d, each
# value as its coordinates: an int x for x/d in Q, (a, b) for
# (a + b*sqrt5)/d in Q(sqrt 5), and (a, b, c, e) for
# ((a + b*sqrt5) + (c + e*sqrt5)*i)/d in Q(sqrt 5, i).


def _integer_coordinates(values, field):
    """(coordinates, d) of `values`, all of type `field`, over their least common denominator."""
    if field is Fraction:
        d = math.lcm(*(x.denominator for x in values))
        return [x.numerator * (d // x.denominator) for x in values], d
    if field is QSqrt5:
        d = math.lcm(*(x._d for x in values))
        return [(x._a * (d // x._d), x._b * (d // x._d)) for x in values], d
    d = math.lcm(*(x._re._d for x in values), *(x._im._d for x in values))
    coordinates = []
    for x in values:
        re, im = x._re, x._im
        s, t = d // re._d, d // im._d
        coordinates.append((re._a * s, re._b * s, im._a * t, im._b * t))
    return coordinates, d


def _from_integer_coordinates(coordinates, d, field):
    """The values of `field` with these coordinates over d > 0, each reduced once."""
    if field is Fraction:
        return [Fraction(x, d) for x in coordinates]
    if field is QSqrt5:
        return [_reduced(a, b, d) for a, b in coordinates]
    return [ExactComplex(_reduced(a, b, d), _reduced(c, e, d)) for a, b, c, e in coordinates]


# -- dyadic interval enclosures ----------------------------------------------


class IntervalStraddleError(ArithmeticError):
    """An interval operation needed a sign the enclosure could not decide."""


def _interval(ln: int, ld: int, hn: int, hd: int) -> "Interval":
    """The Interval [ln/ld, hn/hd] for ints with ld, hd > 0 and ln/ld <= hn/hd, unchecked."""
    iv = _new(Interval)
    iv._ln, iv._ld, iv._hn, iv._hd = ln, ld, hn, hd
    return iv


def _hull(*terms) -> "Interval":
    """The interval from the least to the greatest of rationals given as (n, d), d > 0."""
    lo = hi = terms[0]
    for t in terms[1:]:
        if t[0] * lo[1] < lo[0] * t[1]:
            lo = t
        elif t[0] * hi[1] > hi[0] * t[1]:
            hi = t
    return _interval(*lo, *hi)


def _sqrt_bound(n: int, d: int, bits: int, upper: bool) -> tuple[int, int]:
    """A bound s/(d << bits) on sqrt(n/d), n >= 0 and d > 0, with n/d reduced first."""
    if n == 0:
        return 0, 1
    g = math.gcd(n, d)
    n, d = n // g, d // g
    s = math.isqrt((n * d) << (2 * bits))
    return s + 1 if upper else s, d << bits


class Interval:
    """A closed interval [lo, hi] with exact rational endpoints.

    Endpoint arithmetic is exact, so every operation returns a true
    enclosure of the image; only `sqrt` widens, by one dyadic step at
    the requested bit count.

    Each endpoint is an int numerator over a positive int denominator,
    left unreduced: a bound chains a few operations and reads one float,
    so a gcd per operation costs more than the larger ints it saves
    (Henrici's rule: reduce only where the result needs it).  `*` and
    `/` pick the least and greatest endpoint by cross-multiplication, or
    directly when both factors are nonnegative, as a bound's mostly are.
    `sqrt` reduces each endpoint first, because its dyadic bound is read
    off the reduced numerator and denominator.  `lo` and `hi` return
    Fractions.
    """

    __slots__ = ("_ln", "_ld", "_hn", "_hd")

    def __init__(self, lo, hi):
        ln, ld = _rational_terms(lo)
        hn, hd = _rational_terms(hi)
        if ln * hd > hn * ld:
            raise ValueError("interval endpoints out of order")
        self._ln, self._ld, self._hn, self._hd = ln, ld, hn, hd

    @classmethod
    def point(cls, value) -> "Interval":
        n, d = _rational_terms(value)
        return _interval(n, d, n, d)

    @classmethod
    def from_qsqrt5(cls, x: QSqrt5, bits: int) -> "Interval":
        a, b, d = x._a, x._b, x._d
        if b == 0:
            return _interval(a, d, a, d)
        # (a + b*sqrt5)/d with sqrt5 in [s, s + 1]/2**bits
        s = math.isqrt(5 << (2 * bits))
        a, d = a << bits, d << bits
        lo, hi = (s, s + 1) if b > 0 else (s + 1, s)
        return _interval(a + b * lo, d, a + b * hi, d)

    def __add__(self, other: "Interval") -> "Interval":
        ld, hd, old, ohd = self._ld, self._hd, other._ld, other._hd
        return _interval(
            self._ln * old + other._ln * ld, ld * old, self._hn * ohd + other._hn * hd, hd * ohd
        )

    def __sub__(self, other: "Interval") -> "Interval":
        ld, hd, old, ohd = self._ld, self._hd, other._ld, other._hd
        return _interval(
            self._ln * ohd - other._hn * ld, ld * ohd, self._hn * old - other._ln * hd, hd * old
        )

    def __mul__(self, other: "Interval") -> "Interval":
        ln, ld, hn, hd = self._ln, self._ld, self._hn, self._hd
        oln, old, ohn, ohd = other._ln, other._ld, other._hn, other._hd
        if ln >= 0 and oln >= 0:
            return _interval(ln * oln, ld * old, hn * ohn, hd * ohd)
        return _hull(
            (ln * oln, ld * old), (ln * ohn, ld * ohd), (hn * oln, hd * old), (hn * ohn, hd * ohd)
        )

    def __truediv__(self, other: "Interval") -> "Interval":
        ln, ld, hn, hd = other._ln, other._ld, other._hn, other._hd
        if ln <= 0 <= hn:
            raise IntervalStraddleError("interval denominator straddles zero")
        # times the reciprocal [1/hi, 1/lo], its denominators made positive
        if ln > 0:
            return self * _interval(hd, hn, ld, ln)
        return self * _interval(-hd, -hn, -ld, -ln)

    def sqrt(self, bits: int) -> "Interval":
        if self._hn < 0:
            raise ValueError("square root of a negative interval")
        ln = self._ln if self._ln > 0 else 0
        return _interval(
            *_sqrt_bound(ln, self._ld, bits, upper=False),
            *_sqrt_bound(self._hn, self._hd, bits, upper=True),
        )

    @property
    def lo(self) -> Fraction:
        return Fraction(self._ln, self._ld)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hn, self._hd)

    def _mid_width(self) -> tuple[int, int, int]:
        """(m, w, e) with midpoint m/(2e) and width w/e."""
        ln, ld, hn, hd = self._ln, self._ld, self._hn, self._hd
        return ln * hd + hn * ld, hn * ld - ln * hd, ld * hd

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"


def to_float(x, precision: int = 128):
    """Convert an exact scalar to a float (or complex) with an error bound.

    Returns `(value, error)` where the true value is guaranteed to lie
    within `error` of `value`.  `precision` is the bit count used for
    the interval enclosure; it must be at least 53.
    """
    if precision < 53:
        raise ValueError("precision below 53 bits cannot even cover a double")
    if isinstance(x, ExactComplex):
        re, ere = to_float(x.real, precision)
        im, eim = to_float(x.imag, precision)
        return complex(re, im), ere + eim
    return _enclosure_float(Interval.from_qsqrt5(QSqrt5(x), precision))


def _enclosure_float(iv: Interval):
    """The midpoint float of an enclosure and an error bound covering all of it.

    Int true division rounds correctly, so each float is the one the
    exact rational rounds to.
    """
    m, w, e = iv._mid_width()
    value = m / (2 * e)
    # enclosure halfwidth w/(2e), plus double-rounding slack |m|/(2e)*2**-52
    # for the value, padded by a factor 1 + 2**-40
    err = (w << 52) + abs(m)
    error = (err * ((1 << 40) + 1)) / (e << 93)
    if error == 0.0 and err > 0:
        error = math.ulp(0.0)
    return value, error


def fraction_sqrt(q: Fraction):
    """Exact square root of an int or Fraction, or None when it is not rational."""
    n, d = _rational_terms(q)
    if n < 0:
        return None
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# -- text grammar -------------------------------------------------------------


def render_rational(q: Fraction) -> str:
    return str(Fraction(q))


def render_qsqrt5(x: QSqrt5) -> str:
    a, b = x.rational_part, x.radical_part
    if b == 0:
        return render_rational(a)
    if b == 1:
        radical = "sqrt5"
    elif b == -1:
        radical = "-sqrt5"
    else:
        radical = f"{render_rational(b)}*sqrt5"
    if a == 0:
        return radical
    if radical.startswith("-"):
        return f"{render_rational(a)} - {radical[1:]}"
    return f"{render_rational(a)} + {radical}"


def _render_imag_unit(y: QSqrt5) -> str:
    if y == 1:
        return "i"
    if y == -1:
        return "-i"
    body = render_qsqrt5(y)
    if y.radical_part != 0 and y.rational_part != 0:
        return f"({body})*i"
    return f"{body}*i"


def render_scalar(z) -> str:
    """Canonical text for any exact scalar (Fraction, QSqrt5 or ExactComplex)."""
    if isinstance(z, (int, Fraction)):
        return render_rational(Fraction(z))
    if isinstance(z, QSqrt5):
        return render_qsqrt5(z)
    if isinstance(z, ExactComplex):
        if not z.imag:
            return render_qsqrt5(z.real)
        imag = _render_imag_unit(z.imag)
        if not z.real:
            return imag
        if imag.startswith("-"):
            return f"{render_qsqrt5(z.real)} - {imag[1:]}"
        return f"{render_qsqrt5(z.real)} + {imag}"
    raise TypeError(f"cannot render {type(z).__name__}")


# deepest parenthesis nesting scalar text may use; the parser recurses a
# few frames per level, and this keeps it far below Python's recursion limit
MAX_SCALAR_NESTING = 100

_TOKEN = re.compile(r"\s*(\d+(?:\s*/\s*\d+)?|sqrt5|i\b|[+\-*()])")


def _tokenize(text: str):
    text = text.replace("−", "-")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"unrecognised scalar syntax at {text[pos:]!r}")
        tokens.append(m.group(1).replace(" ", ""))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of scalar text")
        self.pos += 1
        return tok

    def parse_sum(self) -> ExactComplex:
        value = self.parse_product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self) -> ExactComplex:
        value = self.parse_unary()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                value = value * self.parse_unary()
            elif tok is not None and (tok == "(" or tok in ("sqrt5", "i") or tok[0].isdigit()):
                # implicit multiplication, e.g. "(1/2)sqrt5" or "2i"
                value = value * self.parse_unary()
            else:
                return value

    def parse_unary(self) -> ExactComplex:
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        value = self.parse_atom()
        return -value if negate else value

    def parse_atom(self) -> ExactComplex:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_SCALAR_NESTING:
                raise ValueError(
                    f"scalar text nests parentheses deeper than {MAX_SCALAR_NESTING} levels"
                )
            value = self.parse_sum()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis in scalar text")
            self.depth -= 1
            return value
        if tok == "sqrt5":
            return ExactComplex(QSqrt5(0, 1))
        if tok == "i":
            return ExactComplex(0, 1)
        if tok[0].isdigit():
            return ExactComplex(Fraction(tok))
        raise ValueError(f"unexpected token {tok!r} in scalar text")


def parse_scalar(text: str) -> ExactComplex:
    """Parse scalar text into an ExactComplex.

    Accepts rationals ("3/4"), Q(sqrt 5) values ("-1/2 + 1/2*sqrt5",
    "(1/2)+(-1/2)sqrt5"), and complex combinations ("2 + i",
    "1/3 - 2/5*i"); '*' is optional, parentheses group, and the unicode
    minus sign is accepted.  Parentheses may nest at most
    `MAX_SCALAR_NESTING` (100) levels deep; deeper text raises ValueError.
    """
    parser = _Parser(_tokenize(text))
    value = parser.parse_sum()
    if parser.peek() is not None:
        raise ValueError(f"trailing junk in scalar text: {parser.tokens[parser.pos:]!r}")
    return value


def parse_qsqrt5(text: str) -> QSqrt5:
    """Parse text that must denote a real element of Q(sqrt 5)."""
    return parse_scalar(text).to_qsqrt5()


def parse_rational(text: str) -> Fraction:
    """Parse text that must denote a rational number."""
    return parse_scalar(text).to_fraction()
