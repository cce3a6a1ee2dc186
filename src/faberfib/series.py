"""Truncated formal power series over an exact coefficient field.

A series carries exactly the coefficients c_0 .. c_N of its truncation
order N; coefficients beyond N are unknown, never assumed zero, so any
operation that would need them either drops the order (derivative) or
refuses mismatched operands.  The coefficient field is pluggable: any
of Fraction, QSqrt5, ExactComplex works, any other is refused, and
binary operations join the two fields upward through `join_field`,
which lives with the tower in `exact` and is re-exported here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .exact import (
    _TOWER,
    ExactComplex,
    QSqrt5,
    _from_integer_coordinates,
    _integer_coordinates,
    _tower_type,
    join_field,
)

__all__ = ["TruncatedSeries", "NormalizedSeries", "join_field"]


def _exact_fraction(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("series coefficients must be exact, not float")
    return Fraction(c)


def _convolve(left, right, lo: int, hi: int, k: int, zero):
    """zero + sum_{j=lo}^{hi} left[j] * right[k-j], skipping zero factors."""
    total = zero
    for j in range(lo, hi + 1):
        a = left[j]
        if a:
            b = right[k - j]
            if b:
                total = total + a * b
    return total


# -- product rules on integer coordinates ------------------------------------
#
# Each rule is the sum of products of two equally long lists of coordinates
# (see `exact._integer_coordinates`), by the field's product rule on ints.


def _rational_dot(ws, rs):
    return sum(map(mul, ws, rs))


def _qsqrt5_dot(ws, rs):
    """Sum of (a + b*sqrt5)(c + e*sqrt5) = (ac + 5be) + (ae + bc)*sqrt5."""
    s = t = 0
    for (a, b), (c, e) in zip(ws, rs):
        s += a * c + 5 * b * e
        t += a * e + b * c
    return s, t


def _complex_dot(ws, rs):
    """Sum of (x + y*i)(u + v*i) = (xu - yv) + (xv + yu)*i over Q(sqrt 5).

    With x = a + b*sqrt5, y = c + e*sqrt5, u = f + g*sqrt5, v = h + k*sqrt5.
    """
    s0 = s1 = s2 = s3 = 0
    for (a, b, c, e), (f, g, h, k) in zip(ws, rs):
        s0 += a * f + 5 * b * g - c * h - 5 * e * k
        s1 += a * g + b * f - c * k - e * h
        s2 += a * h + 5 * b * k + c * f + 5 * e * g
        s3 += a * k + b * h + c * g + e * f
    return s0, s1, s2, s3


_PRODUCT_RULES = {Fraction: _rational_dot, QSqrt5: _qsqrt5_dot, ExactComplex: _complex_dot}


def _scaled(coordinates, factor: int):
    if type(coordinates) is int:
        return coordinates * factor
    return tuple(x * factor for x in coordinates)


class TruncatedSeries:
    """Coefficients c_0 .. c_N of a power series truncated at order N."""

    def __init__(self, coeffs, field=Fraction):
        if field not in _TOWER[1:]:
            raise TypeError(f"a series field is Fraction, QSqrt5 or ExactComplex, not {field!r}")
        convert = _exact_fraction if field is Fraction else field
        coeffs = tuple(convert(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least its constant term")
        self.coeffs = coeffs
        self.field = field

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} is beyond truncation order {self.order}")
        return self.coeffs[k]

    def truncated(self, order: int) -> "TruncatedSeries":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        return TruncatedSeries(self.coeffs[: order + 1], self.field)

    @property
    def is_normalized(self) -> bool:
        return (
            self.order >= 1
            and not self.coeffs[0]
            and self.coeffs[1] == self.field(1)
        )

    def _zip_with(self, other, op):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries operand")
        if other.order != self.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )
        field = join_field(self.field, other.field)
        return TruncatedSeries(
            [op(a, b) for a, b in zip(self.coeffs, other.coeffs)], field
        )

    def __add__(self, other):
        return self._zip_with(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip_with(other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, _TOWER):
            return self.scaled(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.order != self.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )
        field = join_field(self.field, other.field)
        zero = field(0)
        a, b = self.coeffs, other.coeffs
        out = [_convolve(a, b, 0, k, k, zero) for k in range(self.order + 1)]
        return TruncatedSeries(out, field)

    def __rmul__(self, other):
        if isinstance(other, _TOWER):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, scalar) -> "TruncatedSeries":
        field = join_field(self.field, _tower_type(scalar))
        return TruncatedSeries([scalar * c for c in self.coeffs], field)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Coefficients of self(inner(w)) through the shared truncation order.

        Horner's rule, c_0 + w*(c_1 + w*(c_2 + ... + w*c_N)), with the
        k-th partial sum kept to order N - k, the most the result sees.
        It runs on integer coordinates: each series is written over one
        shared denominator, and each coefficient becomes one int over Q,
        a pair (a + b*sqrt5) over Q(sqrt 5) and four ints over
        Q(sqrt 5, i).  Products follow the field's product rule on those
        ints, and each output coefficient is reduced once, at the end.
        The cost is about N^3/6 coordinate products of 1, 4 or 16 int
        multiplies, and no field element is built in the loop.
        """
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("inner operand must be a TruncatedSeries")
        if inner.order != self.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {inner.order}"
            )
        if inner.coeffs[0]:
            raise ValueError("inner series must have zero constant term")
        field = join_field(self.field, inner.field)
        dot = _PRODUCT_RULES[field]
        outer, d_outer = _integer_coordinates([field(c) for c in self.coeffs], field)
        w, d_inner = _integer_coordinates([field(c) for c in inner.coeffs], field)
        n = self.order
        # partial sum k, to order n - k, over the denominator d_outer * d_inner**(n - k)
        acc = [outer[n]]
        scale = 1
        for k in range(n - 1, -1, -1):
            scale *= d_inner
            rev = acc[::-1]
            top = len(acc)
            acc = [_scaled(outer[k], scale)] + [
                dot(w[1 : j + 1], rev[top - j :]) for j in range(1, top + 1)
            ]
        return TruncatedSeries(_from_integer_coordinates(acc, d_outer * scale, field), field)

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the truncation order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate a constant truncation")
        return TruncatedSeries(
            [k * c for k, c in enumerate(self.coeffs) if k >= 1], self.field
        )

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse as a truncated series; needs c_0 != 0."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        zero = self.field(0)
        out = [self.field(1) / c0]
        for n in range(1, self.order + 1):
            out.append(-_convolve(self.coeffs, out, 1, n, n, zero) / c0)
        return TruncatedSeries(out, self.field)

    def revert(self) -> "NormalizedSeries":
        """Compositional inverse g with self(g(w)) = w, solved order by order.

        Requires a normalized series f = self (c_0 = 0, c_1 = 1).  With
        f written over its least common denominator d as coordinates c_k
        (see `compose`), the rescaled map F(z) = f(d*z)/d has the ring
        coefficients F_k = c_k * d**(k-2), F_1 = 1, in Z, Z[sqrt5] or
        Z[sqrt5, i].  Its inverse G(w) = g(d*w)/d is then integral too,
        and g_k = G_k / d**(k-1).  The order-k coefficient of F(G) is
        G_k plus terms in G_1 .. G_{k-1}, so

            G_k = -sum_{m=2}^{k} F_m [z^k] G^m.

        The powers of G are kept as a table filled one column k at a
        time through [z^k] G^m = sum_{i=1}^{k-m+1} G_i [z^{k-i}] G^{m-1},
        which needs only columns already filled.  Each table entry and
        each residue is one dot product by the field's product rule on
        coordinates, O(N^3) coordinate products at order N, and each g_k
        is reduced once, at the end; no field element is built in the
        loop.  The rescaling makes F_k and G_k about (k-1)*bits(d) bits
        high, so one large denominator, even at the top index alone,
        raises the cost of every column.
        """
        if not self.is_normalized:
            raise ValueError("compositional inverse requires c_0 = 0 and c_1 = 1")
        field = self.field
        dot = _PRODUCT_RULES[field]
        c, d = _integer_coordinates(self.coeffs, field)
        n = self.order
        one = _integer_coordinates([field(1)], field)[0][0]
        # the coordinates F_k and G_k; F_0, F_1 and G_0 are never read
        rescaled = [None, None] + [_scaled(c[k], d ** (k - 2)) for k in range(2, n + 1)]
        inverse = [None, one] + [None] * (n - 1)
        # powers[m][j] = [z^j] G^m for j >= m; row 1 is G itself, row 0 is never read
        powers = [None, inverse] + [[None] * (n + 1) for _ in range(n - 1)]
        for k in range(2, n + 1):
            for m in range(2, k + 1):
                powers[m][k] = dot(inverse[1 : k - m + 2], powers[m - 1][k - 1 : m - 2 : -1])
            residue = dot(rescaled[2 : k + 1], [powers[m][k] for m in range(2, k + 1)])
            inverse[k] = _scaled(residue, -1)
        g = [field(0), field(1)]
        scale = 1
        for k in range(2, n + 1):
            scale *= d
            g += _from_integer_coordinates([inverse[k]], scale, field)
        return NormalizedSeries(g, field)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"{type(self).__name__}([{inner}])"


class NormalizedSeries(TruncatedSeries):
    """A truncated series pinned to c_0 = 0, c_1 = 1 (a formal map z + ...)."""

    def __init__(self, coeffs, field=Fraction):
        super().__init__(coeffs, field)
        if not self.is_normalized:
            raise ValueError("normalized series requires c_0 = 0 and c_1 = 1")

    @classmethod
    def from_upper(cls, upper, field=Fraction) -> "NormalizedSeries":
        """Build z + a_2 z^2 + ... from the list [a_2, a_3, ...]."""
        return cls([0, 1, *upper], field)
