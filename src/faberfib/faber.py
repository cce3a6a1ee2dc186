"""Power and inverse coefficients of unit series, and partition sums.

`faber_polynomial(n, p, a)` is the coefficient of z^n in
(a_1 + a_2 z + a_3 z^2 + ...)^p with a_1 = 1, for any integer exponent
p, positive or negative.  It runs J.C.P. Miller's recurrence for powers
of a series (Knuth, TAOCP Vol. 2, section 4.7), O(n^2) field operations
over whatever exact field the inputs share.  Through Lagrange inversion,
b_n = (1/n) [z^{n-1}] (f(z)/z)^{-n}, it gives the coefficients of a
compositional inverse without running a series reversion, in O(N^3)
operations at order N; that is the second, independent route the tests
play against `TruncatedSeries.revert`.  It stays on field arithmetic on
purpose: `revert` runs on integer coordinates, and a route that shares
neither that kernel nor its rescaling is what makes the check
independent.

`partial_bell(n, m, u)` is the coefficient of z^n in
(u_1 z + ... + u_n z^n)^m, written as the classical sum over partitions
of n into m parts.  Its cost grows with the partition count, which is
superpolynomial in n; no other route in the package uses it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exact import _TOWER, _tower_type
from .series import NormalizedSeries, TruncatedSeries

__all__ = [
    "partial_bell",
    "faber_polynomial",
    "faber_inverse_coefficients",
]


# 256 entries hold the profiles of every (n, m) with n <= 22 (253 pairs);
# beyond that the least recently used are dropped and recomputed on demand.
@lru_cache(maxsize=256)
def _partition_multiplicities(n: int, m: int):
    """Multiplicity profiles ((part, count), ...) of partitions of n into m parts."""

    def descend(remaining, parts_left, max_part):
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        # each remaining part is >= 1, so a part can take at most remaining - (parts_left - 1)
        top = min(max_part, remaining - (parts_left - 1))
        for part in range(top, 0, -1):
            count_cap = min(parts_left, remaining // part)
            for count in range(count_cap, 0, -1):
                rest_sum = remaining - part * count
                rest_parts = parts_left - count
                for tail in descend(rest_sum, rest_parts, part - 1):
                    yield ((part, count),) + tail

    return tuple(descend(n, m, n))


def partial_bell(n: int, m: int, u):
    """Sum over partitions of n into m parts of m!/(prod d_i!) * prod u_i^d_i.

    Equivalently the coefficient of z^n in (u_1 z + ... + u_n z^n)^m.
    `u` supplies u_1 .. u_n (longer is fine, extra entries are ignored),
    each an exact scalar; floats are refused.  Requires 1 <= m <= n.
    """
    if not 1 <= m <= n:
        raise ValueError(f"partition sum needs 1 <= m <= n, got n={n}, m={m}")
    u = list(u)
    if len(u) < n:
        raise ValueError(f"need {n} inputs u_1..u_{n}, got {len(u)}")
    for x in u[:n]:
        _tower_type(x)
    total = 0
    m_fact = factorial(m)
    for profile in _partition_multiplicities(n, m):
        weight = m_fact
        for _, count in profile:
            weight //= factorial(count)
        term = weight
        for part, count in profile:
            term = term * u[part - 1] ** count
        total = total + term
    return total


def faber_polynomial(n: int, p: int, a):
    """Coefficient of z^n in (a_1 + a_2 z + a_3 z^2 + ...)^p with a_1 = 1.

    `a` supplies a_1 .. a_{n+1} (at least); p is any integer.  Requires
    n >= 1 and a_1 == 1.  With h_j = a_{j+1} and q = (1 + h_1 z + ...)^p,
    Miller's recurrence (from q' (1 + h) = p h' q) reads

        q_0 = 1,   q_k = (1/k) * sum_{j=1}^{k} ((p+1) j - k) h_j q_{k-j},

    O(n^2) operations in the field of a_2 .. a_{n+1}; zero terms are
    skipped.  The result has the type those inputs share: ints give an
    int (each division by k is exact), otherwise the highest of
    Fraction < QSqrt5 < ExactComplex among them.  For p = 0 it is the
    int 0, and for p = 1 it is a_{n+1} itself.  Floats are refused, as
    inputs and as p.
    """
    if not isinstance(p, int):
        raise TypeError(f"the exponent p must be an int, got {type(p).__name__}")
    if n < 1:
        raise ValueError(f"coefficient index must be at least 1, got {n}")
    a = list(a)
    if len(a) < n + 1:
        raise ValueError(f"need {n + 1} inputs a_1..a_{n + 1}, got {len(a)}")
    if a[0] != 1:
        raise ValueError("leading input a_1 must be exactly 1")
    field = max(map(_tower_type, a[1 : n + 1]), key=_TOWER.index)
    if p == 0:
        return 0
    if p == 1:
        return a[n]
    return _power_coefficient([None] + [field(x) for x in a[1 : n + 1]], p, n, field)


def _power_coefficient(h, p: int, n: int, field):
    """[z^n] (1 + h[1] z + h[2] z^2 + ...)^p by Miller's recurrence.

    `h` holds values of `field` from index 1 on (h[0] is not read);
    an int field divides exactly by k.
    """
    zero = field(0)
    q = [field(1)]
    for k in range(1, n + 1):
        acc = zero
        for j in range(1, k + 1):
            hj = h[j]
            if hj:
                prior = q[k - j]
                weight = (p + 1) * j - k
                if prior and weight:
                    acc = acc + hj * prior * weight
        q.append(acc // k if field is int else acc / k)
    return q[n]


def faber_inverse_coefficients(f: TruncatedSeries) -> NormalizedSeries:
    """Compositional inverse coefficients b_n = (1/n) * [z^{n-1}] (f(z)/z)^{-n}.

    An order-by-order closed form: each b_n is one run of Miller's
    recurrence (see `faber_polynomial`) with p = -n, O(n^2) field
    operations, so order N costs O(N^3).  No triangular solve is
    involved, so the result can be checked against
    `TruncatedSeries.revert`.
    """
    if not f.is_normalized:
        raise ValueError("inverse coefficients require a normalized series")
    h = f.coeffs[1:]  # h[j] = a_{j+1}; h[0] = a_1 = 1 is not read
    out = [f.field(0), f.field(1)]
    for n in range(2, f.order + 1):
        out.append(Fraction(1, n) * _power_coefficient(h, -n, n - 1, f.field))
    return NormalizedSeries(out, f.field)
