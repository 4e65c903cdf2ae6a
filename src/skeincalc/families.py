"""Skein families in the genus-two handlebody.

Two intertwined families organize everything: the pair X1*y^n, Y1*y^n obtained
by decorating a fixed pair of curves with powers of the central curve y, and
the single family X_i generated by a three-term recursion.  The recursions are
the source of truth; the closed forms below are verified against them by the
test suite, for every index in the acceptance windows, before anything else is
allowed to rely on them.

The pair satisfies the coupled first-order system

    X1*y^(n+1) = t^4 y (X1*y^n) + (t^-2 - t^6)(Y1*y^n) + (1 - t^4)(x^2 + z^2) y^n
    Y1*y^(n+1) = t^-4 y (Y1*y^n) + (t^2 - t^-6)(X1*y^n) + 2 (1 - t^-4) x z y^n

with seeds X1*y^0 = -t^4 y - t^2 x z and Y1*y^0 = -t^2 - t^-2, and the family
X_i satisfies

    X_{i+2} = t^2 y X_{i+1} - t^4 X_i - 2 t^2 x z,
    X_0 = -t^2 - t^-2,  X_1 = -t^4 y - t^2 x z.

Reindexing the pair by T_n (so X1*T_n(y) = sum_j c_j X1*y^j for
T_n = sum_j c_j xi^j) admits the closed forms implemented here, as does X_i.
The sigma family is the combination sigma_n = t X1*T_n(y) + t^-1 x z T_n(y),
again with its own closed form.  Each closed form has a ``*_residual``
function, the closed form minus its oracle, which is zero where it holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .chebyshev import cheb_T, normalize_s_index
from .coeffs import LaurentPoly, add_into, t
from .handlebody import CHEBYSHEV, MONOMIAL, HbElement, Key, hb_mul


@dataclass(frozen=True)
class FamilyPair:
    """The n-th member of the coupled pair, in the monomial basis."""

    n: int
    xpart: HbElement
    ypart: HbElement


_X0 = HbElement.mono({(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})
_Y0 = HbElement.mono({(0, 0, 0): t(2, -1) + t(-2, -1)})
_Y_GEN = HbElement.mono({(0, 1, 0): 1})
_XZ_MONO = HbElement.mono({(1, 0, 1): 1})
_XSQ_ZSQ = HbElement.mono({(2, 0, 0): 1, (0, 0, 2): 1})


@functools.lru_cache(maxsize=None)
def x1y1_recursive(n: int) -> FamilyPair:
    """Compute (X1*y^n, Y1*y^n) by running the coupled recursion."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return FamilyPair(0, _X0, _Y0)
    prev = x1y1_recursive(n - 1)
    ypow = HbElement.mono({(0, n - 1, 0): 1})
    xpart = (prev.xpart * _Y_GEN * t(4)
             + prev.ypart * (t(-2) - t(6))
             + _XSQ_ZSQ * ypow * (1 - t(4)))
    ypart = (prev.ypart * _Y_GEN * t(-4)
             + prev.xpart * (t(2) - t(-6))
             + _XZ_MONO * ypow * ((1 - t(-4)) * 2))
    return FamilyPair(n, xpart, ypart)


def x1_T_recursive(n: int) -> HbElement:
    """X1*T_n(y) assembled term by term from the recursion (the oracle)."""
    acc = HbElement.zero(MONOMIAL)
    for j, c in enumerate(cheb_T(n)):
        if c:
            acc = acc + x1y1_recursive(j).xpart * c
    return acc


def y1_T_recursive(n: int) -> HbElement:
    """Y1*T_n(y) assembled term by term from the recursion (the oracle)."""
    acc = HbElement.zero(MONOMIAL)
    for j, c in enumerate(cheb_T(n)):
        if c:
            acc = acc + x1y1_recursive(j).ypart * c
    return acc


class _SBuilder:
    """Accumulates Chebyshev-basis terms, folding negative y-indices."""

    def __init__(self):
        self.terms: dict[Key, LaurentPoly] = {}

    def add(self, m: int, j: int, k: int, coeff: LaurentPoly) -> None:
        norm = normalize_s_index(j)
        if norm is None or not coeff:
            return
        sign, jj = norm
        add_into(self.terms, (m, jj, k), coeff * sign)

    def add_xz(self, j: int, coeff: LaurentPoly) -> None:
        self.add(1, j, 1, coeff)

    def add_xsq_zsq(self, j: int, coeff: LaurentPoly) -> None:
        # x^2 + z^2 = S_2(x) + S_2(z) + 2 in the Chebyshev basis
        self.add(2, j, 0, coeff)
        self.add(0, j, 2, coeff)
        self.add(0, j, 0, coeff * 2)

    def element(self) -> HbElement:
        return HbElement(CHEBYSHEV, self.terms)


def x1_T_closed(n: int) -> HbElement:
    """Closed form for X1*T_n(y) in the Chebyshev basis.

    The formula is stated for n >= 1.  At n = 0 the value is defined by
    linearity (T_0 = 2), so the recursion seed is returned doubled; negative
    indices are rejected.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return (x1y1_recursive(0).xpart * 2).to_basis(CHEBYSHEV)
    b = _SBuilder()
    b.add(0, n + 1, 0, t(4 * n + 4, -1))
    b.add(0, n - 1, 0, t(-4 * n, -1))
    b.add(0, n - 1, 0, t(4 * n))
    b.add(0, n - 3, 0, t(-4 * n + 4))
    b.add_xz(n, t(4 * n + 2, -1))
    b.add_xz(n - 2, t(-4 * n + 2))
    hom = LaurentPoly.one() - t(4 * n)
    for k in range(n):
        b.add_xsq_zsq(n - 2 * k - 1, hom * t(-4 * k))
        b.add_xz(n - 2 * k - 2, hom * t(-4 * k - 2, 2))
    return b.element()


def y1_T_closed(n: int) -> HbElement:
    """Closed form for Y1*T_n(y) in the Chebyshev basis.

    Same domain convention as x1_T_closed: n = 0 falls back to twice the
    recursion seed, negative indices are rejected.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return (x1y1_recursive(0).ypart * 2).to_basis(CHEBYSHEV)
    b = _SBuilder()
    b.add(0, n, 0, -(t(4 * n + 2) + t(-4 * n - 2)))
    b.add_xz(n - 1, t(-4 * n) - t(4 * n))
    b.add(0, n - 2, 0, t(4 * n - 2) + t(-4 * n + 2))
    hom = LaurentPoly.one() - t(4 * n)
    for k in range(n):
        b.add_xsq_zsq(n - 2 * k - 2, hom * t(-4 * k - 2))
        b.add_xz(n - 2 * k - 3, hom * t(-4 * k - 4, 2))
    return b.element()


@functools.lru_cache(maxsize=None)
def big_x(i: int) -> HbElement:
    """X_i by the three-term recursion, monomial basis."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if i == 0:
        return HbElement.mono({(0, 0, 0): t(2, -1) + t(-2, -1)})
    if i == 1:
        return _X0
    return (big_x(i - 1) * _Y_GEN * t(2)
            - big_x(i - 2) * t(4)
            - _XZ_MONO * t(2, 2))


def big_x_closed(i: int) -> HbElement:
    """Closed form for X_i, i >= 0, in the Chebyshev basis.

    Solving the recursion gives positive leading t-exponents
    (-t^{2i+2} S_i(y) - t^{2i} xz S_{i-1}(y) + ...); the mirror-image variant
    with all t-exponents negated fails already at i = 1, and the test suite
    pins the distinction.
    """
    if i < 0:
        raise ValueError("index must be nonnegative")
    b = _SBuilder()
    b.add(0, i, 0, t(2 * i + 2, -1))
    b.add_xz(i - 1, t(2 * i, -1))
    b.add(0, i - 2, 0, t(2 * i - 2))
    for k in range(i - 1):
        b.add_xz(i - k - 2, t(2 * i - 2 - 2 * k, -2))
    return b.element()


def sigma(n: int) -> HbElement:
    """Closed form for sigma_n = t X1*T_n(y) + t^-1 x z T_n(y), n >= 1."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    b = _SBuilder()
    b.add(0, n + 1, 0, t(4 * n + 5, -1))
    b.add(0, n - 1, 0, t(-4 * n + 1, -1))
    b.add(0, n - 1, 0, t(4 * n + 1))
    b.add(0, n - 3, 0, t(-4 * n + 5))
    b.add_xz(n, t(4 * n + 3, -1))
    b.add_xz(n - 2, t(-4 * n + 3))
    b.add_xz(n, t(-1))
    b.add_xz(n - 2, t(-1, -1))
    hom = LaurentPoly.one() - t(4 * n)
    for k in range(n):
        b.add_xsq_zsq(n - 2 * k - 1, hom * t(-4 * k + 1))
        b.add_xz(n - 2 * k - 2, hom * t(-4 * k - 1, 2))
    return b.element()


def sigma_defining(n: int) -> HbElement:
    """sigma_n assembled from its definition, in the monomial basis.

    X1*T_n(y) comes from the recursion oracle, so the result is independent
    of every closed form and cross-checks :func:`sigma`.
    """
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    xz_t = hb_mul(HbElement.mono({(1, 0, 1): t(-1)}), HbElement.cheb_t_y(n))
    return x1_T_recursive(n) * t(1) + xz_t


def x1_T_residual(n: int) -> HbElement:
    """x1_T_closed(n) minus the oracle x1_T_recursive(n), monomial basis."""
    return x1_T_closed(n).to_basis(MONOMIAL) - x1_T_recursive(n)


def y1_T_residual(n: int) -> HbElement:
    """y1_T_closed(n) minus the oracle y1_T_recursive(n), monomial basis."""
    return y1_T_closed(n).to_basis(MONOMIAL) - y1_T_recursive(n)


def sigma_residual(n: int) -> HbElement:
    """sigma(n) minus its definition sigma_defining(n), monomial basis."""
    return sigma(n).to_basis(MONOMIAL) - sigma_defining(n)


def big_x_residual(i: int) -> HbElement:
    """big_x_closed(i) minus the recursion big_x(i), monomial basis."""
    return big_x_closed(i).to_basis(MONOMIAL) - big_x(i)
