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
again with its own closed form.  Each closed form is a list of S-terms, a
fixed head plus a k-sum, summed by :meth:`HbElement.cheb_sum`.  Each has a
``*_residual`` function, the closed form minus its oracle, zero where it holds.

Bases.  The closed forms, the oracles they are checked against and the
residuals' arithmetic are all in the Chebyshev basis S_m(x) S_n(y) S_k(z):

* :func:`x1y1_T_recursive` (and :func:`x1_T_recursive`,
  :func:`y1_T_recursive`, :func:`sigma_defining` built on it) pushes
  T_{n+1} = y T_n - T_{n-1} through the coupled system above, which is linear
  in the y-polynomial it decorates;
* :func:`big_x` runs the three-term recursion for X_i.

Only :func:`x1y1_recursive`, the pair at the powers y^n themselves, computes
in the monomial basis, where its coefficients grow exponentially; it is kept
as an independent cross-check and for ``skeincalc expand x1y``.  Each
``*_residual`` converts its difference to the monomial basis, which costs
nothing when the difference is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chebyshev import ascending_memo
from .coeffs import LaurentPoly, t
from .handlebody import CHEBYSHEV, MONOMIAL, HbElement


@dataclass(frozen=True)
class FamilyPair:
    """The n-th member of the coupled pair: X1 and Y1 times y^n or T_n(y)."""

    n: int
    xpart: HbElement
    ypart: HbElement


# The seeds and the inhomogeneous terms, in the monomial basis for
# x1y1_recursive and, written out as S-combinations, in the Chebyshev basis:
# y = S_1(y), xz = S_1(x) S_1(z), x^2 + z^2 = S_2(x) + S_2(z) + 2.
_X0_MONO = HbElement.mono({(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})
_Y0_MONO = HbElement.mono({(0, 0, 0): t(2, -1) + t(-2, -1)})
_Y_GEN = HbElement.mono({(0, 1, 0): 1})
_XZ_MONO = HbElement.mono({(1, 0, 1): 1})
_XSQ_ZSQ_MONO = HbElement.mono({(2, 0, 0): 1, (0, 0, 2): 1})

_X0 = HbElement.cheb({(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})
_Y0 = HbElement.cheb({(0, 0, 0): t(2, -1) + t(-2, -1)})
_XZ = HbElement.cheb({(1, 0, 1): 1})
_XSQ_ZSQ = HbElement.cheb({(2, 0, 0): 1, (0, 0, 2): 1, (0, 0, 0): 2})


@ascending_memo
def x1y1_recursive(n: int) -> FamilyPair:
    """Compute (X1*y^n, Y1*y^n) by running the coupled recursion, monomial basis."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return FamilyPair(0, _X0_MONO, _Y0_MONO)
    prev = x1y1_recursive(n - 1)
    ypow = HbElement.mono({(0, n - 1, 0): 1})
    xpart = (prev.xpart * _Y_GEN * t(4)
             + prev.ypart * (t(-2) - t(6))
             + _XSQ_ZSQ_MONO * ypow * (1 - t(4)))
    ypart = (prev.ypart * _Y_GEN * t(-4)
             + prev.xpart * (t(2) - t(-6))
             + _XZ_MONO * ypow * ((1 - t(-4)) * 2))
    return FamilyPair(n, xpart, ypart)


def _times_y(xq: HbElement, yq: HbElement, q: HbElement) -> tuple[HbElement, HbElement]:
    """(X1*(y q), Y1*(y q)) from (X1*q, Y1*q) and q(y): one step of the system."""
    return (xq.times_t_y(1) * t(4) + yq * (t(-2) - t(6)) + _XSQ_ZSQ * q * (1 - t(4)),
            yq.times_t_y(1) * t(-4) + xq * (t(2) - t(-6)) + _XZ * q * ((1 - t(-4)) * 2))


@ascending_memo
def x1y1_T_recursive(n: int) -> FamilyPair:
    """(X1*T_n(y), Y1*T_n(y)) from the coupled recursion, Chebyshev basis.

    The system is linear in the y-polynomial q it decorates, so
    T_{n+1} = y T_n - T_{n-1} carries over to the pair; T_0 = 2 doubles the
    seeds and T_1 = y is one step from them.  No closed form is used, so this
    is the oracle the closed forms are checked against.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return FamilyPair(0, _X0 * 2, _Y0 * 2)
    if n == 1:
        return FamilyPair(1, *_times_y(_X0, _Y0, HbElement.one(CHEBYSHEV)))
    prev, prev2 = x1y1_T_recursive(n - 1), x1y1_T_recursive(n - 2)
    xpart, ypart = _times_y(prev.xpart, prev.ypart, HbElement.cheb_t_y(n - 1))
    return FamilyPair(n, xpart - prev2.xpart, ypart - prev2.ypart)


def x1_T_recursive(n: int) -> HbElement:
    """X1*T_n(y) from the recursion (the oracle), Chebyshev basis."""
    return x1y1_T_recursive(n).xpart


def y1_T_recursive(n: int) -> HbElement:
    """Y1*T_n(y) from the recursion (the oracle), Chebyshev basis."""
    return x1y1_T_recursive(n).ypart


def _xsq_zsq(j: int, c: LaurentPoly) -> list[tuple[int, int, int, LaurentPoly]]:
    """(x^2 + z^2) S_j(y) c as cheb_sum terms: x^2 + z^2 = S_2(x) + S_2(z) + 2."""
    return [(2, j, 0, c), (0, j, 2, c), (0, j, 0, c * 2)]


def x1_T_closed(n: int) -> HbElement:
    """Closed form for X1*T_n(y) in the Chebyshev basis.

    The formula is stated for n >= 1.  At n = 0 the value is defined by
    linearity (T_0 = 2), so the recursion seed is returned doubled; negative
    indices are rejected.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return _X0 * 2
    hom = 1 - t(4 * n)
    terms = [(0, n + 1, 0, t(4 * n + 4, -1)), (0, n - 1, 0, t(-4 * n, -1)),
             (0, n - 1, 0, t(4 * n)), (0, n - 3, 0, t(-4 * n + 4)),
             (1, n, 1, t(4 * n + 2, -1)), (1, n - 2, 1, t(-4 * n + 2))]
    for k in range(n):
        terms += _xsq_zsq(n - 2 * k - 1, hom * t(-4 * k))
        terms.append((1, n - 2 * k - 2, 1, hom * t(-4 * k - 2, 2)))
    return HbElement.cheb_sum(terms)


def y1_T_closed(n: int) -> HbElement:
    """Closed form for Y1*T_n(y) in the Chebyshev basis.

    Same domain convention as x1_T_closed: n = 0 falls back to twice the
    recursion seed, negative indices are rejected.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return _Y0 * 2
    hom = 1 - t(4 * n)
    terms = [(0, n, 0, -(t(4 * n + 2) + t(-4 * n - 2))),
             (1, n - 1, 1, t(-4 * n) - t(4 * n)),
             (0, n - 2, 0, t(4 * n - 2) + t(-4 * n + 2))]
    for k in range(n):
        terms += _xsq_zsq(n - 2 * k - 2, hom * t(-4 * k - 2))
        terms.append((1, n - 2 * k - 3, 1, hom * t(-4 * k - 4, 2)))
    return HbElement.cheb_sum(terms)


@ascending_memo
def big_x(i: int) -> HbElement:
    """X_i by the three-term recursion, Chebyshev basis."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if i == 0:
        return _Y0
    if i == 1:
        return _X0
    return (big_x(i - 1).times_t_y(1) * t(2)
            - big_x(i - 2) * t(4)
            - _XZ * t(2, 2))


def big_x_closed(i: int) -> HbElement:
    """Closed form for X_i, i >= 0, in the Chebyshev basis.

    Solving the recursion gives positive leading t-exponents
    (-t^{2i+2} S_i(y) - t^{2i} xz S_{i-1}(y) + ...); the mirror-image variant
    with all t-exponents negated fails already at i = 1, and the test suite
    pins the distinction.
    """
    if i < 0:
        raise ValueError("index must be nonnegative")
    return HbElement.cheb_sum(
        [(0, i, 0, t(2 * i + 2, -1)), (1, i - 1, 1, t(2 * i, -1)), (0, i - 2, 0, t(2 * i - 2))]
        + [(1, i - k - 2, 1, t(2 * i - 2 - 2 * k, -2)) for k in range(i - 1)])


def sigma(n: int) -> HbElement:
    """Closed form for sigma_n = t X1*T_n(y) + t^-1 x z T_n(y), n >= 1."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    hom = 1 - t(4 * n)
    terms = [(0, n + 1, 0, t(4 * n + 5, -1)), (0, n - 1, 0, t(-4 * n + 1, -1)),
             (0, n - 1, 0, t(4 * n + 1)), (0, n - 3, 0, t(-4 * n + 5)),
             (1, n, 1, t(4 * n + 3, -1)), (1, n - 2, 1, t(-4 * n + 3)),
             (1, n, 1, t(-1)), (1, n - 2, 1, t(-1, -1))]
    for k in range(n):
        terms += _xsq_zsq(n - 2 * k - 1, hom * t(-4 * k + 1))
        terms.append((1, n - 2 * k - 2, 1, hom * t(-4 * k - 1, 2)))
    return HbElement.cheb_sum(terms)


def sigma_defining(n: int) -> HbElement:
    """sigma_n assembled from its definition, in the Chebyshev basis.

    X1*T_n(y) comes from the recursion oracle, so the result is independent
    of every closed form and cross-checks :func:`sigma`.
    """
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    return x1_T_recursive(n) * t(1) + (_XZ * t(-1)).times_t_y(n)


def x1_T_residual(n: int) -> HbElement:
    """x1_T_closed(n) minus the oracle x1_T_recursive(n), monomial basis."""
    return (x1_T_closed(n) - x1_T_recursive(n)).to_basis(MONOMIAL)


def y1_T_residual(n: int) -> HbElement:
    """y1_T_closed(n) minus the oracle y1_T_recursive(n), monomial basis."""
    return (y1_T_closed(n) - y1_T_recursive(n)).to_basis(MONOMIAL)


def sigma_residual(n: int) -> HbElement:
    """sigma(n) minus its definition sigma_defining(n), monomial basis."""
    return (sigma(n) - sigma_defining(n)).to_basis(MONOMIAL)


def big_x_residual(i: int) -> HbElement:
    """big_x_closed(i) minus the recursion big_x(i), monomial basis."""
    return (big_x_closed(i) - big_x(i)).to_basis(MONOMIAL)
