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
again with its own closed form.  Each closed form is a fixed head plus a
k-sum.  Each has a ``*_residual`` function, the closed form minus its oracle,
zero where it holds.

Bases.  Everything adds ints on flat Chebyshev-basis tables
(m, n, k, e) -> c, merged as in :mod:`skeincalc.handlebody`, and nothing
multiplies two elements: each closed form is a list of int terms, and the
oracles (the pair's, behind :func:`x1y1_T_recursive`, and :func:`big_x`) step
tables.  :func:`x1y1_recursive`, the pair at the powers y^n, is a binomial sum
of the pair oracle's tables.  The memos hold tables only, so every public
function builds a fresh element on each call.  The recursion of
:func:`big_x`, every residual and the handle slide of
:mod:`skeincalc.torusknot` read those tables, and only tables leave this
module for another layer.  A ``*_residual`` is its table difference as an
element, converted to the monomial basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .chebyshev import ascending_memo
from .coeffs import check_int
from .handlebody import MONOMIAL, HbElement, Table, Term, _element, _merge


@dataclass(frozen=True)
class FamilyPair:
    """The n-th member of the coupled pair: X1 and Y1 times y^n or T_n(y)."""

    n: int
    xpart: HbElement
    ypart: HbElement


# The seeds X1*1 = X_1 = -t^4 y - t^2 xz and Y1*1 = X_0 = -t^2 - t^-2 as tables.
_X0: Table = {(0, 1, 0, 4): -1, (1, 0, 1, 2): -1}
_Y0: Table = {(0, 0, 0, 2): -1, (0, 0, 0, -2): -1}


def _add(acc: Table, table: Table, scalar: dict[int, int], dy: tuple[int, ...] = (0,)) -> Table:
    """acc += scalar * table in place, the scalar given by its terms {e: c}, and with
    dy = (1, -1) times y: y S_j(y) = S_{j+1}(y) + S_{j-1}(y), S_{-1} = 0."""
    get = acc.get
    for se, sc in scalar.items():
        for d in dy:
            for (m, j, k, e), c in table.items():
                if j + d >= 0:
                    key = (m, j + d, k, e + se)
                    acc[key] = get(key, 0) + sc * c
    return acc


@ascending_memo
def _oracle(n: int) -> tuple[Table, Table]:
    """The tables of (X1*T_n(y), Y1*T_n(y)), zeros dropped: the pair oracle's memo.

    The system is linear in the y-polynomial q it decorates, so T_0 = 2
    doubles the seeds, T_1 = y is one step from them (q = 1), and
    T_{n+1} = y T_n - T_{n-1} carries over to the pair; each step adds the
    inhomogeneous terms (1 - t^4)(x^2 + z^2) q and 2 (1 - t^-4) xz q."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return _add({}, _X0, {0: 2}), _add({}, _Y0, {0: 2})
    (xq, yq), (x2, y2) = ((_X0, _Y0), ({}, {})) if n == 1 else (_oracle(n - 1), _oracle(n - 2))
    q = [(1, 0)] if n == 1 else [(1, n - 1), (-1, n - 3)]  # 1 or T_{n-1}(y) as (sign, j) of S_j(y)
    x = _merge([(s * h * c, e, m, j, k) for s, j in q for h, e in ((1, 0), (-1, 4))
                for c, m, k in ((1, 2, 0), (1, 0, 2), (2, 0, 0))])
    y = _merge([(2 * s * h, e, 1, j, 1) for s, j in q for h, e in ((1, 0), (-1, -4))])
    _add(_add(_add(x, xq, {4: 1}, (1, -1)), yq, {-2: 1, 6: -1}), x2, {0: -1})
    _add(_add(_add(y, yq, {-4: 1}, (1, -1)), xq, {2: 1, -6: -1}), y2, {0: -1})
    return {k: c for k, c in x.items() if c}, {k: c for k, c in y.items() if c}


def x1y1_T_recursive(n: int) -> FamilyPair:
    """(X1*T_n(y), Y1*T_n(y)) from the coupled recursion, Chebyshev basis: no
    closed form is used, so this is the oracle the closed forms are checked
    against.  Each call builds fresh elements from the memo's tables."""
    return FamilyPair(n, *map(_element, _oracle(n)))


# Keeps nothing; an lru_cache only because perfbench's memo census reads it by name.
@functools.lru_cache(maxsize=0)
def x1y1_recursive(n: int) -> FamilyPair:
    """(X1*y^n, Y1*y^n) in the Chebyshev basis, summed from the pair oracle's
    tables: y^n = sum_{2k<n} C(n, k) T_{n-2k}(y) + [n even] C(n, n/2), and
    the constant term reads the seeds, as T_0 = 2 would double them."""
    if check_int(n) < 0:
        raise ValueError("power must be nonnegative")
    parts = [{} if n % 2 else _add({}, seed, {0: math.comb(n, n // 2)}) for seed in (_X0, _Y0)]
    for k in range((n + 1) // 2):
        for acc, table in zip(parts, _oracle(n - 2 * k)):
            _add(acc, table, {0: math.comb(n, k)})
    return FamilyPair(n, *map(_element, parts))


def _ksum(n: int, d: int, e: int) -> list[Term]:
    """sum_{k<n} (1 - t^{4n}) t^{e-4k} ((x^2 + z^2) S_j(y) + 2 t^-2 xz S_{j-1}(y)),
    j = n - 2k - 1 - d, as int terms: x^2 + z^2 = S_2(x) + S_2(z) + 2."""
    return [term for k in range(n) for c, ek in ((1, e - 4 * k), (-1, e - 4 * k + 4 * n))
            for j in (n - 2 * k - 1 - d,)
            for term in ((c, ek, 2, j, 0), (c, ek, 0, j, 2), (2 * c, ek, 0, j, 0),
                         (2 * c, ek - 2, 1, j - 1, 1))]


def _x1_closed(n: int) -> Table:
    if check_int(n) < 0:
        raise ValueError("index must be nonnegative")
    return _merge([(-1, 4 * n + 4, 0, n + 1, 0), (-1, -4 * n, 0, n - 1, 0),
                   (1, 4 * n, 0, n - 1, 0), (1, -4 * n + 4, 0, n - 3, 0),
                   (-1, 4 * n + 2, 1, n, 1), (1, -4 * n + 2, 1, n - 2, 1)] + _ksum(n, 0, 0))


def x1_T_closed(n: int) -> HbElement:
    """Closed form for X1*T_n(y) in the Chebyshev basis.

    At n = 0 the formula gives the value by linearity (T_0 = 2), twice the
    recursion seed; negative indices are rejected.
    """
    return _element(_x1_closed(n))


def _y1_closed(n: int) -> Table:
    if check_int(n) < 0:
        raise ValueError("index must be nonnegative")
    return _merge([(-1, 4 * n + 2, 0, n, 0), (-1, -4 * n - 2, 0, n, 0),
                   (1, -4 * n, 1, n - 1, 1), (-1, 4 * n, 1, n - 1, 1),
                   (1, 4 * n - 2, 0, n - 2, 0), (1, -4 * n + 2, 0, n - 2, 0)] + _ksum(n, 1, -2))


def y1_T_closed(n: int) -> HbElement:
    """Closed form for Y1*T_n(y) in the Chebyshev basis, n >= 0 as for x1_T_closed."""
    return _element(_y1_closed(n))


@ascending_memo
def _big_x_table(i: int) -> Table:
    """X_i's table by the three-term recursion, zeros dropped: the memo that the
    recursion and the residuals read, out of reach of big_x's callers."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if i < 2:
        return (_Y0, _X0)[i]
    acc = _add({(1, 0, 1, 2): -2}, _big_x_table(i - 1), {2: 1}, (1, -1))
    _add(acc, _big_x_table(i - 2), {4: -1})
    return {k: c for k, c in acc.items() if c}


# Keeps nothing; an lru_cache only because perfbench's memo census reads it by name.
@functools.lru_cache(maxsize=0)
def big_x(i: int) -> HbElement:
    """X_i by the three-term recursion, Chebyshev basis: a fresh element built
    from the table memo, which fills the indices below."""
    return _element(_big_x_table(i))


def _big_x_closed(i: int) -> Table:
    if check_int(i) < 0:
        raise ValueError("index must be nonnegative")
    return _merge([(-1, 2 * i + 2, 0, i, 0), (-1, 2 * i, 1, i - 1, 1), (1, 2 * i - 2, 0, i - 2, 0)]
                  + [(-2, 2 * i - 2 - 2 * k, 1, i - k - 2, 1) for k in range(i - 1)])


def big_x_closed(i: int) -> HbElement:
    """Closed form for X_i, i >= 0, in the Chebyshev basis.

    Solving the recursion gives positive leading t-exponents
    (-t^{2i+2} S_i(y) - t^{2i} xz S_{i-1}(y) + ...); the mirror-image variant
    with all t-exponents negated fails already at i = 1, and the test suite
    pins the distinction.
    """
    return _element(_big_x_closed(i))


def _sigma(n: int) -> Table:
    if check_int(n) < 1:
        raise ValueError("sigma is defined for n >= 1")
    return _merge([(-1, 4 * n + 5, 0, n + 1, 0), (-1, -4 * n + 1, 0, n - 1, 0),
                   (1, 4 * n + 1, 0, n - 1, 0), (1, -4 * n + 5, 0, n - 3, 0),
                   (-1, 4 * n + 3, 1, n, 1), (1, -4 * n + 3, 1, n - 2, 1),
                   (1, -1, 1, n, 1), (-1, -1, 1, n - 2, 1)] + _ksum(n, 0, 1))


def sigma(n: int) -> HbElement:
    """Closed form for sigma_n = t X1*T_n(y) + t^-1 x z T_n(y), n >= 1."""
    return _element(_sigma(n))


def _sigma_defining(n: int) -> Table:
    if check_int(n) < 1:
        raise ValueError("sigma is defined for n >= 1")
    return _add(_merge([(1, -1, 1, n, 1), (1, -1, 1, -n, 1)]), _oracle(n)[0], {1: 1})


def sigma_defining(n: int) -> HbElement:
    """sigma_n assembled from its definition, in the Chebyshev basis.

    X1*T_n(y) comes from the recursion oracle, so the result is independent
    of every closed form and cross-checks :func:`sigma`.
    """
    return _element(_sigma_defining(n))


def _residual(closed: Table, oracle: Table) -> HbElement:
    """closed - oracle, added into closed, as an element in the monomial basis."""
    return _element(_add(closed, oracle, {0: -1})).to_basis(MONOMIAL)


def x1_T_residual(n: int) -> HbElement:
    """x1_T_closed(n) minus the oracle x1y1_T_recursive(n).xpart, monomial basis."""
    return _residual(_x1_closed(n), _oracle(n)[0])


def y1_T_residual(n: int) -> HbElement:
    """y1_T_closed(n) minus the oracle x1y1_T_recursive(n).ypart, monomial basis."""
    return _residual(_y1_closed(n), _oracle(n)[1])


def sigma_residual(n: int) -> HbElement:
    """sigma(n) minus its definition sigma_defining(n), monomial basis."""
    return _residual(_sigma(n), _sigma_defining(n))


def big_x_residual(i: int) -> HbElement:
    """big_x_closed(i) minus the recursion big_x(i), monomial basis."""
    return _residual(_big_x_closed(i), _big_x_table(i))
