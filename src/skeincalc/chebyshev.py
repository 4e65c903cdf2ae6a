"""Normalized Chebyshev polynomials and basis conversion.

S and T are the degree-n polynomials fixed by S_n(2cos a) = sin((n+1)a)/sin(a)
and T_n(2cos a) = 2cos(na).  Both satisfy the three-term recursion
P_{n+1} = xi*P_n - P_{n-1} with seeds S_0 = 1, S_1 = xi and T_0 = 2, T_1 = xi,
and the tables are its closed forms, with C(a, -1) = 0:

    S_n = sum_{k <= n/2} (-1)^k C(n-k, k) xi^(n-2k),
    T_n = S_n - S_{n-2} = sum_{k <= n/2} (-1)^k (C(n-k, k) + C(n-k-1, k-1)) xi^(n-2k),
    xi^m = sum_{k <= m/2} (C(m, k) - C(m, k-1)) S_{m-2k}, the ballot numbers,

S_n for n >= 0, T_n for n >= 1 (T_0 = 2) and xi^m for m >= 0.  Indices
extend to all of Z through S_{-1} = 0, S_{-n} = -S_{n-2} and T_{-n} = T_n;
every function here accepts arbitrary integer indices and normalizes
internally.

Polynomials are returned as dense integer coefficient tuples, constant term
first.
S-basis combinations are mappings from a nonnegative S-index to its integer
coefficient; :func:`monomial_to_S` (a read-only view of its memo) and
:func:`s_to_monomial` (a fresh dict) convert single basis elements both
ways, and :func:`s_product` (a range of S-indices, each with coefficient 1)
multiplies without leaving the S basis.

No table recurses, so no index, however large, deepens the stack.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from types import MappingProxyType

from .coeffs import check_int


def normalize_s_index(n: int) -> tuple[int, int] | None:
    """Fold an arbitrary S-index into the range n >= 0.

    Returns (sign, index) with index >= 0, or None when S_n = 0 (n = -1).

    >>> normalize_s_index(5)
    (1, 5)
    >>> normalize_s_index(-1) is None
    True
    >>> normalize_s_index(-3)
    (-1, 1)
    """
    if n.__class__ is not int:
        n = check_int(n)
    if n >= 0:
        return (1, n)
    if n == -1:
        return None
    return (-1, -n - 2)


@functools.lru_cache(maxsize=None)
def _cheb_s_nonneg(n: int) -> tuple[int, ...]:
    """S_n, n >= 0: the coefficient of xi^(n-2k) is (-1)^k C(n-k, k)."""
    out = [0] * (check_int(n) + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (-1) ** k * math.comb(n - k, k)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _cheb_t_nonneg(n: int) -> tuple[int, ...]:
    """T_n, n >= 0: T_0 = 2, and for n >= 1 the binomials of S_n - S_{n-2}."""
    if check_int(n) == 0:
        return (2,)
    out = [0] * (n + 1)
    for k in range(n // 2 + 1):
        c = math.comb(n - k, k) + (math.comb(n - k - 1, k - 1) if k else 0)
        out[n - 2 * k] = (-1) ** k * c
    return tuple(out)


def cheb_S(n: int) -> tuple[int, ...]:
    """Dense coefficients of S_n, any integer n.

    >>> cheb_S(2)
    (-1, 0, 1)
    >>> cheb_S(-3) == tuple(-c for c in cheb_S(1))
    True
    """
    norm = normalize_s_index(n)
    if norm is None:
        return ()
    sign, idx = norm
    coeffs = _cheb_s_nonneg(idx)
    return coeffs if sign == 1 else tuple(-c for c in coeffs)


def cheb_T(n: int) -> tuple[int, ...]:
    """Dense coefficients of T_n, any integer n.

    >>> cheb_T(2)
    (-2, 0, 1)
    """
    return _cheb_t_nonneg(abs(n))


@functools.lru_cache(maxsize=None)
def monomial_to_S(m: int) -> Mapping[int, int]:
    """Expand xi^m in the S basis: xi^m = sum_j c_j S_j, as a read-only view
    of the memo's dict, so no caller can change a later conversion.

    The coefficient of S_{m-2k}, k <= m/2, is the ballot number
    C(m, k) - C(m, k-1); every index is nonnegative and no coefficient is 0.

    >>> dict(monomial_to_S(3))
    {3: 1, 1: 2}
    """
    if check_int(m) < 0:
        raise ValueError("monomial degree must be nonnegative")
    return MappingProxyType({m - 2 * k: math.comb(m, k) - (math.comb(m, k - 1) if k else 0)
                             for k in range(m // 2 + 1)})


def s_to_monomial(n: int) -> dict[int, int]:
    """Expand S_n, n >= 0, in monomials off cheb_S's memo: S_n = sum_j c_j xi^j, no zeros.

    >>> s_to_monomial(3)
    {1: -2, 3: 1}
    """
    return {j: c for j, c in enumerate(cheb_S(n)) if c}


def s_product(a: int, b: int) -> range:
    """S_a * S_b = sum_{j=0}^{min(a,b)} S_{a+b-2j}, a, b >= 0, as the range of its S-indices.

    >>> list(s_product(2, 3))
    [1, 3, 5]
    """
    if a < 0 or b < 0:
        raise ValueError("s_product expects normalized (nonnegative) indices")
    return range(abs(a - b), a + b + 1, 2)
