"""Normalized Chebyshev polynomials and basis conversion.

S and T are the degree-n polynomials fixed by S_n(2cos a) = sin((n+1)a)/sin(a)
and T_n(2cos a) = 2cos(na).  Both satisfy the three-term recursion
P_{n+1} = xi*P_n - P_{n-1} with seeds S_0 = 1, S_1 = xi and T_0 = 2, T_1 = xi.
Indices extend to all of Z through S_{-1} = 0, S_{-n} = -S_{n-2} and
T_{-n} = T_n; every function here accepts arbitrary integer indices and
normalizes internally.

Polynomials are returned as dense integer coefficient tuples, constant term
first.
S-basis combinations are mappings from a nonnegative S-index to its integer
coefficient; :func:`monomial_to_S` (a read-only view of its memo) and
:func:`s_to_monomial` (a fresh dict) convert single basis elements both
ways, and :func:`s_product` (a range of S-indices, each with coefficient 1)
multiplies without leaving the S basis.

The memoised tables are filled in ascending order (:func:`ascending_memo`),
so no index, however large, deepens the stack.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from types import MappingProxyType

from .coeffs import add_into, check_int


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


def ascending_memo(fn):
    """An unbounded lru_cache for a recursion on n >= 0 that only looks below n.

    On a miss at n, every index from the lowest one not yet filled up to n - 1
    is evaluated first, in ascending order.  Each evaluation then finds its
    predecessors cached, so the stack depth does not grow with n.  lru_cache
    keys 2.0 by its argument tuple, not as 2, so 2.0 reaches the TypeError.
    """
    filled = 0  # the memo holds every index below this one

    @functools.wraps(fn)
    def ascending(n):
        nonlocal filled
        check_int(n)
        filled = min(filled, memo.cache_info().currsize)  # 0 after a cache_clear()
        while filled < n:
            memo(filled)
            filled += 1
        return fn(n)

    memo = functools.lru_cache(maxsize=None)(ascending)
    return memo


def _psub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a - b as dense coefficient tuples, trailing zeros dropped."""
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _three_term(seed: tuple[int, ...]):
    """The memo of P_n, n >= 0, for P_0 = seed, P_1 = xi and P_{n+1} = xi*P_n - P_{n-1}."""
    @ascending_memo
    def table(n: int) -> tuple[int, ...]:
        if n < 2:
            return (seed, (0, 1))[n]
        return _psub((0,) + table(n - 1), table(n - 2))
    return table


_cheb_s_nonneg = _three_term((1,))
_cheb_t_nonneg = _three_term((2,))


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


@ascending_memo
def monomial_to_S(m: int) -> Mapping[int, int]:
    """Expand xi^m in the S basis: xi^m = sum_j c_j S_j, as a read-only view
    of the memo's dict, so no caller can change a later conversion.

    Uses xi*S_j = S_{j+1} + S_{j-1} with S_{-1} = 0, so every index stays
    nonnegative.

    >>> dict(monomial_to_S(3))
    {3: 1, 1: 2}
    """
    if m < 0:
        raise ValueError("monomial degree must be nonnegative")
    if m == 0:
        return MappingProxyType({0: 1})
    out: dict[int, int] = {}
    for j, c in monomial_to_S(m - 1).items():
        add_into(out, j + 1, c)
        if j >= 1:
            add_into(out, j - 1, c)
    return MappingProxyType(out)


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
