"""Normalized Chebyshev polynomials and basis conversion.

S and T are the degree-n polynomials fixed by S_n(2cos a) = sin((n+1)a)/sin(a)
and T_n(2cos a) = 2cos(na).  Both satisfy the three-term recursion
P_{n+1} = xi*P_n - P_{n-1} with seeds S_0 = 1, S_1 = xi and T_0 = 2, T_1 = xi.
Indices extend to all of Z through S_{-1} = 0, S_{-n} = -S_{n-2} and
T_{-n} = T_n; every function here accepts arbitrary integer indices and
normalizes internally.

Polynomials are returned as dense integer coefficient tuples, constant term
first, which plug directly into :func:`skeincalc.coeffs.substitute_w`.
S-basis combinations are dicts mapping a nonnegative S-index to its integer
coefficient; :func:`monomial_to_S` and :func:`s_to_monomial` convert single
basis elements both ways.
"""

from __future__ import annotations

import functools
from typing import Mapping

from .coeffs import add_into


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
    if n >= 0:
        return (1, n)
    if n == -1:
        return None
    return (-1, -n - 2)


def _padd(a: tuple[int, ...], b: tuple[int, ...], bsign: int = 1) -> tuple[int, ...]:
    m = max(len(a), len(b))
    out = [0] * m
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += bsign * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _cheb_s_nonneg(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 1)
    shifted = (0,) + _cheb_s_nonneg(n - 1)
    return _padd(shifted, _cheb_s_nonneg(n - 2), -1)


@functools.lru_cache(maxsize=None)
def _cheb_t_nonneg(n: int) -> tuple[int, ...]:
    if n == 0:
        return (2,)
    if n == 1:
        return (0, 1)
    shifted = (0,) + _cheb_t_nonneg(n - 1)
    return _padd(shifted, _cheb_t_nonneg(n - 2), -1)


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
def monomial_to_S(m: int) -> dict[int, int]:
    """Expand xi^m in the S basis: xi^m = sum_j c_j S_j.

    Uses xi*S_j = S_{j+1} + S_{j-1} with S_{-1} = 0, so every index stays
    nonnegative.

    >>> monomial_to_S(3)
    {3: 1, 1: 2}
    """
    if m < 0:
        raise ValueError("monomial degree must be nonnegative")
    if m == 0:
        return {0: 1}
    out: dict[int, int] = {}
    for j, c in monomial_to_S(m - 1).items():
        add_into(out, j + 1, c)
        if j >= 1:
            add_into(out, j - 1, c)
    return out


@functools.lru_cache(maxsize=None)
def s_to_monomial(n: int) -> dict[int, int]:
    """Expand S_n, n >= 0, in monomials: S_n = sum_j c_j xi^j, zeros dropped.

    >>> s_to_monomial(3)
    {1: -2, 3: 1}
    """
    return {j: c for j, c in enumerate(cheb_S(n)) if c}


def s_combo_to_monomial(combo: Mapping[int, int]) -> tuple[int, ...]:
    """Expand an S-basis combination into dense monomial coefficients."""
    out: tuple[int, ...] = ()
    for j, c in combo.items():
        coeffs = cheb_S(j)
        out = _padd(out, tuple(c * v for v in coeffs))
    return out


def _fold(signed_indices) -> dict[int, int]:
    """Sum of sign * S_idx over (idx, sign) pairs, indices normalized."""
    out: dict[int, int] = {}
    for idx, sgn in signed_indices:
        norm = normalize_s_index(idx)
        if norm is not None:
            add_into(out, norm[1], sgn * norm[0])
    return out


def t_in_s(n: int) -> dict[int, int]:
    """T_n written in the S basis: T_n = S_n - S_{n-2}, indices normalized.

    >>> t_in_s(0)
    {0: 2}
    >>> t_in_s(4)
    {4: 1, 2: -1}
    """
    return _fold(((abs(n), 1), (abs(n) - 2, -1)))


def s_times_t(k: int, n: int) -> dict[int, int]:
    """The product identity S_k * T_n = S_{k+n} + S_{k-n} in the S basis.

    Valid for arbitrary integer k and n after index normalization.

    >>> s_times_t(3, 2)
    {5: 1, 1: 1}
    >>> s_times_t(0, 1)
    {1: 1}
    """
    return _fold(((k + abs(n), 1), (k - abs(n), 1)))


def s_product(a: int, b: int) -> dict[int, int]:
    """S_a * S_b = sum_{j=0}^{min(a,b)} S_{a+b-2j} for nonnegative a, b."""
    if a < 0 or b < 0:
        raise ValueError("s_product expects normalized (nonnegative) indices")
    lo, hi = min(a, b), max(a, b)
    return {hi - lo + 2 * j: 1 for j in range(lo + 1)}
