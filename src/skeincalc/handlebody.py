"""The skein module of the genus-two handlebody.

As a ring this is the polynomial ring Z[t, t^-1][x, y, z] on three disjoint
simple closed curves.  Elements carry one of two bases over the same key
space of triples (m, n, k):

* ``monomial``:   x^m y^n z^k
* ``chebyshev``:  S_m(x) S_n(y) S_k(z)

Elements add, subtract and scale by an int or LaurentPoly; there is no
product of two elements.  Int terms c t^e S_m S_n S_k with any integer
indices are summed by one merge into a flat table (m, n, k, e) -> c, which
the kernel's one step makes an element: :meth:`HbElement.cheb_sum` takes
such terms, checked, :mod:`skeincalc.families` builds its own, and
:meth:`HbElement.to_basis` converts an element one axis at a time into one.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .chebyshev import monomial_to_S, s_to_monomial
from .coeffs import LaurentPoly, Sparse, _grouped, check_key

MONOMIAL = "monomial"
CHEBYSHEV = "chebyshev"

Key = tuple[int, int, int]
Term = tuple[int, int, int, int, int]         # (c, e, m, n, k): c t^e S_m(x) S_n(y) S_k(z)
Table = dict[tuple[int, int, int, int], int]  # (m, n, k, e) -> c, zeros not yet dropped

# Per-axis change of basis, one index at a time: xi^m in S_j, or S_n in xi^j.
_AXIS_TABLE = {CHEBYSHEV: monomial_to_S, MONOMIAL: s_to_monomial}


def _merge(terms: Iterable[Term]) -> Table:
    """The int terms summed into a table by folded (m, n, k, e), zeros kept:
    S_{-1} = 0 and S_{-j} = -S_{j-2} on every axis."""
    acc: Table = {}
    get = acc.get
    for c, e, m, n, k in terms:
        if m == -1 or n == -1 or k == -1:
            continue
        if m < 0:
            c, m = -c, -m - 2
        if n < 0:
            c, n = -c, -n - 2
        if k < 0:
            c, k = -c, -k - 2
        key = (m, n, k, e)
        acc[key] = get(key, 0) + c
    return acc


def _element(acc: Table) -> HbElement:
    """The Chebyshev-basis element of a flat table, by the kernel's one step."""
    return HbElement(CHEBYSHEV)._like(_grouped(acc))


class HbElement(Sparse):
    """An element of the genus-two handlebody skein module."""

    __slots__ = ("_ctx",)
    _CONTEXT = ("basis",)

    def __init__(self, basis: str, terms: Mapping[Key, LaurentPoly | int] | None = None):
        if basis not in (MONOMIAL, CHEBYSHEV):
            raise ValueError(f"unknown basis {basis!r}")
        self._ctx = (basis,)
        super().__init__(terms)

    @property
    def basis(self) -> str:
        return self._ctx[0]

    @staticmethod
    def _key(key) -> Key:
        key = check_key(key, 3)
        if min(key) < 0:
            raise ValueError(f"negative index in basis key {key}")
        return key

    @staticmethod
    def cheb_sum(terms: Iterable[Term]) -> HbElement:
        """The sum of the int terms (c, e, m, n, k), any integer indices, checked.

        Negative indices are folded by S_{-1} = 0 and S_{-j} = -S_{j-2}, so
        closed-form expressions can be written down verbatim.

        >>> str(HbElement.cheb_sum([(3, 0, 1, 2, 0), (1, 0, 0, -1, 5), (1, 0, -3, 2, 0)]))
        '(2)*S_1(x)*S_2(y)'
        """
        return _element(_merge([check_key(term, 5) for term in terms]))

    def to_basis(self, basis: str) -> HbElement:
        """Convert to the requested basis (identity when already there)."""
        if basis == self.basis:
            return self
        if basis not in (MONOMIAL, CHEBYSHEV):
            raise ValueError(f"unknown basis {basis!r}")
        table, acc = _AXIS_TABLE[basis], {}
        for (m, n, k), c in self.terms.items():
            for jm, cm in table(m).items():
                for jn, cn in table(n).items():
                    for jk, ck in table(k).items():
                        for e, v in c.terms.items():
                            key = (jm, jn, jk, e)
                            acc[key] = acc.get(key, 0) + cm * cn * ck * v
        return HbElement(basis)._like(_grouped(acc))

    def _monomial(self, key: Key) -> str:
        if self.basis == MONOMIAL:
            factors = [f"{v}^{d}" if d > 1 else v for v, d in zip("xyz", key) if d]
        else:
            factors = [f"S_{d}({v})" for v, d in zip("xyz", key) if d]
        return "".join("*" + f for f in factors)

