"""The skein module of the genus-two handlebody.

As a ring this is the polynomial ring Z[t, t^-1][x, y, z] on three disjoint
simple closed curves.  Elements carry one of two bases over the same key
space of triples (m, n, k):

* ``monomial``:   x^m y^n z^k
* ``chebyshev``:  S_m(x) S_n(y) S_k(z)

Products stay in their operands' basis.  Exponents add in the monomial basis;
in the Chebyshev basis each axis multiplies by the product-to-sum rule
S_a S_b = sum_j S_{a+b-2j} (:func:`skeincalc.chebyshev.s_product`).  No
product converts between bases: monomial coefficients of Chebyshev-basis
elements grow exponentially with the index.  Int terms c t^e S_m S_n S_k
with any integer indices are summed by one merge into a flat table
(m, n, k, e) -> c, built into an element once; :meth:`HbElement.cheb_sum`
and :mod:`skeincalc.families` use it.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .chebyshev import monomial_to_S, s_product, s_to_monomial
from .coeffs import LaurentPoly, Sparse, add_into, as_laurent, check_key

MONOMIAL = "monomial"
CHEBYSHEV = "chebyshev"

Key = tuple[int, int, int]
Term = tuple[int, int, int, int, int]         # (c, e, m, n, k): c t^e S_m(x) S_n(y) S_k(z)
Table = dict[tuple[int, int, int, int], int]  # (m, n, k, e) -> c, zeros not yet dropped

# Per-axis change of basis, one index at a time: xi^m in S_j, or S_n in xi^j.
_AXIS_TABLE = {CHEBYSHEV: monomial_to_S, MONOMIAL: s_to_monomial}

# Per-axis product of two basis indices: the indices of the product's terms,
# each with coefficient 1.
_AXIS_PRODUCT = {MONOMIAL: lambda a, b: (a + b,), CHEBYSHEV: s_product}


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
    """The Chebyshev-basis element of a flat table: the one place its entries
    are grouped by (m, n, k), zeros dropped and each coefficient built."""
    grouped: dict[Key, dict[int, int]] = {}
    for (m, n, k, e), c in acc.items():
        if c:
            grouped.setdefault((m, n, k), {})[e] = c
    like = LaurentPoly()._like
    return HbElement(CHEBYSHEV)._like({key: like(cs) for key, cs in grouped.items()})


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
    def mono(terms: Mapping[Key, LaurentPoly | int]) -> HbElement:
        return HbElement(MONOMIAL, terms)

    @staticmethod
    def cheb_sum(terms: Iterable[tuple[int, int, int, LaurentPoly | int]]) -> HbElement:
        """The sum of c S_m(x) S_n(y) S_k(z) over (m, n, k, c) terms, any integer indices.

        Negative indices are folded by S_{-1} = 0 and S_{-j} = -S_{j-2}, so
        closed-form expressions can be written down verbatim.  A Laurent
        coefficient enters :func:`_merge` as one int term per monomial.

        >>> str(HbElement.cheb_sum([(1, 2, 0, 3), (0, -1, 5, 1), (-3, 2, 0, 1)]))
        '(2)*S_1(x)*S_2(y)'
        """
        rows: list[Term] = []
        for *idx, c in terms:
            m, n, k = check_key(tuple(idx), 3)
            rows += [(v, e, m, n, k) for e, v in as_laurent(c).terms.items()]
        return _element(_merge(rows))

    def _product(self, other: HbElement) -> HbElement:
        axis = _AXIS_PRODUCT[self.basis]
        out: dict[Key, LaurentPoly] = {}
        for (m1, n1, k1), c1 in self.terms.items():
            for (m2, n2, k2), c2 in other.terms.items():
                c = c1 * c2
                ys, zs = axis(n1, n2), axis(k1, k2)
                for jm in axis(m1, m2):
                    for jn in ys:
                        for jk in zs:
                            add_into(out, (jm, jn, jk), c)
        return self._like(out)

    def to_basis(self, basis: str) -> HbElement:
        """Convert to the requested basis (identity when already there)."""
        if basis not in (MONOMIAL, CHEBYSHEV):
            raise ValueError(f"unknown basis {basis!r}")
        if basis == self.basis:
            return self
        table = _AXIS_TABLE[basis]
        out: dict[Key, LaurentPoly] = {}
        for (m, n, k), c in self.terms.items():
            ys, zs = table(n), table(k)
            for jm, cm in table(m).items():
                for jn, cn in ys.items():
                    w = cm * cn
                    for jk, ck in zs.items():
                        add_into(out, (jm, jn, jk), c * (w * ck))
        return HbElement(basis)._like(out)

    def to_json(self) -> dict:
        return {"basis": self.basis, "terms": self._json_rows()}

    def _monomial(self, key: Key) -> str:
        if self.basis == MONOMIAL:
            factors = [f"{v}^{d}" if d > 1 else v for v, d in zip("xyz", key) if d]
        else:
            factors = [f"S_{d}({v})" for v, d in zip("xyz", key) if d]
        return "".join("*" + f for f in factors)


X = HbElement.mono({(1, 0, 0): 1})
Y = HbElement.mono({(0, 1, 0): 1})
Z = HbElement.mono({(0, 0, 1): 1})
