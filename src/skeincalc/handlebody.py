"""The skein module of the genus-two handlebody.

As a ring this is the polynomial ring Z[t, t^-1][x, y, z] on three disjoint
simple closed curves.  Elements carry one of two bases over the same key
space of triples (m, n, k):

* ``monomial``:   x^m y^n z^k
* ``chebyshev``:  S_m(x) S_n(y) S_k(z)

Multiplication always happens in the monomial basis; Chebyshev products are
computed convert / multiply / convert.  The mirror map conjugates every
coefficient by t -> t^-1 and fixes the basis curves.
"""

from __future__ import annotations

from typing import Mapping

from .chebyshev import monomial_to_S, normalize_s_index, s_to_monomial, t_in_s
from .coeffs import ZERO, LaurentPoly, Sparse, add_into, as_laurent, check_key

MONOMIAL = "monomial"
CHEBYSHEV = "chebyshev"

Key = tuple[int, int, int]

# Per-axis change of basis, one index at a time: xi^m in S_j, or S_n in xi^j.
_AXIS_TABLE = {CHEBYSHEV: monomial_to_S, MONOMIAL: s_to_monomial}


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
    def zero(basis: str = MONOMIAL) -> HbElement:
        return HbElement(basis)

    @staticmethod
    def one(basis: str = MONOMIAL) -> HbElement:
        return HbElement(basis, {(0, 0, 0): 1})

    @staticmethod
    def mono(terms: Mapping[Key, LaurentPoly | int]) -> HbElement:
        return HbElement(MONOMIAL, terms)

    @staticmethod
    def cheb(terms: Mapping[Key, LaurentPoly | int]) -> HbElement:
        return HbElement(CHEBYSHEV, terms)

    @staticmethod
    def cheb_term(m: int, n: int, k: int, coeff: LaurentPoly | int = 1) -> HbElement:
        """S_m(x) S_n(y) S_k(z) with arbitrary integer indices.

        Negative indices are folded by S_{-1} = 0 and S_{-j} = -S_{j-2}, so
        closed-form expressions can be written down verbatim.
        """
        coeff = as_laurent(coeff)
        sign = 1
        idx = []
        for raw in (m, n, k):
            norm = normalize_s_index(raw)
            if norm is None:
                return HbElement(CHEBYSHEV)
            s, i = norm
            sign *= s
            idx.append(i)
        return HbElement(CHEBYSHEV, {tuple(idx): coeff * sign})

    @staticmethod
    def cheb_t_y(n: int, coeff: LaurentPoly | int = 1) -> HbElement:
        """T_n(y) as a Chebyshev-basis element."""
        coeff = as_laurent(coeff)
        return HbElement(CHEBYSHEV,
                         {(0, j, 0): coeff * c for j, c in t_in_s(n).items()})

    def __mul__(self, other: HbElement | LaurentPoly | int) -> HbElement:
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        if self._peer(other) is None:
            return NotImplemented
        if self.basis == MONOMIAL:
            out: dict[Key, LaurentPoly] = {}
            for (m1, n1, k1), c1 in self.terms.items():
                for (m2, n2, k2), c2 in other.terms.items():
                    add_into(out, (m1 + m2, n1 + n2, k1 + k2), c1 * c2)
            return self._like(out)
        prod = self.to_basis(MONOMIAL) * other.to_basis(MONOMIAL)
        return prod.to_basis(CHEBYSHEV)

    __rmul__ = __mul__

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

    def mirror(self) -> HbElement:
        """Apply the bar involution t -> t^-1 to every coefficient."""
        return self._like({k: c.bar() for k, c in self.terms.items()})

    def coefficient(self, m: int, n: int, k: int) -> LaurentPoly:
        return self.terms.get((m, n, k), ZERO)

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


def hb_mul(a: HbElement, b: HbElement) -> HbElement:
    """Product of two elements; mixed bases are multiplied in the monomial basis."""
    if a.basis != b.basis:
        return a.to_basis(MONOMIAL) * b.to_basis(MONOMIAL)
    return a * b
