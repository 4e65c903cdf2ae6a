"""Independent oracles the tests compare the library against.

None of these is reached by a command of the package: each restates a map or
a sum the library computes another way, so a test can check one route
against the other.

* :func:`t`, the shorthand c t^e, and the generators X, Y and Z of the
  handlebody in the monomial basis;
* :func:`hb_mul`, the product of two handlebody elements in their basis, and
  :func:`x1y1_monomial`, the pair X1*y^n, Y1*y^n by its coupled recursion in
  the monomial basis, built on it: the library sums the pair's T_n oracle
  instead and has no handlebody product;
* the mirror involution t -> t^-1, on LaurentPoly (:func:`bar`) and
  HbElement (:func:`mirror`);
* :func:`times_t_y`, the product with T_n(y) by S_j T_n = S_{j+n} + S_{j-n};
* :func:`hb_table`, the flat table of a Chebyshev-basis element;
* :class:`AuxLaurent`, Laurent polynomials in one auxiliary variable over
  Z[t, t^-1] with their product, and :func:`substitute_w`, Horner evaluation
  at an AuxLaurent argument, for the w-identities that certify the Chebyshev
  tables;
* :func:`embed`, the image of a handlebody element in the torus-knot module,
  and :func:`times_sx`, the action of S_j(x) on that module: the library
  passes S_k(x) f(n) to JonesSequence's sum as an int term instead;
* :func:`a_element`, the telescoping sum A_n from its defining terms;
* :func:`from_json`, the strict inverse of every ``to_json``, for round trips.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

from skeincalc.chebyshev import normalize_s_index, s_product
from skeincalc.coeffs import LaurentPoly, Sparse, add_into, check_int
from skeincalc.families import FamilyPair
from skeincalc.handlebody import CHEBYSHEV, MONOMIAL, HbElement, _element, _merge
from skeincalc.torusknot import Convention, JonesSequence, ReductionRule, TkElement


def t(exp: int, coeff: int = 1) -> LaurentPoly:
    """Shorthand for the monomial coeff * t^exp."""
    return LaurentPoly({exp: coeff})


X = HbElement(MONOMIAL, {(1, 0, 0): 1})
Y = HbElement(MONOMIAL, {(0, 1, 0): 1})
Z = HbElement(MONOMIAL, {(0, 0, 1): 1})


def hb_mul(a: HbElement, b: HbElement) -> HbElement:
    """The product of two elements of one basis: exponents add on each axis in
    the monomial basis, S_a S_b = sum_j S_{a+b-2j} in the Chebyshev basis."""
    if a.basis != b.basis:
        raise ValueError(f"cannot multiply a {a.basis} by a {b.basis} element")
    axis = s_product if a.basis == CHEBYSHEV else lambda i, j: (i + j,)
    out: dict = {}
    for (m1, n1, k1), c1 in a.terms.items():
        for (m2, n2, k2), c2 in b.terms.items():
            c = c1 * c2
            for jm in axis(m1, m2):
                for jn in axis(n1, n2):
                    for jk in axis(k1, k2):
                        add_into(out, (jm, jn, jk), c)
    return HbElement(a.basis, out)


@functools.lru_cache(maxsize=None)
def x1y1_monomial(n: int) -> FamilyPair:
    """(X1*y^n, Y1*y^n) in the monomial basis by the coupled recursion

        X1*y^(n+1) = t^4 y (X1*y^n) + (t^-2 - t^6)(Y1*y^n) + (1 - t^4)(x^2 + z^2) y^n
        Y1*y^(n+1) = t^-4 y (Y1*y^n) + (t^2 - t^-6)(X1*y^n) + 2 (1 - t^-4) x z y^n

    from X1*y^0 = -t^4 y - t^2 x z and Y1*y^0 = -t^2 - t^-2."""
    if check_int(n) < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return FamilyPair(0, HbElement(MONOMIAL, {(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)}),
                          HbElement(MONOMIAL, {(0, 0, 0): t(2, -1) + t(-2, -1)}))
    prev = x1y1_monomial(n - 1)
    ypow = HbElement(MONOMIAL, {(0, n - 1, 0): 1})
    xpart = (hb_mul(prev.xpart, Y) * t(4) + prev.ypart * (t(-2) - t(6))
             + hb_mul(hb_mul(X, X) + hb_mul(Z, Z), ypow) * (1 - t(4)))
    ypart = (hb_mul(prev.ypart, Y) * t(-4) + prev.xpart * (t(2) - t(-6))
             + hb_mul(hb_mul(X, Z), ypow) * ((1 - t(-4)) * 2))
    return FamilyPair(n, xpart, ypart)


def bar(a: LaurentPoly) -> LaurentPoly:
    """The mirror involution t -> t^-1."""
    return LaurentPoly({-e: c for e, c in a.terms.items()})


def mirror(h: HbElement) -> HbElement:
    """bar applied to every coefficient; the basis curves are fixed."""
    return HbElement(h.basis, {k: bar(c) for k, c in h.terms.items()})


def times_t_y(h: HbElement, n: int) -> HbElement:
    """T_n(y) times a Chebyshev-basis element, any integer n: each term gives
    at most two, as T_0 = 2 and T_{-n} = T_n."""
    if h.basis != CHEBYSHEV:
        raise ValueError("times_t_y needs a Chebyshev-basis element")
    n = abs(check_int(n))
    return _element(_merge([(c, e, m, j + s, k) for (m, j, k), cf in h.terms.items()
                            for e, c in cf.terms.items() for s in (n, -n)]))


def hb_table(h: HbElement) -> dict:
    """The flat table (m, n, k, e) -> c of a Chebyshev-basis element, the
    inverse of handlebody._element."""
    return {(m, n, k, e): c for (m, n, k), cf in h.terms.items() for e, c in cf.terms.items()}


class AuxLaurent(Sparse):
    """A Laurent polynomial in one auxiliary variable over Z[t, t^-1]: keys
    are int exponents, values nonzero LaurentPoly coefficients, and * is the
    ring product with a peer, exponents adding; an int or LaurentPoly scales.
    Its JSON form is [[exp, {laurent}], ...] in ascending exp."""

    __slots__ = ()

    _key = staticmethod(check_int)

    def __mul__(self, other):
        if other.__class__ is not AuxLaurent:
            return Sparse.__mul__(self, other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_into(out, e1 + e2, c1 * c2)
        return self._like(out)

    __rmul__ = __mul__

    def to_json(self) -> list:
        return [[e, c.to_json()] for e, c in sorted(self.terms.items())]

    @staticmethod
    def _monomial(e: int) -> str:
        return f"*x^{e}" if e else ""


def substitute_w(coeffs: Iterable[int | LaurentPoly], value: AuxLaurent) -> AuxLaurent:
    """The polynomial with the given coefficients, constant term first, at
    value, by Horner's scheme in the exact ring."""
    result = AuxLaurent()
    for c in reversed(list(coeffs)):
        result = result * value + AuxLaurent({0: c})
    return result


def embed(h: HbElement, p: int, c: Convention,
          rule: ReductionRule | None = None) -> TkElement:
    """Image of a handlebody element: z maps to x, then y-indices are reduced.

    Reduction commutes with multiplication by x (embed(S_j(x) h) is
    times_sx(embed(h), j)) but not with multiplication by y, so a product with
    y-content is formed in the handlebody before it is embedded.
    """
    return JonesSequence(p, c, rule)._sum(
        (v, e, i, n) for (m, n, k), cf in h.to_basis(CHEBYSHEV).terms.items()
        for e, v in cf.terms.items() for i in s_product(m, k))


def times_sx(h: TkElement, j: int) -> TkElement:
    """Multiply by S_j(x); j may be any integer, folded by S_{-j} = -S_{j-2}."""
    norm = normalize_s_index(j)
    if norm is None:
        return h._like({})
    sign, jj = norm
    return JonesSequence(h.p, h.convention)._sum(
        (sign * v, e, i, n) for (m, n), cf in h.terms.items()
        for e, v in cf.terms.items() for i in s_product(jj, m))


def a_terms(p: int, n: int, e: int = 0, s: int = 1) -> list[tuple[int, int, int, int]]:
    """s t^e A_n as its defining int terms (c, e, i, N) of JonesSequence.sum."""
    return ([(s, 2 * k + e, 0, n - k) for k in range(2 * n)]
            + [(s, e - 2 * k, 0, n + k) for k in range(1, 2 * p - 1)])


def a_element(p: int, n: int, c: Convention = Convention.KBSM,
              rule: ReductionRule | None = None) -> TkElement:
    """The telescoping sum A_n, fully reduced.

    A_n = sum_{k=0}^{2n-1} t^{2k} S_{n-k}(y) + sum_{k=1}^{2p-2} t^{-2k} S_{n+k}(y).
    The first sum starts at k = 0: with a k = 1 start the telescoping identity
    fails already at p = 1, n = 1.
    """
    f = JonesSequence(p, c, rule)
    return f._sum(a_terms(f.p, check_int(n)))


def _decimal(s) -> int:
    if not isinstance(s, str):
        raise TypeError(f"expected a decimal string coefficient, got {s!r}")
    return int(s)


def _rows(rows, decode) -> dict:
    """{key: decode(coeff)} from [*key, coeff] rows, a one-int key unwrapped."""
    return {key[0] if len(key) == 1 else tuple(key): decode(c) for *key, c in rows}


def _laurent(data) -> LaurentPoly:
    return LaurentPoly(_rows(data["t"], _decimal))


def _aux(data) -> AuxLaurent:
    return AuxLaurent(_rows(data, _laurent))


def from_json(cls: type, data) -> Sparse:
    """The element of type cls whose to_json is data: the context fields,
    then the "terms" rows.  Any malformed input raises ValueError."""
    try:
        if cls is LaurentPoly:
            return _laurent(data)
        if cls is AuxLaurent:
            return _aux(data)
        return cls(*(data[name] for name in cls._CONTEXT), _rows(data["terms"], _laurent))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {cls.__name__} JSON: {exc}") from exc
