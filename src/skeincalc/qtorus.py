"""Quantum torus acting on the reduced-skein sequence.

Elements are finite sums c_{a,b}(x) M^a L^b in normal form (M written left of
L), with coefficients in the commutative ring of Laurent-t polynomials in x.
Multiplication is determined by L M = t^2 M L, so collecting a product into
normal form costs L^b M^c = t^{2bc} M^c L^b.  The action on a sequence f is

    (M^a L^b f)(n) = t^{2an} f(n + b)

with x acting by multiplication inside the torus-knot module.

A printed operator word such as t^3 L^{-p} M names its shift part (the
L-power) and its weight part (the M-power); it is stored here directly as the
operator t^3 M L^{-p}, without commutation factors.  Reading such words as
literal left-to-right products instead would scale each term by t^{2ab} and
break the annihilation property; the tests pin the distinction down.  The one
genuinely literal product in the interface is the multiplier
t^{2p+5} L^{p+2} M, which normal-orders to t^{4p+9} M L^{p+2}.
"""

from __future__ import annotations

import functools

from .chebyshev import monomial_to_S
from .coeffs import (AuxLaurent, LaurentPoly, Sparse, add_into, check_int,
                     check_key, decode_int, t)
from .torusknot import Convention, JonesSequence, TkElement

QtKey = tuple[int, int]

# x^2 - 2 as a coefficient, the trace of the squared holonomy
X2_MINUS_2 = AuxLaurent({2: 1, 0: -2})


class QtElement(Sparse):
    """Normal-form element of the quantum torus.

    Coefficients are polynomials in x over the ground ring: AuxLaurent
    elements with nonnegative x-degrees.
    """

    __slots__ = ()
    _coeff_from_json = AuxLaurent.from_json

    @staticmethod
    def _key(key) -> QtKey:
        return check_key(key, 2)

    @staticmethod
    def _coeff(c: AuxLaurent | LaurentPoly | int) -> AuxLaurent:
        if c.__class__ is not AuxLaurent:
            c = AuxLaurent({0: c})
        if any(xd < 0 for xd in c.terms):
            raise ValueError("quantum-torus coefficients must have nonnegative x-degrees")
        return c

    @staticmethod
    def one() -> QtElement:
        return QtElement({(0, 0): 1})

    @staticmethod
    def monomial(a: int, b: int, coeff: AuxLaurent | LaurentPoly | int = 1) -> QtElement:
        """The element coeff * M^a L^b."""
        return QtElement({(a, b): coeff})

    def __mul__(self, other: QtElement | AuxLaurent | LaurentPoly | int) -> QtElement:
        if isinstance(other, QtElement):
            return qt_mul(self, other)
        if isinstance(other, (AuxLaurent, LaurentPoly, int)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    @staticmethod
    def _monomial(key: QtKey) -> str:
        factors = [f"{v}^{d}" if d != 1 else v for v, d in zip("ML", key) if d]
        return " " + (" ".join(factors) or "1")


L = QtElement.monomial(0, 1)
L_INV = QtElement.monomial(0, -1)
M = QtElement.monomial(1, 0)
M_INV = QtElement.monomial(-1, 0)


def qt_mul(a: QtElement, b: QtElement) -> QtElement:
    """Product, normal-ordered: (M^a L^b)(M^c L^d) = t^{2bc} M^{a+c} L^{b+d}."""
    out: dict[QtKey, AuxLaurent] = {}
    for (a1, b1), c1 in a.terms.items():
        for (a2, b2), c2 in b.terms.items():
            add_into(out, (a1 + a2, b1 + b2), c1 * c2 * t(2 * b1 * a2))
    return a._like(out)


def qt_apply(P: QtElement, f: JonesSequence, n: int) -> TkElement:
    """Apply an operator to a sequence at the point n.

    Each term c(x) M^a L^b contributes t^{2an} c(x) f(n+b), with powers of x
    expanded into S_j(x) before multiplying into the module element.
    """
    out = TkElement.zero(f.p, f.convention)
    for (a, b), coeff in P.terms.items():
        shifted = f(n + b)
        weight = t(2 * a * n)
        for xd, lp in coeff.terms.items():
            scale = lp * weight
            for sj, cnt in monomial_to_S(xd).items():
                out = out + shifted.times_sx(sj) * (scale * cnt)
    return out


@functools.lru_cache(maxsize=None)
def inhomog_recurrence(p: int) -> QtElement:
    """The mixed-M operator annihilating the reduced sequence.

    Its six terms are t^{-3} M^{-1} L^{p+1} + t^3 M L^{-p}
    - t^{-1} (x^2-2) M^{-1} L^p - t (x^2-2) M L^{-p-1}
    + t M^{-1} L^{p-1} + t^{-1} M L^{-p-2}.  Applied at n this is exactly the
    six-term homogeneous recursion of torusknot.rt_recursion_residual.
    """
    if p < 1:
        raise ValueError("knot parameter p must be >= 1")
    neg = -X2_MINUS_2
    return QtElement({
        (-1, p + 1): t(-3),
        (1, -p): t(3),
        (-1, p): neg * t(-1),
        (1, -p - 1): neg * t(1),
        (-1, p - 1): t(1),
        (1, -p - 2): t(-1),
    })


def base_relation_op(p: int) -> QtElement:
    """The two-term operator t^{-1} M^{-1} L^p + t M L^{-p-1}.

    Applied to the rt-reduced sequence at n it evaluates to
    t^{-2n-1} S_{n+p}(y) + t^{2n+1} S_{n-p-1}(y), the defining rt relation in
    solved form; left-multiplying by L + L^{-1} - (x^2-2) homogenizes it into
    inhomog_recurrence(p).
    """
    if p < 1:
        raise ValueError("knot parameter p must be >= 1")
    return QtElement({(-1, p): t(-1), (1, -p - 1): t(1)})


def homogenization_residual(p: int) -> QtElement:
    """(L + L^{-1} - (x^2-2)) * base_relation_op(p) - inhomog_recurrence(p), zero by the identity."""
    shift_combo = L + L_INV - QtElement.monomial(0, 0, X2_MINUS_2)
    return qt_mul(shift_combo, base_relation_op(p)) - inhomog_recurrence(p)


def product_multiplier(p: int) -> QtElement:
    """The literal product t^{2p+5} L^{p+2} M in normal form, t^{4p+9} M L^{p+2}."""
    if p < 1:
        raise ValueError("knot parameter p must be >= 1")
    return QtElement({(1, p + 2): t(4 * p + 9)})


@functools.lru_cache(maxsize=None)
def recurrence_poly(p: int) -> QtElement:
    """The M-positive operator: product_multiplier(p) * inhomog_recurrence(p).

    Written out in normal form it is

        t^{2p+2} L^{2p+3} - t^{2p+4} (x^2-2) L^{2p+2} + t^{2p+6} L^{2p+1}
        + t^{6p+16} M^2 L^2 - t^{6p+14} (x^2-2) M^2 L + t^{6p+12} M^2

    and the function asserts this explicit form equals the computed product.
    It annihilates the rt-reduced sequence, and at t = 1 it collapses to
    (L^2 - (x^2-2) L + 1)(L^{2p+1} + M^2).
    """
    if p < 1:
        raise ValueError("knot parameter p must be >= 1")
    neg = -X2_MINUS_2
    explicit = QtElement({
        (0, 2 * p + 3): t(2 * p + 2),
        (0, 2 * p + 2): neg * t(2 * p + 4),
        (0, 2 * p + 1): t(2 * p + 6),
        (2, 2): t(6 * p + 16),
        (2, 1): neg * t(6 * p + 14),
        (2, 0): t(6 * p + 12),
    })
    product = qt_mul(product_multiplier(p), inhomog_recurrence(p))
    if explicit != product:
        raise AssertionError("recurrence polynomial disagrees with the operator product")
    return explicit


def product_identity_residual(p: int) -> QtElement:
    """The multiplier times the mixed operator, minus the explicit recurrence polynomial."""
    return qt_mul(product_multiplier(p), inhomog_recurrence(p)) - recurrence_poly(p)


def mixed_operator_residual(p: int, n: int) -> TkElement:
    """inhomog_recurrence(p) applied to the rt-reduced sequence at n; zero when it annihilates."""
    return qt_apply(inhomog_recurrence(p), JonesSequence(p, Convention.RT), n)


def recurrence_poly_residual(p: int, n: int) -> TkElement:
    """recurrence_poly(p) applied to the rt-reduced sequence at n; zero when it annihilates."""
    return qt_apply(recurrence_poly(p), JonesSequence(p, Convention.RT), n)


class CommutativePoly(Sparse):
    """Commutative polynomial in x, L, M with integer coefficients (the t = 1 world).

    Keys are (x-degree, L-power, M-power).  Kept as a separate type so
    specialized and unspecialized elements cannot be mixed by accident.
    """

    __slots__ = ()
    _coeff = staticmethod(check_int)
    _coeff_from_json = staticmethod(decode_int)

    @staticmethod
    def _key(key) -> tuple[int, int, int]:
        return check_key(key, 3)

    @classmethod
    def from_qt(cls, elem: QtElement) -> CommutativePoly:
        """Specialize t = 1: every Laurent coefficient becomes its integer value."""
        out: dict[tuple[int, int, int], int] = {}
        for (a, b), coeff in elem.terms.items():
            for xd, lp in coeff.terms.items():
                add_into(out, (xd, b, a), lp.substitute_one())
        return cls(out)

    def __mul__(self, other: CommutativePoly) -> CommutativePoly:
        if other.__class__ is not CommutativePoly:
            return NotImplemented
        out: dict[tuple[int, int, int], int] = {}
        for (x1, l1, m1), c1 in self.terms.items():
            for (x2, l2, m2), c2 in other.terms.items():
                add_into(out, (x1 + x2, l1 + l2, m1 + m2), c1 * c2)
        return self._like(out)

    @staticmethod
    def _monomial(key: tuple[int, int, int]) -> str:
        return "".join(f"*{v}^{d}" if d != 1 else f"*{v}" for v, d in zip("xLM", key) if d)


def t1_factor_residual(p: int) -> CommutativePoly:
    """At t = 1 the recurrence polynomial minus (L^2-(x^2-2)L+1)(L^{2p+1}+M^2), zero by the factorization."""
    specialized = CommutativePoly.from_qt(recurrence_poly(p))
    quadratic = CommutativePoly({(0, 2, 0): 1, (2, 1, 0): -1, (0, 1, 0): 2,
                                 (0, 0, 0): 1})
    binomial = CommutativePoly({(0, 2 * p + 1, 0): 1, (0, 0, 2): 1})
    return specialized - quadratic * binomial
