"""Quantum torus acting on the reduced-skein sequence.

An operator is a finite sum of terms c t^e S_j(x) M^a L^b in normal form (M
written left of L), held as an immutable tuple of int terms (c, e, j, a, b):
merged, zero-free and sorted, so equal operators are equal tuples.  The
coefficients commute, and x^2 - 2 = S_2(x) - S_0(x).  The one product rule is
L M = t^2 M L, the quantum-torus algebra of Frohman and Gelca ("Skein modules
and the noncommutative torus"), so collecting a product into normal form
costs L^b M^c = t^{2bc} M^c L^b, and S_j(x) S_k(x) is summed by s_product.
The action on a sequence f is

    (M^a L^b f)(n) = t^{2an} f(n + b)

with S_j(x) acting by multiplication inside the torus-knot module.  The
operators here annihilate the rt-reduced sequence; as f_rt(n) =
(-1)^n iota(f_kbsm(n)) (see torusknot), P kills f_rt exactly when P(M, -L)
kills f_kbsm.

A printed operator word such as t^3 L^{-p} M names its shift part (the
L-power) and its weight part (the M-power); it is stored here directly as the
operator t^3 M L^{-p}, without commutation factors.  Reading such words as
literal left-to-right products instead would scale each term by t^{2ab} and
break the annihilation property; the tests pin the distinction down.  The one
genuinely literal product in the interface is the multiplier
t^{2p+5} L^{p+2} M, which normal-orders to t^{4p+9} M L^{p+2}.

The operator identities return their residual as a QtElement, a printable
and JSON view with S_j(x) written back in powers of x.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

from .chebyshev import s_product, s_to_monomial
from .coeffs import AuxLaurent, LaurentPoly, Sparse, check_int, check_key
from .torusknot import Convention, JonesSequence, ReductionRule, TkElement, _context

QtKey = tuple[int, int]
Term = tuple[int, int, int, int, int]
Operator = tuple[Term, ...]


class QtElement(Sparse):
    """Normal-form element of the quantum torus: the view of an operator
    residual that prints and goes into the JSON report.  It has no product:
    * takes scalars only, as scale does.

    Coefficients are polynomials in x over the ground ring: AuxLaurent
    elements with nonnegative x-degrees.
    """

    __slots__ = ()

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
    def _monomial(key: QtKey) -> str:
        factors = [f"{v}^{d}" if d != 1 else v for v, d in zip("ML", key) if d]
        return " " + (" ".join(factors) or "1")


def _operator(terms: Iterable[Term]) -> Operator:
    """The operator summing the int terms: equal (e, j, a, b) merged, zeros dropped, sorted."""
    merged: dict[tuple[int, int, int, int], int] = {}
    for c, e, j, a, b in terms:
        key = (e, j, a, b)
        merged[key] = merged.get(key, 0) + c
    return tuple(sorted((c, *key) for key, c in merged.items() if c))


def _x2m2(c: int, e: int, a: int, b: int) -> tuple[Term, Term]:
    """c t^e (x^2-2) M^a L^b as its two int terms."""
    return (c, e, 2, a, b), (-c, e, 0, a, b)


def qt_mul(A: Operator, B: Operator) -> Operator:
    """Product, normal-ordered: (S_j M^a L^b)(S_k M^c L^d) = t^{2bc} S_j S_k M^{a+c} L^{b+d}."""
    return _operator((c1 * c2, e1 + e2 + 2 * b1 * a2, j, a1 + a2, b1 + b2)
                     for c1, e1, j1, a1, b1 in A for c2, e2, j2, a2, b2 in B
                     for j in s_product(j1, j2))


def _residual(A: Operator, B: Operator, at_t1: bool = False) -> QtElement:
    """A - B as a QtElement, S_j(x) written back in powers of x; with at_t1,
    specialized at t = 1 first, every t-exponent summed into t^0."""
    nested: dict[QtKey, dict[int, dict[int, int]]] = {}
    for sign, P in ((1, A), (-1, B)):
        for c, e, j, a, b in P:
            e = 0 if at_t1 else e
            for xd, k in s_to_monomial(j).items():
                lp = nested.setdefault((a, b), {}).setdefault(xd, {})
                lp[e] = lp.get(e, 0) + sign * c * k
    return QtElement({ab: AuxLaurent({xd: LaurentPoly(lp) for xd, lp in xs.items()})
                      for ab, xs in nested.items()})


def qt_apply(P: Operator, f: JonesSequence, n: int) -> TkElement:
    """Apply an operator to a sequence at the point n.

    Each term c t^e S_j(x) M^a L^b contributes t^{2an} c t^e S_j(x) f(n+b):
    one JonesSequence.sum of the int terms (c, e + 2an, j, n + b), n checked
    once.  P comes from a builder or qt_mul, so its terms are not checked again.
    """
    n = check_int(n)
    return f._sum([(c, e + 2 * a * n, j, b + n) for c, e, j, a, b in P])


@functools.lru_cache(maxsize=None)
def inhomog_recurrence(p: int) -> Operator:
    """The mixed-M operator annihilating the rt-reduced sequence.

    This is the one statement of the paper's six-term recursion, which
    rt_recursion_residual checks: applied at n, the terms below give

        t^{-2n-3} S_{n+p+1} + t^{2n+3} S_{n-p} - t^{-2n-1} (x^2-2) S_{n+p}
          - t^{2n+1} (x^2-2) S_{n-p-1} + t^{-2n+1} S_{n+p-1} + t^{2n-1} S_{n-p-2} = 0.
    """
    p, _ = _context(p, Convention.RT)
    return _operator([(1, -3, 0, -1, p + 1), (1, 3, 0, 1, -p),
                      *_x2m2(-1, -1, -1, p), *_x2m2(-1, 1, 1, -p - 1),
                      (1, 1, 0, -1, p - 1), (1, -1, 0, 1, -p - 2)])


def base_relation_op(p: int) -> Operator:
    """The two-term operator t^{-1} M^{-1} L^p + t M L^{-p-1}.

    Applied to the rt-reduced sequence at n it evaluates to
    t^{-2n-1} S_{n+p}(y) + t^{2n+1} S_{n-p-1}(y), the defining rt relation in
    solved form; left-multiplying by L + L^{-1} - (x^2-2) homogenizes it into
    inhomog_recurrence(p).
    """
    p, _ = _context(p, Convention.RT)
    return _operator([(1, -1, 0, -1, p), (1, 1, 0, 1, -p - 1)])


def homogenization_residual(p: int) -> QtElement:
    """(L + L^{-1} - (x^2-2)) * base_relation_op(p) - inhomog_recurrence(p), zero by the identity."""
    shift_combo = _operator([(1, 0, 0, 0, 1), (1, 0, 0, 0, -1), *_x2m2(-1, 0, 0, 0)])
    return _residual(qt_mul(shift_combo, base_relation_op(p)), inhomog_recurrence(p))


def product_multiplier(p: int) -> Operator:
    """The literal product t^{2p+5} L^{p+2} M in normal form, t^{4p+9} M L^{p+2}."""
    p, _ = _context(p, Convention.RT)
    return ((1, 4 * p + 9, 0, 1, p + 2),)


@functools.lru_cache(maxsize=None)
def recurrence_poly(p: int) -> Operator:
    """The M-positive operator: product_multiplier(p) * inhomog_recurrence(p).

    Written out in normal form it is

        t^{2p+2} L^{2p+3} - t^{2p+4} (x^2-2) L^{2p+2} + t^{2p+6} L^{2p+1}
        + t^{6p+16} M^2 L^2 - t^{6p+14} (x^2-2) M^2 L + t^{6p+12} M^2

    This explicit form is returned; product_identity_residual checks that it
    equals the product.  It annihilates the rt-reduced sequence, and at t = 1
    it collapses to (L^2 - (x^2-2) L + 1)(L^{2p+1} + M^2).
    """
    p, _ = _context(p, Convention.RT)
    return _operator([(1, 2 * p + 2, 0, 0, 2 * p + 3), *_x2m2(-1, 2 * p + 4, 0, 2 * p + 2),
                      (1, 2 * p + 6, 0, 0, 2 * p + 1), (1, 6 * p + 16, 0, 2, 2),
                      *_x2m2(-1, 6 * p + 14, 2, 1), (1, 6 * p + 12, 0, 2, 0)])


def product_identity_residual(p: int) -> QtElement:
    """The multiplier times the mixed operator, minus the explicit recurrence polynomial."""
    return _residual(qt_mul(product_multiplier(p), inhomog_recurrence(p)), recurrence_poly(p))


def rt_recursion_residual(p: int, n: int,
                          rule: ReductionRule | None = None) -> TkElement:
    """inhomog_recurrence(p) applied to the rt-reduced sequence at n, zero when
    it annihilates; the rule lets sign mutants show that the check can fail."""
    return qt_apply(inhomog_recurrence(p), JonesSequence(p, Convention.RT, rule), n)


def recurrence_poly_residual(p: int, n: int) -> TkElement:
    """recurrence_poly(p) applied to the rt-reduced sequence at n; zero when it annihilates."""
    return qt_apply(recurrence_poly(p), JonesSequence(p, Convention.RT), n)


def t1_factor_residual(p: int) -> QtElement:
    """At t = 1 the recurrence polynomial minus (L^2-(x^2-2)L+1)(L^{2p+1}+M^2), zero by the factorization.

    The product is formed in the quantum torus and then specialized: t = 1 is
    a ring map, so this is the same as multiplying at t = 1.  The residual's
    coefficients are all at t^0.
    """
    quadratic = _operator([(1, 0, 0, 0, 2), *_x2m2(-1, 0, 0, 1), (1, 0, 0, 0, 0)])
    binomial = ((1, 0, 0, 0, 2 * p + 1), (1, 0, 0, 2, 0))
    return _residual(recurrence_poly(p), qt_mul(quadratic, binomial), at_t1=True)
