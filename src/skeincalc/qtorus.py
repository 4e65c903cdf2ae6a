"""Quantum torus acting on the reduced-skein sequence.

An operator is a finite sum of terms c t^e S_j(x) M^a L^b in normal form (M
written left of L), held as an Operator, an immutable tuple of int terms
(c, e, j, a, b): checked, S-indices folded, merged, zero-free and sorted, so
equal operators are equal tuples.  The coefficients commute, and
x^2 - 2 = S_2(x) - S_0(x).  The one product rule is L M = t^2 M L, the
quantum-torus algebra of Frohman and Gelca ("Skein modules and the
noncommutative torus"), so collecting a product into normal form costs
L^b M^c = t^{2bc} M^c L^b, and S_j(x) S_k(x) is summed by s_product.
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

The operator identities return their residual as a QtElement, a flat table
(a, b, d, e) -> c for c t^e x^d M^a L^b made an element by the kernel's one
step; it prints and serializes as every element does.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

from .chebyshev import s_product, s_to_monomial
from .coeffs import Sparse, _grouped, check_int, check_key
from .torusknot import Convention, JonesSequence, ReductionRule, TkElement, _context

QtKey = tuple[int, int, int]
Term = tuple[int, int, int, int, int]


class QtElement(Sparse):
    """Normal-form element of the quantum torus, the view of an operator
    residual: a key (a, b, d), d >= 0, stands for x^d M^a L^b and prints as
    *x^d*M^a*L^b.  It has no product: * takes an int or a LaurentPoly."""

    __slots__ = ()

    @staticmethod
    def _key(key) -> QtKey:
        key = check_key(key, 3)
        if key[2] < 0:
            raise ValueError("quantum-torus coefficients must have nonnegative x-degrees")
        return key

    @staticmethod
    def _monomial(key: QtKey) -> str:
        a, b, d = key
        factors = zip("xML", (d, a, b))
        return "".join(f"*{v}" if k == 1 else f"*{v}^{k}" for v, k in factors if k)


class Operator(tuple):
    """The operator summing int terms, the one builder: each term checked as
    five ints, j folded by S_{-1} = 0 and S_{-j} = -S_{j-2}, equal
    (e, j, a, b) merged, zeros dropped, sorted."""

    __slots__ = ()

    def __new__(cls, terms: Iterable[Term]) -> Operator:
        merged: dict[tuple[int, ...], int] = {}
        for term in terms:
            c, e, j, a, b = check_key(term, 5)
            if j < 0:
                if j == -1:
                    continue
                c, j = -c, -j - 2
            key = (e, j, a, b)
            merged[key] = merged.get(key, 0) + c
        return super().__new__(cls, sorted((c, *key) for key, c in merged.items() if c))


def _x2m2(c: int, e: int, a: int, b: int) -> tuple[Term, Term]:
    """c t^e (x^2-2) M^a L^b as its two int terms."""
    return (c, e, 2, a, b), (-c, e, 0, a, b)


def qt_mul(A: Iterable[Term], B: Iterable[Term]) -> Operator:
    """Product, normal-ordered: (S_j M^a L^b)(S_k M^c L^d) = t^{2bc} S_j S_k M^{a+c} L^{b+d}."""
    A, B = (P if P.__class__ is Operator else Operator(P) for P in (A, B))
    return Operator((c1 * c2, e1 + e2 + 2 * b1 * a2, j, a1 + a2, b1 + b2)
                    for c1, e1, j1, a1, b1 in A for c2, e2, j2, a2, b2 in B
                    for j in s_product(j1, j2))


def _at_t1(P: Operator) -> Operator:
    """P under the ring map t -> 1: every t-exponent set to 0, equal terms merged."""
    return Operator((c, 0, j, a, b) for c, _, j, a, b in P)


def _residual(A: Operator, B: Operator) -> QtElement:
    """A - B as a QtElement, S_j(x) written back in powers of x."""
    acc: dict[tuple[int, int, int, int], int] = {}
    for sign, P in ((1, A), (-1, B)):
        for c, e, j, a, b in P:
            for d, k in s_to_monomial(j).items():
                key = (a, b, d, e)
                acc[key] = acc.get(key, 0) + sign * c * k
    return QtElement()._like(_grouped(acc))


def qt_apply(P: Iterable[Term], f: JonesSequence, n: int) -> TkElement:
    """Apply an operator to a sequence at the point n.

    Each term c t^e S_j(x) M^a L^b contributes t^{2an} c t^e S_j(x) f(n+b):
    one JonesSequence.sum of the int terms (c, e + 2an, j, n + b), n checked
    once.  An Operator's terms were checked when it was built, so they are
    not checked again; any other iterable of terms is built into one first.
    """
    if not isinstance(f, JonesSequence):
        raise TypeError(f"expected a JonesSequence, got {f!r}")
    P, n = P if P.__class__ is Operator else Operator(P), check_int(n)
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
    return Operator([(1, -3, 0, -1, p + 1), (1, 3, 0, 1, -p),
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
    return Operator([(1, -1, 0, -1, p), (1, 1, 0, 1, -p - 1)])


def homogenization_residual(p: int) -> QtElement:
    """(L + L^{-1} - (x^2-2)) * base_relation_op(p) - inhomog_recurrence(p), zero by the identity."""
    shift_combo = Operator([(1, 0, 0, 0, 1), (1, 0, 0, 0, -1), *_x2m2(-1, 0, 0, 0)])
    return _residual(qt_mul(shift_combo, base_relation_op(p)), inhomog_recurrence(p))


def product_multiplier(p: int) -> Operator:
    """The literal product t^{2p+5} L^{p+2} M in normal form, t^{4p+9} M L^{p+2}."""
    p, _ = _context(p, Convention.RT)
    return Operator([(1, 4 * p + 9, 0, 1, p + 2)])


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
    return Operator([(1, 2 * p + 2, 0, 0, 2 * p + 3), *_x2m2(-1, 2 * p + 4, 0, 2 * p + 2),
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

    The product is formed in the quantum torus, its twist t^{2bc} giving it
    nonzero t-exponents, and then both sides are mapped by _at_t1: as a ring
    map, that is the same as multiplying at t = 1.  Coefficients are at t^0.
    """
    quadratic = Operator([(1, 0, 0, 0, 2), *_x2m2(-1, 0, 0, 1), (1, 0, 0, 0, 0)])
    binomial = Operator([(1, 0, 0, 0, 2 * p + 1), (1, 0, 0, 2, 0)])
    return _residual(_at_t1(recurrence_poly(p)), _at_t1(qt_mul(quadratic, binomial)))
