"""Skein module of the (2, 2p+1) torus-knot complement.

The module is free over the Laurent ring with basis S_m(x) S_n(y), m >= 0 and
0 <= n <= p.  Anything with a larger y-index is rewritten into that basis by a
reduction rule; two rule conventions are supported and never mixed:

    kbsm:  S_{p+n}(y) = (-1)^n t^{2n+1} S_{2n}(x) (t S_{p-1}(y) + t^{-1} S_p(y))
                        - t^{4n+2} S_{p-n-1}(y)
    rt:    S_{p+n}(y) = t^{2n+1} S_{2n}(x) (t^{-1} S_p(y) - t S_{p-1}(y))
                        + t^{4n+2} S_{p-n-1}(y)

for n >= 1, with negative indices folded by S_{-n} = -S_{n-2} first.  Each
application strictly lowers the offending y-index, so reduction terminates.

The checks at the bottom of the module (handle slide, telescoping sum,
induction identity, homogeneous recursion) each return a residual element;
a check passes exactly when its residual is zero.  Every one of them accepts
an explicit ReductionRule so that deliberately perturbed rules can demonstrate
the checks have discriminating power.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections.abc import Iterable, Mapping

from .chebyshev import normalize_s_index, s_product
from .coeffs import LaurentPoly, Sparse, add_into, check_int, check_key, t
from .handlebody import CHEBYSHEV, HbElement, hb_mul

TkKey = tuple[int, int]


class Convention(enum.Enum):
    """Which reduction rule a module element lives under."""

    KBSM = "kbsm"
    RT = "rt"


@dataclasses.dataclass(frozen=True)
class ReductionRule:
    """Sign data of the reduction rewriting, kept explicit for mutation tests.

    The rewriting has the shape

        S_{p+n}(y) -> lead_sign * a(n) * t^{2n+1} S_{2n}(x) *
                          (s_pm1_sign * t * S_{p-1}(y) + s_p_sign * t^{-1} * S_p(y))
                      + tail_sign * t^{4n+2} S_{p-n-1}(y)

    where a(n) = (-1)^n when ``alternating`` and 1 otherwise.
    """

    lead_sign: int
    alternating: bool
    s_pm1_sign: int
    s_p_sign: int
    tail_sign: int

    @staticmethod
    def for_convention(c: Convention) -> ReductionRule:
        if c is Convention.KBSM:
            return ReductionRule(1, True, 1, 1, -1)
        return ReductionRule(1, False, -1, 1, 1)

    def single_sign_mutations(self) -> tuple[ReductionRule, ...]:
        """All rules obtained by flipping exactly one of the four sign slots."""
        out = []
        for field in ("lead_sign", "s_pm1_sign", "s_p_sign", "tail_sign"):
            out.append(dataclasses.replace(self, **{field: -getattr(self, field)}))
        return tuple(out)


def _parity_sign(n: int) -> int:
    return 1 if n % 2 == 0 else -1


def _resolve(c: Convention, rule: ReductionRule | None) -> ReductionRule:
    return rule if rule is not None else ReductionRule.for_convention(c)


@functools.lru_cache(maxsize=None)
def _reduce_items(N: int, p: int, c: Convention,
                  rule: ReductionRule) -> tuple[tuple[TkKey, LaurentPoly], ...]:
    if p < 1:
        raise ValueError("knot parameter p must be >= 1")
    if 0 <= N <= p:
        return (((0, N), LaurentPoly.one()),)
    if N < 0:
        norm = normalize_s_index(N)
        if norm is None:
            return ()
        sign, j = norm
        return tuple((key, c0 * sign) for key, c0 in _reduce_items(j, p, c, rule))
    n = N - p
    alt = rule.lead_sign * (_parity_sign(n) if rule.alternating else 1)
    acc: dict[TkKey, LaurentPoly] = {
        (2 * n, p - 1): t(2 * n + 2, alt * rule.s_pm1_sign),
        (2 * n, p): t(2 * n, alt * rule.s_p_sign),
    }
    tail_coeff = t(4 * n + 2, rule.tail_sign)
    for key, c0 in _reduce_items(p - n - 1, p, c, rule):
        add_into(acc, key, c0 * tail_coeff)
    return tuple(sorted(acc.items(), key=lambda kv: kv[0]))


class TkElement(Sparse):
    """Finite combination of S_m(x) S_n(y) with 0 <= n <= p."""

    __slots__ = ("_ctx",)
    _CONTEXT = ("p", "convention")

    def __init__(self, p: int, convention: Convention | str,
                 terms: Mapping[TkKey, LaurentPoly | int] | None = None):
        if check_int(p) < 1:
            raise ValueError("knot parameter p must be >= 1")
        if convention.__class__ is not Convention:
            convention = Convention(convention)
        self._ctx = (p, convention)
        super().__init__(terms)

    @property
    def p(self) -> int:
        return self._ctx[0]

    @property
    def convention(self) -> Convention:
        return self._ctx[1]

    def _key(self, key) -> TkKey:
        m, n = check_key(key, 2)
        if m < 0 or not 0 <= n <= self.p:
            raise ValueError(f"key ({m}, {n}) outside the basis for p={self.p}")
        return (m, n)

    @staticmethod
    def zero(p: int, convention: Convention) -> TkElement:
        return TkElement(p, convention)

    @staticmethod
    def one(p: int, convention: Convention) -> TkElement:
        return TkElement(p, convention, {(0, 0): 1})

    def __mul__(self, other: TkElement | LaurentPoly | int) -> TkElement:
        if isinstance(other, TkElement):
            return tk_mul(self, other)
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def times_sx(self, j: int) -> TkElement:
        """Multiply by S_j(x); j may be any integer, folded by S_{-j} = -S_{j-2}."""
        norm = normalize_s_index(j)
        if norm is None:
            return self._like({})
        sign, jj = norm
        out: dict[TkKey, LaurentPoly] = {}
        for (m, n), coeff in self.terms.items():
            c = coeff * sign
            for mf in s_product(jj, m):
                add_into(out, (mf, n), c)
        return self._like(out)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "convention": self.convention.value,
            "terms": self._json_rows(),
        }

    @staticmethod
    def _monomial(key: TkKey) -> str:
        factors = [f"S{d}({v})" for v, d in zip("xy", key) if d]
        return "*" + ("*".join(factors) or "1")


def reduce_sy(N: int, p: int, c: Convention,
              rule: ReductionRule | None = None) -> TkElement:
    """Express S_N(y) in the bounded basis under the given convention."""
    items = _reduce_items(N, p, c, _resolve(c, rule))
    return TkElement.zero(p, c)._like(dict(items))


def _emit(out: dict[TkKey, LaurentPoly], xs: Iterable[int],
          reduced: tuple[tuple[TkKey, LaurentPoly], ...], scalar: LaurentPoly) -> None:
    """Accumulate scalar * S_mx(x) * (reduced y-element) for each mx in xs."""
    for mx in xs:
        for (mr, nr), cr in reduced:
            c = cr * scalar
            if mr == 0:
                keys = ((mx, nr),)
            elif mx == 0:
                keys = ((mr, nr),)
            else:
                keys = tuple((mf, nr) for mf in s_product(mx, mr))
            for key in keys:
                add_into(out, key, c)


def tk_mul(a: TkElement, b: TkElement, rule: ReductionRule | None = None) -> TkElement:
    """Formal product: Chebyshev products in x and y, then reduction.

    This is bilinear and commutative, and it is associative whenever at
    least one factor has no y-content (the reduction kernel is stable
    under multiplication by the x-only subalgebra). It is NOT associative
    for general triples: reducing an intermediate product and multiplying
    by further y-content can land outside the kernel, so parenthesization
    matters. Products that must be canonical should be carried out before
    reduction (see embed) or restricted to x-only factors (times_sx).
    """
    a._peer(b)
    r = _resolve(a.convention, rule)
    out: dict[TkKey, LaurentPoly] = {}
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            c = c1 * c2
            xs = s_product(m1, m2)
            for ny in s_product(n1, n2):
                _emit(out, xs, _reduce_items(ny, a.p, a.convention, r), c)
    return a._like(out)


def embed(h: HbElement, p: int, c: Convention,
          rule: ReductionRule | None = None) -> TkElement:
    """Image of a handlebody element: z maps to x, then y-indices are reduced."""
    r = _resolve(c, rule)
    out: dict[TkKey, LaurentPoly] = {}
    for (m, n, k), coeff in h.to_basis(CHEBYSHEV).terms.items():
        _emit(out, s_product(m, k), _reduce_items(n, p, c, r), coeff)
    return TkElement.zero(p, c)._like(out)


class JonesSequence:
    """The sequence n -> reduced S_n(y), defined for every integer n.

    For 0 <= n <= p the value is the basis element itself; outside that window
    the reduction rule produces the general term.
    """

    __slots__ = ("p", "convention", "rule")

    def __init__(self, p: int, convention: Convention,
                 rule: ReductionRule | None = None):
        if p < 1:
            raise ValueError("knot parameter p must be >= 1")
        self.p = p
        self.convention = convention
        self.rule = _resolve(convention, rule)

    def __call__(self, n: int) -> TkElement:
        return reduce_sy(n, self.p, self.convention, self.rule)


def y_shorthand(p: int, c: Convention, rule: ReductionRule | None = None) -> TkElement:
    """The bracket the reduction multiplies S_{2n}(x) by, as a module element.

    Under kbsm this is t S_{p-1}(y) + t^{-1} S_p(y); under rt the S_{p-1}
    coefficient flips sign.
    """
    r = _resolve(c, rule)
    return TkElement(p, c, {(0, p - 1): t(1, r.s_pm1_sign),
                            (0, p): t(-1, r.s_p_sign)})


def relation_residual(p: int, n: int, c: Convention,
                      rule: ReductionRule | None = None) -> TkElement:
    """Residual of the defining relation, pushed through reduce_sy.

    The relation solved by the reduction is
    t^{-2n-1} S_{p+n}(y) - tail_sign t^{2n+1} S_{p-n-1}(y)
      = lead_sign a(n) S_{2n}(x) (s_pm1_sign t S_{p-1}(y) + s_p_sign t^{-1} S_p(y)).
    Near-tautological for n >= 1 by construction; the negative-n window checks
    the index-folding conventions agree with it.
    """
    r = _resolve(c, rule)
    lhs = (reduce_sy(p + n, p, c, r) * t(-2 * n - 1)
           - reduce_sy(p - n - 1, p, c, r) * t(2 * n + 1, r.tail_sign))
    alt = r.lead_sign * (_parity_sign(n) if r.alternating else 1)
    rhs = y_shorthand(p, c, r).times_sx(2 * n) * alt
    return lhs - rhs


def handle_slide_residual(p: int, n: int,
                          rule: ReductionRule | None = None) -> TkElement:
    """Difference of the two sides of the handle-slide identity.

    Both mirror(X1*T_n(y)) and T_n(y) * mirror(X_{2p}) are formed in the
    handlebody, pushed through the embedding, and fully reduced under the kbsm
    convention; the identity asserts the difference vanishes.
    """
    from .families import big_x, x1_T_closed

    lhs = embed(x1_T_closed(n).mirror(), p, Convention.KBSM, rule)
    prod = hb_mul(HbElement.cheb_t_y(n), big_x(2 * p).mirror())
    rhs = embed(prod, p, Convention.KBSM, rule)
    return lhs - rhs


def a_element(p: int, n: int, c: Convention = Convention.KBSM,
              rule: ReductionRule | None = None) -> TkElement:
    """The telescoping sum A_n, fully reduced.

    A_n = sum_{k=0}^{2n-1} t^{2k} S_{n-k}(y) + sum_{k=1}^{2p-2} t^{-2k} S_{n+k}(y).
    The first sum starts at k = 0: with a k = 1 start the telescoping identity
    below fails already at p = 1, n = 1, and the test suite pins this down.
    """
    r = _resolve(c, rule)
    acc = TkElement.zero(p, c)
    for k in range(2 * n):
        acc = acc + reduce_sy(n - k, p, c, r) * t(2 * k)
    for k in range(1, 2 * p - 1):
        acc = acc + reduce_sy(n + k, p, c, r) * t(-2 * k)
    return acc


def telescope_residual(p: int, n: int, c: Convention = Convention.KBSM,
                       rule: ReductionRule | None = None) -> TkElement:
    """Residual of A_{n+1} - t^2 A_n = (-1)^{p+n-1} t^{2n-2p+3} S_{2n+2p-2}(x) Y.

    The t-exponent on the right is 2n-2p+3, one higher than a naive
    bookkeeping of the defining sums suggests; the zero residual over the
    acceptance grid is what certifies the exponent.
    """
    r = _resolve(c, rule)
    lhs = a_element(p, n + 1, c, r) - a_element(p, n, c, r) * t(2)
    sign = _parity_sign(p + n - 1)
    rhs = y_shorthand(p, c, r).times_sx(2 * n + 2 * p - 2) * t(2 * n - 2 * p + 3, sign)
    return lhs - rhs


def induction_residual(p: int, n: int, c: Convention = Convention.KBSM,
                       rule: ReductionRule | None = None) -> TkElement:
    """Residual of (S_{2p+2n-2}(x) + S_{2p+2n-4}(x)) Y = (-1)^{p+n} t^{2p-2n-1} x^2 A_n."""
    r = _resolve(c, rule)
    ybr = y_shorthand(p, c, r)
    lhs = ybr.times_sx(2 * p + 2 * n - 2) + ybr.times_sx(2 * p + 2 * n - 4)
    a = a_element(p, n, c, r)
    rhs = (a.times_sx(2) + a) * t(2 * p - 2 * n - 1, _parity_sign(p + n))
    return lhs - rhs


def rt_recursion_residual(p: int, n: int,
                          rule: ReductionRule | None = None) -> TkElement:
    """Residual of the six-term homogeneous recursion under the rt convention.

    t^{-2n-3} S_{n+p+1} + t^{2n+3} S_{n-p} - t^{-2n-1} (x^2-2) S_{n+p}
      - t^{2n+1} (x^2-2) S_{n-p-1} + t^{-2n+1} S_{n+p-1} + t^{2n-1} S_{n-p-2} = 0
    with every S taken from the rt-reduced sequence.  Note x^2 - 2 = S_2(x) - 1.
    """
    c = Convention.RT
    r = _resolve(c, rule)

    def f(j: int) -> TkElement:
        return reduce_sy(j, p, c, r)

    def t2x(e: TkElement) -> TkElement:
        return e.times_sx(2) - e

    return (f(n + p + 1) * t(-2 * n - 3)
            + f(n - p) * t(2 * n + 3)
            - t2x(f(n + p)) * t(-2 * n - 1)
            - t2x(f(n - p - 1)) * t(2 * n + 1)
            + f(n + p - 1) * t(-2 * n + 1)
            + f(n - p - 2) * t(2 * n - 1))
