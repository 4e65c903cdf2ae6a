"""Skein module of the (2, 2p+1) torus-knot complement.

The module is free over the Laurent ring with basis S_m(x) S_n(y), m >= 0 and
0 <= n <= p.  Anything with a larger y-index is rewritten into that basis by a
reduction rule; two rule conventions are supported and never mixed:

    kbsm:  S_{p+n}(y) = (-1)^n t^{2n+1} S_{2n}(x) (t S_{p-1}(y) + t^{-1} S_p(y))
                        - t^{4n+2} S_{p-n-1}(y)
    rt:    S_{p+n}(y) = t^{2n+1} S_{2n}(x) (t^{-1} S_p(y) - t S_{p-1}(y))
                        + t^{4n+2} S_{p-n-1}(y)

for n >= 1, with negative indices folded by S_{-n} = -S_{n-2} first.  Each
application strictly lowers the offending y-index, so reduction is one loop
down the chain N -> p-n-1, memoised as int rows (m, n, e, sign): every
coefficient it produces is a monomial.  The layer adds rows into flat int
tables (m, n, e) -> c with _emit, and _element alone turns a table into an
element.  JonesSequence.sum merges its terms by folded index before it
reduces any, so each residual is one table of both sides' terms, and terms
that cancel are never reduced.

The checks at the bottom of the module (handle slide, telescoping sum,
induction identity, homogeneous recursion) each return a residual element;
a check passes exactly when its residual is zero.  Every one of them accepts
an explicit ReductionRule so that deliberately perturbed rules can demonstrate
the checks have discriminating power; embed is linear under every rule, so
the handle slide embeds the difference of its two sides, whose closed-form
side mirror(X1*T_n(y)) is built once per n.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections.abc import Iterable, Mapping, Sequence

from .chebyshev import normalize_s_index, s_product
from .coeffs import LaurentPoly, Sparse, add_into, as_laurent, check_int, check_key, t
from .handlebody import CHEBYSHEV, HbElement

TkKey = tuple[int, int]
Row = tuple[int, int, int, int]         # (m, n, e, c): c t^e S_m(x) S_n(y)
Table = dict[tuple[int, int, int], int]  # (m, n, e) -> c, zeros not yet dropped


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
        """The convention's rule, one shared instance per convention."""
        return _BASE_RULES[Convention(c)]

    def single_sign_mutations(self) -> tuple[ReductionRule, ...]:
        """All rules obtained by flipping exactly one of the four sign slots."""
        out = []
        for field in ("lead_sign", "s_pm1_sign", "s_p_sign", "tail_sign"):
            out.append(dataclasses.replace(self, **{field: -getattr(self, field)}))
        return tuple(out)


_BASE_RULES = {Convention.KBSM: ReductionRule(1, True, 1, 1, -1),
               Convention.RT: ReductionRule(1, False, -1, 1, 1)}


def _parity_sign(n: int) -> int:
    return 1 if n % 2 == 0 else -1


def _resolve(c: Convention, rule: ReductionRule | None) -> ReductionRule:
    return rule if rule is not None else ReductionRule.for_convention(c)


@functools.lru_cache(maxsize=None)
def _reduce_items(N: int, p: int, c: Convention,
                  rule: ReductionRule) -> tuple[Row, ...]:
    """S_N(y) reduced, as int rows (m, n, e, sign) for sign t^e S_m(x) S_n(y), by
    one loop down the chain N -> p-n-1 that folds negative indices as it goes."""
    if p < 1:
        raise ValueError("knot parameter p must be >= 1")
    rows: list[Row] = []
    sign, texp = 1, 0
    while N > p or N < -1:
        if N < 0:
            sign, N = -sign, -N - 2
            continue
        n = N - p
        s = sign * rule.lead_sign * (_parity_sign(n) if rule.alternating else 1)
        rows += ((2 * n, p - 1, texp + 2 * n + 2, s * rule.s_pm1_sign),
                 (2 * n, p, texp + 2 * n, s * rule.s_p_sign))
        sign, texp, N = sign * rule.tail_sign, texp + 4 * n + 2, p - n - 1
    if N >= 0:
        rows.append((0, N, texp, sign))
    return tuple(rows)


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
        acc: Table = {}
        _emit(acc, (jj,), [(m, n, e, v) for (m, n), cf in self.terms.items()
                           for e, v in cf.terms.items()], {0: sign})
        return _element(self.p, self.convention, acc)

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
    return JonesSequence(p, c, rule).sum([(1, 0, N)])


def _emit(acc: Table, xs: Sequence[int], rows: Iterable[Row],
          scalar: Mapping[int, int]) -> None:
    """acc += scalar * S_mx(x) * (the sum of the rows) for each mx in xs, the
    scalar given by its terms {e: c}: the layer's one accumulation loop.  It
    prunes nothing; _element drops the zeros at the end."""
    get = acc.get
    for se, sc in scalar.items():
        for m, n, e, c in rows:
            e += se
            c *= sc
            for mx in xs:
                for mf in s_product(mx, m):
                    key = (mf, n, e)
                    acc[key] = get(key, 0) + c


def _element(p: int, c: Convention, acc: Table) -> TkElement:
    """The element of a flat table: the one place its entries are grouped by
    (m, n), zeros dropped and each coefficient built, without re-validation."""
    grouped: dict[TkKey, dict[int, int]] = {}
    for (m, n, e), v in acc.items():
        if v:
            grouped.setdefault((m, n), {})[e] = v
    like = LaurentPoly()._like
    return TkElement(p, c)._like({k: like(cs) for k, cs in grouped.items()})


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
    acc: Table = {}
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            c = c1 * c2
            xs = s_product(m1, m2)
            for ny in s_product(n1, n2):
                _emit(acc, xs, _reduce_items(ny, a.p, a.convention, r), c.terms)
    return _element(a.p, a.convention, acc)


def embed(h: HbElement, p: int, c: Convention,
          rule: ReductionRule | None = None) -> TkElement:
    """Image of a handlebody element: z maps to x, then y-indices are reduced."""
    r = _resolve(c, rule)
    acc: Table = {}
    for (m, n, k), coeff in h.to_basis(CHEBYSHEV).terms.items():
        _emit(acc, s_product(m, k), _reduce_items(n, p, c, r), coeff.terms)
    return _element(p, c, acc)


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

    def sum(self, terms: Iterable[tuple[LaurentPoly | int, int, int]]) -> TkElement:
        """The sum of c S_i(x) f(N) over the (c, i, N) terms, i and N any integers.

        Terms are merged by folded (i, N) before anything is reduced, with
        S_{-1} = f(-1) = 0 and S_{-j} = -S_{j-2}, f(-j) = -f(j-2) for j >= 2,
        so terms that cancel cost no reduction.

        >>> f = JonesSequence(1, Convention.KBSM)
        >>> str(f.sum([(1, 0, 2), (1, -3, 0)]))
        '(-1)*S1(x) + (-t^4)*S2(x) + (-t^2)*S2(x)*S1(y)'
        >>> str(f.sum([(1, 0, -4), (1, 0, 2)]))
        '0'
        """
        return _element(self.p, self.convention, self._table(terms))

    def _table(self, terms: Iterable[tuple[LaurentPoly | int, int, int]]) -> Table:
        """sum(terms) as a flat table: merged by folded (i, N), then reduced."""
        merged: dict[tuple[int, int], LaurentPoly | int] = {}
        for c, i, N in terms:
            norm = normalize_s_index(i)
            if norm is None or N == -1:
                continue
            sign, i = norm
            if N < -1:
                sign, N = -sign, -N - 2
            add_into(merged, (i, N), c if sign > 0 else -c)
        acc: Table = {}
        for (i, N), c in merged.items():
            _emit(acc, (i,), _reduce_items(N, self.p, self.convention, self.rule),
                  as_laurent(c).terms)
        return acc


def _y_terms(p: int, r: ReductionRule, i: int, e: int, s: int) -> list:
    """s t^e S_i(x) Y as (c, i, N) terms of JonesSequence.sum, Y the y_shorthand bracket."""
    return [(t(e + 1, s * r.s_pm1_sign), i, p - 1), (t(e - 1, s * r.s_p_sign), i, p)]


def y_shorthand(p: int, c: Convention, rule: ReductionRule | None = None) -> TkElement:
    """The bracket the reduction multiplies S_{2n}(x) by, as a module element.

    Under kbsm this is t S_{p-1}(y) + t^{-1} S_p(y); under rt the S_{p-1}
    coefficient flips sign.
    """
    r = _resolve(c, rule)
    return JonesSequence(p, c, r).sum(_y_terms(p, r, 0, 0, 1))


def relation_residual(p: int, n: int, c: Convention,
                      rule: ReductionRule | None = None) -> TkElement:
    """Residual of the defining relation, pushed through reduce_sy.

    The relation solved by the reduction is
    t^{-2n-1} S_{p+n}(y) - tail_sign t^{2n+1} S_{p-n-1}(y)
      = lead_sign a(n) S_{2n}(x) (s_pm1_sign t S_{p-1}(y) + s_p_sign t^{-1} S_p(y)).
    Near-tautological for n >= 1 by construction; the negative-n window checks
    the index-folding conventions agree with it.  Both sides are one sum.
    """
    r = _resolve(c, rule)
    alt = r.lead_sign * (_parity_sign(n) if r.alternating else 1)
    return JonesSequence(p, c, r).sum(
        [(t(-2 * n - 1), 0, p + n), (t(2 * n + 1, -r.tail_sign), 0, p - n - 1)]
        + _y_terms(p, r, 2 * n, 0, -alt))


@functools.lru_cache(maxsize=128)
def _mirrored_x1_T_closed(n: int) -> HbElement:
    """mirror(X1*T_n(y)), built once per n for the handle slides of every p."""
    from .families import x1_T_closed

    return x1_T_closed(n).mirror()


def handle_slide_residual(p: int, n: int,
                          rule: ReductionRule | None = None) -> TkElement:
    """Difference of the two sides of the handle-slide identity.

    The difference mirror(X1*T_n(y)) - T_n(y) * mirror(X_{2p}) is formed in
    the handlebody's Chebyshev basis, pushed through the embedding, and fully
    reduced under the kbsm convention; the identity asserts it vanishes.
    """
    from .families import big_x

    diff = _mirrored_x1_T_closed(n) - big_x(2 * p).mirror().times_t_y(n)
    return embed(diff, p, Convention.KBSM, rule)


def _a_terms(p: int, n: int, e: int = 0, s: int = 1) -> list:
    """s t^e A_n as its defining (c, i, N) terms of JonesSequence.sum."""
    return ([(t(2 * k + e, s), 0, n - k) for k in range(2 * n)]
            + [(t(e - 2 * k, s), 0, n + k) for k in range(1, 2 * p - 1)])


def a_element(p: int, n: int, c: Convention = Convention.KBSM,
              rule: ReductionRule | None = None) -> TkElement:
    """The telescoping sum A_n, fully reduced.

    A_n = sum_{k=0}^{2n-1} t^{2k} S_{n-k}(y) + sum_{k=1}^{2p-2} t^{-2k} S_{n+k}(y),
    one JonesSequence.sum of these 2n+2p-2 terms.
    The first sum starts at k = 0: with a k = 1 start the telescoping identity
    below fails already at p = 1, n = 1, and the test suite pins this down.
    """
    return JonesSequence(p, c, rule).sum(_a_terms(p, n))


def telescope_residual(p: int, n: int, c: Convention = Convention.KBSM,
                       rule: ReductionRule | None = None) -> TkElement:
    """Residual of A_{n+1} - t^2 A_n = (-1)^{p+n-1} t^{2n-2p+3} S_{2n+2p-2}(x) Y.

    One JonesSequence.sum of A_{n+1}'s defining terms, -t^2 times A_n's and
    minus the right side's two basis terms.  The sum merges terms before it
    reduces any, and all but t^{4-4p} S_{n+2p-1}(y) + t^{4n+2} S_{-n}(y) of
    the left side cancel, so no A_n is built.
    The t-exponent on the right is 2n-2p+3, one higher than a naive
    bookkeeping of the defining sums suggests; the zero residual over the
    acceptance grid is what certifies the exponent.
    """
    r = _resolve(c, rule)
    sign = _parity_sign(p + n - 1)
    return JonesSequence(p, c, r).sum(
        _a_terms(p, n + 1) + _a_terms(p, n, 2, -1)
        + _y_terms(p, r, 2 * n + 2 * p - 2, 2 * n - 2 * p + 3, -sign))


def induction_residual(p: int, n: int, c: Convention = Convention.KBSM,
                       rule: ReductionRule | None = None) -> TkElement:
    """Residual of (S_{2p+2n-2}(x) + S_{2p+2n-4}(x)) Y = (-1)^{p+n} t^{2p-2n-1} x^2 A_n.

    One table: the left side's terms, then A_n's table emitted once with
    x^2 = S_2(x) + S_0(x), so no element is built but the residual.
    """
    r = _resolve(c, rule)
    f = JonesSequence(p, c, r)
    acc = f._table(_y_terms(p, r, 2 * p + 2 * n - 2, 0, 1)
                   + _y_terms(p, r, 2 * p + 2 * n - 4, 0, 1))
    a_rows = [(m, k, e, v) for (m, k, e), v in f._table(_a_terms(p, n)).items() if v]
    _emit(acc, (2, 0), a_rows, {2 * p - 2 * n - 1: -_parity_sign(p + n)})
    return _element(p, c, acc)


def rt_recursion_residual(p: int, n: int,
                          rule: ReductionRule | None = None) -> TkElement:
    """Residual of the six-term homogeneous recursion under the rt convention.

    t^{-2n-3} S_{n+p+1} + t^{2n+3} S_{n-p} - t^{-2n-1} (x^2-2) S_{n+p}
      - t^{2n+1} (x^2-2) S_{n-p-1} + t^{-2n+1} S_{n+p-1} + t^{2n-1} S_{n-p-2} = 0
    with every S taken from the rt-reduced sequence, and x^2 - 2 = S_2(x) - S_0(x).
    """
    return JonesSequence(p, Convention.RT, rule).sum([
        (t(-2 * n - 3), 0, n + p + 1), (t(2 * n + 3), 0, n - p),
        (t(-2 * n - 1, -1), 2, n + p), (t(-2 * n - 1), 0, n + p),
        (t(2 * n + 1, -1), 2, n - p - 1), (t(2 * n + 1), 0, n - p - 1),
        (t(-2 * n + 1), 0, n + p - 1), (t(2 * n - 1), 0, n - p - 2)])
