"""Skein module of the (2, 2p+1) torus-knot complement.

The module is free over the Laurent ring with basis S_m(x) S_n(y), m >= 0 and
0 <= n <= p.  Anything with a larger y-index is rewritten into that basis by a
reduction rule; two rule conventions are supported and never mixed:

    kbsm:  S_{p+n}(y) = (-1)^n t^{2n+1} S_{2n}(x) (t S_{p-1}(y) + t^{-1} S_p(y))
                        - t^{4n+2} S_{p-n-1}(y)
    rt:    S_{p+n}(y) = t^{2n+1} S_{2n}(x) (t^{-1} S_p(y) - t S_{p-1}(y))
                        + t^{4n+2} S_{p-n-1}(y)

for n >= 1, with negative indices folded by S_{-n} = -S_{n-2} first.  The
rt rule is the kbsm rule under y -> -y: with iota the sign map
S_m(x) S_n(y) -> (-1)^n S_m(x) S_n(y), f_rt(N) = (-1)^N iota(f_kbsm(N)), so
one ReductionRule, read in the kbsm picture, and one memo serve both.
Each application strictly lowers the offending y-index, so reduction is one
loop down the chain N -> p-n-1, memoised as int rows (m, n, e, sign): every
coefficient it produces is a monomial.  JonesSequence.sum takes int terms
(c, e, i, N) for c t^e S_i(x) f(N), merges them by folded (i, N, e) and
adds the rows of each surviving f(N), read from the memo once per N, times
S_i(x) into a flat int table (m, n, e) -> c: the layer's one accumulation
loop.  S_k(x) f(n) is the single term (1, 0, k, n).  Only kept tables drop
zeros, a window as _add_x2 steps it and _embedded_rest's cached rests; a
residual's transient table leaves them to _element, the kernel's one step
before iota under rt.  So each residual is one table of both sides' terms,
terms that cancel are never reduced, and no coefficient is built before
the result; TkElement only adds and scales.

The checks at the bottom of the module (handle slide, telescoping sum,
induction identity) each return a residual element; a check passes exactly
when its residual is zero.  Every one of them accepts an explicit
ReductionRule so that deliberately perturbed rules can demonstrate the
checks have discriminating power.  The six-term rt recursion is an
operator, qtorus.inhomog_recurrence, applied by qtorus.rt_recursion_residual.
Every running sum of the layer is a window of one weighted sequence,
U(lo, hi) = sum_{N=lo}^{hi} t^{-2N} f(N), oriented so that
U(a, b) + U(b+1, c) = U(a, c) for all a, b, c.  So one window reaches
another by the powers that enter and leave at its two ends, _step_terms.
_window steps x^2 U of the latest [lo, hi] per (p, rule, convention, slot),
or of the empty window [lo, lo-1] when that reduces fewer powers, and adds
it to a residual's table: no caller holds the kept one.  Additivity holds
for every sequence f, so under every rule.  The induction identity's
x^2 A_n is one window, and the telescope's A_{n+1} - t^2 A_n is one step of
the window of A_n.  The handle slide compares images im(h) of handlebody
elements, z sent to x and every S_N(y) reduced, and builds no handlebody
element: each side's image is a few head terms plus geometric k-sums of f,
two windows.  The rest of each side is read off the families' own int
tables (m, n, k, e) -> c, so the residual stays the image of the difference
of the two sides even if a family changes.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections.abc import Iterable, Mapping

from .chebyshev import s_product
from .coeffs import LaurentPoly, Sparse, _grouped, check_int, check_key
from .families import _big_x_table, _x1_closed

TkKey = tuple[int, int]
Row = tuple[int, int, int, int]         # (m, n, e, c): c t^e S_m(x) S_n(y)
Term = tuple[int, int, int, int]        # (c, e, i, N): c t^e S_i(x) f(N)
Table = dict[tuple[int, int, int], int]  # (m, n, e) -> c, zeros not yet dropped


class Convention(enum.Enum):
    """Which reduction rule a module element lives under."""

    KBSM = "kbsm"
    RT = "rt"


@dataclasses.dataclass(frozen=True)
class ReductionRule:
    """Sign data of the reduction rewriting, kept explicit for mutation tests.

    A rule is read in the kbsm picture, where it rewrites

        S_{p+n}(y) -> lead_sign * (-1)^n * t^{2n+1} S_{2n}(x) *
                          (s_pm1_sign * t * S_{p-1}(y) + s_p_sign * t^{-1} * S_p(y))
                      + tail_sign * t^{4n+2} S_{p-n-1}(y)

    for n >= 1.  Under rt it rewrites by the slot map: no (-1)^n, and
    s_pm1_sign and tail_sign negated, which is the kbsm rewriting under
    y -> -y.  Each sign is an int +1 or -1, else TypeError or ValueError.  A
    rule is part of every memo key of the module, so its hash is computed
    once, kept outside the fields.
    """

    lead_sign: int
    s_pm1_sign: int
    s_p_sign: int
    tail_sign: int

    def __post_init__(self):
        for field in dataclasses.fields(self):
            sign = check_int(getattr(self, field.name))
            if sign not in (1, -1):
                raise ValueError(f"{field.name} must be 1 or -1, got {sign}")
            object.__setattr__(self, field.name, sign)
        object.__setattr__(self, "_hash", hash(dataclasses.astuple(self)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def for_convention(c: Convention) -> ReductionRule:
        """The convention's rule: one shared instance, the same for both."""
        Convention(c)  # an unknown convention raises ValueError
        return _BASE_RULE

    def single_sign_mutations(self) -> tuple[ReductionRule, ...]:
        """All rules obtained by flipping exactly one of the four sign slots."""
        return tuple(dataclasses.replace(self, **{field.name: -getattr(self, field.name)})
                     for field in dataclasses.fields(self))


_BASE_RULE = ReductionRule(1, 1, 1, -1)


def _context(p: int, convention: Convention | str) -> tuple[int, Convention]:
    """The checked context (p, convention) of a module element or operator:
    p an int >= 1, the convention coerced to a Convention."""
    p = check_int(p)
    if p < 1:
        raise ValueError("knot parameter p must be >= 1")
    if convention.__class__ is not Convention:
        convention = Convention(convention)
    return p, convention


@functools.lru_cache(maxsize=None)
def _reduce_items(N: int, p: int, rule: ReductionRule) -> tuple[Row, ...]:
    """S_N(y) reduced, as int rows (m, n, e, sign) for sign t^e S_m(x) S_n(y), by
    one loop down the chain N -> p-n-1 that folds negative indices as it goes.
    The rows are the kbsm picture of the rule, whatever the convention; the
    caller has checked p >= 1."""
    rows: list[Row] = []
    sign, texp = 1, 0
    while N > p or N < -1:
        if N < 0:
            sign, N = -sign, -N - 2
            continue
        n = N - p
        s = sign * rule.lead_sign * (-1 if n & 1 else 1)
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
        self._ctx = _context(p, convention)
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
    def _monomial(key: TkKey) -> str:
        factors = [f"S{d}({v})" for v, d in zip("xy", key) if d]
        return "*" + ("*".join(factors) or "1")


def _element(p: int, c: Convention, acc: Table) -> TkElement:
    """The element of a flat table by the kernel's one step, its checked context
    (p, c) not re-validated; under rt, iota then negates the terms of odd n."""
    res = object.__new__(TkElement)
    res._ctx, res.terms = (p, c), _grouped(acc)
    if c is Convention.RT:
        res.terms = {key: -cf if key[1] & 1 else cf for key, cf in res.terms.items()}
    return res


class JonesSequence:
    """The sequence n -> reduced S_n(y), defined for every integer n.

    For 0 <= n <= p the value is the basis element itself; outside that window
    the reduction rule produces the general term.  As f_rt(N) =
    (-1)^N iota(f_kbsm(N)), tables hold the kbsm picture: under rt, _table
    negates each merged term of odd N, and _element applies iota at the end.
    """

    __slots__ = ("p", "convention", "rule")

    def __init__(self, p: int, convention: Convention | str,
                 rule: ReductionRule | None = None):
        self.p, self.convention = _context(p, convention)
        if rule is None:
            rule = _BASE_RULE
        elif not isinstance(rule, ReductionRule):
            raise TypeError(f"expected a ReductionRule, got {rule!r}")
        self.rule = rule

    def __call__(self, n: int) -> TkElement:
        return self._sum([(1, 0, 0, check_int(n))])

    def sum(self, terms: Iterable[Term]) -> TkElement:
        """The sum of c t^e S_i(x) f(N) over the int terms (c, e, i, N), i and N any integers.

        Terms are merged by folded (i, N, e) before anything is reduced, with
        S_{-1} = f(-1) = 0 and S_{-j} = -S_{j-2}, f(-j) = -f(j-2) for j >= 2,
        so terms that cancel cost no reduction, and each f(N) left is read
        from the reduce memo once.

        >>> f = JonesSequence(1, Convention.KBSM)
        >>> str(f.sum([(1, 0, 0, 2), (1, 0, -3, 0)]))
        '(-1)*S1(x) + (-t^4)*S2(x) + (-t^2)*S2(x)*S1(y)'
        >>> str(f.sum([(1, 0, 0, -4), (1, 0, 0, 2)]))
        '0'
        """
        return self._sum([check_key(term, 4) for term in terms])

    def _sum(self, terms: Iterable[Term]) -> TkElement:
        """sum without checking the terms, for callers that built them from checked ints."""
        return _element(self.p, self.convention, self._table(terms))

    def _table(self, terms: Iterable[Term]) -> Table:
        """The sum of the terms as a flat table, the layer's one accumulation
        loop: merged by folded (i, N, e), then each nonzero entry adds the
        rows of f(N), read from the memo once per N, times S_i(x), in the
        kbsm picture: under rt a term of odd N is negated.  It prunes
        nothing; _element drops the zeros at the end.  The x-indices are
        s_product(i, m), inlined: this loop is the layer's hot spot."""
        acc: Table = {}
        get = acc.get
        p, rule = self.p, self.rule
        rt = self.convention is Convention.RT
        reduced: dict[int, tuple[Row, ...]] = {}
        for (i, N, se), sc in _merge(terms).items():
            if not sc:
                continue
            if rt and N & 1:
                sc = -sc
            rows = reduced.get(N)
            if rows is None:
                rows = reduced[N] = _reduce_items(N, p, rule)
            for m, n, e, c in rows:
                if i == 0 or m == 0:
                    key = (i + m, n, e + se)
                    acc[key] = get(key, 0) + c * sc
                else:
                    e += se
                    c *= sc
                    for mf in range(abs(i - m), i + m + 1, 2):
                        key = (mf, n, e)
                        acc[key] = get(key, 0) + c
        return acc


def _merge(terms: Iterable[Term]) -> dict[tuple[int, int, int], int]:
    """The int terms merged by folded (i, N, e), zeros kept."""
    merged: dict[tuple[int, int, int], int] = {}
    get = merged.get
    for c, e, i, N in terms:
        if i == -1 or N == -1:
            continue
        if i < 0:
            c, i = -c, -i - 2
        if N < 0:
            c, N = -c, -N - 2
        key = (i, N, e)
        merged[key] = get(key, 0) + c
    return merged


def _y_terms(f: JonesSequence, i: int, e: int, s: int) -> list[Term]:
    """s t^e S_i(x) Y as int terms of f.sum, Y = t S_{p-1}(y) + t^{-1} S_p(y)
    the bracket of the rule, signs from its slots; the rt slot map negates
    s_pm1_sign."""
    s_pm1 = -s if f.convention is Convention.RT else s
    return [(s_pm1 * f.rule.s_pm1_sign, e + 1, i, f.p - 1), (s * f.rule.s_p_sign, e - 1, i, f.p)]


def relation_residual(p: int, n: int, c: Convention,
                      rule: ReductionRule | None = None) -> TkElement:
    """Residual of the defining relation, pushed through the reduction.

    The relation solved by the reduction is
    t^{-2n-1} S_{p+n}(y) - tail_sign t^{2n+1} S_{p-n-1}(y)
      = lead_sign a(n) S_{2n}(x) (s_pm1_sign t S_{p-1}(y) + s_p_sign t^{-1} S_p(y)),
    with a(n) = (-1)^n under kbsm, and under rt a(n) = 1 and the slot map
    of ReductionRule applied.  Near-tautological for n >= 1 by construction;
    the negative-n window checks the index-folding conventions agree with
    it.  Both sides are one sum.
    """
    f = JonesSequence(p, c, rule)
    p, n, r = f.p, check_int(n), f.rule
    rt = f.convention is Convention.RT
    lead = -r.lead_sign if n % 2 and not rt else r.lead_sign
    minus_tail = r.tail_sign if rt else -r.tail_sign
    return f._sum([(1, -2 * n - 1, 0, p + n), (minus_tail, 2 * n + 1, 0, p - n - 1)]
                  + _y_terms(f, 2 * n, 0, -lead))


# (p, rule, convention, slot) -> ((lo, hi), x^2 U(lo, hi)): each slot's latest window
_windows: dict[tuple[int, ReductionRule, Convention, str], tuple[tuple[int, int], Table]] = {}


def _u_terms(lo: int, hi: int, e: int, s: int) -> list[Term]:
    """s t^e U(lo, hi) as int terms, U(lo, hi) = sum_{N=lo}^{hi} t^{-2N} f(N)
    oriented: U(lo, hi) = -U(hi+1, lo-1) when hi < lo - 1, which makes
    U(a, b) + U(b+1, c) = U(a, c) for all a, b and c."""
    if hi < lo:
        lo, hi, s = hi + 1, lo - 1, -s
    return [(s, e - 2 * N, 0, N) for N in range(lo, hi + 1)]


def _step_terms(lo0: int, hi0: int, lo: int, hi: int, e: int) -> list[Term]:
    """t^e (U(lo, hi) - U(lo0, hi0)) as int terms: by additivity, the powers
    that enter at the window's ends, U(hi0+1, hi), less those that leave,
    U(lo0, lo-1), a few terms when the windows are close."""
    return _u_terms(hi0 + 1, hi, e, 1) + _u_terms(lo0, lo - 1, e, -1)


def _window(acc: Table, f: JonesSequence, slot: str, lo: int, hi: int, se: int, sc: int) -> None:
    """acc += sc t^se x^2 U(lo, hi) in place, zeros kept, with x^2 = S_2(x) + S_0(x).

    Only the latest [lo, hi] is kept per (p, rule, convention, slot), the
    convention too as one rule serves both: under a rule for which an
    identity fails, a window can have O(n^2) entries.  The window kept is
    brought to [lo, hi] in place by its _step_terms, or reset to the empty
    window [lo, lo-1], whose step is U(lo, hi), when that reduces fewer
    powers.  Additivity holds for every sequence f, so under every rule, and
    x^2 touches only the powers that enter; the kept table never leaves here.
    """
    key = (f.p, f.rule, f.convention, slot)
    # the slot is out while it steps, so a step that raises leaves it empty
    (lo0, hi0), table = _windows.pop(key, ((lo, lo - 1), {}))
    if abs(hi - hi0) + abs(lo - lo0) >= abs(hi - lo + 1):
        (lo0, hi0), table = (lo, lo - 1), {}
    _add_x2(table, f._table(_step_terms(lo0, hi0, lo, hi, 0)))
    _windows[key] = ((lo, hi), table)
    get = acc.get
    for (m, n, e), c in table.items():
        k = (m, n, e + se)
        acc[k] = get(k, 0) + sc * c


def _x2(terms: Iterable[Term]) -> list[Term]:
    """x^2 times the int terms, with x^2 = S_2(x) + S_0(x); each term has i = 0."""
    return [(c, e, i, N) for c, e, _, N in terms for i in (2, 0)]


def _embedded_rest(h: Mapping[tuple[int, int, int, int], int],
                   ksum: list[Term]) -> tuple[Term, ...]:
    """The int terms, before reduction, of im(bar h) minus the k-sum's, h a
    handlebody table (m, N, k, e) -> c and bar h being h under t -> t^-1."""
    merged = _merge([(c, -e, i, N) for (m, N, k, e), c in h.items() for i in s_product(m, k)]
                    + [(-c, e, i, N) for c, e, i, N in ksum])
    return tuple((c, e, i, N) for (i, N, e), c in merged.items() if c)


@functools.lru_cache(maxsize=None)
def _x1_rest(n: int) -> tuple[Term, ...]:
    """im(bar X1*T_n(y)), read off its closed form's table, less
    2 (1 - t^{-4n}) x^2 t^{2n-2} U(-n, n-1)."""
    return _embedded_rest(_x1_closed(n), _x2(_u_terms(-n, n - 1, 2 * n - 2, 2)
                                            + _u_terms(-n, n - 1, -2 * n - 2, -2)))


@functools.lru_cache(maxsize=None)
def _big_x_rest(p: int) -> tuple[Term, ...]:
    """im(bar X_{2p}), less -2 t^{-2} x^2 U(0, 2p-2); X_{2p} is read
    off the recursion's table memo, which no caller of big_x can change."""
    return _embedded_rest(_big_x_table(2 * p), _x2(_u_terms(0, 2 * p - 2, -2, -2)))


def _add_x2(acc: Table, table: Table) -> None:
    """acc += x^2 * table in place, by x^2 S_m(x) = S_{m+2}(x) + 2 S_m(x) + S_{m-2}(x),
    which is S_3 + 2 S_1 at m = 1 and S_2 + S_0 at m = 0, dropping the
    entries that cancel: acc is a kept window."""
    get = acc.get
    for (m, n, e), c in table.items():
        for mf, cf in (m + 2, c), (m, c if m == 0 else 2 * c), (m - 2, c if m >= 2 else 0):
            key = (mf, n, e)
            cf += get(key, 0)
            if cf:
                acc[key] = cf
            else:
                acc.pop(key, None)


def handle_slide_residual(p: int, n: int,
                          rule: ReductionRule | None = None) -> TkElement:
    """Difference of the two sides of the handle-slide identity, n >= 0.

    The residual is im(bar(X1*T_n(y)) - T_n(y) * bar X_{2p}) under the kbsm
    convention, bar the mirror t -> t^-1; the identity asserts it vanishes.
    With f(N) the reduced S_N(y) and x^2 = S_2(x) + S_0(x), the image of xz
    and of (x^2 + z^2)/2, the images of the two sides are

        2 (1 - t^{-4n}) x^2 G(n) + R1(n)  and  -2 t^{-2} x^2 (P(n) + Q(n)) + T_n(y) R2

    where, for J = 2p - 2 and U the oriented window sum of _u_terms,
    G(n) = t^{2n-2} U(-n, n-1) is X1*T_n(y)'s k-sum, and P(n) = t^{2n} U(n, n+J)
    and Q(n) = t^{-2n} U(-n, J-n) are T_n(y) times X_{2p}'s.  The rests
    R1(n) and R2 are read off the int tables of X1*T_n(y)'s closed form and
    of the X_i recursion's private memo at i = 2p, not off the element
    big_x(2p) that callers share, once per n and once per p, as the image's
    terms outside the k-sums: their heads while the families have their
    closed forms, and whatever else a family holds if one changes, so the
    residual is always the image of the difference.
    By additivity the k-sums of the difference are two windows,

        x^2 (2 t^{2n-2} U(-n, n+J) + 2 t^{-2n-2} U(n, J-n)),

    and a sweep over n ascending steps each by two reduced powers per n,
    under every rule, mutants included, and builds no handlebody element.
    """
    f = JonesSequence(p, Convention.KBSM, rule)
    p, n = f.p, check_int(n)
    if n < 0:
        raise ValueError(f"handle slide index n must be >= 0, got {n}")
    J = 2 * p - 2
    acc = f._table(list(_x1_rest(n))
                   + [(-c, e, i, N + s) for c, e, i, N in _big_x_rest(p) for s in (n, -n)])
    _window(acc, f, "slide+", -n, n + J, 2 * n - 2, 2)
    _window(acc, f, "slide-", n, J - n, -2 * n - 2, 2)
    return _element(p, f.convention, acc)


def telescope_residual(p: int, n: int, c: Convention = Convention.KBSM,
                       rule: ReductionRule | None = None) -> TkElement:
    """Residual of A_{n+1} - t^2 A_n = (-1)^{p+n-1} t^{2n-2p+3} S_{2n+2p-2}(x) Y.

    A_n = t^{2n} U(1-|n|, n+2p-2) (see induction_residual), so the left side
    is t^{2n+2} times one step of that window: two _step_terms,
    t^{4-4p} f(n+2p-1) + t^{4n+2} f(-n) for n >= 0.  One JonesSequence sum
    adds those to minus the right side's two basis terms: no A_n is built,
    and no defining term of one is.  The identity holds for n >= 0; at n < 0
    the residual is the same difference of the defining sums, and not zero.
    The t-exponent on the right is 2n-2p+3, one higher than a naive
    bookkeeping of the defining sums suggests; the zero residual over the
    acceptance grid is what certifies the exponent.
    """
    f = JonesSequence(p, c, rule)
    p, n = f.p, check_int(n)
    sign = -1 if (p + n - 1) % 2 else 1
    step = _step_terms(1 - abs(n), n + 2 * p - 2, 1 - abs(n + 1), n + 2 * p - 1, 2 * n + 2)
    return f._sum(step + _y_terms(f, 2 * n + 2 * p - 2, 2 * n - 2 * p + 3, -sign))


def induction_residual(p: int, n: int, c: Convention = Convention.KBSM,
                       rule: ReductionRule | None = None) -> TkElement:
    """Residual of (S_{2p+2n-2}(x) + S_{2p+2n-4}(x)) Y = (-1)^{p+n} t^{2p-2n-1} x^2 A_n.

    One table: the left side's terms, then x^2 A_n added once under the
    right side's scalar.  With U the oriented window sum of _u_terms, A_n's
    two defining sums are t^{2n} U(1-n, n), or no term for n < 0, and
    t^{2n} U(n+1, n+2p-2), so

        A_n = t^{2n} U(1-|n|, n+2p-2),

    one _window, kept per (p, rule, convention): a sweep over n ascending
    reduces two powers per n, not 2n+2p-2, under every rule, mutants included.
    The identity being checked, which does depend on the rule, is still
    checked in full at every n.  It holds for n >= 0; at n < 0 the residual
    is the difference of the defining sums, and not zero.
    """
    f = JonesSequence(p, c, rule)
    p, n = f.p, check_int(n)
    acc = f._table(_y_terms(f, 2 * p + 2 * n - 2, 0, 1) + _y_terms(f, 2 * p + 2 * n - 4, 0, 1))
    _window(acc, f, "induction", 1 - abs(n), n + 2 * p - 2, 2 * p - 1, 1 if (p + n) % 2 else -1)
    return _element(p, f.convention, acc)
