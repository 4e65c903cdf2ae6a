"""Reduction rules, module arithmetic, and the verification identities."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeincalc import families, handlebody, torusknot
from skeincalc.chebyshev import normalize_s_index, s_product
from skeincalc.coeffs import LaurentPoly, as_laurent
from skeincalc.families import big_x, x1_T_closed
from skeincalc.handlebody import CHEBYSHEV, MONOMIAL, HbElement
from skeincalc.torusknot import (Convention, JonesSequence, ReductionRule, TkElement,
                                 _merge, _reduce_items, _step_terms, _u_terms, _window,
                                 _y_terms, handle_slide_residual, induction_residual,
                                 relation_residual, telescope_residual)
from skeincalc.qtorus import inhomog_recurrence, qt_apply, rt_recursion_residual

from oracles import (X, Z, a_element, a_terms, embed, from_json, hb_mul, hb_table, mirror, t,
                     times_sx, times_t_y)

KBSM = Convention.KBSM
RT = Convention.RT


ALL_RULES = [(c, r) for c in (KBSM, RT)
             for r in (ReductionRule.for_convention(c),
                       *ReductionRule.for_convention(c).single_sign_mutations())]


def y_bracket(p, c, rule=None):
    """Y, the bracket the reduction multiplies S_{2n}(x) by, as an element."""
    f = JonesSequence(p, c, rule)
    return f.sum(_y_terms(f, 0, 0, 1))


def induction_formula(p, n, c, rule):
    """The induction residual as element arithmetic: the left side minus
    (-1)^{p+n} t^{2p-2n-1} x^2 A_n, with x^2 = S_2(x) + S_0(x)."""
    ybr = y_bracket(p, c, rule)
    a = a_element(p, n, c, rule)
    return (times_sx(ybr, 2 * p + 2 * n - 2) + times_sx(ybr, 2 * p + 2 * n - 4)
            - (times_sx(a, 2) + a) * t(2 * p - 2 * n - 1, -1 if (p + n) % 2 else 1))


def basis_vec(p, c, m, n):
    return TkElement(p, c, {(m, n): t(0)})


KBSM_RULES = [ReductionRule.for_convention(KBSM),
              *ReductionRule.for_convention(KBSM).single_sign_mutations()]


def kept_window():
    """The table of the one window kept."""
    [(_, table)] = torusknot._windows.values()
    return table


def clear_handle_slide_state():
    torusknot._windows.clear()
    torusknot._x1_rest.cache_clear()
    torusknot._big_x_rest.cache_clear()


@pytest.fixture(scope="module")
def direct_handle_slide():
    """(rule, p, n) -> the JSON of embed(mirror(X1*T_n(y)) - T_n(y) mirror(X_{2p})),
    formed in the handlebody, for every kbsm rule, p <= 8 and 0 <= n <= 2p+4."""
    return {(rule, p, n): json.dumps(embed(mirror(x1_T_closed(n))
                                           - times_t_y(mirror(big_x(2 * p)), n),
                                           p, KBSM, rule).to_json())
            for rule in KBSM_RULES for p in range(1, 9) for n in range(2 * p + 5)}


class TestReduce:
    def test_already_in_window(self):
        for p in (1, 2, 3):
            for n in range(0, p + 1):
                assert JonesSequence(p, KBSM)(n) == basis_vec(p, KBSM, 0, n)
                assert JonesSequence(p, RT)(n) == basis_vec(p, RT, 0, n)

    def test_s_minus_one_vanishes(self):
        assert JonesSequence(2, KBSM)(-1).is_zero()

    def test_negative_index_folding(self):
        for p in (1, 2):
            for n in range(0, 9):
                assert JonesSequence(p, KBSM)(-n) == -JonesSequence(p, KBSM)(n - 2), (p, n)

    def test_first_overflow_kbsm(self):
        got = JonesSequence(1, KBSM)(2)
        assert got.terms == {(2, 0): t(4, -1), (2, 1): t(2, -1)}

    def test_second_overflow_kbsm(self):
        got = JonesSequence(1, KBSM)(3)
        assert got.terms == {(4, 0): t(6), (4, 1): t(4), (0, 0): t(10)}

    def test_first_overflow_rt(self):
        got = JonesSequence(1, RT)(2)
        assert got.terms == {(2, 0): t(4, -1), (2, 1): t(2)}

    def test_cold_memo_holds_only_the_requested_index(self):
        # the reduction walks its chain in one loop, so a cold call leaves
        # one memo entry, not one per index on the chain
        for N, p, c in ((300, 1, KBSM), (-300, 2, RT)):
            _reduce_items.cache_clear()
            JonesSequence(p, c)(N)
            assert _reduce_items.cache_info().currsize == 1, (N, p, c)

    def test_overflow_stays_in_window(self):
        for p in (1, 2, 3):
            for n in range(-6, 4 * p + 6):
                for key in JonesSequence(p, KBSM)(n).terms:
                    assert key[0] >= 0 and 0 <= key[1] <= p


class TestYShorthand:
    # t S_{p-1}(y) + t^{-1} S_p(y) under kbsm; under rt the S_{p-1} term flips
    def test_kbsm(self):
        assert y_bracket(1, KBSM).terms == {(0, 0): t(1), (0, 1): t(-1)}

    def test_rt_flips_lower_term(self):
        assert y_bracket(1, RT).terms == {(0, 0): t(1, -1), (0, 1): t(-1)}


class TestArithmetic:
    def test_sx_square(self):
        e = basis_vec(2, KBSM, 1, 0)
        assert times_sx(e, 1).terms == {(2, 0): t(0),
                                        (0, 0): t(0)}

    def test_unit(self):
        e = TkElement(2, KBSM, {(3, 1): t(2) - t(-2)})
        assert times_sx(e, 0) == e
        assert 1 * e == e

    def test_sy_product_matches_sequence(self):
        # y-products are formed in the handlebody, then embedded
        for p in (1, 2, 3):
            f = JonesSequence(p, KBSM)
            h = hb_mul(HbElement.cheb_sum([(1, 0, 0, 1, 0)]), HbElement.cheb_sum([(1, 0, 0, p, 0)]))
            assert embed(h, p, KBSM) == f(p + 1) + f(p - 1), p

    def test_times_sx_folding(self):
        e = TkElement(1, KBSM, {(0, 1): t(3)})
        assert times_sx(e, -1).is_zero()
        assert times_sx(e, -3) == -times_sx(e, 1)

    def test_mismatched_p(self):
        with pytest.raises(ValueError):
            basis_vec(1, KBSM, 0, 0) + basis_vec(2, KBSM, 0, 0)

    def test_mismatched_convention(self):
        with pytest.raises(ValueError):
            basis_vec(1, KBSM, 0, 0) + basis_vec(1, RT, 0, 0)

    def test_key_validation(self):
        with pytest.raises(ValueError):
            TkElement(0, KBSM, {})
        with pytest.raises(ValueError):
            TkElement(1, KBSM, {(-1, 0): t(0)})
        with pytest.raises(ValueError):
            TkElement(1, KBSM, {(0, 2): t(0)})

    def test_json_round_trip(self):
        e = TkElement(2, RT, {(2, 1): t(4, -1) + t(0, 3), (0, 0): t(-6)})
        data = e.to_json()
        assert set(data) == {"p", "convention", "terms"}
        assert from_json(TkElement, data) == e


small_laurents = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3).filter(bool),
    max_size=2).map(LaurentPoly)

tk_elems = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=2)),
    small_laurents,
    max_size=3).map(lambda d: TkElement(2, KBSM, d))


class TestXAction:
    @settings(max_examples=60, deadline=None)
    @given(tk_elems, st.integers(-8, 8), st.integers(-8, 8))
    def test_times_sx_twice_is_times_the_product(self, a, i, j):
        # S_i(x) S_j(x) = sum of S_k(x) over k in s_product, after folding
        # S_{-1} = 0 and S_{-i} = -S_{i-2}; x acts on the module term by term
        expected = TkElement(a.p, a.convention)
        fi, fj = normalize_s_index(i), normalize_s_index(j)
        if fi is not None and fj is not None:
            for k in s_product(fi[1], fj[1]):
                expected = expected + times_sx(a, k) * (fi[0] * fj[0])
        assert times_sx(times_sx(a, i), j) == expected


jones_coeffs = small_laurents | st.integers(-3, 3)


@st.composite
def jones_terms(draw):
    """Terms whose (i, N) pairs repeat, as given or folded by S_{-j} = -S_{j-2},
    so that sum has terms to merge, including N <= -2."""
    pairs = draw(st.lists(st.tuples(st.integers(-4, 6), st.integers(-12, 12)),
                          min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        i, N = draw(st.sampled_from(pairs))
        if draw(st.booleans()):
            i = -i - 2
        if draw(st.booleans()):
            N = -N - 2
        terms.append((draw(jones_coeffs), i, N))
    return terms


def sum_rules():
    kbsm, rt = ReductionRule.for_convention(KBSM), ReductionRule.for_convention(RT)
    kbsm_muts = kbsm.single_sign_mutations()
    # the first four keep the parameter ids they had when only the base rule
    # and the lead_sign mutant of each convention were drawn
    return ([(KBSM, kbsm), (KBSM, kbsm_muts[0]), (RT, rt), (RT, rt.single_sign_mutations()[0])]
            + [(KBSM, m) for m in kbsm_muts[1:]])


class TestJonesSum:
    @pytest.mark.parametrize("c, rule", sum_rules())
    @settings(max_examples=40, deadline=None)
    @given(terms=jones_terms(), p=st.integers(1, 3))
    def test_matches_element_arithmetic(self, c, rule, terms, p):
        # a Laurent coefficient enters the sum as one int term per monomial
        f = JonesSequence(p, c, rule)
        expected = TkElement(p, c)
        for coeff, i, N in terms:
            expected = expected + times_sx(f(N), i) * coeff
        rows = [(v, e, i, N) for coeff, i, N in terms
                for e, v in as_laurent(coeff).terms.items()]
        assert f.sum(rows) == expected

    def test_cancelling_terms_reduce_nothing(self):
        # terms are merged by folded (i, N, e) before any reduction, so a
        # cancelling pair never reaches the reduce memo, also when two
        # exponents on one (i, N) each cancel against a term written with
        # both i and N folded
        f = JonesSequence(2, KBSM)
        for N in (7, 30, 61):
            for terms in ([(1, 0, 0, N), (-1, 0, 0, N)], [(1, 0, 0, -N - 2), (1, 0, 0, N)],
                          [(1, 3, -5, N), (1, 3, 3, N)], [(1, 1, 4, -1), (2, 0, -1, N)],
                          [(2, 1, 1, N), (1, -3, 1, N), (-2, 1, -3, -N - 2),
                           (-1, -3, 1, N)],
                          [(2, 1, 2, N), (-1, 5, 2, N), (-2, 1, -4, -N - 2),
                           (1, 5, -4, -N - 2)]):
                misses = _reduce_items.cache_info().misses
                assert f.sum(terms).is_zero(), (N, terms)
                assert _reduce_items.cache_info().misses == misses, (N, terms)

    def test_one_memo_read_per_reduced_power(self):
        # several (i, e) entries on one N, some written folded, read the
        # reduce memo once between them
        f = JonesSequence(2, KBSM)
        for N in (5, 17, 33):
            terms = [(1, 0, 0, N), (2, 3, 1, N), (-1, 5, -6, -N - 2), (1, 2, 6, N), (3, -2, 0, N)]
            before = _reduce_items.cache_info()
            assert not f.sum(terms).is_zero()
            after = _reduce_items.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + 1, N

    def test_cold_telescope_reduces_only_the_survivors(self):
        # A_{n+1} - t^2 A_n leaves two of its 4n+4p terms, plus the right
        # side's two basis terms; the sum reduces nothing else
        _reduce_items.cache_clear()
        assert telescope_residual(40, 84).is_zero()
        assert _reduce_items.cache_info().currsize <= 4

    @settings(max_examples=200, deadline=None)
    @given(bounds=st.tuples(*[st.integers(-8, 8)] * 4), e=st.integers(-4, 4),
           p=st.integers(1, 3))
    def test_step_terms_are_the_window_difference(self, bounds, e, p):
        # t^e (U(lo, hi) - U(lo0, hi0)) for any two windows, empty and
        # reversed ones included, on both sides of the N <= -2 fold
        lo0, hi0, lo, hi = bounds
        f = JonesSequence(p, KBSM)
        expanded = _u_terms(lo, hi, e, 1) + _u_terms(lo0, hi0, e, -1)
        assert f.sum(_step_terms(lo0, hi0, lo, hi, e)) == f.sum(expanded)

    def test_no_terms_give_zero_in_context(self):
        got = JonesSequence(2, RT).sum([])
        assert got.is_zero() and (got.p, got.convention) == (2, RT)
        assert got == TkElement(2, RT)


def literal_reduce(N, p, c, rule):
    """S_N(y) rewritten by the rule exactly as the ReductionRule docstring
    states it, in element arithmetic: fold S_{-1} = 0 and S_{-n} = -S_{n-2},
    keep 0 <= N <= p, and rewrite S_{p+n}(y) for n >= 1, recursing on the tail.
    Under rt the rule is rewritten by the rt slot map, as the rt rule is
    written: no (-1)^n, s_pm1_sign and tail_sign negated, and no iota."""
    if N == -1:
        return TkElement(p, c)
    if N < -1:
        return -literal_reduce(-N - 2, p, c, rule)
    if N <= p:
        return basis_vec(p, c, 0, N)
    n = N - p
    if c is RT:
        a, s_pm1, tail = 1, -rule.s_pm1_sign, -rule.tail_sign
    else:
        a, s_pm1, tail = (-1) ** n, rule.s_pm1_sign, rule.tail_sign
    bracket = (TkElement(p, c, {(2 * n, p - 1): t(1, s_pm1)})
               + TkElement(p, c, {(2 * n, p): t(-1, rule.s_p_sign)}))
    return (bracket * t(2 * n + 1, rule.lead_sign * a)
            + literal_reduce(p - n - 1, p, c, rule) * t(4 * n + 2, tail))


def literal_times_sx(elem, i):
    """elem times S_i(x), term by term through s_product and element addition."""
    out = TkElement(elem.p, elem.convention)
    norm = normalize_s_index(i)
    if norm is None:
        return out
    sign, i = norm
    for (m, n), coeff in elem.terms.items():
        for k in s_product(i, m):
            out = out + TkElement(elem.p, elem.convention, {(k, n): coeff * sign})
    return out


class TestLiteralReduction:
    # an oracle that shares no code with JonesSequence._table: p <= 4 and
    # |N| up to 3p+6 give chains of three or more rule steps, and S_i(x) for
    # -8 <= i <= 6 runs both the one-term products (i = 0 or a row at m = 0)
    # and the longer ones

    @pytest.mark.parametrize("c, rule", ALL_RULES)
    def test_reduce_sy(self, c, rule):
        for p in range(1, 5):
            for N in range(-3 * p - 8, 3 * p + 7):
                assert JonesSequence(p, c, rule)(N) == literal_reduce(N, p, c, rule), (p, N)

    @pytest.mark.parametrize("c, rule", ALL_RULES)
    def test_times_sx(self, c, rule):
        for p in range(1, 5):
            for N in range(-3 * p - 8, 3 * p + 7, 3):
                elem = literal_reduce(N, p, c, rule)
                for i in range(-8, 7):
                    assert times_sx(elem, i) == literal_times_sx(elem, i), (p, N, i)

    @pytest.mark.parametrize("c, rule", ALL_RULES)
    def test_sum(self, c, rule):
        rng = random.Random(13)
        for p in range(1, 5):
            for _ in range(25):
                terms = [(rng.randint(-3, 3), rng.randint(-6, 6), rng.randint(-8, 6),
                          rng.randint(-3 * p - 8, 3 * p + 6)) for _ in range(rng.randint(1, 8))]
                expected = TkElement(p, c)
                for coeff, e, i, N in terms:
                    expected = expected + literal_times_sx(literal_reduce(N, p, c, rule), i) * t(e, coeff)
                assert JonesSequence(p, c, rule).sum(terms) == expected, (p, terms)

    @pytest.mark.parametrize("c, rule", ALL_RULES)
    def test_embed(self, c, rule):
        # a Chebyshev-basis element: S_m(x) S_n(y) S_k(z) embeds to
        # S_m(x) S_k(x) f(n), z mapping to x
        rng = random.Random(17)
        for p in range(1, 5):
            for _ in range(10):
                keys = {(rng.randint(0, 6), rng.randint(0, 3 * p + 6), rng.randint(0, 6)):
                        t(rng.randint(-4, 4), rng.choice((-2, -1, 1, 3)))
                        for _ in range(rng.randint(1, 4))}
                expected = TkElement(p, c)
                for (m, n, k), coeff in keys.items():
                    expected = expected + literal_times_sx(
                        literal_times_sx(literal_reduce(n, p, c, rule), m), k) * coeff
                assert embed(HbElement(CHEBYSHEV, keys), p, c, rule) == expected, (p, keys)


class TestMemoIsolation:
    def test_mutating_a_result_leaves_the_memo_unchanged(self):
        # the reduce memo holds int rows, and every coefficient handed out is
        # built fresh from them
        before = str(JonesSequence(2, KBSM)(9))
        got = JonesSequence(2, KBSM)(9)
        next(iter(got.terms.values())).terms[99] = 7
        summed = JonesSequence(2, KBSM).sum([(1, 0, 0, 9)])
        for coeff in summed.terms.values():
            coeff.terms.clear()
        assert str(JonesSequence(2, KBSM)(9)) == before
        assert JonesSequence(2, KBSM).sum([(1, 0, 0, 9)]) == JonesSequence(2, KBSM)(9)

    def test_mutating_a_residual_leaves_the_next_unchanged(self):
        # the induction memo holds int rows; the residual's coefficients are
        # built fresh on every call
        before = str(induction_residual(2, 3, RT))
        got = induction_residual(2, 3, RT)
        for coeff in got.terms.values():
            coeff.terms[99] = 7
        got.terms[(0, 0)] = t(0)
        assert str(induction_residual(2, 3, RT)) == before != "0"

    def test_bool_p_shares_no_corrupt_memo_entry(self):
        # True == 1 as a memo key, so p is stored as a plain int before any
        # row that carries it as a y-index can reach the memo
        _reduce_items.cache_clear()
        expected = json.dumps(JonesSequence(1, KBSM)(4).to_json())
        _reduce_items.cache_clear()
        JonesSequence(True, KBSM)(4)
        assert json.dumps(JonesSequence(1, KBSM)(4).to_json()) == expected
        assert str(JonesSequence(True, KBSM)(3)) == str(JonesSequence(1, KBSM)(3))
        assert all(type(n) is int for _, n in JonesSequence(True, RT)(9).terms)
        assert type(TkElement(True, KBSM).to_json()["p"]) is int

    def test_string_convention_shares_the_memo(self):
        _reduce_items.cache_clear()
        assert JonesSequence(2, "rt").convention is RT
        assert JonesSequence(2, "rt")(9) == JonesSequence(2, RT)(9)
        assert _reduce_items.cache_info().currsize == 1


class TestTermContract:
    def test_float_in_any_field_raises(self):
        f = JonesSequence(2, KBSM)
        for k in range(4):
            row = [1, 0, 0, 3]
            row[k] = float(row[k])
            with pytest.raises(TypeError):
                f.sum([tuple(row)])
        with pytest.raises(TypeError):
            f(3.0)

    @pytest.mark.parametrize("term", [(1, 0, 0), (1, 0, 0, 2, 0), 3, [1, 0, 0, 2]])
    def test_malformed_term_raises(self, term):
        # a term is a tuple of four ints, as cheb_sum's and Operator's are of five
        with pytest.raises(TypeError, match="key of 4 ints"):
            JonesSequence(2, KBSM).sum([term])

    def test_float_parameters_raise(self):
        with pytest.raises(TypeError):
            relation_residual(2, 1.0, KBSM)
        with pytest.raises(TypeError):
            rt_recursion_residual(2, 1.0)
        with pytest.raises(TypeError):
            telescope_residual(2.0, 1)
        with pytest.raises(TypeError):
            induction_residual(2, 0.0)
        with pytest.raises(TypeError):
            a_element(1.5, 2)


class TestEmbed:
    def test_xz_monomial(self):
        h = HbElement(MONOMIAL, {(1, 0, 1): 1})
        assert embed(h, 2, KBSM).terms == {(2, 0): t(0),
                                           (0, 0): t(0)}

    def test_x_sq_plus_z_sq(self):
        h = HbElement(MONOMIAL, {(2, 0, 0): 1, (0, 0, 2): 1})
        two = t(0, 2)
        assert embed(h, 1, KBSM).terms == {(2, 0): two, (0, 0): two}

    def test_unit(self):
        assert embed(HbElement(MONOMIAL, {(0, 0, 0): 1}), 3, RT) == TkElement(3, RT, {(0, 0): 1})

    def test_pure_y_powers_agree_with_reduction(self):
        for p in (1, 2):
            for n in range(0, 2 * p + 4):
                h = HbElement.cheb_sum([(1, 0, 0, n, 0)])
                assert embed(h, p, KBSM) == JonesSequence(p, KBSM)(n), (p, n)

    def test_commutes_with_x_and_z(self):
        # reduction commutes with x-multiplication, and z maps to x; the
        # y-degrees 3 and 5 exceed p = 2, so both sides reduce
        h = HbElement(MONOMIAL, {(1, 3, 0): t(2), (0, 5, 1): 1})
        for v in (X, Z):
            assert embed(hb_mul(v, h), 2, KBSM) == times_sx(embed(h, 2, KBSM), 1)


class TestRelation:
    def test_both_conventions(self):
        for c in (KBSM, RT):
            for p in range(1, 5):
                for n in range(-(2 * p + 3), 2 * p + 4):
                    assert relation_residual(p, n, c).is_zero(), (c, p, n)


class TestHandleSlide:
    def test_sample_points(self):
        assert handle_slide_residual(1, 1).is_zero()
        assert handle_slide_residual(1, 5).is_zero()
        assert handle_slide_residual(2, 3).is_zero()

    def test_n_zero(self):
        # the CLI grid starts at n = 1, so n = 0 is checked here: zero under
        # the base rule, and nonzero at p = 2 under each sign mutant (at
        # p = 1, tail_sign gives zero)
        assert all(handle_slide_residual(p, 0).is_zero() for p in range(1, 31))
        for mutant in KBSM_RULES[1:]:
            assert not handle_slide_residual(2, 0, mutant).is_zero(), mutant

    def test_arguments_are_checked_before_the_running_state(self):
        torusknot._windows.clear()
        with pytest.raises(TypeError, match=r"2\.0"):
            handle_slide_residual(1, 2.0)
        with pytest.raises(ValueError, match="handle slide index"):
            handle_slide_residual(1, -1)
        with pytest.raises(TypeError):
            handle_slide_residual(1.0, 2)
        with pytest.raises(ValueError):
            handle_slide_residual(0, 2)
        assert torusknot._windows == {}

    def test_running_tables_keep_one_n_per_rule(self):
        # a sweep keeps the two windows of its latest n only; under the
        # tail_sign mutant, whose residuals do not vanish, they stay small
        base = ReductionRule.for_convention(KBSM)
        tail = base.single_sign_mutations()[3]
        assert tail.tail_sign == -base.tail_sign
        for rule, most in ((base, 12), (tail, 400)):
            torusknot._windows.clear()
            nonzero = [not handle_slide_residual(30, n, rule).is_zero() for n in range(65)]
            assert any(nonzero) == (rule is tail)
            assert [key[:2] for key in torusknot._windows] == [(30, rule)] * 2
            bounds = sorted(b for b, _ in torusknot._windows.values())
            assert bounds == [(-64, 122), (64, -6)]
            sizes = [len(table) for _, table in torusknot._windows.values()]
            assert all(0 < size <= most for size in sizes), sizes

    @pytest.mark.parametrize("order", ["ascending", "shuffled", "cold"])
    def test_equals_the_embedded_difference(self, order, direct_handle_slide):
        # every point of every kbsm rule, in a sweep that steps the running
        # tables, in a seeded shuffle and with the state cleared before each
        points = sorted(direct_handle_slide, key=lambda k: (KBSM_RULES.index(k[0]), k[1], k[2]))
        if order == "shuffled":
            random.Random(12).shuffle(points)
        torusknot._windows.clear()
        for rule, p, n in points:
            if order == "cold":
                torusknot._windows.clear()
            got = json.dumps(handle_slide_residual(p, n, rule).to_json())
            assert got == direct_handle_slide[(rule, p, n)], (rule, p, n)

    @pytest.mark.parametrize("family", ["x1_T_closed", "big_x"])
    def test_follows_a_changed_family(self, family, monkeypatch):
        # the terms outside the k-sums are read off the tables of X1*T_n(y)'s
        # closed form and of the X_i recursion's memo, so a family with one
        # more term gives the embed of the changed difference, and the check fails
        extra = HbElement(CHEBYSHEV, {(1, 3, 2): t(5, 3)})
        sides = {"x1_T_closed": x1_T_closed, "big_x": big_x}
        sides[family] = lambda i, unchanged=sides[family]: unchanged(i) + extra
        table = {"x1_T_closed": "_x1_closed", "big_x": "_big_x_table"}[family]
        monkeypatch.setattr(torusknot, table, lambda i: hb_table(sides[family](i)))
        clear_handle_slide_state()
        try:
            for p in range(1, 4):
                for n in range(2 * p + 5):
                    want = embed(mirror(sides["x1_T_closed"](n))
                                 - times_t_y(mirror(sides["big_x"](2 * p)), n), p, KBSM)
                    got = handle_slide_residual(p, n)
                    assert not got.is_zero() and got == want, (p, n)
        finally:
            monkeypatch.undo()
            clear_handle_slide_state()

    def test_sweep_builds_each_family_once(self, monkeypatch):
        # a sweep reads X1*T_n(y)'s table once per n and X_{2p}'s once per p,
        # and builds, converts, adds, subtracts or multiplies no handlebody element
        for i in range(13):
            big_x(i)
        built, other = [], []

        def logged(log, name, fn):
            return lambda *a: log.append((name, a)) or fn(*a)

        monkeypatch.setattr(torusknot, "_x1_closed", logged(built, "x1", torusknot._x1_closed))
        monkeypatch.setattr(torusknot, "_big_x_table",
                            logged(built, "big_x", torusknot._big_x_table))
        for name in ("__add__", "__sub__", "__mul__", "to_basis"):
            monkeypatch.setattr(HbElement, name, logged(other, name, getattr(HbElement, name)))
        for module in (handlebody, families):
            monkeypatch.setattr(module, "_element", logged(other, "_element", module._element))
        clear_handle_slide_state()
        try:
            for p in range(1, 7):
                for n in range(1, 2 * p + 5):
                    assert handle_slide_residual(p, n).is_zero(), (p, n)
        finally:
            monkeypatch.undo()
            clear_handle_slide_state()
        assert other == []
        assert sorted(built) == ([("big_x", (2 * p,)) for p in range(1, 7)]
                                 + [("x1", (n,)) for n in range(1, 17)])

    def test_embed_is_linear_under_every_rule(self):
        # handle_slide_residual embeds each side's heads and k-sums apart and
        # adds the results, which is the embed of the difference of the two
        # sides only if embed is linear, for the mutant rules too
        a = HbElement(CHEBYSHEV, {(1, 3, 2): t(2), (0, 4, 1): -1, (2, 0, 0): t(-1, 3)})
        b = HbElement(CHEBYSHEV, {(1, 3, 2): t(2), (3, 5, 0): t(1), (0, 2, 2): 2})
        base = ReductionRule.for_convention(KBSM)
        for r in (base, *base.single_sign_mutations()):
            for p in (1, 2):
                got = embed(a - b, p, KBSM, r)
                assert got == embed(a, p, KBSM, r) - embed(b, p, KBSM, r), (r, p)

    def test_mutations_differ_in_one_slot(self):
        slots = ("lead_sign", "s_pm1_sign", "s_p_sign", "tail_sign")
        # one shared base rule for both conventions, so memo keys share it too
        base = ReductionRule.for_convention(KBSM)
        assert ReductionRule.for_convention(RT) is base
        muts = base.single_sign_mutations()
        assert len(muts) == 4 and len(set(muts)) == 4
        for m in muts:
            diffs = [s for s in slots if getattr(m, s) != getattr(base, s)]
            assert len(diffs) == 1, m

    def test_rule_hash_is_cached_outside_the_fields(self):
        # the hash is computed once per rule; the fields, which mutation
        # checks compare one by one, are the four sign slots alone
        slots = ("lead_sign", "s_pm1_sign", "s_p_sign", "tail_sign")
        assert tuple(f.name for f in dataclasses.fields(ReductionRule)) == slots
        base = ReductionRule.for_convention(KBSM)
        copy = ReductionRule(*(getattr(base, s) for s in slots))
        assert copy == base and copy is not base and hash(copy) == hash(base)
        for m in base.single_sign_mutations():
            back = dataclasses.replace(m, **{s: getattr(base, s) for s in slots})
            assert back == base and hash(back) == hash(base)
            assert {base: 1, m: 2}[back] == 1


class TestTelescope:
    def test_a0_is_empty_for_p1(self):
        assert a_element(1, 0).is_zero()

    def test_a1_for_p1(self):
        assert a_element(1, 1).terms == {(0, 1): t(0), (0, 0): t(2)}

    def test_range_form(self):
        for p, n_max in ((1, 6), (2, 8)):
            for n in range(n_max):
                assert telescope_residual(p, n).is_zero(), (p, n)

    def test_int_form(self):
        assert telescope_residual(2, 3).is_zero()

    def test_is_the_relation_at_index_n_plus_p_minus_1(self):
        # A_{n+1} - t^2 A_n collapses to t^{4-4p} f(n+2p-1) + t^{4n+2} f(-n),
        # the defining relation's left side at index n+p-1; the telescope's
        # right side has a fixed sign, so lead_sign and tail_sign mutants
        # break the equality
        base = ReductionRule.for_convention(KBSM)
        muts = base.single_sign_mutations()
        for r in (base, muts[1], muts[2]):
            for p in range(1, 6):
                for n in range(15):
                    assert (telescope_residual(p, n, KBSM, r)
                            == relation_residual(p, n + p - 1, KBSM, r) * t(2 * n - 2 * p + 3)), (r, p, n)

    @pytest.mark.parametrize("c, rule", ALL_RULES)
    def test_runs_are_the_defining_sums(self, c, rule):
        # the residual from one window step is the one from A_{n+1}'s and
        # A_n's defining terms, byte for byte, under every rule and for n < 0
        for p in range(1, 9):
            f = JonesSequence(p, c, rule)
            for n in range(-6, 2 * p + 8):
                sign = -1 if (p + n - 1) % 2 else 1
                expected = f.sum(a_terms(p, n + 1) + a_terms(p, n, 2, -1)
                                 + _y_terms(f, 2 * n + 2 * p - 2, 2 * n - 2 * p + 3, -sign))
                assert telescope_residual(p, n, c, rule).to_json() == expected.to_json(), (p, n)

    def test_induction_identity_samples(self):
        assert induction_residual(1, 2).is_zero()
        assert induction_residual(2, 1).is_zero()
        assert induction_residual(3, 4).is_zero()

    def test_induction_identity_is_convention_specific(self):
        grid = [(p, n) for p in (1, 2) for n in range(0, 5)]
        assert any(not induction_residual(p, n, RT).is_zero() for p, n in grid)

    @pytest.mark.parametrize("c, rule", ALL_RULES)
    def test_induction_is_the_element_formula(self, c, rule):
        # induction_residual works on one flat table; this is the element
        # arithmetic it stands for, written out, under every rule
        for p in range(1, 5):
            for n in range(9):
                got = induction_residual(p, n, c, rule)
                expected = induction_formula(p, n, c, rule)
                assert got == expected and str(got) == str(expected), (p, n)

    def test_any_order_is_the_element_formula(self):
        # each n steps the kept window of A_n from wherever it last was, or
        # builds it afresh; n < 0 too, where A_n's first sum is empty
        torusknot._windows.clear()
        points = [(c, rule, p, n) for c, rule in ALL_RULES
                  for p in range(1, 7) for n in range(-2, 2 * p + 5)]
        random.Random(10).shuffle(points)
        for c, rule, p, n in points:
            got = induction_residual(p, n, c, rule)
            assert got == induction_formula(p, n, c, rule), (c, rule, p, n)

    def test_ascending_sweep_steps_from_the_running_rows(self):
        # x^2 A_n is one step from x^2 A_{n-1}: the window a sweep keeps is
        # the same table as a cold build at every n, under every rule
        for c, rule in ALL_RULES:
            torusknot._windows.clear()
            swept = []
            for n in range(11):
                induction_residual(3, n, c, rule)
                swept.append(dict(kept_window()))
            for n, table in enumerate(swept):
                torusknot._windows.clear()
                induction_residual(3, n, c, rule)
                assert kept_window() == table, (rule, n)

    def test_running_rows_keep_one_n_per_rule(self):
        # under a rule for which the identity fails, x^2 A_n grows like n^2
        # entries, so only the latest n is kept
        tail = ReductionRule.for_convention(KBSM).single_sign_mutations()[3]
        torusknot._windows.clear()
        sizes = []
        for n in range(61):
            induction_residual(1, n, KBSM, tail)
            sizes.append(len(kept_window()))
        assert sizes[60] > 50 * sizes[4]
        assert list(torusknot._windows) == [(1, tail, KBSM, "induction")]
        assert torusknot._windows[(1, tail, KBSM, "induction")][0] == (-59, 60)

    def test_base_rule_memo_holds_the_left_side(self):
        # under the base rule x^2 A_n is the left side up to a monomial:
        # four entries, S_{2p+2n-2}(x) and S_{2p+2n-4}(x) times S_{p-1}(y), S_p(y)
        for p in range(1, 5):
            for n in range(1, 2 * p + 5):
                torusknot._windows.clear()
                induction_residual(p, n)
                table = kept_window()
                assert len(table) == 4, (p, n)
                assert {(m, k) for m, k, _ in table} == {
                    (m, k) for m in (2 * p + 2 * n - 2, 2 * p + 2 * n - 4) for k in (p - 1, p)}


class TestWindows:
    def test_u_terms_are_oriented_and_additive(self):
        # U(a, b) + U(b+1, c) = U(a, c) for all a, b, c once the terms are
        # merged, reversed windows included; U(a, b) has |b - a + 1| terms
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert len(_u_terms(a, b, 0, 1)) == abs(b - a + 1), (a, b)
                for c in range(-6, 7):
                    merged = _merge(_u_terms(a, b, 3, 2) + _u_terms(b + 1, c, 3, 2)
                                    + _u_terms(a, c, 3, -2))
                    assert not any(merged.values()), (a, b, c)

    @pytest.mark.parametrize("rule", KBSM_RULES)
    def test_random_walk_equals_a_cold_build(self, rule):
        # a seeded walk of small moves and jumps, empty and reversed windows
        # among them, each window reached from the last where that is
        # cheaper than a fresh build: every table is x^2 U
        # as element arithmetic, with no zero entry, and is added to the
        # residual's table, never handed out
        f = JonesSequence(2, KBSM, rule)
        rng = random.Random(12)
        torusknot._windows.clear()
        lo, hi, kept, seen = 0, 0, None, set()
        for _ in range(50):
            if rng.random() < 0.25:
                lo, hi = rng.randint(-8, 8), rng.randint(-8, 8)
            else:
                lo, hi = lo + rng.randint(-2, 2), hi + rng.randint(-2, 2)
            acc = {}
            _window(acc, f, "walk", lo, hi, 0, 1)
            table = kept_window()
            u = f.sum(_u_terms(lo, hi, 0, 1))
            assert torusknot._element(2, KBSM, table) == times_sx(u, 2) + u, (lo, hi)
            assert all(table.values()), (lo, hi)
            assert acc == table and acc is not table, (lo, hi)
            seen.add("stepped" if table is kept else "built")
            seen.add("empty" if hi == lo - 1 else "reversed" if hi < lo - 1 else "forward")
            kept = table
        assert seen == {"stepped", "built", "empty", "reversed", "forward"}

    def test_a_step_that_raises_leaves_no_stale_window(self, monkeypatch):
        # at p = 2 only the window step of n = 5 reduces S_7(y); when that
        # reduction raises, the slot must not keep n = 5's bounds over n = 4's
        # table, or every later step of the sweep reads wrong data
        torusknot._windows.clear()
        assert all(induction_residual(2, n).is_zero() for n in range(5))

        def raising(N, p, rule):
            if N == 7:
                raise MemoryError("reduction interrupted")
            return _reduce_items(N, p, rule)

        monkeypatch.setattr(torusknot, "_reduce_items", raising)
        with pytest.raises(MemoryError):
            induction_residual(2, 5)
        monkeypatch.undo()
        assert all(induction_residual(2, n).is_zero() for n in range(5, 9))

    def test_ascending_sweeps_reduce_two_powers_per_window_and_n(self, monkeypatch):
        # after its first n, an ascending sweep passes four terms per n to the
        # reduction for the handle slide and two for the induction; the
        # handle slide's second window U(n, J-n) holds one power at n = p-1
        # and n = p, and is built afresh there
        p, J = 30, 58
        for n in range(65):
            handle_slide_residual(p, n)  # the rests are cached per n and p
        passed = []
        u_terms = torusknot._u_terms

        def logged(*args):
            terms = u_terms(*args)
            passed.append(len(terms))
            return terms

        monkeypatch.setattr(torusknot, "_u_terms", logged)
        for residual, want in ((handle_slide_residual, [2 + min(2, abs(J + 1 - 2 * n))
                                                        for n in range(1, 65)]),
                               (induction_residual, [2] * 64)):
            torusknot._windows.clear()
            per_n = []
            for n in range(65):
                passed.clear()
                assert residual(p, n).is_zero(), (residual, n)
                per_n.append(sum(passed))
            assert per_n[1:] == want, residual


class TestRuleChecks:
    def test_signs_are_int_plus_or_minus_one(self):
        base = ReductionRule.for_convention(KBSM)
        with pytest.raises(TypeError, match="1.5"):
            ReductionRule(1.5, 1, 1, -1)
        for field in ("lead_sign", "s_pm1_sign", "s_p_sign", "tail_sign"):
            for bad in (2, 0, -2):
                with pytest.raises(ValueError, match=field):
                    dataclasses.replace(base, **{field: bad})
            with pytest.raises(TypeError):
                dataclasses.replace(base, **{field: "1"})

    def test_rule_is_checked_before_any_memo_is_read(self):
        # a rule that is not a ReductionRule raises, inside the basis window
        # too, and leaves no memo entry behind
        _reduce_items.cache_clear()
        torusknot._windows.clear()
        for bad in ("kbsm", (1, True, 1, 1, -1)):
            for N in (1, 5):
                with pytest.raises(TypeError, match="ReductionRule"):
                    JonesSequence(N, KBSM, bad)(3)
            with pytest.raises(TypeError, match="ReductionRule"):
                JonesSequence(3, KBSM, bad)
            with pytest.raises(TypeError, match="ReductionRule"):
                handle_slide_residual(1, 2, bad)
            with pytest.raises(TypeError, match="ReductionRule"):
                induction_residual(1, 2, KBSM, bad)
        assert _reduce_items.cache_info().currsize == 0
        assert torusknot._windows == {}


class TestOneRule:
    def test_four_sign_slots_and_one_base_rule(self):
        assert [f.name for f in dataclasses.fields(ReductionRule)] == [
            "lead_sign", "s_pm1_sign", "s_p_sign", "tail_sign"]
        assert ReductionRule.for_convention(KBSM) is ReductionRule.for_convention(RT)
        assert ReductionRule.for_convention("rt") is ReductionRule.for_convention(KBSM)
        with pytest.raises(ValueError):
            ReductionRule.for_convention("kbs")

    @pytest.mark.parametrize("c, rule", ALL_RULES)
    def test_conventions_differ_by_the_involution(self, c, rule):
        # f_rt(N) = (-1)^N iota(f_kbsm(N)), iota negating the terms of odd
        # y-index, and back: iota is an involution
        other = RT if c is KBSM else KBSM
        for p in range(1, 9):
            for N in range(-30, 60):
                seen = JonesSequence(p, other, rule)(N)
                flipped = {(m, n): cf * (-1 if (N + n) % 2 else 1)
                           for (m, n), cf in seen.terms.items()}
                assert JonesSequence(p, c, rule)(N).terms == flipped, (p, N)

    def test_both_conventions_share_one_memo(self):
        # the memo holds kbsm rows; rt reads them through iota, so running
        # both conventions leaves as many entries as kbsm alone
        _reduce_items.cache_clear()
        grid = [(p, n) for p in range(1, 5) for n in range(-p - 4, 3 * p + 6)]
        for p, n in grid:
            relation_residual(p, n, KBSM)
            qt_apply(inhomog_recurrence(p), JonesSequence(p, KBSM), n)
        kbsm_only = _reduce_items.cache_info()
        for p, n in grid:
            relation_residual(p, n, RT)
            rt_recursion_residual(p, n)
        both = _reduce_items.cache_info()
        assert both.currsize == kbsm_only.currsize > 0
        assert both.misses == kbsm_only.misses

    def test_interleaved_conventions_keep_their_own_windows(self):
        # one rule serves both conventions, so a window is kept per
        # convention: an rt call never steps the kbsm window, nor back
        cold = {}
        for c in (KBSM, RT):
            for n in range(9):
                torusknot._windows.clear()
                cold[c, n] = induction_residual(2, n, c).to_json()
        torusknot._windows.clear()
        for n in range(9):
            for c in (KBSM, RT):
                assert induction_residual(2, n, c).to_json() == cold[c, n], (c, n)
        assert not induction_residual(2, 3, RT).is_zero()


class TestRtRecursion:
    @pytest.mark.parametrize("rule", KBSM_RULES)
    def test_is_the_six_term_recursion(self, rule):
        # the six terms are stated once, in inhomog_recurrence; this is the
        # recursion written out as sum terms, with x^2 - 2 = S_2(x) - S_0(x)
        for p in range(1, 7):
            f = JonesSequence(p, RT, rule)
            for n in range(-p - 4, 2 * p + 8):
                literal = f.sum([
                    (1, -2 * n - 3, 0, n + p + 1), (1, 2 * n + 3, 0, n - p),
                    (-1, -2 * n - 1, 2, n + p), (1, -2 * n - 1, 0, n + p),
                    (-1, 2 * n + 1, 2, n - p - 1), (1, 2 * n + 1, 0, n - p - 1),
                    (1, -2 * n + 1, 0, n + p - 1), (1, 2 * n - 1, 0, n - p - 2)])
                got = rt_recursion_residual(p, n, rule)
                assert got.to_json() == literal.to_json(), (p, n)

    def test_sample_points(self):
        for n in range(-3, 6):
            assert rt_recursion_residual(1, n).is_zero(), n
        assert rt_recursion_residual(2, 0).is_zero()
        assert rt_recursion_residual(3, -5).is_zero()
