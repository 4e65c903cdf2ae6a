"""Reduction rules, module arithmetic, and the verification identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeincalc.coeffs import LaurentPoly, t
from skeincalc.handlebody import HbElement
from skeincalc.torusknot import (Convention, JonesSequence, ReductionRule,
                                 TkElement, _reduce_items, a_element, embed,
                                 handle_slide_residual, induction_residual, reduce_sy,
                                 relation_residual, rt_recursion_residual,
                                 telescope_residual, tk_mul, y_shorthand)

KBSM = Convention.KBSM
RT = Convention.RT


def basis_vec(p, c, m, n):
    return TkElement(p, c, {(m, n): LaurentPoly.one()})


class TestReduce:
    def test_already_in_window(self):
        for p in (1, 2, 3):
            for n in range(0, p + 1):
                assert reduce_sy(n, p, KBSM) == basis_vec(p, KBSM, 0, n)
                assert reduce_sy(n, p, RT) == basis_vec(p, RT, 0, n)

    def test_s_minus_one_vanishes(self):
        assert reduce_sy(-1, 2, KBSM).is_zero()

    def test_negative_index_folding(self):
        for p in (1, 2):
            for n in range(0, 9):
                assert reduce_sy(-n, p, KBSM) == -reduce_sy(n - 2, p, KBSM), (p, n)

    def test_first_overflow_kbsm(self):
        got = reduce_sy(2, 1, KBSM)
        assert got.terms == {(2, 0): t(4, -1), (2, 1): t(2, -1)}

    def test_second_overflow_kbsm(self):
        got = reduce_sy(3, 1, KBSM)
        assert got.terms == {(4, 0): t(6), (4, 1): t(4), (0, 0): t(10)}

    def test_first_overflow_rt(self):
        got = reduce_sy(2, 1, RT)
        assert got.terms == {(2, 0): t(4, -1), (2, 1): t(2)}

    def test_cold_memo_holds_only_the_requested_index(self):
        # the reduction walks its chain in one loop, so a cold call leaves
        # one memo entry, not one per index on the chain
        for N, p, c in ((300, 1, KBSM), (-300, 2, RT)):
            _reduce_items.cache_clear()
            reduce_sy(N, p, c)
            assert _reduce_items.cache_info().currsize == 1, (N, p, c)

    def test_overflow_stays_in_window(self):
        for p in (1, 2, 3):
            for n in range(-6, 4 * p + 6):
                for key in reduce_sy(n, p, KBSM).terms:
                    assert key[0] >= 0 and 0 <= key[1] <= p


class TestYShorthand:
    def test_kbsm(self):
        assert y_shorthand(1, KBSM).terms == {(0, 0): t(1), (0, 1): t(-1)}

    def test_rt_flips_lower_term(self):
        assert y_shorthand(1, RT).terms == {(0, 0): t(1, -1), (0, 1): t(-1)}


class TestArithmetic:
    def test_sx_square(self):
        e = basis_vec(2, KBSM, 1, 0)
        assert tk_mul(e, e).terms == {(2, 0): LaurentPoly.one(),
                                      (0, 0): LaurentPoly.one()}

    def test_unit(self):
        e = TkElement(2, KBSM, {(3, 1): t(2) - t(-2)})
        assert tk_mul(e, TkElement.one(2, KBSM)) == e

    def test_sy_product_matches_sequence(self):
        for p in (1, 2, 3):
            f = JonesSequence(p, KBSM)
            s1 = basis_vec(p, KBSM, 0, 1) if p >= 1 else None
            sp = basis_vec(p, KBSM, 0, p)
            assert tk_mul(s1, sp) == f(p + 1) + f(p - 1), p

    def test_times_sx_folding(self):
        e = TkElement(1, KBSM, {(0, 1): t(3)})
        assert e.times_sx(-1).is_zero()
        assert e.times_sx(-3) == -e.times_sx(1)

    def test_mismatched_p(self):
        with pytest.raises(ValueError):
            basis_vec(1, KBSM, 0, 0) + basis_vec(2, KBSM, 0, 0)

    def test_mismatched_convention(self):
        with pytest.raises(ValueError):
            tk_mul(basis_vec(1, KBSM, 0, 0), basis_vec(1, RT, 0, 0))

    def test_key_validation(self):
        with pytest.raises(ValueError):
            TkElement(0, KBSM, {})
        with pytest.raises(ValueError):
            TkElement(1, KBSM, {(-1, 0): LaurentPoly.one()})
        with pytest.raises(ValueError):
            TkElement(1, KBSM, {(0, 2): LaurentPoly.one()})

    def test_json_round_trip(self):
        e = TkElement(2, RT, {(2, 1): t(4, -1) + t(0, 3), (0, 0): t(-6)})
        data = e.to_json()
        assert set(data) == {"p", "convention", "terms"}
        assert TkElement.from_json(data) == e


small_laurents = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3).filter(bool),
    max_size=2).map(LaurentPoly)

tk_elems = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=2)),
    small_laurents,
    max_size=3).map(lambda d: TkElement(2, KBSM, d))

x_only_elems = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.just(0)),
    small_laurents,
    max_size=3).map(lambda d: TkElement(2, KBSM, d))


class TestProductProperties:
    @settings(max_examples=60, deadline=None)
    @given(tk_elems, tk_elems)
    def test_commutative(self, a, b):
        assert tk_mul(a, b) == tk_mul(b, a)

    @settings(max_examples=40, deadline=None)
    @given(tk_elems, tk_elems, x_only_elems)
    def test_associative_with_x_only_factor(self, a, b, c):
        # reduction commutes with x-multiplication, so any placement of the
        # y-free factor gives the same result
        assert tk_mul(tk_mul(a, b), c) == tk_mul(a, tk_mul(b, c))
        assert tk_mul(tk_mul(a, c), b) == tk_mul(a, tk_mul(c, b))

    def test_not_associative_in_general(self):
        # reducing an intermediate product and then multiplying by more
        # y-content is lossy, so the formal product is only associative
        # when a y-free factor is involved; pin one failing triple
        s1 = basis_vec(2, KBSM, 0, 1)
        s2 = basis_vec(2, KBSM, 0, 2)
        assert tk_mul(tk_mul(s1, s1), s2) != tk_mul(s1, tk_mul(s1, s2))

    @settings(max_examples=40, deadline=None)
    @given(tk_elems, tk_elems, tk_elems)
    def test_distributive(self, a, b, c):
        assert tk_mul(a, b + c) == tk_mul(a, b) + tk_mul(a, c)


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
        f = JonesSequence(p, c, rule)
        expected = TkElement(p, c)
        for coeff, i, N in terms:
            expected = expected + f(N).times_sx(i) * coeff
        assert f.sum(terms) == expected

    def test_cancelling_terms_reduce_nothing(self):
        # terms are merged by folded (i, N) before any reduction, so a
        # cancelling pair never reaches the reduce memo
        f = JonesSequence(2, KBSM)
        for N in (7, 30, 61):
            for terms in ([(1, 0, N), (-1, 0, N)], [(1, 0, -N - 2), (1, 0, N)],
                          [(t(3), -5, N), (t(3), 3, N)], [(t(1), 4, -1), (2, -1, N)]):
                misses = _reduce_items.cache_info().misses
                assert f.sum(terms).is_zero(), (N, terms)
                assert _reduce_items.cache_info().misses == misses, (N, terms)

    def test_cold_telescope_reduces_only_the_survivors(self):
        # A_{n+1} - t^2 A_n leaves two of its 4n+4p terms, plus the right
        # side's two basis terms; the sum reduces nothing else
        _reduce_items.cache_clear()
        assert telescope_residual(40, 84).is_zero()
        assert _reduce_items.cache_info().currsize <= 4

    def test_no_terms_give_zero_in_context(self):
        got = JonesSequence(2, RT).sum([])
        assert got.is_zero() and (got.p, got.convention) == (2, RT)
        assert got == TkElement(2, RT)


class TestMemoIsolation:
    def test_mutating_a_result_leaves_the_memo_unchanged(self):
        # the reduce memo holds int rows, and every coefficient handed out is
        # built fresh from them
        before = str(reduce_sy(9, 2, KBSM))
        got = reduce_sy(9, 2, KBSM)
        next(iter(got.terms.values())).terms[99] = 7
        summed = JonesSequence(2, KBSM).sum([(1, 0, 9)])
        for coeff in summed.terms.values():
            coeff.terms.clear()
        assert str(reduce_sy(9, 2, KBSM)) == before
        assert JonesSequence(2, KBSM).sum([(1, 0, 9)]) == reduce_sy(9, 2, KBSM)


class TestEmbed:
    def test_xz_monomial(self):
        h = HbElement.mono({(1, 0, 1): 1})
        assert embed(h, 2, KBSM).terms == {(2, 0): LaurentPoly.one(),
                                           (0, 0): LaurentPoly.one()}

    def test_x_sq_plus_z_sq(self):
        h = HbElement.mono({(2, 0, 0): 1, (0, 0, 2): 1})
        two = t(0, 2)
        assert embed(h, 1, KBSM).terms == {(2, 0): two, (0, 0): two}

    def test_unit(self):
        assert embed(HbElement.one(), 3, RT) == TkElement.one(3, RT)

    def test_pure_y_powers_agree_with_reduction(self):
        for p in (1, 2):
            for n in range(0, 2 * p + 4):
                h = HbElement.cheb_term(0, n, 0, LaurentPoly.one())
                assert embed(h, p, KBSM) == reduce_sy(n, p, KBSM), (p, n)

    def test_is_ring_map_on_samples(self):
        a = HbElement.mono({(1, 1, 0): t(2), (0, 0, 1): 1})
        b = HbElement.mono({(0, 2, 0): 1, (1, 0, 1): t(-2)})
        lhs = embed(a * b, 2, KBSM)
        rhs = tk_mul(embed(a, 2, KBSM), embed(b, 2, KBSM))
        assert lhs == rhs


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

    def test_embed_is_linear_under_every_rule(self):
        # handle_slide_residual embeds the difference of its two sides, which
        # equals the difference of the embedded sides only if embed is linear,
        # for the mutant rules too
        a = HbElement.cheb({(1, 3, 2): t(2), (0, 4, 1): -1, (2, 0, 0): t(-1, 3)})
        b = HbElement.cheb({(1, 3, 2): t(2), (3, 5, 0): t(1), (0, 2, 2): 2})
        base = ReductionRule.for_convention(KBSM)
        for r in (base, *base.single_sign_mutations()):
            for p in (1, 2):
                got = embed(a - b, p, KBSM, r)
                assert got == embed(a, p, KBSM, r) - embed(b, p, KBSM, r), (r, p)

    def test_mutations_differ_in_one_slot(self):
        slots = ("lead_sign", "alternating", "s_pm1_sign", "s_p_sign", "tail_sign")
        for c in (KBSM, RT):
            # one shared base rule per convention, so memo keys share it too
            assert ReductionRule.for_convention(c) is ReductionRule.for_convention(c)
            base = ReductionRule.for_convention(c)
            muts = base.single_sign_mutations()
            assert len(muts) == 4 and len(set(muts)) == 4
            for m in muts:
                diffs = [s for s in slots if getattr(m, s) != getattr(base, s)]
                assert len(diffs) == 1, (c, m)


class TestTelescope:
    def test_a0_is_empty_for_p1(self):
        assert a_element(1, 0).is_zero()

    def test_a1_for_p1(self):
        assert a_element(1, 1).terms == {(0, 1): LaurentPoly.one(), (0, 0): t(2)}

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

    def test_induction_identity_samples(self):
        assert induction_residual(1, 2).is_zero()
        assert induction_residual(2, 1).is_zero()
        assert induction_residual(3, 4).is_zero()

    def test_induction_identity_is_convention_specific(self):
        grid = [(p, n) for p in (1, 2) for n in range(0, 5)]
        assert any(not induction_residual(p, n, RT).is_zero() for p, n in grid)

    @pytest.mark.parametrize("c, rule", [
        (c, r) for c in (KBSM, RT)
        for r in (ReductionRule.for_convention(c),
                  *ReductionRule.for_convention(c).single_sign_mutations())])
    def test_induction_is_the_element_formula(self, c, rule):
        # induction_residual works on one flat table; this is the element
        # arithmetic it stands for, written out, under every rule
        for p in range(1, 5):
            ybr = y_shorthand(p, c, rule)
            for n in range(9):
                a = a_element(p, n, c, rule)
                expected = (ybr.times_sx(2 * p + 2 * n - 2) + ybr.times_sx(2 * p + 2 * n - 4)
                            - (a.times_sx(2) + a) * t(2 * p - 2 * n - 1, (-1) ** (p + n)))
                got = induction_residual(p, n, c, rule)
                assert got == expected and str(got) == str(expected), (p, n)


class TestRtRecursion:
    def test_sample_points(self):
        for n in range(-3, 6):
            assert rt_recursion_residual(1, n).is_zero(), n
        assert rt_recursion_residual(2, 0).is_zero()
        assert rt_recursion_residual(3, -5).is_zero()
