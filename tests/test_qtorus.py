"""Noncommutative operator algebra and the recurrence it encodes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeincalc.chebyshev import monomial_to_S
from skeincalc.coeffs import AuxLaurent, LaurentPoly, t
from skeincalc.handlebody import Z
from skeincalc.qtorus import (L, L_INV, M, M_INV, X2_MINUS_2, CommutativePoly,
                              QtElement, base_relation_op, homogenization_residual,
                              inhomog_recurrence, product_identity_residual,
                              product_multiplier, qt_apply, qt_mul,
                              recurrence_poly, t1_factor_residual)
from skeincalc.torusknot import Convention, JonesSequence, ReductionRule, TkElement

from oracles import from_json

KBSM = Convention.KBSM
RT = Convention.RT


class TestNormalOrdering:
    def test_l_past_m(self):
        assert qt_mul(L, M).terms == {(1, 1): AuxLaurent({0: t(2)})}

    def test_m_past_l_is_free(self):
        assert qt_mul(M, L).terms == {(1, 1): AuxLaurent({0: t(0)})}

    def test_inverses(self):
        assert qt_mul(L, L_INV) == QtElement.monomial(0, 0)
        assert qt_mul(M_INV, M) == QtElement.monomial(0, 0)

    def test_weighted_word_product(self):
        # t^{2p+5} L^{p+2} M times t^{-3} L^{p+1} M^{-1} collapses to L^{2p+3}
        for p in range(1, 5):
            lhs = qt_mul(QtElement.monomial(0, p + 2, t(2 * p + 5)), M)
            rhs = qt_mul(QtElement.monomial(0, p + 1, t(-3)), M_INV)
            assert qt_mul(lhs, rhs) == QtElement.monomial(0, 2 * p + 3), p

    def test_unweighted_word_product(self):
        # without the scalar prefactors the same product picks up t^{-2p-2}
        for p in range(1, 4):
            lhs = qt_mul(QtElement.monomial(0, p + 2), M)
            rhs = qt_mul(QtElement.monomial(0, p + 1), M_INV)
            expected = QtElement.monomial(0, 2 * p + 3, t(-2 * p - 2))
            assert qt_mul(lhs, rhs) == expected, p

    def test_coefficients_must_be_z_free(self):
        # a coefficient is a polynomial in x alone; a handlebody element
        # (which carries z) is rejected
        with pytest.raises(TypeError):
            QtElement({(0, 0): Z})

    def test_coefficients_need_nonnegative_x_degrees(self):
        with pytest.raises(ValueError):
            QtElement({(0, 0): AuxLaurent({-1: t(0)})})
        with pytest.raises(ValueError):
            QtElement.monomial(1, 0, AuxLaurent({2: 1, -1: 3}))

    def test_json_round_trip(self):
        e = QtElement({(1, -2): AuxLaurent({2: t(3, -1), 0: t(3, 2)}),
                       (-1, 0): AuxLaurent({0: t(-5)})})
        assert from_json(QtElement, e.to_json()) == e


qt_coeffs = st.builds(
    lambda xd, e, c: AuxLaurent({xd: t(e, c)}),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3).filter(bool))

qt_elems = st.dictionaries(
    st.tuples(st.integers(min_value=-2, max_value=2),
              st.integers(min_value=-2, max_value=2)),
    qt_coeffs,
    max_size=2).map(QtElement)


class TestRingProperties:
    @settings(max_examples=50, deadline=None)
    @given(qt_elems, qt_elems, qt_elems)
    def test_associative(self, a, b, c):
        assert qt_mul(qt_mul(a, b), c) == qt_mul(a, qt_mul(b, c))

    @settings(max_examples=50, deadline=None)
    @given(qt_elems)
    def test_unit(self, a):
        assert qt_mul(a, QtElement.monomial(0, 0)) == a
        assert qt_mul(QtElement.monomial(0, 0), a) == a

    @settings(max_examples=40, deadline=None)
    @given(qt_elems, qt_elems, qt_elems)
    def test_distributive(self, a, b, c):
        assert qt_mul(a, b + c) == qt_mul(a, b) + qt_mul(a, c)


multi_laurents = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3).filter(bool),
    min_size=1, max_size=3).map(LaurentPoly)

# operators whose x-coefficients have several x-degrees and several t-terms
multi_term_ops = st.dictionaries(
    st.tuples(st.integers(min_value=-2, max_value=2),
              st.integers(min_value=-2, max_value=2)),
    st.dictionaries(st.integers(min_value=0, max_value=3), multi_laurents,
                    min_size=1, max_size=3).map(AuxLaurent),
    max_size=3).map(QtElement)

all_rules = [(c, r) for c in (KBSM, RT)
             for r in (ReductionRule.for_convention(c),
                       *ReductionRule.for_convention(c).single_sign_mutations())]


class TestApply:
    @pytest.mark.parametrize("c, rule", all_rules)
    @settings(max_examples=25, deadline=None)
    @given(P=multi_term_ops, n=st.integers(min_value=-4, max_value=6),
           p=st.integers(min_value=1, max_value=3))
    def test_matches_element_arithmetic(self, c, rule, P, n, p):
        # qt_apply expands every coefficient into int terms; this is the
        # element arithmetic those terms stand for
        f = JonesSequence(p, c, rule)
        expected = TkElement(p, c)
        for (a, b), coeff in P.terms.items():
            for xd, lp in coeff.terms.items():
                for j, cnt in monomial_to_S(xd).items():
                    expected = expected + f(n + b).times_sx(j) * (lp * t(2 * a * n) * cnt)
        assert qt_apply(P, f, n) == expected

    def test_float_point_raises(self):
        with pytest.raises(TypeError):
            qt_apply(inhomog_recurrence(2), JonesSequence(2, RT), 1.5)

    def test_m_weights_by_point(self):
        f = JonesSequence(2, RT)
        assert qt_apply(M, f, 3) == f(3) * t(6)
        assert qt_apply(M, f, -1) == f(-1) * t(-2)

    def test_l_shifts(self):
        f = JonesSequence(1, RT)
        for n in range(-3, 4):
            assert qt_apply(L, f, n) == f(n + 1)
            assert qt_apply(L_INV, f, n) == f(n - 1)

    def test_x_coefficient_expands(self):
        f = JonesSequence(2, KBSM)
        op = QtElement.monomial(0, 0, X2_MINUS_2)
        for n in (0, 1, 4):
            assert qt_apply(op, f, n) == f(n).times_sx(2) - f(n)

    def test_linear_in_operator(self):
        f = JonesSequence(1, RT)
        a = QtElement.monomial(1, 2, t(3))
        b = QtElement.monomial(-1, 0, X2_MINUS_2)
        for n in (-2, 0, 3):
            assert qt_apply(a + b, f, n) == qt_apply(a, f, n) + qt_apply(b, f, n)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=-2, max_value=2),
           st.integers(min_value=-2, max_value=2),
           st.integers(min_value=-2, max_value=2),
           st.integers(min_value=-2, max_value=2),
           st.integers(min_value=-3, max_value=4))
    def test_action_respects_product(self, a1, b1, a2, b2, n):
        f = JonesSequence(1, RT)
        P = QtElement.monomial(a1, b1, t(1))
        Q = QtElement.monomial(a2, b2, t(-2))
        lhs = qt_apply(qt_mul(P, Q), f, n)
        rhs = f(n + b1 + b2) * t(1 - 2 + 2 * b1 * a2 + 2 * (a1 + a2) * n)
        assert lhs == rhs


class TestRecurrenceOperators:
    @pytest.mark.parametrize("build", [inhomog_recurrence, recurrence_poly])
    def test_minus_l_kills_the_kbsm_sequence(self, build):
        # f_rt(n) = (-1)^n iota(f_kbsm(n)), so P kills f_rt exactly when
        # P(M, -L) kills f_kbsm: 155 points per operator, p <= 5, |n| <= 3p+6;
        # P itself does not kill f_kbsm
        for p in range(1, 6):
            P = build(p)
            flipped = QtElement({(a, b): cf.scale(-1 if b % 2 else 1)
                                 for (a, b), cf in P.terms.items()})
            f = JonesSequence(p, KBSM)
            points = range(-3 * p - 6, 3 * p + 7)
            for n in points:
                assert qt_apply(flipped, f, n).is_zero(), (p, n)
            assert any(not qt_apply(P, f, n).is_zero() for n in points), p

    def test_cached_int_terms_are_the_expansion(self):
        # a builder's operator brings its int terms; a copy brings none and
        # is expanded on every call, with the same result under every rule
        base = ReductionRule.for_convention(RT)
        for p in (1, 3):
            for P in (inhomog_recurrence(p), recurrence_poly(p)):
                copy = QtElement(dict(P.terms))
                for rule in (base, *base.single_sign_mutations()):
                    f = JonesSequence(p, RT, rule)
                    for n in range(-p - 3, 2 * p + 4):
                        assert qt_apply(P, f, n) == qt_apply(copy, f, n), (p, rule, n)

    def test_mixed_operator_terms(self):
        w = X2_MINUS_2
        expected = {
            (-1, 2): AuxLaurent({0: t(-3)}),
            (1, -1): AuxLaurent({0: t(3)}),
            (-1, 1): w * t(-1, -1),
            (1, -2): w * t(1, -1),
            (-1, 0): AuxLaurent({0: t(1)}),
            (1, -3): AuxLaurent({0: t(-1)}),
        }
        assert inhomog_recurrence(1).terms == expected

    def test_mixed_operator_rejects_bad_p(self):
        with pytest.raises(ValueError):
            inhomog_recurrence(0)

    def test_builders_check_p_like_the_module(self):
        # one knot-parameter check for all four, whether or not p is cached
        for build in (inhomog_recurrence, base_relation_op, product_multiplier,
                      recurrence_poly):
            build(2)
            with pytest.raises(TypeError):
                build(2.0)
            with pytest.raises(ValueError):
                build(0)

    def test_base_relation_terms(self):
        assert base_relation_op(2).terms == {(-1, 2): AuxLaurent({0: t(-1)}),
                                             (1, -3): AuxLaurent({0: t(1)})}

    def test_homogenization(self):
        for p in range(1, 7):
            assert homogenization_residual(p).is_zero(), p

    def test_multiplier(self):
        assert product_multiplier(3).terms == {(1, 5): AuxLaurent({0: t(21)})}

    def test_recurrence_poly_terms(self):
        w2 = X2_MINUS_2
        got = recurrence_poly(1)
        expected = {
            (0, 5): AuxLaurent({0: t(4)}),
            (0, 4): w2 * t(6, -1),
            (0, 3): AuxLaurent({0: t(8)}),
            (2, 2): AuxLaurent({0: t(22)}),
            (2, 1): w2 * t(20, -1),
            (2, 0): AuxLaurent({0: t(18)}),
        }
        assert got.terms == expected

    def test_product_identity(self):
        for p in range(1, 7):
            assert product_identity_residual(p).is_zero(), p

    def test_annihilation_samples(self):
        for p in (1, 2):
            f = JonesSequence(p, RT)
            H = inhomog_recurrence(p)
            G = recurrence_poly(p)
            for n in range(-4, 7):
                assert qt_apply(H, f, n).is_zero(), (p, n, "mixed")
                assert qt_apply(G, f, n).is_zero(), (p, n, "pure")

    def test_base_relation_alone_does_not_annihilate(self):
        f = JonesSequence(1, RT)
        B = base_relation_op(1)
        assert not qt_apply(B, f, 1).is_zero()

    def test_other_convention_is_not_annihilated(self):
        f = JonesSequence(1, KBSM)
        H = inhomog_recurrence(1)
        assert any(not qt_apply(H, f, n).is_zero() for n in range(-2, 5))


class TestSpecialization:
    def test_t1_factorization(self):
        for p in range(1, 7):
            assert t1_factor_residual(p).is_zero(), p

    def test_factorization_fails_before_specializing(self):
        for p in range(1, 4):
            quadratic = (QtElement.monomial(0, 2)
                         + QtElement.monomial(0, 1, -X2_MINUS_2)
                         + QtElement.monomial(0, 0))
            binomial = QtElement.monomial(0, 2 * p + 1) + QtElement.monomial(2, 0)
            assert qt_mul(quadratic, binomial) != recurrence_poly(p), p
            assert qt_mul(binomial, quadratic) != recurrence_poly(p), p

    def test_commutative_image_drops_t(self):
        e = QtElement.monomial(1, 1, t(5))
        assert CommutativePoly.from_qt(e) == CommutativePoly({(0, 1, 1): 1})

    def test_commutative_arithmetic(self):
        a = CommutativePoly({(1, 0, 0): 1, (0, 1, 0): 1})
        assert (a - a).is_zero()
