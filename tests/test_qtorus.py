"""Noncommutative operator algebra and the recurrence it encodes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeincalc.coeffs import AuxLaurent, LaurentPoly, t
from skeincalc.handlebody import Z
from skeincalc.qtorus import (L, L_INV, M, M_INV, X2_MINUS_2, CommutativePoly,
                              QtElement, base_relation_op, homogenization_residual,
                              inhomog_recurrence, product_identity_residual,
                              product_multiplier, qt_apply, qt_mul,
                              recurrence_poly, t1_factor_residual)
from skeincalc.torusknot import Convention, JonesSequence

KBSM = Convention.KBSM
RT = Convention.RT


class TestNormalOrdering:
    def test_l_past_m(self):
        assert qt_mul(L, M).terms == {(1, 1): AuxLaurent({0: t(2)})}

    def test_m_past_l_is_free(self):
        assert qt_mul(M, L).terms == {(1, 1): AuxLaurent({0: t(0)})}

    def test_inverses(self):
        assert qt_mul(L, L_INV) == QtElement.one()
        assert qt_mul(M_INV, M) == QtElement.one()

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
            QtElement({(0, 0): AuxLaurent({-1: LaurentPoly.one()})})
        with pytest.raises(ValueError):
            QtElement.monomial(1, 0, AuxLaurent({2: 1, -1: 3}))

    def test_json_round_trip(self):
        e = QtElement({(1, -2): AuxLaurent({2: t(3, -1), 0: t(3, 2)}),
                       (-1, 0): AuxLaurent({0: t(-5)})})
        assert QtElement.from_json(e.to_json()) == e


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
        assert qt_mul(a, QtElement.one()) == a
        assert qt_mul(QtElement.one(), a) == a

    @settings(max_examples=40, deadline=None)
    @given(qt_elems, qt_elems, qt_elems)
    def test_distributive(self, a, b, c):
        assert qt_mul(a, b + c) == qt_mul(a, b) + qt_mul(a, c)


class TestApply:
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
                         + QtElement.one())
            binomial = QtElement.monomial(0, 2 * p + 1) + QtElement.monomial(2, 0)
            assert qt_mul(quadratic, binomial) != recurrence_poly(p), p
            assert qt_mul(binomial, quadratic) != recurrence_poly(p), p

    def test_commutative_image_drops_t(self):
        e = QtElement.monomial(1, 1, t(5))
        assert CommutativePoly.from_qt(e) == CommutativePoly({(0, 1, 1): 1})

    def test_commutative_arithmetic(self):
        a = CommutativePoly({(1, 0, 0): 1, (0, 1, 0): 1})
        sq = a * a
        assert sq == CommutativePoly({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})
        assert (a - a).is_zero()
