"""Noncommutative operator algebra and the recurrence it encodes.

Operators are tuples of int terms (c, e, j, a, b) for c t^e S_j(x) M^a L^b;
Operator checks a list of terms and merges it into that canonical form.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeincalc import qtorus
from skeincalc.coeffs import AuxLaurent
from skeincalc.qtorus import (Operator, QtElement, _at_t1, _residual, base_relation_op,
                              homogenization_residual, inhomog_recurrence,
                              product_identity_residual, product_multiplier, qt_apply,
                              qt_mul, recurrence_poly, t1_factor_residual)
from skeincalc.torusknot import Convention, JonesSequence, ReductionRule, TkElement

from oracles import Z, from_json, t, times_sx

KBSM = Convention.KBSM
RT = Convention.RT


def mono(a, b, e=0, c=1, j=0):
    """The operator c t^e S_j(x) M^a L^b."""
    return ((c, e, j, a, b),)


ONE, L, L_INV, M, M_INV = mono(0, 0), mono(0, 1), mono(0, -1), mono(1, 0), mono(-1, 0)


def x2m2(c=1, e=0, a=0, b=0):
    """c t^e (x^2-2) M^a L^b, as x^2 - 2 = S_2(x) - S_0(x)."""
    return Operator([(c, e, 2, a, b), (-c, e, 0, a, b)])


def plus(*ops):
    return Operator(term for op in ops for term in op)


class TestNormalOrdering:
    def test_l_past_m(self):
        assert qt_mul(L, M) == mono(1, 1, e=2)

    def test_m_past_l_is_free(self):
        assert qt_mul(M, L) == mono(1, 1)

    def test_inverses(self):
        assert qt_mul(L, L_INV) == ONE
        assert qt_mul(M_INV, M) == ONE

    def test_weighted_word_product(self):
        # t^{2p+5} L^{p+2} M times t^{-3} L^{p+1} M^{-1} collapses to L^{2p+3}
        for p in range(1, 5):
            lhs = qt_mul(mono(0, p + 2, e=2 * p + 5), M)
            rhs = qt_mul(mono(0, p + 1, e=-3), M_INV)
            assert qt_mul(lhs, rhs) == mono(0, 2 * p + 3), p

    def test_unweighted_word_product(self):
        # without the scalar prefactors the same product picks up t^{-2p-2}
        for p in range(1, 4):
            lhs = qt_mul(mono(0, p + 2), M)
            rhs = qt_mul(mono(0, p + 1), M_INV)
            assert qt_mul(lhs, rhs) == mono(0, 2 * p + 3, e=-2 * p - 2), p

    def test_chebyshev_coefficients_multiply_by_s_product(self):
        # S_1(x)^2 = S_2(x) + S_0(x), and (x^2-2)^2 = (S_2 - S_0)^2 = S_4 - S_2 + 2 S_0
        assert qt_mul(mono(0, 0, j=1), mono(0, 0, j=1)) == plus(mono(0, 0, j=2), ONE)
        assert qt_mul(x2m2(), x2m2()) == Operator([(1, 0, 4, 0, 0), (-1, 0, 2, 0, 0),
                                                  (2, 0, 0, 0, 0)])

    def test_coefficients_must_be_z_free(self):
        # a coefficient is a polynomial in x alone; a handlebody element
        # (which carries z) is rejected
        with pytest.raises(TypeError):
            QtElement({(0, 0): Z})

    def test_coefficients_need_nonnegative_x_degrees(self):
        with pytest.raises(ValueError):
            QtElement({(0, 0): AuxLaurent({-1: t(0)})})
        with pytest.raises(ValueError):
            QtElement({(1, 0): AuxLaurent({2: 1, -1: 3})})

    def test_json_round_trip(self):
        e = QtElement({(1, -2): AuxLaurent({2: t(3, -1), 0: t(3, 2)}),
                       (-1, 0): AuxLaurent({0: t(-5)})})
        assert from_json(QtElement, e.to_json()) == e

    def test_view_writes_powers_of_x(self):
        # 3 t^2 S_2(x) M L^-1 = 3 t^2 (x^2 - 1) M L^-1; the view merges equal keys
        got = _residual(Operator([(3, 2, 2, 1, -1), (1, 0, 0, 0, 0)]), ONE)
        assert got == QtElement({(1, -1): AuxLaurent({2: t(2, 3), 0: t(2, -3)})})
        assert _residual(recurrence_poly(2), recurrence_poly(2)).is_zero()

    def test_str_prints_x_powers_per_monomial(self):
        # raise the t-exponent of P's first term by one: the residual is that
        # term's t^6 - t^7 times S_2(x) = x^2 - 1, at M^0 L^4
        P = recurrence_poly(1)
        c, e, *rest = P[0]
        got = _residual(P, ((c, e + 1, *rest), *P[1:]))
        assert str(got) == "((t^6 - t^7) + (-t^6 + t^7)*x^2) L^4"


int_terms = st.tuples(st.integers(min_value=-3, max_value=3).filter(bool),
                      st.integers(min_value=-3, max_value=3),
                      st.integers(min_value=0, max_value=3),
                      st.integers(min_value=-2, max_value=2),
                      st.integers(min_value=-2, max_value=2))

# operators with up to three int terms, several S_j(x) and several t-powers
qt_ops = st.lists(int_terms, max_size=3).map(Operator)


def view_product(A, B):
    """The product of the x-power views of A and B, by AuxLaurent arithmetic:
    an independent route to the normal-ordering rule."""
    out = QtElement()
    for (a1, b1), c1 in _residual(A, ()).terms.items():
        for (a2, b2), c2 in _residual(B, ()).terms.items():
            out = out + QtElement({(a1 + a2, b1 + b2): c1 * c2 * t(2 * b1 * a2)})
    return out


class TestRingProperties:
    @settings(max_examples=50, deadline=None)
    @given(qt_ops, qt_ops, qt_ops)
    def test_associative(self, a, b, c):
        assert qt_mul(qt_mul(a, b), c) == qt_mul(a, qt_mul(b, c))

    @settings(max_examples=50, deadline=None)
    @given(qt_ops)
    def test_unit(self, a):
        assert qt_mul(a, ONE) == a
        assert qt_mul(ONE, a) == a

    @settings(max_examples=40, deadline=None)
    @given(qt_ops, qt_ops, qt_ops)
    def test_distributive(self, a, b, c):
        assert qt_mul(a, plus(b, c)) == plus(qt_mul(a, b), qt_mul(a, c))

    @settings(max_examples=40, deadline=None)
    @given(qt_ops, qt_ops)
    def test_matches_the_x_power_product(self, a, b):
        assert _residual(qt_mul(a, b), ()) == view_product(a, b)

    @settings(max_examples=40, deadline=None)
    @given(qt_ops)
    def test_operators_are_canonical(self, a):
        # merged, zero-free and sorted, so equal operators are equal tuples
        assert a == tuple(sorted(a))
        assert all(c for c, *_ in a)
        assert len({tuple(key) for _, *key in a}) == len(a)


all_rules = [(c, r) for c in (KBSM, RT)
             for r in (ReductionRule.for_convention(c),
                       *ReductionRule.for_convention(c).single_sign_mutations())]


def apply_term_by_term(P, g, n, f):
    """P applied at n to the sequence g, by TkElement arithmetic: each term
    c t^e S_j(x) M^a L^b adds c t^{e+2an} S_j(x) g(n+b)."""
    out = TkElement(f.p, f.convention)
    for c, e, j, a, b in P:
        out = out + times_sx(g(n + b), j) * t(e + 2 * a * n, c)
    return out


class TestApply:
    @pytest.mark.parametrize("c, rule", all_rules)
    @settings(max_examples=25, deadline=None)
    @given(P=qt_ops, n=st.integers(min_value=-4, max_value=6),
           p=st.integers(min_value=1, max_value=3))
    def test_matches_element_arithmetic(self, c, rule, P, n, p):
        f = JonesSequence(p, c, rule)
        assert qt_apply(P, f, n) == apply_term_by_term(P, f, n, f)

    def test_float_point_raises(self):
        with pytest.raises(TypeError):
            qt_apply(inhomog_recurrence(2), JonesSequence(2, RT), 1.5)

    def test_hand_built_fields_must_be_ints(self):
        # a plain tuple of terms goes through Operator, so a float field
        # raises instead of landing in a t-exponent or the result
        with pytest.raises(TypeError):
            qt_apply(((1, 0.5, 0, 0, 0),), JonesSequence(1, RT), 1)
        with pytest.raises(TypeError):
            qt_mul(((1, 0, 0, 0, 1.5),), ((1, 0, 0, 1, 0),))

    def test_built_operators_are_not_checked_again(self, monkeypatch):
        # an Operator's terms were checked when it was built
        P = inhomog_recurrence(2)
        checked = []
        monkeypatch.setattr(qtorus, "check_key", lambda *args: checked.append(args))
        assert qt_apply(P, JonesSequence(2, RT), 3).is_zero()
        assert checked == []

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
        for n in (0, 1, 4):
            assert qt_apply(x2m2(), f, n) == times_sx(f(n), 2) - f(n)

    def test_linear_in_operator(self):
        f = JonesSequence(1, RT)
        a = mono(1, 2, e=3)
        b = x2m2(a=-1)
        for n in (-2, 0, 3):
            assert qt_apply(plus(a, b), f, n) == qt_apply(a, f, n) + qt_apply(b, f, n)

    @settings(max_examples=50, deadline=None)
    @given(qt_ops, qt_ops, st.integers(min_value=-3, max_value=4))
    def test_action_respects_product(self, P, Q, n):
        # (PQ) f = P (Q f): the product is the composition of the actions
        f = JonesSequence(1, RT)
        lhs = qt_apply(qt_mul(P, Q), f, n)
        assert lhs == apply_term_by_term(P, lambda m: qt_apply(Q, f, m), n, f)


class TestRecurrenceOperators:
    @pytest.mark.parametrize("build", [inhomog_recurrence, recurrence_poly])
    def test_minus_l_kills_the_kbsm_sequence(self, build):
        # f_rt(n) = (-1)^n iota(f_kbsm(n)), so P kills f_rt exactly when
        # P(M, -L) kills f_kbsm: 155 points per operator, p <= 5, |n| <= 3p+6;
        # P itself does not kill f_kbsm
        for p in range(1, 6):
            P = build(p)
            flipped = Operator((-c if b % 2 else c, e, j, a, b) for c, e, j, a, b in P)
            f = JonesSequence(p, KBSM)
            points = range(-3 * p - 6, 3 * p + 7)
            for n in points:
                assert qt_apply(flipped, f, n).is_zero(), (p, n)
            assert any(not qt_apply(P, f, n).is_zero() for n in points), p

    @pytest.mark.parametrize("build", [inhomog_recurrence, recurrence_poly])
    def test_cached_operators_are_immutable(self, build):
        # a cached operator is a tuple of int tuples: no caller can change
        # what a later residual reads
        P = build(2)
        assert type(P) is Operator and isinstance(P, tuple)
        assert all(type(term) is tuple and len(term) == 5
                   and all(type(v) is int for v in term) for term in P)
        with pytest.raises(TypeError):
            P[0] = (0, 0, 0, 0, 0)
        with pytest.raises(AttributeError):
            P.extra = 1
        assert build(2) is P
        assert homogenization_residual(2).is_zero()
        assert product_identity_residual(2).is_zero()

    def test_mixed_operator_terms(self):
        expected = [(1, -3, 0, -1, 2), (1, 3, 0, 1, -1),
                    (-1, -1, 2, -1, 1), (1, -1, 0, -1, 1),
                    (-1, 1, 2, 1, -2), (1, 1, 0, 1, -2),
                    (1, 1, 0, -1, 0), (1, -1, 0, 1, -3)]
        assert inhomog_recurrence(1) == tuple(sorted(expected))

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
        assert base_relation_op(2) == ((1, -1, 0, -1, 2), (1, 1, 0, 1, -3))

    def test_homogenization(self):
        for p in range(1, 7):
            assert homogenization_residual(p).is_zero(), p

    def test_multiplier(self):
        assert product_multiplier(3) == ((1, 21, 0, 1, 5),)

    def test_recurrence_poly_terms(self):
        expected = [(1, 4, 0, 0, 5), (-1, 6, 2, 0, 4), (1, 6, 0, 0, 4),
                    (1, 8, 0, 0, 3), (1, 22, 0, 2, 2), (-1, 20, 2, 2, 1),
                    (1, 20, 0, 2, 1), (1, 18, 0, 2, 0)]
        assert recurrence_poly(1) == tuple(sorted(expected))

    def test_product_identity(self):
        for p in range(1, 7):
            assert product_identity_residual(p).is_zero(), p

    def test_perturbed_product_prints_powers_of_x(self, monkeypatch):
        # one t-exponent of recurrence_poly off by one: the residual names that
        # term, its x^2 - 2 coefficient written in powers of x
        p = 2

        def perturbed(q):  # t^{2q+4} (x^2-2) L^{2q+2} -> t^{2q+5} (x^2-2) L^{2q+2}
            return Operator((c, e + ((a, b) == (0, 2 * q + 2)), j, a, b)
                            for c, e, j, a, b in recurrence_poly(q))

        monkeypatch.setattr(qtorus, "recurrence_poly", perturbed)
        diff = t(2 * p + 5) - t(2 * p + 4)
        assert product_identity_residual(p) == QtElement(
            {(0, 2 * p + 2): AuxLaurent({2: diff, 0: diff * -2})})

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


def t1_factors(p):
    """(L^2 - (x^2-2) L + 1, L^{2p+1} + M^2), the factors at t = 1."""
    return plus(mono(0, 2), x2m2(-1, b=1), ONE), plus(mono(0, 2 * p + 1), mono(2, 0))


class TestSpecialization:
    def test_t1_factorization(self):
        for p in range(1, 7):
            assert t1_factor_residual(p).is_zero(), p

    def test_factorization_fails_before_specializing(self):
        for p in range(1, 4):
            quadratic, binomial = t1_factors(p)
            assert qt_mul(quadratic, binomial) != recurrence_poly(p), p
            assert qt_mul(binomial, quadratic) != recurrence_poly(p), p

    def test_commutative_image_drops_t(self):
        # at t = 1 every t-power goes to t^0, so t^5 M L and t^3 M L agree
        assert _residual(_at_t1(mono(1, 1, e=5)), ()) == QtElement({(1, 1): 1})
        assert _residual(_at_t1(mono(1, 1, e=5)), _at_t1(mono(1, 1, e=3))).is_zero()

    def test_failing_row_has_t0_coefficients(self, monkeypatch):
        monkeypatch.setattr(qtorus, "recurrence_poly", lambda p: plus(mono(0, 2 * p + 1, e=7),
                                                                     recurrence_poly(p)))
        assert t1_factor_residual(3) == QtElement({(0, 7): 1})


# the exact factorization before t = 1; each exponent below can be bumped by one
BUMPS = ("t^-4", "t^-2", "t^(2p+6)", "t^(6p+12)", "L^(2p+1)")


def exact_factors(p, bump=None):
    """(t^-4 L^2 - t^-2 (x^2-2) L + 1, t^{2p+6} L^{2p+1} + t^{6p+12} M^2),
    with the exponent named by bump one higher."""
    d = {name: int(name == bump) for name in BUMPS}
    left = plus(mono(0, 2, e=-4 + d["t^-4"]), x2m2(-1, e=-2 + d["t^-2"], b=1), ONE)
    right = plus(mono(0, 2 * p + 1 + d["L^(2p+1)"], e=2 * p + 6 + d["t^(2p+6)"]),
                 mono(2, 0, e=6 * p + 12 + d["t^(6p+12)"]))
    return left, right


class TestExactFactorization:
    def test_recurrence_poly_factors(self):
        for p in range(1, 41):
            left, right = exact_factors(p)
            assert qt_mul(left, right) == recurrence_poly(p), p

    def test_reversed_order_differs(self):
        for p in range(1, 41):
            left, right = exact_factors(p)
            assert qt_mul(right, left) != recurrence_poly(p), p

    @pytest.mark.parametrize("bump", BUMPS)
    def test_every_exponent_matters(self, bump):
        for p in range(1, 41):
            left, right = exact_factors(p, bump)
            assert qt_mul(left, right) != recurrence_poly(p), (p, bump)

    def test_specializes_to_the_t1_factors(self):
        # at t = 1 the exact factors are the t1-factor suite's factors
        for p in range(1, 6):
            left, right = exact_factors(p)
            assert _residual(_at_t1(qt_mul(left, right)), _at_t1(qt_mul(*t1_factors(p)))).is_zero()
