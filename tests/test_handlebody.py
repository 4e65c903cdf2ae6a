"""Genus-two handlebody module: dual bases, products, mirror."""

import pytest
from hypothesis import given, settings, strategies as st

from skeincalc.chebyshev import normalize_s_index
from skeincalc.coeffs import LaurentPoly
from skeincalc.handlebody import CHEBYSHEV, MONOMIAL, HbElement, _element, _merge

from oracles import X, Y, Z, from_json, hb_mul, mirror, t, times_t_y

small_laurents = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), min_size=1, max_size=3),
)

keys = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))

terms = st.dictionaries(keys, small_laurents, max_size=4)
mono_elems = terms.map(lambda d: HbElement(MONOMIAL, d))
cheb_elems = terms.map(lambda d: HbElement(CHEBYSHEV, d))

# int terms (c, e, m, n, k) of c t^e S_m(x) S_n(y) S_k(z), negative indices included
int_terms = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 6),
                               st.integers(-4, 6), st.integers(-4, 6)), max_size=12)


class TestBasics:
    def test_generators_multiply(self):
        assert hb_mul(X, Z) == HbElement(MONOMIAL, {(1, 0, 1): 1})
        assert (hb_mul(X.to_basis(CHEBYSHEV), Z.to_basis(CHEBYSHEV))
                == HbElement(CHEBYSHEV, {(1, 0, 1): 1}))

    def test_y_squared_in_chebyshev(self):
        got = hb_mul(Y, Y).to_basis(CHEBYSHEV)
        assert got == HbElement(CHEBYSHEV, {(0, 2, 0): 1, (0, 0, 0): 1})

    def test_s1x_s1z_squared(self):
        s1s1 = HbElement(CHEBYSHEV, {(1, 0, 1): 1})
        got = hb_mul(s1s1, s1s1)
        expected = HbElement(CHEBYSHEV, {(2, 0, 2): 1, (2, 0, 0): 1,
                                   (0, 0, 2): 1, (0, 0, 0): 1})
        assert got == expected

    def test_x2_plus_z2_conversion(self):
        elem = HbElement(MONOMIAL, {(2, 0, 0): 1, (0, 0, 2): 1})
        got = elem.to_basis(CHEBYSHEV)
        assert got == HbElement(CHEBYSHEV, {(2, 0, 0): 1, (0, 0, 2): 1, (0, 0, 0): 2})

    def test_unit_conversion(self):
        unit = HbElement(MONOMIAL, {(0, 0, 0): 1})
        assert HbElement(CHEBYSHEV, {(0, 0, 0): 1}).to_basis(MONOMIAL) == unit

    def test_str_writes_powers_above_one(self):
        elem = HbElement(MONOMIAL, {(2, 1, 0): 1, (0, 0, 3): -2})
        assert str(elem) == "(-2)*z^3 + (1)*x^2*y"

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            HbElement(MONOMIAL, {(0, -1, 0): t(0)})

    @pytest.mark.parametrize("bad", ["bogus", None, "", ["monomial"]])
    def test_unknown_basis_raises_value_error(self, bad):
        # the constructor and the conversion, from each basis, reject it alike
        with pytest.raises(ValueError, match="unknown basis"):
            HbElement(bad)
        for basis in (MONOMIAL, CHEBYSHEV):
            with pytest.raises(ValueError, match="unknown basis"):
                HbElement(basis, {(2, 1, 0): 1}).to_basis(bad)

    def test_mixed_basis_addition_rejected(self):
        with pytest.raises(ValueError):
            HbElement(MONOMIAL, {(0, 0, 0): 1}) + HbElement(CHEBYSHEV, {(0, 0, 0): 1})


class TestChebTermConstruction:
    def test_negative_index_folding(self):
        # S_{-2}(y) = -S_0(y)
        assert HbElement.cheb_sum([(1, 0, 0, -2, 0)]) == HbElement(CHEBYSHEV, {(0, 0, 0): -1})
        assert HbElement.cheb_sum([(1, 0, 0, -1, 0)]).is_zero()
        assert HbElement.cheb_sum([(1, 0, 1, -3, -2)]) == HbElement(CHEBYSHEV, {(1, 1, 0): 1})

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_sum_folds_each_axis(self, axis):
        def key(i):
            return tuple(i if a == axis else 1 for a in range(3))

        # S_{-1} drops its term; S_{-j} = -S_{j-2} for j >= 2
        assert HbElement.cheb_sum([(1, 2, *key(-1))]).is_zero()
        assert HbElement.cheb_sum([(1, 2, *key(-4))]) == HbElement(CHEBYSHEV, {key(2): t(2, -1)})
        assert (HbElement.cheb_sum([(5, 0, *key(-1)), (1, 1, *key(-3)), (3, 0, *key(0))])
                == HbElement(CHEBYSHEV, {key(1): t(1, -1), key(0): 3}))
        # a term and its folded negative cancel, leaving no key behind
        got = HbElement.cheb_sum([(1, 1, *key(3)), (1, 1, *key(-5)), (1, 0, *key(0))])
        assert got.terms == {key(0): t(0)}

    def test_sum_of_no_terms_is_zero(self):
        got = HbElement.cheb_sum([])
        assert got.is_zero() and got.basis == CHEBYSHEV

    def test_times_t_y_rejects_non_int_index(self):
        with pytest.raises(TypeError):
            times_t_y(HbElement(CHEBYSHEV, {(0, 1, 0): 1}), 1.5)


class TestIntTermMerge:
    @given(int_terms)
    @settings(max_examples=60)
    def test_matches_element_arithmetic(self, terms):
        # reference: fold each term alone and add the elements up
        expected = HbElement(CHEBYSHEV, {})
        for c, e, *idx in terms:
            norms = [normalize_s_index(i) for i in idx]
            if None not in norms:
                sign = norms[0][0] * norms[1][0] * norms[2][0]
                expected = expected + HbElement(CHEBYSHEV, {tuple(j for _, j in norms): t(e, sign * c)})
        assert _element(_merge(terms)) == expected
        assert HbElement.cheb_sum(terms) == expected


class TestProperties:
    @given(mono_elems, mono_elems)
    @settings(max_examples=40)
    def test_mul_commutative(self, a, b):
        assert hb_mul(a, b) == hb_mul(b, a)

    @given(mono_elems, mono_elems, mono_elems)
    @settings(max_examples=25)
    def test_mul_associative(self, a, b, c):
        assert hb_mul(hb_mul(a, b), c) == hb_mul(a, hb_mul(b, c))

    @given(mono_elems)
    def test_unit(self, a):
        assert hb_mul(a, HbElement(MONOMIAL, {(0, 0, 0): 1})) == a

    @given(mono_elems)
    def test_conversion_round_trip(self, a):
        assert a.to_basis(CHEBYSHEV).to_basis(MONOMIAL) == a

    @given(mono_elems, mono_elems)
    @settings(max_examples=30)
    def test_conversion_is_ring_map(self, a, b):
        via_chebyshev = hb_mul(a.to_basis(CHEBYSHEV), b.to_basis(CHEBYSHEV))
        assert hb_mul(a, b).to_basis(CHEBYSHEV) == via_chebyshev

    @given(mono_elems, mono_elems)
    @settings(max_examples=30)
    def test_mirror_is_ring_involution(self, a, b):
        assert mirror(mirror(a)) == a
        assert mirror(hb_mul(a, b)) == hb_mul(mirror(a), mirror(b))

    @given(mono_elems)
    def test_mirror_commutes_with_convert(self, a):
        assert mirror(a).to_basis(CHEBYSHEV) == mirror(a.to_basis(CHEBYSHEV))

    @given(mono_elems)
    def test_json_round_trip(self, a):
        assert from_json(HbElement, a.to_json()) == a


class TestChebyshevProduct:
    @given(cheb_elems, cheb_elems)
    @settings(max_examples=40)
    def test_matches_monomial_route(self, a, b):
        via_monomials = hb_mul(a.to_basis(MONOMIAL), b.to_basis(MONOMIAL)).to_basis(CHEBYSHEV)
        assert hb_mul(a, b) == via_monomials

    @given(cheb_elems, cheb_elems)
    @settings(max_examples=40)
    def test_commutative(self, a, b):
        assert hb_mul(a, b) == hb_mul(b, a)

    @given(cheb_elems, cheb_elems, cheb_elems)
    @settings(max_examples=25)
    def test_associative(self, a, b, c):
        assert hb_mul(hb_mul(a, b), c) == hb_mul(a, hb_mul(b, c))

    @given(cheb_elems, st.integers(-3, 6))
    @settings(max_examples=60)
    def test_times_t_y_is_product_with_t_n(self, h, n):
        t_n = HbElement.cheb_sum([(1, 0, 0, abs(n), 0), (-1, 0, 0, abs(n) - 2, 0)])
        assert times_t_y(h, n) == hb_mul(t_n, h)

    def test_times_t_y_conventions(self):
        h = HbElement(CHEBYSHEV, {(1, 0, 0): t(1), (0, 1, 2): 3})
        assert times_t_y(h, 0) == h * 2  # T_0 = 2
        assert times_t_y(h, -3) == times_t_y(h, 3)  # T_{-n} = T_n
        # S_0 T_1 = S_1, S_1 T_1 = S_2 + S_0
        assert times_t_y(h, 1) == HbElement(
            CHEBYSHEV, {(1, 1, 0): t(1), (0, 2, 2): 3, (0, 0, 2): 3})

    def test_times_t_y_needs_chebyshev_basis(self):
        with pytest.raises(ValueError):
            times_t_y(Y, 1)


class TestMirror:
    def test_initial_value_mirrored(self):
        elem = HbElement(MONOMIAL, {(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})
        expected = HbElement(MONOMIAL, {(0, 1, 0): t(-4, -1), (1, 0, 1): t(-2, -1)})
        assert mirror(elem) == expected

    def test_symmetric_fixed(self):
        elem = HbElement(MONOMIAL, {(0, 0, 0): t(2, -1) + t(-2, -1)})
        assert mirror(elem) == elem
