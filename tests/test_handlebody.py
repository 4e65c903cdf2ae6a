"""Genus-two handlebody module: dual bases, products, mirror."""

import pytest
from hypothesis import given, settings, strategies as st

from skeincalc.coeffs import LaurentPoly, t
from skeincalc.handlebody import CHEBYSHEV, MONOMIAL, HbElement, X, Y, Z, hb_mul

small_laurents = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), min_size=1, max_size=3),
)

keys = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))

mono_elems = st.builds(
    HbElement.mono,
    st.dictionaries(keys, small_laurents, max_size=4),
)


class TestBasics:
    def test_generators_multiply(self):
        assert X * Z == HbElement.mono({(1, 0, 1): 1})
        assert hb_mul(X, Z) == HbElement.mono({(1, 0, 1): 1})

    def test_y_squared_in_chebyshev(self):
        got = (Y * Y).to_basis(CHEBYSHEV)
        assert got == HbElement.cheb({(0, 2, 0): 1, (0, 0, 0): 1})

    def test_s1x_s1z_squared(self):
        s1s1 = HbElement.cheb({(1, 0, 1): 1})
        got = s1s1 * s1s1
        expected = HbElement.cheb({(2, 0, 2): 1, (2, 0, 0): 1,
                                   (0, 0, 2): 1, (0, 0, 0): 1})
        assert got == expected

    def test_x2_plus_z2_conversion(self):
        elem = HbElement.mono({(2, 0, 0): 1, (0, 0, 2): 1})
        got = elem.to_basis(CHEBYSHEV)
        assert got == HbElement.cheb({(2, 0, 0): 1, (0, 0, 2): 1, (0, 0, 0): 2})

    def test_unit_conversion(self):
        assert HbElement.cheb({(0, 0, 0): 1}).to_basis(MONOMIAL) == HbElement.one()

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            HbElement.mono({(0, -1, 0): LaurentPoly.one()})

    def test_mixed_basis_addition_rejected(self):
        with pytest.raises(ValueError):
            HbElement.one(MONOMIAL) + HbElement.one(CHEBYSHEV)


class TestChebTermConstruction:
    def test_negative_index_folding(self):
        # S_{-2}(y) = -S_0(y)
        assert HbElement.cheb_term(0, -2, 0) == HbElement.cheb({(0, 0, 0): -1})
        assert HbElement.cheb_term(0, -1, 0).is_zero()
        assert HbElement.cheb_term(1, -3, -2) == HbElement.cheb({(1, 1, 0): 1})

    def test_t_y_builder(self):
        assert HbElement.cheb_t_y(0) == HbElement.cheb({(0, 0, 0): 2})
        assert HbElement.cheb_t_y(2) == HbElement.cheb({(0, 2, 0): 1, (0, 0, 0): -1})


class TestProperties:
    @given(mono_elems, mono_elems)
    @settings(max_examples=40)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(mono_elems, mono_elems, mono_elems)
    @settings(max_examples=25)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(mono_elems)
    def test_unit(self, a):
        assert a * HbElement.one() == a

    @given(mono_elems)
    def test_conversion_round_trip(self, a):
        assert a.to_basis(CHEBYSHEV).to_basis(MONOMIAL) == a

    @given(mono_elems, mono_elems)
    @settings(max_examples=30)
    def test_conversion_is_ring_map(self, a, b):
        assert (a * b).to_basis(CHEBYSHEV) == a.to_basis(CHEBYSHEV) * b.to_basis(CHEBYSHEV)

    @given(mono_elems, mono_elems)
    @settings(max_examples=30)
    def test_mirror_is_ring_involution(self, a, b):
        assert a.mirror().mirror() == a
        assert (a * b).mirror() == a.mirror() * b.mirror()

    @given(mono_elems)
    def test_mirror_commutes_with_convert(self, a):
        assert a.mirror().to_basis(CHEBYSHEV) == a.to_basis(CHEBYSHEV).mirror()

    @given(mono_elems)
    def test_json_round_trip(self, a):
        assert HbElement.from_json(a.to_json()) == a


class TestMirror:
    def test_initial_value_mirrored(self):
        elem = HbElement.mono({(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})
        expected = HbElement.mono({(0, 1, 0): t(-4, -1), (1, 0, 1): t(-2, -1)})
        assert elem.mirror() == expected

    def test_symmetric_fixed(self):
        elem = HbElement.mono({(0, 0, 0): t(2, -1) + t(-2, -1)})
        assert elem.mirror() == elem
