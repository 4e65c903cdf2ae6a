"""Ground-ring arithmetic: Laurent polynomials, the auxiliary-variable ring,
w-substitution, and the sparse kernel's input contract."""

import pytest
from hypothesis import given, strategies as st

from skeincalc.coeffs import AuxLaurent, LaurentPoly, t
from skeincalc.handlebody import CHEBYSHEV, HbElement
from skeincalc.qtorus import QtElement
from skeincalc.torusknot import Convention, TkElement

from oracles import bar, from_json, substitute_w


laurents = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
)

aux_polys = st.builds(
    AuxLaurent,
    st.dictionaries(st.integers(-4, 4), laurents, max_size=4),
)

# one element of each type, HbElement in both bases, and the pairs of an
# element and a scalar it scales by; a LaurentPoly times t(2) is a ring product
_ELEMENTS = (
    LaurentPoly({-1: 2, 3: -1}),
    AuxLaurent({0: t(1), 2: -3}),
    HbElement.mono({(1, 0, 2): t(-1), (0, 1, 0): 3}),
    HbElement(CHEBYSHEV, {(1, 1, 0): t(2)}),
    TkElement(2, Convention.KBSM, {(1, 2): t(1), (0, 0): 4}),
    QtElement({(1, -1): AuxLaurent({0: t(1), 2: 2})}),
)
_SCALED = [(_ELEMENTS[0], 3), *((x, s) for x in _ELEMENTS[1:] for s in (3, t(2)))]


class TestLaurentPoly:
    def test_additive_inverse(self):
        assert ((t(2) + t(-2)) + (-t(2) - t(-2))).is_zero()

    def test_exponent_law(self):
        assert t(2) * t(-2) == t(0)

    def test_schoolbook_product(self):
        # (t^-2 - t^6)(-t^2 - t^-2) expanded by hand
        got = (t(-2) - t(6)) * (-t(2) - t(-2))
        assert got == t(8) + t(4) - 1 - t(-4)

    def test_int_mixing(self):
        assert t(0, 3) == 3
        assert 1 - t(4) == LaurentPoly({0: 1, 4: -1})
        assert (t(2) * 0).is_zero()

    def test_no_zero_terms_stored(self):
        p = LaurentPoly({3: 5, 1: 0})
        assert p.terms == {3: 5}
        assert (p - p).terms == {}
        assert t(3, 0).terms == {}

    @given(laurents, laurents, laurents)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * t(0) == a
        assert (a + LaurentPoly()) == a

    @given(laurents, laurents)
    def test_bar_is_ring_involution(self, a, b):
        assert bar(bar(a)) == a
        assert bar(a * b) == bar(a) * bar(b)
        assert bar(a + b) == bar(a) + bar(b)

    def test_bar_examples(self):
        assert bar(t(4, -1)) == t(-4, -1)
        assert bar(t(2) + t(-2)) == t(2) + t(-2)

    @given(laurents)
    def test_json_round_trip(self, a):
        assert from_json(LaurentPoly, a.to_json()) == a

    def test_json_is_sorted_with_string_coeffs(self):
        data = (t(3, 7) + t(-1, -2)).to_json()
        assert data == {"t": [[-1, "-2"], [3, "7"]]}

    def test_str_ascending(self):
        assert str(t(2) - t(-2)) == "-t^-2 + t^2"
        assert str(LaurentPoly()) == "0"


class TestAuxLaurent:
    def test_scalar_laurent_mul(self):
        p = AuxLaurent({2: t(4)}) + AuxLaurent({0: 1})
        assert p * t(-4) == AuxLaurent({2: 1}) + AuxLaurent({0: t(-4)})

    @given(aux_polys, aux_polys, aux_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(aux_polys)
    def test_json_round_trip(self, a):
        assert from_json(AuxLaurent, a.to_json()) == a

    def test_str(self):
        assert str(AuxLaurent({0: 1, 2: t(3)})) == "(1) + (t^3)*x^2"


class TestWSubstitution:
    def test_square(self):
        w = AuxLaurent({1: 1}) + AuxLaurent({-1: 1})
        got = substitute_w([0, 0, 1], w)  # xi^2
        assert got == AuxLaurent({2: t(0), 0: t(0, 2), -2: t(0)})

    def test_t2_substitution(self):
        w = AuxLaurent({1: 1}) + AuxLaurent({-1: 1})
        got = substitute_w([-2, 0, 1], w)  # T_2 = xi^2 - 2
        assert got == AuxLaurent({2: t(0), -2: t(0)})

    def test_s2_substitution(self):
        w = AuxLaurent({1: 1}) + AuxLaurent({-1: 1})
        got = substitute_w([-1, 0, 1], w)  # S_2 = xi^2 - 1
        assert got == AuxLaurent({2: t(0), 0: t(0), -2: t(0)})

    def test_laurent_coefficients(self):
        w = AuxLaurent({1: t(1)}) + AuxLaurent({-1: t(-1)})
        got = substitute_w([LaurentPoly(), t(0)], w)
        assert got == AuxLaurent({1: t(1), -1: t(-1)})


class TestKernelContract:
    def test_constant_hashes_like_its_int(self):
        assert LaurentPoly({0: 5}) == 5
        assert len({LaurentPoly({0: 5}), 5}) == 1
        assert LaurentPoly() == 0
        assert hash(LaurentPoly()) == hash(0)
        assert len({LaurentPoly(), 0}) == 1

    @pytest.mark.parametrize("build", [
        lambda: LaurentPoly({0.9: 2}),
        lambda: LaurentPoly({0: 2.7}),
        lambda: LaurentPoly({"1": 2}),
        lambda: t(1) + 0.5,
        lambda: t(1.5),
        lambda: t(0, 1.5),
        lambda: t(1.5, 0),
        lambda: HbElement.mono({(0, 0, 0): 1.5}),
        lambda: HbElement.mono({(0, 0.0, 0): 1}),
        lambda: HbElement.cheb_sum([(0, 1, 0, 2.0)]),
        lambda: HbElement.cheb_sum([(0, 1, 0, 1), (0, 2, 0, 2.0)]),
        lambda: HbElement.cheb_sum([(0, -1, 0, 2.0)]),
        lambda: HbElement.cheb_sum([(0, 1.0, 0, 1)]),
        lambda: TkElement(1, Convention.KBSM, {(0, 0): 1.5}),
        lambda: TkElement(1.0, Convention.KBSM),
        lambda: QtElement({(0, 0): 0.5}),
        lambda: QtElement({(0.0, 0): 1}),
        lambda: AuxLaurent({1: 2.5}),
    ])
    def test_rejects_non_int_input(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("a, b", [
        (HbElement.mono({(1, 0, 0): 1}), HbElement(CHEBYSHEV, {(1, 0, 0): 1})),
        (TkElement(1, Convention.KBSM), TkElement(2, Convention.KBSM)),
        (TkElement(1, Convention.KBSM, {(0, 1): 1}),
         TkElement(1, Convention.RT, {(0, 1): 1})),
    ])
    def test_equality_across_contexts_raises(self, a, b):
        # like +, - and *: comparing across bases, knots or conventions is an error
        with pytest.raises(ValueError):
            a == b
        with pytest.raises(ValueError):
            a != b

    @pytest.mark.parametrize("a, b, want", [
        *((x, s, x.scale(s)) for x, s in _SCALED),
        *((s, x, x.scale(s)) for x, s in _SCALED),
        (_ELEMENTS[0], t(2), LaurentPoly({1: 2, 5: -1})),
        (_ELEMENTS[0], LaurentPoly({1: 1, 0: -3}), LaurentPoly({-1: -6, 0: 2, 3: 3, 4: -1})),
        (_ELEMENTS[1], AuxLaurent({-2: 1, 1: t(-1)}),
         AuxLaurent({-2: t(1), 0: -3, 1: 1, 3: t(-1, -3)})),
        (_ELEMENTS[2], HbElement.mono({(1, 1, 0): 2}),
         HbElement.mono({(2, 1, 2): t(-1, 2), (1, 2, 0): 6})),
        (_ELEMENTS[3], HbElement(CHEBYSHEV, {(1, 0, 1): -1}),
         HbElement(CHEBYSHEV, {(2, 1, 1): t(2, -1), (0, 1, 1): t(2, -1)})),
        (_ELEMENTS[4], _ELEMENTS[4], TypeError),
        (_ELEMENTS[5], _ELEMENTS[5], TypeError),
        (_ELEMENTS[2], _ELEMENTS[4], TypeError),
        (_ELEMENTS[2], _ELEMENTS[3], ValueError),
    ])
    def test_one_mul_rule(self, a, b, want):
        # a peer multiplies by its type's product, an int or LaurentPoly scales,
        # and types without a product (TkElement, QtElement) take scalars only
        if isinstance(want, type):
            with pytest.raises(want):
                a * b
        else:
            assert a * b == want

    def test_bool_counts_as_int(self):
        assert LaurentPoly({0: True}) == 1
        assert HbElement.mono({(0, 0, 0): True}) == HbElement.mono({(0, 0, 0): 1})

    @pytest.mark.parametrize("cls, data", [
        (LaurentPoly, {"x": 1}),
        (LaurentPoly, {"t": [[1]]}),
        (LaurentPoly, {"t": [[1, "2", "3"]]}),
        (LaurentPoly, {"t": [[1.5, "2"]]}),
        (LaurentPoly, {"t": [[1, 2.7]]}),
        (LaurentPoly, {"t": [[1, "two"]]}),
        (LaurentPoly, [[1, "2"]]),
        (LaurentPoly, None),
        (HbElement, {"terms": []}),
        (HbElement, {"basis": "monomial"}),
        (HbElement, {"basis": "cubic", "terms": []}),
        (HbElement, {"basis": "monomial", "terms": [[0, 0, {"t": []}]]}),
        (HbElement, {"basis": "monomial", "terms": [[0, 0, 0, {"x": []}]]}),
        (HbElement, {"basis": "monomial", "terms": 5}),
        (TkElement, {"p": 1, "terms": []}),
        (TkElement, {"p": 1, "convention": "kbsm"}),
        (TkElement, {"p": "1", "convention": "kbsm", "terms": []}),
        (TkElement, {"p": 1, "convention": "jones", "terms": []}),
        (TkElement, {"p": 1, "convention": "kbsm", "terms": [[0, 5, {"t": [[0, "1"]]}]]}),
        (QtElement, {}),
        (QtElement, {"terms": [[0, 0, {"t": [[0, "1"]]}]]}),
        (QtElement, {"terms": [[0, 0, [[-1, {"t": [[0, "1"]]}]]]]}),
        (QtElement, {"terms": [[0, [[0, {"t": [[0, "1"]]}]]]]}),
    ])
    def test_from_json_rejects_malformed(self, cls, data):
        with pytest.raises(ValueError):
            from_json(cls, data)
