"""Chebyshev tables, index normalization, and the product identities."""

import pytest

from skeincalc.chebyshev import (cheb_S, cheb_T, monomial_to_S, normalize_s_index,
                                 s_product)
from skeincalc.coeffs import AuxLaurent
from skeincalc.handlebody import CHEBYSHEV, MONOMIAL, HbElement

from oracles import substitute_w, t


def _pmul(a, b):
    """Dense schoolbook product of integer coefficient tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a, b, sign=1):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestTables:
    def test_base_cases(self):
        assert cheb_S(0) == (1,)
        assert cheb_S(1) == (0, 1)
        assert cheb_S(2) == (-1, 0, 1)
        assert cheb_T(0) == (2,)
        assert cheb_T(1) == (0, 1)
        assert cheb_T(2) == (-2, 0, 1)

    def test_negative_indices(self):
        assert cheb_S(-1) == ()
        assert cheb_S(-3) == (0, -1)  # -S_1 = -xi
        assert cheb_T(-2) == cheb_T(2)
        assert cheb_T(-7) == cheb_T(7)

    def test_three_term_recursions(self):
        for n in range(-30, 31):
            shifted_s = _pmul((0, 1), cheb_S(n))
            assert cheb_S(n + 1) == _padd(shifted_s, cheb_S(n - 1), -1)
            shifted_t = _pmul((0, 1), cheb_T(n))
            assert cheb_T(n + 1) == _padd(shifted_t, cheb_T(n - 1), -1)

    def test_t_equals_s_difference(self):
        for n in range(0, 15):
            assert cheb_T(n) == _padd(cheb_S(n), cheb_S(n - 2), -1)


class TestNormalization:
    def test_rules(self):
        assert normalize_s_index(5) == (1, 5)
        assert normalize_s_index(0) == (1, 0)
        assert normalize_s_index(-1) is None
        assert normalize_s_index(-2) == (-1, 0)
        assert normalize_s_index(-5) == (-1, 3)

    def test_folding_is_involutive(self):
        # S_{-n} = -S_{n-2} applied twice returns the original index
        for n in range(-20, 21):
            norm = normalize_s_index(n)
            if norm is None:
                continue
            sign, j = norm
            assert cheb_S(n) == tuple(sign * c for c in cheb_S(j))


class TestNonIntIndices:
    # each table is warmed at the int index first: the float must not be
    # answered from the entry of the equal int
    def test_cheb_s(self):
        cheb_S(2)
        with pytest.raises(TypeError):
            cheb_S(2.0)
        with pytest.raises(TypeError):
            normalize_s_index(-3.0)

    def test_cheb_t(self):
        cheb_T(2)
        with pytest.raises(TypeError):
            cheb_T(2.0)

    def test_monomial_to_s(self):
        monomial_to_S(2)
        with pytest.raises(TypeError):
            monomial_to_S(2.0)


class TestBasisConversion:
    def test_examples(self):
        assert monomial_to_S(0) == {0: 1}
        assert monomial_to_S(2) == {2: 1, 0: 1}
        assert monomial_to_S(3) == {3: 1, 1: 2}

    def test_memo_is_read_only(self):
        # monomial_to_S hands out a view of its memo: writing to it raises,
        # and neither a conversion nor the next power changes
        x3 = HbElement(MONOMIAL, {(3, 0, 0): 1})
        with pytest.raises(TypeError):
            monomial_to_S(3)[3] = 5
        assert x3.to_basis(CHEBYSHEV) == HbElement(CHEBYSHEV, {(3, 0, 0): 1, (1, 0, 0): 2})
        assert monomial_to_S(4) == {4: 1, 2: 3, 0: 2}

    def test_round_trip(self):
        # S_j -> dense monomials -> S basis gives back S_j alone
        for j in range(0, 31):
            combo = {}
            for m, c in enumerate(cheb_S(j)):
                for k, d in monomial_to_S(m).items():
                    combo[k] = combo.get(k, 0) + c * d
            assert {k: c for k, c in combo.items() if c} == {j: 1}, j

    def test_expansion_matches_tables(self):
        # xi^m -> S basis -> dense monomials is the identity
        for m in range(0, 31):
            dense = ()
            for j, c in monomial_to_S(m).items():
                dense = _padd(dense, tuple(c * x for x in cheb_S(j)))
            expected = tuple(0 for _ in range(m)) + (1,)
            assert dense == expected


class TestProducts:
    def test_s_product_against_expansion(self):
        for a in range(0, 12):
            for b in range(0, 12):
                # every coefficient of the product is 1
                dense = ()
                for j in s_product(a, b):
                    dense = _padd(dense, cheb_S(j))
                assert dense == _pmul(cheb_S(a), cheb_S(b)), (a, b)

    def test_s_product_rejects_negative(self):
        with pytest.raises(ValueError):
            s_product(-1, 3)


class TestWIdentities:
    def test_one_variable(self):
        w = AuxLaurent({1: 1}) + AuxLaurent({-1: 1})
        wm = AuxLaurent({1: 1}) - AuxLaurent({-1: 1})
        for n in range(-30, 31):
            tn = substitute_w(cheb_T(n), w)
            expected_t = AuxLaurent({n: t(0), -n: t(0)}) if n else AuxLaurent({0: t(0, 2)})
            assert tn == expected_t, n
            sn = substitute_w(cheb_S(n), w) * wm
            assert sn == AuxLaurent({n + 1: 1}) - AuxLaurent({-n - 1: 1}), n

    def test_two_variable(self):
        # T_n(tw + t^-1 w^-1) = t^n w^n + t^-n w^-n
        val = AuxLaurent({1: t(1)}) + AuxLaurent({-1: t(-1)})
        for n in range(-30, 31):
            got = substitute_w(cheb_T(n), val)
            if n == 0:
                assert got == AuxLaurent({0: t(0, 2)})
            else:
                assert got == AuxLaurent({n: t(n), -n: t(-n)}), n
