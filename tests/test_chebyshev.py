"""Chebyshev tables, index normalization, and the product identities."""

import pytest

from skeincalc.chebyshev import (cheb_S, cheb_T, monomial_to_S, normalize_s_index,
                                 s_combo_to_monomial, s_product, s_times_t, t_in_s)
from skeincalc.coeffs import AuxLaurent, substitute_w, t


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


class TestBasisConversion:
    def test_examples(self):
        assert monomial_to_S(0) == {0: 1}
        assert monomial_to_S(2) == {2: 1, 0: 1}
        assert monomial_to_S(3) == {3: 1, 1: 2}

    def test_round_trip(self):
        for m in range(0, 31):
            combo = monomial_to_S(m)
            back = s_combo_to_monomial(combo)
            expected = tuple(0 for _ in range(m)) + (1,)
            assert back == expected

    def test_expansion_matches_tables(self):
        for m in range(0, 20):
            dense = ()
            for j, c in monomial_to_S(m).items():
                dense = _padd(dense, tuple(c * x for x in cheb_S(j)))
            expected = tuple(0 for _ in range(m)) + (1,)
            assert dense == expected


class TestProducts:
    def test_s_times_t_examples(self):
        assert s_times_t(1, 1) == {2: 1, 0: 1}
        assert s_times_t(0, 4) == {4: 1, 2: -1}  # S_4 + S_{-4} = S_4 - S_2
        assert s_times_t(3, 0) == {3: 2}

    def test_s_times_t_against_expansion(self):
        for k in range(-20, 21):
            for n in range(-20, 21):
                dense = ()
                for j, c in s_times_t(k, n).items():
                    dense = _padd(dense, tuple(c * x for x in cheb_S(j)))
                assert dense == _pmul(cheb_S(k), cheb_T(n)), (k, n)

    def test_s_product_against_expansion(self):
        for a in range(0, 12):
            for b in range(0, 12):
                dense = ()
                for j, c in s_product(a, b).items():
                    dense = _padd(dense, tuple(c * x for x in cheb_S(j)))
                assert dense == _pmul(cheb_S(a), cheb_S(b)), (a, b)

    def test_s_product_rejects_negative(self):
        with pytest.raises(ValueError):
            s_product(-1, 3)

    def test_t_in_s(self):
        assert t_in_s(0) == {0: 2}
        assert t_in_s(1) == {1: 1}
        assert t_in_s(2) == {2: 1, 0: -1}
        assert t_in_s(-3) == t_in_s(3)


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
