"""Family recursions versus their closed forms."""

import pytest

from skeincalc.coeffs import LaurentPoly, t
from skeincalc.families import (big_x, big_x_closed, sigma, sigma_defining,
                                x1_T_closed, x1_T_recursive, x1y1_recursive,
                                y1_T_closed, y1_T_recursive)
from skeincalc.handlebody import CHEBYSHEV, MONOMIAL, HbElement


class TestRecursionSeeds:
    def test_xpart_seed(self):
        assert x1y1_recursive(0).xpart == HbElement.mono(
            {(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})

    def test_ypart_seed(self):
        assert x1y1_recursive(0).ypart == HbElement.mono(
            {(0, 0, 0): t(2, -1) + t(-2, -1)})

    def test_one_step(self):
        got = x1y1_recursive(1).xpart
        expected = HbElement.mono({
            (0, 2, 0): t(8, -1),
            (1, 1, 1): t(6, -1),
            (2, 0, 0): LaurentPoly.one() - t(4),
            (0, 0, 2): LaurentPoly.one() - t(4),
            (0, 0, 0): t(8) + t(4) - 1 - t(-4),
        })
        assert got == expected

    def test_one_step_ypart(self):
        got = x1y1_recursive(1).ypart
        expected = HbElement.mono({
            (0, 1, 0): -(t(6) + t(-6)),
            (1, 0, 1): t(4, -1) + 2 - t(-4),
        })
        assert got == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            x1y1_recursive(-1)


class TestClosedForms:
    def test_x1_matches_recursion(self):
        for n in range(1, 13):
            assert x1_T_closed(n).to_basis(MONOMIAL) == x1_T_recursive(n), n

    def test_y1_matches_recursion(self):
        for n in range(1, 13):
            assert y1_T_closed(n).to_basis(MONOMIAL) == y1_T_recursive(n), n

    def test_n1_equals_first_family_member(self):
        # T_1 = xi, so the closed form at n = 1 is the n = 1 recursion value
        assert x1_T_closed(1).to_basis(MONOMIAL) == x1y1_recursive(1).xpart
        assert y1_T_closed(1).to_basis(MONOMIAL) == x1y1_recursive(1).ypart

    def test_n2_linearity(self):
        # T_2 = xi^2 - 2
        expected = x1y1_recursive(2).xpart + x1y1_recursive(0).xpart * (-2)
        assert x1_T_closed(2).to_basis(MONOMIAL) == expected

    def test_zero_index_fallback(self):
        assert x1_T_closed(0).to_basis(MONOMIAL) == x1y1_recursive(0).xpart * 2
        assert y1_T_closed(0).to_basis(MONOMIAL) == x1y1_recursive(0).ypart * 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            x1_T_closed(-1)
        with pytest.raises(ValueError):
            y1_T_closed(-2)


class TestBigX:
    def test_initial_values(self):
        assert big_x(0) == HbElement.mono({(0, 0, 0): t(2, -1) + t(-2, -1)})
        assert big_x(1) == HbElement.mono({(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})

    def test_one_recursion_step(self):
        expected = HbElement.mono({
            (0, 2, 0): t(6, -1),
            (1, 1, 1): t(4, -1),
            (0, 0, 0): t(6) + t(2),
            (1, 0, 1): t(2, -2),
        })
        assert big_x(2) == expected

    def test_closed_matches_recursion(self):
        for i in range(0, 13):
            assert big_x_closed(i).to_basis(MONOMIAL) == big_x(i), i

    def test_mirror_orientation_would_fail(self):
        # the variant with all t-exponents negated disagrees already at i = 1
        assert big_x_closed(1).mirror().to_basis(MONOMIAL) != big_x(1)

    def test_homogeneous_solutions(self):
        # t^{2i} S_i(y) and t^{2i-2} S_{i-1}(y) solve X_{i+2} = t^2 y X_{i+1} - t^4 X_i
        y_gen = HbElement.mono({(0, 1, 0): 1})
        for shift in (0, -1):
            seq = [HbElement.cheb_term(0, i + shift, 0, t(2 * i + 2 * shift)).to_basis(MONOMIAL)
                   for i in range(13)]
            for i in range(11):
                assert seq[i + 2] == seq[i + 1] * y_gen * t(2) - seq[i] * t(4), (shift, i)


class TestSigma:
    def test_matches_defining_relation(self):
        for n in range(1, 13):
            assert sigma(n).to_basis(MONOMIAL) == sigma_defining(n), n

    def test_matches_recursion_route(self):
        xz = HbElement.mono({(1, 0, 1): t(-1)})
        for n in range(1, 13):
            via_recursion = (x1_T_recursive(n) * t(1)
                             + xz * HbElement.cheb_t_y(n).to_basis(MONOMIAL))
            assert sigma(n).to_basis(MONOMIAL) == via_recursion, n

    def test_s1_sn_s1_coefficient(self):
        for n in range(2, 13):
            assert sigma(n).coefficient(1, n, 1) == t(4 * n + 3, -1) + t(-1), n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sigma(0)
        with pytest.raises(ValueError):
            sigma_defining(0)
