"""Family recursions versus their closed forms."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from types import MappingProxyType

import pytest

import skeincalc
from skeincalc import families
from skeincalc.chebyshev import cheb_T
from skeincalc.families import (big_x, big_x_closed, big_x_residual, sigma, sigma_defining,
                                sigma_residual, x1_T_closed, x1_T_residual, x1y1_recursive,
                                x1y1_T_recursive, y1_T_closed, y1_T_residual)
from skeincalc.handlebody import CHEBYSHEV, MONOMIAL, HbElement, _element

from oracles import Y, hb_mul, hb_table, mirror, t, x1y1_monomial


class TestRecursionSeeds:
    def test_xpart_seed(self):
        assert x1y1_recursive(0).xpart.to_basis(MONOMIAL) == HbElement(MONOMIAL,
            {(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})

    def test_ypart_seed(self):
        assert x1y1_recursive(0).ypart.to_basis(MONOMIAL) == HbElement(MONOMIAL,
            {(0, 0, 0): t(2, -1) + t(-2, -1)})

    def test_one_step(self):
        got = x1y1_recursive(1).xpart.to_basis(MONOMIAL)
        expected = HbElement(MONOMIAL, {
            (0, 2, 0): t(8, -1),
            (1, 1, 1): t(6, -1),
            (2, 0, 0): t(0) - t(4),
            (0, 0, 2): t(0) - t(4),
            (0, 0, 0): t(8) + t(4) - 1 - t(-4),
        })
        assert got == expected

    def test_one_step_ypart(self):
        got = x1y1_recursive(1).ypart.to_basis(MONOMIAL)
        expected = HbElement(MONOMIAL, {
            (0, 1, 0): -(t(6) + t(-6)),
            (1, 0, 1): t(4, -1) + 2 - t(-4),
        })
        assert got == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            x1y1_recursive(-1)


class TestPowersOfY:
    def test_matches_monomial_recursion(self):
        # the binomial sum of the T_n oracle's tables against the recursion
        # in powers of y, kept among the oracles
        for n in range(26):
            got, want = x1y1_recursive(n), x1y1_monomial(n)
            assert got.n == n and got.xpart.basis == got.ypart.basis == CHEBYSHEV
            assert got.xpart.to_basis(MONOMIAL) == want.xpart, n
            assert got.ypart.to_basis(MONOMIAL) == want.ypart, n

    def test_rejects_non_int_power_after_caching(self):
        x1y1_recursive(2)
        with pytest.raises(TypeError):
            x1y1_recursive(2.0)


class TestChebyshevOracle:
    def test_matches_sum_over_powers(self):
        # X1*T_n(y) = sum_j c_j X1*y^j over the monomial coefficients c_j of
        # T_n, with X1*y^j from the monomial-basis recursion of the oracles
        # (x1y1_recursive reads the oracle under test); likewise Y1
        for n in range(0, 13):
            xsum = ysum = HbElement(MONOMIAL, {})
            for j, c in enumerate(cheb_T(n)):
                xsum = xsum + x1y1_monomial(j).xpart * c
                ysum = ysum + x1y1_monomial(j).ypart * c
            pair = x1y1_T_recursive(n)
            assert pair.n == n
            assert pair.xpart.to_basis(MONOMIAL) == xsum, n
            assert pair.ypart.to_basis(MONOMIAL) == ysum, n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            x1y1_T_recursive(-1)


class TestClosedForms:
    def test_x1_matches_recursion(self):
        for n in range(1, 41):
            assert x1_T_closed(n) == x1y1_T_recursive(n).xpart, n

    def test_y1_matches_recursion(self):
        for n in range(1, 41):
            assert y1_T_closed(n) == x1y1_T_recursive(n).ypart, n

    def test_n1_equals_first_family_member(self):
        # T_1 = xi, so the closed form at n = 1 is the n = 1 recursion value
        assert x1_T_closed(1).to_basis(MONOMIAL) == x1y1_monomial(1).xpart
        assert y1_T_closed(1).to_basis(MONOMIAL) == x1y1_monomial(1).ypart

    def test_n2_linearity(self):
        # T_2 = xi^2 - 2
        expected = x1y1_monomial(2).xpart + x1y1_monomial(0).xpart * (-2)
        assert x1_T_closed(2).to_basis(MONOMIAL) == expected

    def test_zero_index_fallback(self):
        assert x1_T_closed(0).to_basis(MONOMIAL) == x1y1_monomial(0).xpart * 2
        assert y1_T_closed(0).to_basis(MONOMIAL) == x1y1_monomial(0).ypart * 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            x1_T_closed(-1)
        with pytest.raises(ValueError):
            y1_T_closed(-2)


class TestBigX:
    def test_initial_values(self):
        assert big_x(0).to_basis(MONOMIAL) == HbElement(MONOMIAL,
            {(0, 0, 0): t(2, -1) + t(-2, -1)})
        assert big_x(1).to_basis(MONOMIAL) == HbElement(MONOMIAL,
            {(0, 1, 0): t(4, -1), (1, 0, 1): t(2, -1)})

    def test_one_recursion_step(self):
        expected = HbElement(MONOMIAL, {
            (0, 2, 0): t(6, -1),
            (1, 1, 1): t(4, -1),
            (0, 0, 0): t(6) + t(2),
            (1, 0, 1): t(2, -2),
        })
        assert big_x(2).to_basis(MONOMIAL) == expected

    def test_closed_matches_recursion(self):
        for i in range(0, 41):
            assert big_x_closed(i) == big_x(i), i

    def test_rejects_non_int_index(self):
        big_x(2)
        with pytest.raises(TypeError):
            big_x(2.0)

    def test_cold_index_builds_one_element(self):
        # the table memo fills the indices below; big_x keeps no element
        big_x.cache_clear()
        try:
            big_x(40)
            assert big_x.cache_info().currsize == 0
        finally:
            big_x.cache_clear()

    def test_mirror_orientation_would_fail(self):
        # the variant with all t-exponents negated disagrees already at i = 1
        assert mirror(big_x_closed(1)) != big_x(1)

    def test_homogeneous_solutions(self):
        # t^{2i} S_i(y) and t^{2i-2} S_{i-1}(y) solve X_{i+2} = t^2 y X_{i+1} - t^4 X_i
        for shift in (0, -1):
            seq = [HbElement.cheb_sum([(1, 2 * i + 2 * shift, 0, i + shift, 0)]).to_basis(MONOMIAL)
                   for i in range(13)]
            for i in range(11):
                assert seq[i + 2] == hb_mul(seq[i + 1], Y) * t(2) - seq[i] * t(4), (shift, i)


class TestSigma:
    def test_matches_defining_relation(self):
        for n in range(1, 41):
            assert sigma(n) == sigma_defining(n), n

    def test_matches_recursion_route(self):
        xz = HbElement(CHEBYSHEV, {(1, 0, 1): t(-1)})
        for n in range(1, 41):
            t_n = HbElement.cheb_sum([(1, 0, 0, n, 0), (-1, 0, 0, n - 2, 0)])
            via_recursion = x1y1_T_recursive(n).xpart * t(1) + hb_mul(xz, t_n)
            assert sigma(n) == via_recursion, n

    def test_s1_sn_s1_coefficient(self):
        for n in range(2, 41):
            assert sigma(n).terms.get((1, n, 1)) == t(4 * n + 3, -1) + t(-1), n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sigma(0)
        with pytest.raises(ValueError):
            sigma_defining(0)


class TestTables:
    def test_returned_elements_do_not_share_the_memo(self):
        # every call builds a fresh element from the oracle's tables, so a
        # caller that edits one cannot change a later residual
        got = x1y1_T_recursive(3).xpart
        next(iter(got.terms.values())).terms[99] = 1
        got.terms.clear()
        x1y1_T_recursive(3).ypart.terms.clear()
        assert x1_T_residual(3).is_zero()
        assert y1_T_residual(3).is_zero()
        assert x1y1_T_recursive(3).xpart == x1_T_closed(3)
        # likewise big_x and x1y1_recursive, which keep no element
        want_x, want_pair = big_x_closed(3), x1y1_recursive(3).xpart.to_basis(MONOMIAL)
        big_x(3).terms.clear()
        x1y1_recursive(3).xpart.terms.clear()
        assert big_x(3) == want_x
        assert x1y1_recursive(3).xpart.to_basis(MONOMIAL) == want_pair == x1y1_monomial(3).xpart
        assert big_x_residual(3).is_zero()
        assert x1_T_residual(3).is_zero()

    def test_residuals_do_not_read_big_x_elements(self):
        # big_x hands every caller a fresh element, and its recursion,
        # big_x_residual and the handle slide read the table memo, so
        # emptying returned elements changes no residual
        from skeincalc import torusknot
        big_x.cache_clear()
        try:
            big_x(4)
            big_x(3).terms.clear()
            big_x(4).terms.clear()
            assert big_x_residual(3).is_zero()
            assert big_x_residual(6).is_zero()
            torusknot._windows.clear()
            torusknot._big_x_rest.cache_clear()
            assert torusknot.handle_slide_residual(2, 1).is_zero()
        finally:
            big_x.cache_clear()
            torusknot._big_x_rest.cache_clear()

    @pytest.mark.parametrize("fn, arg", [
        (x1_T_closed, 2.0), (y1_T_closed, 2.5), (sigma, 2.0), (big_x_closed, 2.0),
        (x1_T_residual, 2.0), (y1_T_residual, 2.5), (sigma_residual, 2.0),
        (big_x_residual, 2.0), (x1y1_recursive, 2.0)])
    def test_non_int_index_names_the_argument(self, fn, arg):
        with pytest.raises(TypeError, match=re.escape(f"got {arg!r}") + "$"):
            fn(arg)

    @pytest.mark.parametrize("closed, oracle, n", [
        pytest.param(families._x1_closed, lambda n: x1y1_T_recursive(n).xpart, 5,
                     id="_x1_closed-x1_T_recursive-5"),
        pytest.param(families._y1_closed, lambda n: x1y1_T_recursive(n).ypart, 4,
                     id="_y1_closed-y1_T_recursive-4"),
        (families._sigma, sigma_defining, 3), (families._big_x_closed, big_x, 6)])
    def test_failure_report_matches_element_route(self, closed, oracle, n):
        # one exponent of the closed form off by one: the table residual
        # reports exactly what the element arithmetic gives
        table = closed(n)
        (m, j, k, e), c = next(item for item in sorted(table.items()) if item[1])
        table[m, j, k, e] -= c
        table[m, j, k, e + 1] = table.get((m, j, k, e + 1), 0) + c
        expected = (_element(table) - oracle(n)).to_basis(MONOMIAL)
        got = families._residual(dict(table), hb_table(oracle(n)))
        assert not got.is_zero()
        assert json.dumps(got.to_json()) == json.dumps(expected.to_json())


def test_public_memos_keep_nothing_or_immutable_data():
    # a caller who changes what a public memo returned cannot change a later
    # call: the memo keeps nothing, or what it keeps cannot be changed
    immutable = (int, str, tuple, frozenset, range, MappingProxyType)
    memos = {(name, attr): obj
             for name in ["skeincalc"] + [m.name for m in pkgutil.iter_modules(
                 skeincalc.__path__, "skeincalc.")]
             for attr, obj in vars(importlib.import_module(name)).items()
             if not attr.startswith("_") and hasattr(obj, "cache_info")}
    assert {attr for _, attr in memos} >= {"big_x", "x1y1_recursive", "monomial_to_S"}
    for key, memo in memos.items():
        assert memo.cache_info().maxsize == 0 or isinstance(memo(3), immutable), key


def test_cold_memos_need_no_deep_stack():
    # the memos fill in ascending order (the reduction along its
    # N -> N-(2p+1) chain), and the induction residual builds a cold n from
    # A_n's defining terms, so a large index from a cold cache runs under a
    # small recursion limit
    code = textwrap.dedent("""
        import sys
        from skeincalc.chebyshev import cheb_S, monomial_to_S
        from skeincalc.families import big_x_residual, x1y1_recursive
        from skeincalc.torusknot import Convention, JonesSequence, induction_residual
        sys.setrecursionlimit(200)
        assert len(cheb_S(400)) == 401
        assert monomial_to_S(400)[400] == 1
        assert big_x_residual(300).is_zero()
        assert x1y1_recursive(120).xpart.terms[0, 121, 0].terms == {484: -1}
        assert max(m for m, _ in JonesSequence(1, Convention.KBSM)(1000).terms) == 1998
        assert max(m for m, _ in JonesSequence(3, Convention.RT)(2000).terms) == 3994
        assert induction_residual(3, 1500).is_zero()
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(skeincalc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
