"""Acceptance criteria, one test per criterion.

Every check here is exact: residuals must be identically zero and
expansions must match coefficient for coefficient, with no tolerance.
Each test prints a single PASS/FAIL line with its elapsed time; the
timing is informational only and never asserted.
"""

import random
import time

from skeincalc.chebyshev import (cheb_S, cheb_T, monomial_to_S,
                                 s_combo_to_monomial, s_times_t)
from skeincalc.coeffs import AuxLaurent, LaurentPoly, substitute_w, t
from skeincalc.families import (big_x, big_x_closed, sigma, sigma_defining,
                                x1_T_closed, x1_T_recursive, x1y1_recursive,
                                y1_T_closed, y1_T_recursive)
from skeincalc.handlebody import CHEBYSHEV, MONOMIAL, HbElement
from skeincalc.qtorus import (QtElement, inhomog_recurrence,
                              product_identity_residual, qt_apply, qt_mul,
                              recurrence_poly, t1_factor_residual)
from skeincalc.torusknot import (Convention, JonesSequence, ReductionRule,
                                 handle_slide_residual, induction_residual,
                                 rt_recursion_residual, telescope_residual)


def _finish(num, start, failures):
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d}: {status} ({elapsed:.2f} s)", flush=True)
    assert not failures, failures[:5]


def test_criterion_01_family_closed_forms():
    start = time.perf_counter()
    failures = []
    for n in range(1, 13):
        if x1_T_closed(n).to_basis(MONOMIAL) != x1_T_recursive(n):
            failures.append(("x", n))
        if y1_T_closed(n).to_basis(MONOMIAL) != y1_T_recursive(n):
            failures.append(("y", n))
    _finish(1, start, failures)


def test_criterion_02_sigma_closed_form():
    start = time.perf_counter()
    failures = []
    xz = HbElement.mono({(1, 0, 1): t(-1)})
    for n in range(1, 13):
        if sigma(n).to_basis(MONOMIAL) != sigma_defining(n):
            failures.append(("defining", n))
        via_recursion = (x1_T_recursive(n) * t(1)
                         + xz * HbElement.cheb_t_y(n).to_basis(MONOMIAL))
        if sigma(n).to_basis(MONOMIAL) != via_recursion:
            failures.append(("recursion", n))
    _finish(2, start, failures)


def test_criterion_03_mirrored_family_closed_form():
    start = time.perf_counter()
    failures = [i for i in range(0, 13)
                if big_x_closed(i).to_basis(MONOMIAL) != big_x(i)]
    _finish(3, start, failures)


def test_criterion_04_handle_slide():
    start = time.perf_counter()
    failures = [(p, n)
                for p in range(1, 5)
                for n in range(1, 2 * p + 5)
                if not handle_slide_residual(p, n).is_zero()]
    _finish(4, start, failures)


def test_criterion_05_telescope_and_induction():
    start = time.perf_counter()
    failures = []
    for p in range(1, 5):
        for n in range(0, 2 * p + 5):
            if not telescope_residual(p, n).is_zero():
                failures.append(("telescope", p, n))
            if not induction_residual(p, n).is_zero():
                failures.append(("induction", p, n))
    _finish(5, start, failures)


def test_criterion_06_recursion_for_reduced_powers():
    start = time.perf_counter()
    failures = [(p, n)
                for p in range(1, 5)
                for n in range(-(p + 2), 2 * p + 4)
                if not rt_recursion_residual(p, n).is_zero()]
    _finish(6, start, failures)


def test_criterion_07_operators_annihilate():
    start = time.perf_counter()
    failures = []
    for p in range(1, 5):
        f = JonesSequence(p, Convention.RT)
        H = inhomog_recurrence(p)
        G = recurrence_poly(p)
        for n in range(-(p + 2), 2 * p + 4):
            if not qt_apply(H, f, n).is_zero():
                failures.append(("mixed", p, n))
            if not qt_apply(G, f, n).is_zero():
                failures.append(("pure", p, n))
    for p in range(1, 7):
        if not product_identity_residual(p).is_zero():
            failures.append(("product", p))
    _finish(7, start, failures)


def test_criterion_08_specialized_factorization():
    start = time.perf_counter()
    failures = [p for p in range(1, 7) if not t1_factor_residual(p).is_zero()]
    _finish(8, start, failures)


def test_criterion_09_structural_properties():
    start = time.perf_counter()
    failures = []

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return tuple(out)

    def padd(a, b):
        n = max(len(a), len(b))
        return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n))

    # product linearization against direct polynomial expansion
    for k in range(-20, 21):
        for n in range(-20, 21):
            expanded = pmul(cheb_S(k), cheb_T(n))
            combo = ()
            for j, c in s_times_t(k, n).items():
                combo = padd(combo, tuple(c * v for v in cheb_S(j)))
            if expanded != combo:
                failures.append(("s_times_t", k, n))

    # index folding
    for n in range(0, 21):
        folded = tuple(-v for v in cheb_S(n - 2))
        if cheb_S(-n) != folded:
            failures.append(("fold", n))

    # evaluation at a two-term unit: both families collapse to powers
    for n in range(-30, 31):
        xi = AuxLaurent({1: 1}) + AuxLaurent({-1: 1})
        tn = substitute_w(cheb_T(n), xi)
        if tn != AuxLaurent({n: 1}) + AuxLaurent({-n: 1}):
            failures.append(("w_T", n))
        sn = substitute_w(cheb_S(n), xi)
        diff = AuxLaurent({1: 1}) - AuxLaurent({-1: 1})
        if sn * diff != AuxLaurent({n + 1: 1}) - AuxLaurent({-n - 1: 1}):
            failures.append(("w_S", n))

    # basis conversions invert each other
    for n in range(0, 31):
        if s_combo_to_monomial(monomial_to_S(n)) != (0,) * n + (1,):
            failures.append(("round_trip", n))
        if s_combo_to_monomial({n: 1}) != cheb_S(n):
            failures.append(("expand", n))

    # randomized ring and involution checks, fixed seed for reproducibility
    rng = random.Random(90125)

    def rand_laurent():
        return LaurentPoly({rng.randint(-6, 6): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 4))})

    def rand_hb():
        return HbElement.mono({(rng.randint(0, 3), rng.randint(0, 3),
                                rng.randint(0, 3)): rand_laurent()
                               for _ in range(rng.randint(0, 3))})

    for trial in range(60):
        a, b = rand_laurent(), rand_laurent()
        if (a * b).bar() != a.bar() * b.bar() or a.bar().bar() != a:
            failures.append(("bar", trial))
        h1, h2, h3 = rand_hb(), rand_hb(), rand_hb()
        if h1 * h2 != h2 * h1:
            failures.append(("hb_comm", trial))
        if (h1 * h2) * h3 != h1 * (h2 * h3):
            failures.append(("hb_assoc", trial))
        if h1.to_basis(CHEBYSHEV).to_basis(MONOMIAL) != h1:
            failures.append(("hb_round_trip", trial))

    def rand_qt():
        return QtElement.monomial(rng.randint(-2, 2), rng.randint(-2, 2),
                                  t(rng.randint(-4, 4), rng.randint(1, 5)))

    for trial in range(60):
        q1, q2, q3 = rand_qt(), rand_qt(), rand_qt()
        if qt_mul(qt_mul(q1, q2), q3) != qt_mul(q1, qt_mul(q2, q3)):
            failures.append(("qt_assoc", trial))

    _finish(9, start, failures)


def test_criterion_10_sign_mutations_are_detected():
    start = time.perf_counter()
    base = ReductionRule.for_convention(Convention.KBSM)
    failures = []
    for mutant in base.single_sign_mutations():
        broken = any(not handle_slide_residual(p, n, rule=mutant).is_zero()
                     for p in (1, 2) for n in range(1, 5))
        if not broken:
            failures.append(mutant)
    _finish(10, start, failures)
