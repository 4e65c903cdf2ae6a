"""Exact skein-module calculus for the genus-two handlebody and torus-knot complements.

Everything is computed over arbitrary-precision integer Laurent polynomials;
equality of elements is structural equality of canonical sparse forms, so every
verification in this package is exact.
"""

from .coeffs import AuxLaurent, LaurentPoly, Sparse, substitute_w, t
from .chebyshev import (cheb_S, cheb_T, monomial_to_S, normalize_s_index,
                        s_combo_to_monomial, s_product, s_times_t,
                        s_to_monomial, t_in_s)
from .handlebody import CHEBYSHEV, MONOMIAL, HbElement, hb_mul
from .families import (FamilyPair, big_x, big_x_closed, big_x_residual,
                       sigma, sigma_defining, sigma_residual, x1_T_closed,
                       x1_T_recursive, x1_T_residual, x1y1_recursive,
                       y1_T_closed, y1_T_recursive, y1_T_residual)
from .torusknot import (Convention, JonesSequence, ReductionRule, TkElement,
                        a_element, embed, handle_slide_residual,
                        induction_residual, reduce_sy, relation_residual,
                        rt_recursion_residual, telescope_residual, tk_mul,
                        y_shorthand)
from .qtorus import (CommutativePoly, QtElement, base_relation_op,
                     homogenization_residual, inhomog_recurrence,
                     mixed_operator_residual, product_identity_residual,
                     product_multiplier, qt_apply, qt_mul, recurrence_poly,
                     recurrence_poly_residual, t1_factor_residual)

__version__ = "0.1.0"
