"""Exact enumeration of snakes, signed Simsun/Andre permutation families,
increasing trees and forests, their boustrophedon recurrences, and the
bijections tying them together."""
from .bijections import (phi1, phi1_b, phi1_b_inv, phi1_d, phi1_d_inv,
                         phi1_inv, phi2, phi2_b, phi2_b_inv, phi2_d,
                         phi2_d_inv, phi2_inv, zeta1, zeta1_inv, zeta2,
                         zeta2_inv)
from .errors import LimitError, MembershipError, SettingError
from .forests import (emp_forest, enumerate_forests, forest_from_json,
                      forest_to_json, forest_to_tree, tree_to_forest)
from .permutations import (FAMILY_TAGS, augmenting_elements, enumerate_family,
                           gae, is_beta_snake, is_gamma_snake, is_member, npk,
                           nva, subword)
from .polynomials import LaurentPoly
from .qcalculus import (BiPoly, Operator, QPoly, op_D, op_U, qpoly_P, qpoly_Q,
                        qpoly_R, weight_forest, weight_tree,
                        weighted_sum_forests, weighted_sum_trees)
from .trees import (emp, enumerate_trees, in_left_class, inorder_word,
                    is_starred, psi_cap, psi_cap_inv, psi_circ, psi_circ_inv,
                    psi_star, psi_star_inv, rmlab, snake_to_tree,
                    tree_from_json, tree_from_word, tree_to_json,
                    tree_to_snake)
from .triangles import (DoubleTriangle, EntringerTriangle, arnold,
                        arnold_poly, entringer, gamma_arrays, hoffman_P,
                        hoffman_Q, hoffman_R, hoffman_secant_power,
                        hoffman_triangle_identity)
from .verify import CheckReport, run_all, run_check

__all__ = [name for name in dir() if not name.startswith("_")]
