"""Exact enumeration of snakes, signed Simsun/Andre permutation families,
increasing trees and forests, their boustrophedon recurrences, and the
bijections tying them together.  ``import snake_atlas`` loads a submodule
when one of its names is first used; a submodule loads only what it imports."""
from importlib import import_module

#: Each submodule, with the names the package re-exports from it.
_EXPORTS = {
    "bijections": "phi1 phi1_b phi1_b_inv phi1_d phi1_d_inv phi1_inv phi2 phi2_b"
                  " phi2_b_inv phi2_d phi2_d_inv phi2_inv zeta1 zeta1_inv zeta2 zeta2_inv",
    "errors": "LimitError MembershipError SettingError",
    "fixtures": "",
    "forests": "emp_forest enumerate_forests forest_from_json forest_to_json"
               " forest_to_tree tree_to_forest",
    "permutations": "FAMILY_TAGS augmenting_elements enumerate_family gae"
                    " is_beta_snake is_gamma_snake is_member npk nva subword",
    "polynomials": "LaurentPoly",
    "qcalculus": "BiPoly Operator QPoly op_D op_U qpoly_P qpoly_Q qpoly_R"
                 " weight_forest weight_tree weighted_sum_forests weighted_sum_trees",
    "trees": "emp enumerate_trees in_left_class inorder_word is_starred psi_cap"
             " psi_cap_inv psi_circ psi_circ_inv psi_star psi_star_inv rmlab"
             " snake_to_tree tree_from_json tree_from_word tree_to_json tree_to_snake",
    "triangles": "DoubleTriangle EntringerTriangle arnold arnold_poly entringer"
                 " gamma_arrays hoffman_P hoffman_Q hoffman_R hoffman_secant_power"
                 " hoffman_triangle_identity",
    "verify": "CheckReport run_all run_check",
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    """Import the submodule that owns ``name`` on its first use (PEP 562)."""
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
