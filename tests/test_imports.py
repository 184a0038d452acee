"""The package imports its submodules on demand.

``import snake_atlas`` loads no submodule, and importing a submodule
loads only the modules it imports.  The package still offers every name
it offered when it imported all of them eagerly: the same 89 public
names, each the same object as the owning submodule's attribute.  Each
check runs in a fresh interpreter, so modules that other tests loaded
do not count.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snake_atlas

SRC = Path(__file__).resolve().parent.parent / "src"

#: The re-exported names by owning submodule, as the package offered them
#: when it imported every submodule eagerly.
EXPORTS = {
    "bijections": ("phi1", "phi1_b", "phi1_b_inv", "phi1_d", "phi1_d_inv",
                   "phi1_inv", "phi2", "phi2_b", "phi2_b_inv", "phi2_d",
                   "phi2_d_inv", "phi2_inv", "zeta1", "zeta1_inv", "zeta2",
                   "zeta2_inv"),
    "errors": ("LimitError", "MembershipError", "SettingError"),
    "fixtures": (),
    "forests": ("emp_forest", "enumerate_forests", "forest_from_json",
                "forest_to_json", "forest_to_tree", "tree_to_forest"),
    "permutations": ("FAMILY_TAGS", "augmenting_elements", "enumerate_family",
                     "gae", "is_beta_snake", "is_gamma_snake", "is_member",
                     "npk", "nva", "subword"),
    "polynomials": ("LaurentPoly",),
    "qcalculus": ("BiPoly", "Operator", "QPoly", "op_D", "op_U", "qpoly_P",
                  "qpoly_Q", "qpoly_R", "weight_forest", "weight_tree",
                  "weighted_sum_forests", "weighted_sum_trees"),
    "trees": ("emp", "enumerate_trees", "in_left_class", "inorder_word",
              "is_starred", "psi_cap", "psi_cap_inv", "psi_circ",
              "psi_circ_inv", "psi_star", "psi_star_inv", "rmlab",
              "snake_to_tree", "tree_from_json", "tree_from_word",
              "tree_to_json", "tree_to_snake"),
    "triangles": ("DoubleTriangle", "EntringerTriangle", "arnold",
                  "arnold_poly", "entringer", "gamma_arrays", "hoffman_P",
                  "hoffman_Q", "hoffman_R", "hoffman_secant_power",
                  "hoffman_triangle_identity"),
    "verify": ("CheckReport", "run_all", "run_check"),
}
PUBLIC = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])


def fresh(code, *flags):
    """Run ``code`` in a new interpreter, started with ``flags``, that
    imports from ``src``; return the JSON value it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("import json, sys; print(json.dumps(sorted("
          "m for m in sys.modules if m.startswith('snake_atlas.'))))")


def test_bare_import_loads_no_submodule():
    assert fresh("import snake_atlas; " + LOADED) == []


def test_bulk_imports_load_only_what_they_use():
    loaded = fresh("import snake_atlas.trees, snake_atlas.forests, "
                   "snake_atlas.qcalculus; " + LOADED)
    assert loaded == ["snake_atlas." + m for m in
                      ("errors", "forests", "polynomials", "qcalculus", "trees")]


def _heavy(after):
    """Code that runs ``after`` and prints which heavy stdlib modules are
    loaded; ``json`` imports ``re``, so it is imported last."""
    return ("import sys; " + after + "; heavy = sorted(m for m in ('dataclasses', "
            "'inspect', 'typing', 're', 'enum') if m in sys.modules); "
            "import json; print(json.dumps(heavy))")


def test_engine_imports_load_neither_dataclasses_nor_inspect():
    """The value classes are plain classes, so no engine module needs
    ``dataclasses``, which imports ``inspect``.  Without ``site`` (which
    may import ``typing`` itself) the bulk path loads no ``typing``, and
    so no ``re`` or ``enum``."""
    bulk = "import snake_atlas.trees, snake_atlas.forests, snake_atlas.qcalculus"
    for after in (bulk, "import snake_atlas.verify"):
        assert not {"dataclasses", "inspect"} & set(fresh(_heavy(after)))
    assert fresh(_heavy(bulk), "-S") == []


def test_public_names_are_the_eager_ones():
    assert len(PUBLIC) == 89
    assert snake_atlas.__all__ == PUBLIC


def test_each_name_is_its_owners_object():
    mismatched = fresh(f"""
import importlib, json
import snake_atlas
bad = []
for module, names in {EXPORTS!r}.items():
    first = {{name: getattr(snake_atlas, name) for name in (module, *names)}}
    owner = importlib.import_module("snake_atlas." + module)
    bad += [name for name in names if first[name] is not getattr(owner, name)]
    if first[module] is not owner:
        bad.append(module)
print(json.dumps(bad))
""")
    assert mismatched == []


def test_star_import_binds_every_public_name():
    bound = fresh("from snake_atlas import *; import json; "
                  "print(json.dumps(sorted(n for n in dir() if not n.startswith('_'))))")
    assert set(PUBLIC) <= set(bound)


def test_dir_lists_every_public_name():
    listed = fresh("import json, snake_atlas; print(json.dumps(dir(snake_atlas)))")
    assert set(PUBLIC) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'snake_atlas' has no attribute 'nope'"):
        snake_atlas.nope
