"""Where the traced run puts its spans in ``snake_atlas``.

The layers are the package's modules.  Every public (not underscore)
function of one layer that another layer, or a benchmark module, has
imported is replaced in the importing module by a recording wrapper, so
each span marks a call across a layer boundary.  Nothing under ``src/``
changes, and every replacement is undone when the traced pass ends.
"""
from __future__ import annotations

import importlib
import types
from contextlib import contextmanager

LAYERS = ("cli", "verify", "permutations", "trees", "forests", "bijections",
          "qcalculus", "triangles", "polynomials")

# Constant-time node accessors.  A span costs more than their work, so
# their time stays with the caller.
ACCESSORS = frozenset({"is_empty", "is_leaf", "label"})

# Enumerators: the counter that sums their output sizes; their calls also
# get a tracemalloc peak in the memory pass.
ENUMERATORS = {"permutations.enumerate_family": "permutations.windows_out",
               "trees.enumerate_trees": "trees.trees_out",
               "forests.enumerate_forests": "forests.forests_out"}

# Calls counted everywhere, also from inside their own module.
COUNTED = ("permutations.is_member",)

# Functions that also get spans for calls from inside their own module.
INTRA = ("qcalculus.weight_tree", "qcalculus.weight_forest")

# Polynomial value arithmetic, reported as the `polynomials` layer.
POLY_METHODS = {("polynomials", "LaurentPoly"): ("__add__", "__sub__", "__mul__",
                                                 "__neg__", "shift", "__call__"),
                ("qcalculus", "QPoly"): ("__add__", "__sub__", "__mul__", "__call__"),
                ("qcalculus", "BiPoly"): ("__add__", "__sub__", "at_q1")}

# CLI bijection name -> (layer, forward function, inverse function).
BIJECTIONS = {
    "gamma": ("trees", "tree_to_snake", "snake_to_tree"),
    "mu": ("forests", "tree_to_forest", "forest_to_tree"),
    "phi1": ("bijections", "phi1", "phi1_inv"),
    "phi1-b": ("bijections", "phi1_b", "phi1_b_inv"),
    "phi1-d": ("bijections", "phi1_d", "phi1_d_inv"),
    "phi2": ("bijections", "phi2", "phi2_inv"),
    "phi2-b": ("bijections", "phi2_b", "phi2_b_inv"),
    "phi2-d": ("bijections", "phi2_d", "phi2_d_inv"),
    "zeta1": ("bijections", "zeta1", "zeta1_inv"),
    "zeta2": ("bijections", "zeta2", "zeta2_inv"),
    "psi-star": ("trees", "psi_star", "psi_star_inv"),
    "psi-circ": ("trees", "psi_circ", "psi_circ_inv"),
    "psi-cap": ("trees", "psi_cap", "psi_cap_inv"),
}

WEIGHT_SPANS = ("qcalculus.weight_tree", "qcalculus.weight_forest",
                "qcalculus.tree_step_weights", "qcalculus.forest_step_weights")
OPERATOR_SPANS = ("qcalculus.qpoly_P", "qcalculus.qpoly_Q", "qcalculus.qpoly_R")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _span_name(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith("snake_atlas."):
        return None
    layer = module.split(".", 1)[1]
    return f"{layer}.{fn.__name__}" if layer in LAYERS else None


@contextmanager
def instrumented(tracer, importers=()):
    """Install ``tracer``'s wrappers in every layer and in ``importers``
    for the duration of the block."""
    mods = {m: importlib.import_module(f"snake_atlas.{m}") for m in LAYERS}
    undo = []

    def patch(owner, key, new):
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = new
            undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = owner.__dict__[key]
            setattr(owner, key, new)
            undo.append(lambda: setattr(owner, key, old))

    def wrapper(name, fn):
        return tracer.wrap(name, fn, count_out=ENUMERATORS.get(name),
                           peak=name in ENUMERATORS)

    try:
        base = {}
        for name in COUNTED:
            layer, attr = name.split(".")
            fn = getattr(mods[layer], attr)
            base[fn] = tracer.counted(f"{name}.calls", fn)
            patch(mods[layer], attr, base[fn])
        for name in INTRA:
            layer, attr = name.split(".")
            fn = getattr(mods[layer], attr)
            patch(mods[layer], attr, wrapper(name, base.get(fn, fn)))

        for module in list(mods.values()) + list(importers):
            for attr, fn in list(vars(module).items()):
                if (not isinstance(fn, types.FunctionType) or attr.startswith("_")
                        or attr in ACCESSORS or fn.__module__ == module.__name__):
                    continue
                name = _span_name(fn)
                if name is not None:
                    patch(module, attr, wrapper(name, base.get(fn, fn)))

        # The CLI's bijection table holds its functions from import time.
        table = mods["cli"].BIJECTIONS
        for key, (layer, fwd, inv) in BIJECTIONS.items():
            entry = list(table[key])
            entry[0] = tracer.wrap(f"{layer}.{fwd}", entry[0])
            entry[1] = tracer.wrap(f"{layer}.{inv}", entry[1])
            for j in range(2, len(entry)):
                name = _span_name(entry[j])
                if name is not None and not name.startswith("cli."):
                    entry[j] = tracer.wrap(name, entry[j])
            patch(table, key, tuple(entry))

        for (layer, cls_name), methods in POLY_METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for attr in methods:
                patch(cls, attr, tracer.wrap(f"polynomials.{cls_name}.{attr}",
                                             cls.__dict__[attr]))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
