"""Exact sliceness obstructions for satellite knots.

Everything is computed in exact rational (or certified-interval)
arithmetic: Laurent polynomials over Q, homology of infinite cyclic covers
via Smith normal form, linking forms, Levine-Tristram signatures, and the
metabelian obstruction sweep for satellite families.

Importing the package compiles none of its layers.  Each layer is put in
`sys.modules` and on the package by `importlib.util.LazyLoader`, and its
source is compiled on the first attribute access: a command pays only for
the layers it uses (`signature` never compiles `obstruction`).  The public
names below resolve through the export table, `rhoslice.X` loading the
layer that defines X.  Every error the package raises derives from
`RhosliceError`, defined here, so that catching it loads no layer.
"""

import importlib.util
import sys

# the layers, registered below without compiling any of them
_LAYERS = ("polyalg", "factor", "linalg", "seifert", "signatures",
           "almodule", "blanchfield", "submodule", "obstruction")

# the public API: each layer's exported names
_EXPORTS = {
    "almodule": ("AlexanderModule", "FracCoset", "ModuleElement",
                 "alexander_module", "coset_reduce", "direct_sum", "isotypic_decompose",
                 "reduce_to_isotypic", "reverse_module", "smith_normal_form"),
    "blanchfield": ("LinkingForm", "blanchfield_form"),
    "factor": ("factor_laurent",),
    "obstruction": ("Companion", "FamilyMember", "FamilySpec", "InfectedKnot",
                    "ObstructionError", "ObstructionReport",
                    "verify_obstructed"),
    "polyalg": ("LaurentPoly", "PolyalgError", "equal_up_to_unit",
                "gcd_laurent"),
    "seifert": ("PatternKnot", "RhoExpr", "SeifertMatrix",
                "alexander_polynomial", "connected_sum", "knot_transform",
                "metabolizer_search", "pattern_9_46", "trefoil_left",
                "trefoil_right", "unknot"),
    "signatures": ("SignatureFunction", "lt_signature_at", "rho0",
                   "signature_function"),
    "submodule": ("Submodule", "annihilator_submodule", "is_self_annihilating"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items()
             for name in names}
__all__ = [*_LAYER_OF, "RhosliceError"]
__version__ = "0.1.0"


def _register_lazily(layers: tuple[str, ...]) -> None:
    """Put each layer in `sys.modules` and on the package, its source not
    yet compiled."""
    for layer in layers:
        spec = importlib.util.find_spec(f"{__name__}.{layer}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[layer] = module


class RhosliceError(ValueError):
    """An input the package refuses or a check that failed; the command
    line prints its message and exits 1."""


_register_lazily(_LAYERS)


def __getattr__(name: str):
    """PEP 562: a public name is read from its layer, which loads it."""
    if name in _LAYER_OF:
        return getattr(globals()[_LAYER_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
