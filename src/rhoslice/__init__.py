"""Exact sliceness obstructions for satellite knots.

Everything is computed in exact rational (or certified-interval)
arithmetic: Laurent polynomials over Q, homology of infinite cyclic covers
via Smith normal form, linking forms, Levine-Tristram signatures, and the
metabelian obstruction sweep for satellite families.
"""

from .almodule import (
    AlexanderModule,
    ModuleElement,
    Submodule,
    alexander_module,
    direct_sum,
    isotypic_decompose,
    reduce_to_isotypic,
    reverse_module,
    smith_normal_form,
)
from .blanchfield import (
    LinkingForm,
    annihilator_submodule,
    blanchfield_form,
    is_self_annihilating,
)
from .obstruction import (
    Companion,
    FamilyMember,
    FamilySpec,
    InfectedKnot,
    ObstructionError,
    ObstructionReport,
    RhoExpr,
    verify_obstructed,
)
from .polyalg import (
    FracCoset,
    LaurentPoly,
    PolyalgError,
    coset_reduce,
    equal_up_to_unit,
    factor_laurent,
    gcd_laurent,
)
from .seifert import (
    PatternKnot,
    SeifertMatrix,
    alexander_polynomial,
    connected_sum,
    knot_transform,
    metabolizer_search,
    pattern_9_46,
    trefoil_left,
    trefoil_right,
    unknot,
)
from .signatures import (
    Rho0Value,
    SignatureFunction,
    lt_signature_at,
    rho0,
    signature_function,
)

__version__ = "0.1.0"
