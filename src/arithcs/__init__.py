"""Exact finite group cohomology over Z/n and arithmetic Chern-Simons invariants.

The package computes with inhomogeneous cochains on finite groups given by
multiplication tables: differentials, cup products, Bockstein maps, the
conjugation action and its explicit shuffle-path homotopies, cohomology
groups in invariant-factor form, and on top of that the Chern-Simons
invariant of finite global/local Galois data by two independent routes
(local-vs-global gluing and the fiber-torsor pushout).
"""

from .zmod import (
    ComputationError,
    ModuleOverZn,
    howell_form,
    left_kernel,
    right_kernel,
    solve_linear,
)
from .groups import (
    FiniteGroup,
    GModuleAction,
    GroupHom,
    NotAGroupError,
    NotAHomError,
    conjugation_hom,
    cyclic,
    dihedral4,
    direct_product,
    identity_hom,
    inclusion_hom,
    klein_four,
    make_group,
    make_hom,
    quaternion8,
    symmetric3,
    trivial_hom,
)
from .cochains import (
    Coboundary,
    Cochain,
    CohomologyGroup,
    DegreeBoundError,
    NonCocycle,
    NontrivialClass,
    classify,
    cohomology,
    differential,
    normalized_representative,
    pullback,
    solve_differential,
)
from .ops import (
    IncompatiblePairingError,
    NotDivisibleError,
    ShufflePath,
    bockstein,
    carry_cocycle,
    conjugate,
    cup,
    cyclic_three_cocycle,
    homotopy,
    identity_character,
    shuffle_paths,
)
from .cstheory import (
    GlobalDatum,
    InvariantValue,
    LocallyNontrivialError,
    NoGlobalTrivializationError,
    NoLiftError,
    NotInGeneratedSummandError,
    NotUnramifiedTrivializableError,
    PlaceDatum,
    cs_invariant,
    cs_section,
    invariant_section_class,
    kummer_trivialization,
    local_invariant,
    section_class,
    torsor_build,
    torsor_difference,
    torsor_map,
    unramified_basepoint,
    validate_global_datum,
)

__version__ = "0.1.0"
