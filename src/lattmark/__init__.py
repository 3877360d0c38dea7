"""lattmark: finite lattices as stable-matching lattices, and the antimatroid
reduction to minimum-cost stable matching, with brute-force verification."""

from .antimatroids import (
    AntimatroidFamily,
    PathPoset,
    ReductionBundle,
    antimatroid_constraints,
    compute_path_poset,
    family_from_path_poset,
    independent_set_antimatroid,
    min_cost_feasible,
    min_cost_stable,
    reduce_to_matching,
    transfer_costs,
    validate_antimatroid,
)
from .augment import (
    ExtendableMarket,
    SynthesisResult,
    certify_lattice,
    omega_extend,
    project_to_base,
    synthesize_from_lattice,
    verify_extension,
)
from .constraints import (
    JoinConstraint,
    constraints_from_lattice,
    filter_lower_sets,
    validate_join_constraint,
)
from .markets import (
    FirmOrder,
    IfElse,
    Matching,
    MatchingMarket,
    PreferenceList,
    Regular,
    Triggered,
    firm_leq,
    firm_order_compare,
    blocking_pairs,
    check_path_independence,
    choose,
    deferred_acceptance,
    enumerate_stable,
    is_individually_rational,
    is_stable,
    stable_lattice,
)
from .orders import (
    Lattice,
    Poset,
    canonical_partial_rep,
    check_order_embedding,
    check_order_isomorphism,
    is_distributive,
    join_irreducibles,
    lattice_from_order,
    lattice_from_tables,
    lower_sets,
    poset_from_pairs,
    validate_poset,
)
from .rotations import (
    RealizedBase,
    Rotation,
    RotationPoset,
    antichain_base,
    extract_rotations,
    matching_to_rotations,
    rotations_to_matching,
)

__version__ = "0.1.0"
