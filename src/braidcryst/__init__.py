"""Exact arithmetic in the crystallographic braid group quotients B_n/[P_n,P_n]."""

from .braidword import (
    BraidWord,
    NotPureError,
    PairVector,
    full_twist_word,
    linking_vector,
    pair_index,
    pairs,
    pure_generator_word,
    pure_word,
)
from .conjugacy import (
    InfiniteOrderError,
    are_conjugate,
    conjugator_to_standard,
    count_conjugacy_classes,
    standard_form,
)
from .frobenius import (
    FrobeniusWitness,
    InconsistentSystem,
    NotASolution,
    NotFrobenius,
    StandardizationResult,
    build_frobenius,
    build_xy,
    conjugator_between,
    default_offset,
    defect,
    family_member,
    recover_parameters,
    solve_family,
    standardize_frobenius,
    subgroup_closure,
)
from .orbits import OrbitTable, closed_form_orbits, enumerate_orbits, relabeled_basis
from .permutation import CycleType, Permutation, all_permutations
from .quotient import (
    INFINITE,
    QuotientElement,
    action_on_basis,
    basis_element,
    basis_orbits,
    canonical_lift,
    conjugate,
    element_order,
    embed,
    inverse,
    mul,
    normalize,
    power,
    pure,
    to_word,
)
from .subgroups import (
    HolonomySubgroup,
    PreimageDescriptor,
    holonomy_det,
    holonomy_matrix,
    is_bieberbach,
    pair_representation_faithful,
    preimage_subgroup,
    sublattice_is_torsion_free,
    three_strand_catalog,
)
from .torsion import (
    BlockSpec,
    abelian_realization,
    block_cycle,
    block_cycle_word,
    cyclic_torsion_element,
    finite_orders,
    is_torsion_offset,
    iter_block_specs,
    torsion_block,
    torsion_block_word,
    torsion_element,
    torsion_element_word,
    torsion_witness,
)
from .zlinalg import (
    abelianization,
    hnf,
    kernel_basis,
    lattice_contains,
    lattices_equal,
    snf,
    solve_integer,
)

__version__ = "0.1.0"
