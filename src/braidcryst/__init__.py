"""Exact arithmetic in the crystallographic braid group quotients B_n/[P_n,P_n].

Importing the package loads none of its modules.  A public name, or a
submodule such as ``braidcryst.quotient``, is loaded on first access
(PEP 562), so a caller pays only for the modules it uses.
"""

import sys

#: Public names by the submodule that defines them.
EXPORTS = {
    "permutation": (
        "Permutation", "StabilizerChain", "conjugating_permutation", "parse_int"
    ),
    "braidword": (
        "BraidWord", "PairVector", "VerificationError", "full_twist_word",
        "pair_index", "pairs", "pure_generator_word", "pure_word"
    ),
    "quotient": (
        "INFINITE", "QuotientElement", "basis_orbits",
        "canonical_lift", "conjugate", "element_order", "embed", "inverse", "mul",
        "normalize", "orbit_sums", "power", "pure", "subgroup_conjugator", "to_word"
    ),
    "torsion": (
        "BlockSpec", "abelian_realization", "block_cycle", "block_cycle_word",
        "cyclic_torsion_element", "finite_orders", "iter_block_specs",
        "torsion_block", "torsion_block_word", "torsion_element", "torsion_element_word",
        "torsion_witness"
    ),
    "conjugacy": (
        "InfiniteOrderError", "are_conjugate", "conjugator_to_standard",
        "count_conjugacy_classes"
    ),
    "orbits": (
        "OrbitTable", "closed_form_orbits", "enumerate_orbits", "relabeled_basis"
    ),
    "zlinalg": (
        "abelianization", "hnf", "lattice_contains", "solve_integer"
    ),
    "subgroups": (
        "HolonomySubgroup", "holonomy_det", "holonomy_matrix", "is_bieberbach",
        "preimage_abelianization", "sublattice_is_torsion_free", "three_strand_catalog",
        "torsion_certificate"
    ),
    "frobenius": (
        "FrobeniusWitness", "NotASolution", "NotFrobenius",
        "StandardizationResult", "build_frobenius", "build_xy", "conjugator_between",
        "default_offset", "defect", "family_member", "recover_parameters",
        "solve_family", "standardize_frobenius", "subgroup_closure"
    ),
}

_HOME = {name: module for module, names in EXPORTS.items() for name in names}
_SUBMODULES = (*EXPORTS, "cli")

__all__ = list(_HOME)
__version__ = "0.1.0"


def _bind_loaded() -> None:
    """Bind the public names of every loaded submodule into the package, all
    of a module's names at once.  A module already bound is skipped, so a
    name rebound since then (a test stub, say) stays as it is."""
    space = globals()
    for module, names in EXPORTS.items():
        loaded = sys.modules.get(f"{__name__}.{module}")
        if loaded is not None and names[0] not in space:
            for name in names:
                space[name] = getattr(loaded, name)


def __getattr__(name: str):
    module = _HOME.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    _bind_loaded()
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
