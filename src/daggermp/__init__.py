"""Moore-Penrose inverses in dagger categories.

The axioms and their consequences live in :mod:`daggermp.core` and
:mod:`daggermp.engine`, written against an abstract instance contract.
Three instances implement it: dense complex matrices
(:mod:`daggermp.matrix`), finite relations (:mod:`daggermp.rel`) and
partial injections (:mod:`daggermp.pinj`).  Formal idempotent splitting
is in :mod:`daggermp.karoubi` and the three factorizations of an
invertible map in :mod:`daggermp.decomp`.

The package exports resolve on first use (PEP 562): ``import daggermp``
loads no submodule, and ``daggermp.pinv`` imports :mod:`daggermp.matrix`
(and numpy) the first time it is read, then caches the value here.  The
exact instances, relations and partial injections, never load numpy.
"""

import importlib

__version__ = "0.1.0"

# The home module of every exported name.
_EXPORTS = {
    "core": (
        "CapabilityError", "ConsistencyError", "DaggerError", "DaggerInstance",
        "DecompositionError", "InputError", "MPReport", "NoMPInverseError",
        "NumericError", "PreconditionError", "Tolerance",
        "is_coisometry", "is_dagger_idempotent", "is_isometry",
        "is_partial_isometry", "is_positive", "is_self_adjoint", "is_unitary",
        "verify_mp",
    ),
    "decomp": (
        "GCSVDTriple", "GSVDTriple", "PolarPair",
        "gcsvd_from_mp", "gcsvd_intertwiners", "gsvd_from_mp",
        "gsvd_intertwiners", "induced_gcsvd", "mp_from_gcsvd", "mp_from_gsvd",
        "mp_from_polar", "polar_from_mp",
    ),
    "engine": (
        "CompositionReport", "DerivedIdentitiesReport",
        "composition_criteria", "derived_identities_check",
        "mp_of_dagger_idempotent", "mp_of_partial_isometry", "mp_via_gram",
    ),
    "karoubi": (
        "SplitMorphism", "SplitObject",
        "compose_split", "dagger_split", "embed", "iso_from_mp", "mp_from_iso",
        "mp_in_karoubi", "same_object", "split_identity", "split_morphism",
        "split_object",
    ),
    "matrix": (
        "ComplexMatrix", "HermEigResult", "MatrixInstance", "SVDResult",
        "biproduct_injection", "biproduct_projection", "dagger_kernel",
        "direct_sum", "has_mp_wrt_transpose", "herm_eig", "herm_mp",
        "hermitian_sqrt", "kernel_universality_holds",
        "matrix_from_obj", "matrix_to_obj", "numeric_rank", "pinv",
        "split_dagger_idempotent", "svd",
    ),
    "pinj": (
        "PartialInjection", "PInjInstance",
        "pinj_from_obj", "pinj_to_obj", "verify_inverse_category_laws",
    ),
    "rel": (
        "FiniteRelation", "RelInstance",
        "brute_force_mp", "gcsvd_rel", "is_difunctional", "mp_inverse_rel",
        "rel_from_obj", "rel_to_obj", "split_per",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"_jacobi"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
