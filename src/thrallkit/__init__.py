"""Exact-arithmetic toolkit for signature tensors.

Lyndon bases for free Lie algebras, the graded decomposition of tensor
space induced by the truncated exponential, the matching projector family in
the rational group algebra of the symmetric group, invariant functionals
under volume-preserving linear maps, and tensor-rank diagnostics.  All
arithmetic is exact (stdlib rationals); there is no floating point anywhere.

The names in ``__all__`` are loaded lazily: ``import thrallkit`` imports no
submodule, and the first access to an exported name (attribute access or
``from thrallkit import name``) imports its defining module and keeps the
value in the package namespace.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "free_lie": (
            "LieElement", "exp_truncated", "f_lambda", "is_lie_element", "lie_basis",
            "lie_bracket", "log_truncated", "lyndon_bracketing", "phi_k",
            "thrall_decompose",
        ),
        "group_algebra": (
            "GroupAlgebraElement", "K_MAX", "central_idempotent", "ga_act", "ga_multiply",
            "higher_lie_idempotent", "intersection_projector", "young_symmetrizer",
            "young_symmetrizer_transposed",
        ),
        "invariants": ("alternating_signature", "path_invariants", "sl_invariant_space"),
        "rank_variety": (
            "fls_check", "generic_rank_lower_bound", "hdet_pullback_check",
            "hyperdeterminant_2x2x2", "is_rank_one", "skew_plus_rank_one_rank",
            "symmetric_level_implies_segment",
        ),
        "shuffle_sig": (
            "PiecewiseLinearPath", "WordFunctional",
            "is_group_like", "levy_area", "log_signature", "shuffle_functionals",
            "shuffle_words", "signature",
        ),
        "symfun": (
            "SymFun", "higher_lie_character", "lie_character", "plethysm_h",
            "schur_expand", "sn_character", "thrall_coefficients",
        ),
        "tensors": (
            "SIGNATURE_ENTRIES_MAX", "Tensor", "TensorSeries", "is_symmetric", "tensor_product",
        ),
        "words": (
            "Partition", "ResourceLimitError", "Word", "YoungTableau", "lie_dim", "lyndon_words",
            "moebius", "num_standard", "partition_union", "partitions", "schur_dim",
            "standard_tableaux",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
