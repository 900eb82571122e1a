"""Exact-arithmetic toolkit for signature tensors.

Lyndon bases for free Lie algebras, the graded decomposition of tensor
space induced by the truncated exponential, the matching projector family in
the rational group algebra of the symmetric group, invariant functionals
under volume-preserving linear maps, and tensor-rank diagnostics.  All
arithmetic is exact (stdlib rationals); there is no floating point anywhere.
"""

from .free_lie import (
    LieElement,
    exp_truncated,
    f_lambda,
    is_lie_element,
    lie_basis,
    lie_bracket,
    log_truncated,
    lyndon_bracketing,
    phi_k,
    thrall_decompose,
    w_lambda_basis,
)
from .group_algebra import (
    GroupAlgebraElement,
    K_MAX,
    ResourceLimitError,
    central_idempotent,
    ga_act,
    ga_multiply,
    higher_lie_idempotent,
    intersection_projector,
    verify_refinement,
    young_symmetrizer,
    young_symmetrizer_transposed,
)
from .invariants import (
    alternating_signature,
    check_invariance,
    path_invariants,
    pfaffian_form,
    sl_invariant_space,
)
from .rank_variety import (
    fls_check,
    generic_rank_lower_bound,
    hdet_pullback_check,
    hyperdeterminant_2x2x2,
    is_rank_one,
    signature_rank_one_check,
    skew_plus_rank_one_rank,
    symmetric_level_implies_segment,
)
from .shuffle_sig import (
    SIGNATURE_ENTRIES_MAX,
    PiecewiseLinearPath,
    WordFunctional,
    is_group_like,
    levy_area,
    log_signature,
    shuffle_functionals,
    shuffle_grading_check,
    shuffle_words,
    signature,
)
from .symfun import (
    SymFun,
    higher_lie_character,
    lie_character,
    plethysm_h,
    schur_expand,
    sn_character,
    thrall_coefficients,
)
from .tensors import (
    Tensor,
    TensorSeries,
    flattening_rank,
    is_symmetric,
    permute_slots,
    series_product,
    tensor_product,
)
from .words import (
    Partition,
    Word,
    YoungTableau,
    lie_dim,
    lyndon_words,
    moebius,
    num_standard,
    partition_union,
    partitions,
    schur_dim,
    standard_tableaux,
)

__version__ = "0.1.0"
