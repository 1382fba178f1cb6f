"""Exact service rate regions of q-ary Hamming coded storage systems."""

from .codes import (
    Codeword,
    LinearCode,
    build_parity_check,
    classic_hamming,
    dual_codewords,
    import_generator,
    odd_weight_column_count,
    systematic_hamming,
)
from .fields import FieldMatrix, in_span, rref
from .hypergraph import (
    Edge,
    Hypergraph,
    HypergraphStats,
    check_cover,
    check_packing,
    compute_stats,
    fractional_matching_number,
    from_recovery_system,
    matching_number,
    partial_hypergraph,
    transversal_number,
)
from .lp import PivotLimitError
from .recovery import (
    RecoverySystem,
    StructureReport,
    build_recovery_system,
    structure_report,
)
from .srr import (
    Allocation,
    SrrInstance,
    SubsetBound,
    delta_simplex,
    lambda_star,
    lambda_star_vector,
    m3_brute,
    m3_closed_form,
    max_objective,
    max_served,
    membership,
    subset_bound,
    verify_report,
    waterfill,
)

__version__ = "0.1.0"
