"""Exact service rate regions of q-ary Hamming coded storage systems.

``import srrham`` loads no computation module: each name in ``__all__``,
and each submodule (``srrham.srr``, ``srrham.lp``, ...), is imported on
first use (PEP 562), so the command line pays only for the modules its
subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "codes": (
        "Codeword",
        "LinearCode",
        "build_parity_check",
        "classic_hamming",
        "dual_codewords",
        "import_generator",
        "odd_weight_column_count",
        "systematic_hamming",
    ),
    "fields": ("FieldMatrix", "in_span", "rref"),
    "hypergraph": (
        "Edge",
        "Hypergraph",
        "HypergraphStats",
        "check_cover",
        "check_packing",
        "compute_stats",
        "fractional_matching_number",
        "from_recovery_system",
        "matching_number",
        "partial_hypergraph",
        "transversal_number",
    ),
    "lp": ("PivotLimitError",),
    "recovery": (
        "RecoverySystem",
        "StructureReport",
        "build_recovery_system",
        "structure_report",
    ),
    "srr": (
        "Allocation",
        "SrrInstance",
        "SubsetBound",
        "delta_simplex",
        "lambda_star",
        "lambda_star_vector",
        "m3_brute",
        "m3_closed_form",
        "max_objective",
        "max_served",
        "membership",
        "subset_bound",
        "verify_report",
        "waterfill",
    ),
}
_SOURCE = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli", "errors"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
