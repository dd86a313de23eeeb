"""Exact character-degree and block combinatorics for S_n and GL_n(q).

Big-integer arithmetic throughout, no floating point; every conjecture
verification computes its global and local side by independent routes.

Importing the package runs no layer.  A name in __all__, or a layer read as an
attribute (``blockcraft.partitions``), imports its layer on first access
through the import system, whose module locks make that safe across threads.
"""

import importlib

# Layer -> the names the package re-exports from it, separated by spaces.
_EXPORTS = {
    "arith": "",
    "budget": "",
    "errors": "BlockcraftError CrossCheckError ResourceLimitError UnsupportedRegimeError "
    "UsageError",
    "glq_blocks": "EllContext GlUnipotentBlockLabel d_ell series_is_lprime unipotent_blocks "
    "unipotent_is_lprime verify_gl_mckay verify_gl_mckay_defining",
    "glq_chars": "SeriesLabel all_degrees enumerate_class_types gl_order green_degree "
    "irr_pprime_count_gl unipotent_degree",
    "partitions": "CoreQuotient core_census count_partitions_with_core d_core d_core_and_quotient "
    "enumerate_partitions hook_lengths hook_valuation is_core mn_character_value partition_count "
    "partition_tuple_count partitions_by_core valuation_census",
    "report": "VerificationReport emit_reports",
    "sym_blocks": "BlockCharacterData SymBlockLabel am_verify_abelian bhz_verify "
    "bhz_witness_search block_labels block_members_and_heights block_of",
    "sym_chars": "BlockPartitionOracle SymCharacterTable block_idempotent "
    "block_idempotent_p_integral build_table central_character_blocks class_algebra_product "
    "irr_pprime_count_sym macdonald_count sym_degree",
    "wreath_local": "DegreeMultiset MetacyclicSpec direct_product irr_lprime_count "
    "metacyclic_degrees sylow2_local_count wreath_degrees",
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
