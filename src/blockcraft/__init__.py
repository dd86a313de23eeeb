"""Exact character-degree and block combinatorics for S_n and GL_n(q).

Big-integer arithmetic throughout, no floating point; every conjecture
verification computes its global and local side by independent routes.
"""

from .errors import (
    BlockcraftError,
    CrossCheckError,
    ResourceLimitError,
    UnsupportedRegimeError,
    UsageError,
)
from .glq_blocks import (
    EllContext,
    GlUnipotentBlockLabel,
    d_ell,
    series_is_lprime,
    unipotent_blocks,
    unipotent_is_lprime,
    verify_gl_mckay,
    verify_gl_mckay_defining,
)
from .glq_chars import (
    SeriesLabel,
    all_degrees,
    enumerate_class_types,
    gl_order,
    green_degree,
    irr_pprime_count_gl,
    unipotent_degree,
)
from .partitions import (
    CoreQuotient,
    core_census,
    count_partitions_with_core,
    d_core,
    d_core_and_quotient,
    enumerate_partitions,
    hook_lengths,
    hook_valuation,
    is_core,
    mn_character_value,
    partition_count,
    partition_tuple_count,
    partitions_by_core,
    valuation_census,
)
from .report import VerificationReport, emit_reports
from .sym_blocks import (
    BlockCharacterData,
    SymBlockLabel,
    am_verify_abelian,
    bhz_verify,
    bhz_witness_search,
    block_labels,
    block_members_and_heights,
    block_of,
)
from .sym_chars import (
    BlockPartitionOracle,
    SymCharacterTable,
    block_idempotent,
    block_idempotent_p_integral,
    build_table,
    central_character_blocks,
    class_algebra_product,
    irr_pprime_count_sym,
    macdonald_count,
    sym_degree,
)
from .wreath_local import (
    DegreeMultiset,
    MetacyclicSpec,
    direct_product,
    irr_lprime_count,
    metacyclic_degrees,
    sylow2_local_count,
    wreath_degrees,
)

__version__ = "0.1.0"
