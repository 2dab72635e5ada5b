"""Transform a 2-factor of a graph into one with exactly k cycles.

The solver splits cycles with C4-switches; when the current cover lacks
switchable structure, it merges everything into one Hamilton cycle, rewires
that cycle to absorb C4-rich edges while protecting the merge scars, undoes
the merge, and splits again.  Generators, verifiers, and exhaustive small-n
oracles round out the toolbox.
"""

from .embedding import (
    EnrichResult,
    GoodSetLedger,
    MSet,
    Partition,
    PartitionError,
    close_graph,
    cover_graph,
    enrich,
    m_set,
    partition_vertices,
    verify_partition,
)
from .graphs import (
    CoverError,
    CycleCover,
    Graph,
    GraphFormatError,
    Params,
    dump_cover,
    dump_graph,
    load_cover,
    load_graph,
    parse_params,
    validate_cover,
)
from .instances import (
    InstanceSpec,
    count_implanted_bruteforce,
    gen_cliques_hamilton,
    gen_cliques_matching,
    gen_planted,
    gen_triangles_biclique,
    oracle_component_counts,
    oracle_exists_k_factor,
)
from .patterns import (
    find_decreasing_triple,
    find_increasing_triple,
    find_interleaved_pair,
)
from .pipeline import MergeRecord, RunStats, SolveResult, merge_cover, solve, unmerge
from .rewire import (
    RewireError,
    RewireRequest,
    RewireResult,
    check_independent_dominating,
    sample_switch_set,
    second_hamilton_cycle,
)
from .switching import (
    HGraphView,
    ImplantedC4,
    SwitchKind,
    SwitchPlan,
    apply_switch,
    count_h_edges,
    enumerate_implanted,
    increase_by_one,
    split_to_k,
)

__version__ = "0.1.0"

__all__ = [
    "CoverError",
    "CycleCover",
    "EnrichResult",
    "GoodSetLedger",
    "Graph",
    "GraphFormatError",
    "HGraphView",
    "ImplantedC4",
    "InstanceSpec",
    "MSet",
    "MergeRecord",
    "Params",
    "Partition",
    "PartitionError",
    "RewireError",
    "RewireRequest",
    "RewireResult",
    "RunStats",
    "SolveResult",
    "SwitchKind",
    "SwitchPlan",
    "apply_switch",
    "check_independent_dominating",
    "close_graph",
    "count_h_edges",
    "count_implanted_bruteforce",
    "cover_graph",
    "dump_cover",
    "dump_graph",
    "enrich",
    "enumerate_implanted",
    "find_decreasing_triple",
    "find_increasing_triple",
    "find_interleaved_pair",
    "gen_cliques_hamilton",
    "gen_cliques_matching",
    "gen_planted",
    "gen_triangles_biclique",
    "increase_by_one",
    "load_cover",
    "load_graph",
    "m_set",
    "merge_cover",
    "oracle_component_counts",
    "oracle_exists_k_factor",
    "parse_params",
    "partition_vertices",
    "sample_switch_set",
    "second_hamilton_cycle",
    "solve",
    "split_to_k",
    "unmerge",
    "validate_cover",
    "verify_partition",
]
