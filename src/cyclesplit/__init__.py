"""Transform a 2-factor of a graph into one with exactly k cycles.

The solver splits cycles with C4-switches; when the current cover lacks
switchable structure, it merges everything into one Hamilton cycle and walks
to other Hamilton cycles that keep the merge scars, undoing the merge on each
and splitting again until one reaches k.  Generators, verifiers, and
exhaustive small-n oracles round out the toolbox.
"""

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
    gen_implant_free,
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
from .pipeline import merge_cover, solve, unmerge
from .rewire import (
    RewireRequest,
    check_independent_dominating,
    sample_switch_set,
    second_hamilton_cycle,
)
from .switching import apply_switch, count_h_edges, enumerate_implanted, split_to_k

__version__ = "0.1.0"

__all__ = [
    "CoverError",
    "CycleCover",
    "Graph",
    "GraphFormatError",
    "InstanceSpec",
    "Params",
    "RewireRequest",
    "apply_switch",
    "check_independent_dominating",
    "count_h_edges",
    "count_implanted_bruteforce",
    "dump_cover",
    "dump_graph",
    "enumerate_implanted",
    "find_decreasing_triple",
    "find_increasing_triple",
    "find_interleaved_pair",
    "gen_cliques_hamilton",
    "gen_cliques_matching",
    "gen_implant_free",
    "gen_planted",
    "gen_triangles_biclique",
    "load_cover",
    "load_graph",
    "merge_cover",
    "oracle_component_counts",
    "oracle_exists_k_factor",
    "parse_params",
    "sample_switch_set",
    "second_hamilton_cycle",
    "solve",
    "split_to_k",
    "unmerge",
    "validate_cover",
]
