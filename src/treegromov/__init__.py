"""Gromov-type distances between semimetric spaces and phylogenetic trees.

The distance between two semimetrics on the same taxa is the smallest
norm of a nonnegative relabeling vector certifying that the spaces embed
into a common one; it is computed here by linear or quadratic programs
over pair constraints, with exact rational arithmetic available
end-to-end for the linear cases.
"""

from . import cli
from .core import (
    MODE_FLOAT,
    MODE_RATIONAL,
    ParseError,
    PhyloTree,
    Semimetric,
    TaxonSet,
    TreegromovError,
    ValidationError,
    parse_newick,
    parse_newick_file,
    semimetric_from_csv,
    semimetric_from_table,
    semimetric_to_csv,
    write_newick,
)
from .extension import (
    WeightedGraph,
    amalgamate,
    check_extendable,
    check_extendable_minimal_cycles,
    chordless_cycles,
    graph_metric,
    parse_edge_list,
)
from .gromov import (
    DeltaVector,
    ExtensionMetric,
    GromovSpec,
    dinf_closed_form,
    format_certificate,
    gromov_distance,
    pairwise_matrix,
    quadrangle_feasible,
    realize_extension,
    tree_distance,
)
from .solver import (
    LinearProgram,
    OptResult,
    QuadraticProgram,
    solve_lp,
    solve_qp,
)
from .treemetric import (
    NniMove,
    Split,
    apply_nni,
    four_point_check,
    internal_edges,
    caterpillar_swap_pair,
    nni_moves,
    nontrivial_splits,
    pd_distance,
    pd_distance_squared,
    random_binary_tree,
    random_caterpillar,
    restrict,
    robinson_foulds,
    splits_of,
    tree_to_semimetric,
)

__version__ = "0.1.0"

__all__ = [
    "MODE_FLOAT",
    "MODE_RATIONAL",
    "DeltaVector",
    "ExtensionMetric",
    "GromovSpec",
    "LinearProgram",
    "NniMove",
    "OptResult",
    "ParseError",
    "PhyloTree",
    "QuadraticProgram",
    "Semimetric",
    "Split",
    "TaxonSet",
    "TreegromovError",
    "ValidationError",
    "WeightedGraph",
    "amalgamate",
    "apply_nni",
    "check_extendable",
    "check_extendable_minimal_cycles",
    "chordless_cycles",
    "dinf_closed_form",
    "format_certificate",
    "four_point_check",
    "graph_metric",
    "gromov_distance",
    "internal_edges",
    "caterpillar_swap_pair",
    "nni_moves",
    "nontrivial_splits",
    "pairwise_matrix",
    "parse_edge_list",
    "parse_newick",
    "parse_newick_file",
    "pd_distance",
    "pd_distance_squared",
    "quadrangle_feasible",
    "random_binary_tree",
    "random_caterpillar",
    "realize_extension",
    "restrict",
    "robinson_foulds",
    "semimetric_from_csv",
    "semimetric_from_table",
    "semimetric_to_csv",
    "solve_lp",
    "solve_qp",
    "splits_of",
    "tree_distance",
    "tree_to_semimetric",
    "write_newick",
]
