"""Signed-graph spectral analysis toolkit.

Exact combinatorial invariants (frustration index, balanced clique number,
signed walk counts), a dense symmetric eigensolver, and an executable
registry of eigenvalue bounds with structured verdicts.
"""

from .bounds import (
    BoundEvaluation,
    evaluate_all,
    evaluate_bound,
    evaluations_to_json,
    enforced_bound_ids,
)
from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidParamsError,
    LengthMismatchError,
    MalformedLineError,
    MissingParamError,
    NoConvergenceError,
    NotACycleError,
    NotSymmetricError,
    ParseError,
    SelfLoopError,
    SignedSpectraError,
    TooLargeError,
    UnderlyingMismatchError,
    UnknownBoundError,
)
from .graph import (
    SignedGraph,
    SymmetricMatrix,
    adjacency_matrix,
    all_negative,
    all_negative_complete,
    erdos_renyi_signed,
    generate,
    paper_c5,
    parse_signed_graph,
    serialize_signed_graph,
    signed_cycle,
)
from .invariants import (
    TriangleCensus,
    WalkCensus,
    balanced_clique_number,
    edge_bipartiteness,
    frustration_index_exact,
    frustration_index_upper,
    r_frustration_index,
    triangle_census,
    walk_census,
)
from .search import (
    SearchConfig,
    SearchFinding,
    findings_to_json,
    sample_signed_graph,
    search_counterexamples,
)
from .spectral import (
    Spectrum,
    eigen_decomposition,
    ms_index,
    ms_witness,
    spectrum_of,
    walk_from_spectrum,
)
from .switching import (
    BalanceCertificate,
    Switching,
    apply_switching,
    cycle_sign,
    is_balanced,
    is_switching_equivalent,
)

__version__ = "0.1.0"
