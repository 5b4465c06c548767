"""Outerplanar cycle-Turan machinery.

Exact upper bounds on the edge count of outerplanar graphs avoiding a
k-cycle, the extremal chain construction attaining them, an exact
interval-DP oracle, and decomposition certificates with an independent
arithmetic verifier.
"""

from .graph import (
    BlockCutDecomposition,
    DuplicateEdgeError,
    Graph,
    GraphBlock,
    GraphError,
    LoopEdgeError,
    VertexRangeError,
    biconnected_decomposition,
    edge_key,
    graph_from_graph6,
    graph_from_json,
    graph_from_text,
    graph_to_graph6,
    graph_to_json,
    has_cycle_of_length,
    make_graph,
)
from .embedding import (
    BlockEmbedding,
    EdgeContraction,
    EdgeNotOnOuterFaceError,
    EmbeddingInvariantError,
    NotOuterplanarError,
    OuterplaneEmbedding,
    contract_outer_edge,
    cycle_edges,
    cycle_length_set,
    embedding_from_json,
    embedding_to_dot,
    embedding_to_json,
    inner_faces,
    is_edge_maximal,
    recognize_outerplanar,
)
from .dual import (
    BlockPartition,
    FaceBlockIncidence,
    TriangularBlock,
    WeakDualForest,
    classify_terminal,
    face_block_incidence,
    find_reducible_face,
    triangular_blocks,
    weak_dual,
)
from .turan import (
    BoundCheck,
    BoundDomainError,
    BoundValue,
    FangFormulaResult,
    bound_holds,
    comparison_csv,
    comparison_rows,
    fang_value_as_stated,
    sharp_residue,
    upper_bound,
)
from .construct import (
    ChainParams,
    ChainSizeError,
    build_chain,
    build_G0,
    build_H,
    fan,
    gadget_distinguished_edge,
)
from .oracle import (
    OracleCapError,
    OracleCheckError,
    OracleResult,
    exact_ex,
    triangulations,
)
from .certify import (
    AuditEntry,
    AuditReport,
    CertNode,
    Certificate,
    CertificateFormatError,
    ContainsForbiddenCycleError,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
