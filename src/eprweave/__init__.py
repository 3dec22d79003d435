"""eprweave: a deterministic LOCC simulator that weaves GHZ states out of
pre-shared EPR pairs and grows group entanglement across hypergraphs.

Protocol runs simulate on the stabilizer tableau (:mod:`eprweave.stabilizer`)
and import no numpy. Only a sampled run (``branches=N`` seeds numpy
streams) and ``Tableau.to_statevector`` load it. The dense register
(:mod:`eprweave.statevec`) is the oracle the tests check the tableau
against; it is not part of this namespace.
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    ConnectivityError,
    EntanglementError,
    EprWeaveError,
    LoccViolationError,
    NetworkSpecError,
    ProtocolError,
    ResourceError,
    SetupClosedError,
    ZeroProbabilityError,
)
from .gates import CNOT, H, Gate, X, Z
from .locc import ALL, NetworkState, RecordingChooser, replay_transcript
from .protocols import (
    BranchRecord,
    CorrectionRule,
    ProtocolReport,
    disentangle_duplicate,
    extend_ghz,
    fusion_step,
    protocol_one,
    protocol_three,
    protocol_two,
    setup_epr_network,
    setup_group_network,
    teleport,
    verify_ghz,
)
from .stabilizer import Tableau
from .topology import (
    EntangledHypergraph,
    EprGraph,
    SpanningTree,
    hypergraph_is_connected,
    is_connected,
    merge_schedule,
    minimum_spanning_tree,
    spanning_tree,
)

__all__ = [
    "ALL",
    "BranchRecord",
    "CNOT",
    "ConditioningError",
    "ConnectivityError",
    "CorrectionRule",
    "EntangledHypergraph",
    "EntanglementError",
    "EprGraph",
    "EprWeaveError",
    "Gate",
    "H",
    "LoccViolationError",
    "NetworkSpecError",
    "NetworkState",
    "ProtocolError",
    "ProtocolReport",
    "RecordingChooser",
    "ResourceError",
    "SetupClosedError",
    "SpanningTree",
    "Tableau",
    "X",
    "Z",
    "ZeroProbabilityError",
    "__version__",
    "disentangle_duplicate",
    "extend_ghz",
    "fusion_step",
    "hypergraph_is_connected",
    "is_connected",
    "merge_schedule",
    "minimum_spanning_tree",
    "protocol_one",
    "protocol_three",
    "protocol_two",
    "replay_transcript",
    "setup_epr_network",
    "setup_group_network",
    "spanning_tree",
    "teleport",
    "verify_ghz",
]

