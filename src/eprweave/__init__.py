"""eprweave: a deterministic LOCC simulator that weaves GHZ states out of
pre-shared EPR pairs and grows group entanglement across hypergraphs.

Protocol runs simulate on the stabilizer tableau (:mod:`eprweave.stabilizer`)
and import no numpy. The dense register (:mod:`eprweave.statevec`) holds
``StateVector``, ``bell_pair`` and ``ghz_state``; importing them from this
package loads it, and numpy, on first use. So does a sampled run
(``branches=N`` seeds numpy streams), ``NetworkState.prepare_local``,
``NetworkState.joint_state`` and ``Tableau.to_statevector``.
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
    "StateVector",
    "Tableau",
    "X",
    "Z",
    "ZeroProbabilityError",
    "__version__",
    "bell_pair",
    "disentangle_duplicate",
    "extend_ghz",
    "fusion_step",
    "ghz_state",
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


def __getattr__(name: str):
    """The dense names load :mod:`eprweave.statevec`, and numpy, on first use."""
    if name in ("StateVector", "bell_pair", "ghz_state"):
        from . import statevec

        return getattr(statevec, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
