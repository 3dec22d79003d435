"""eprweave: a deterministic LOCC simulator that weaves GHZ states out of
pre-shared EPR pairs and grows group entanglement across hypergraphs.

Protocol runs simulate on the stabilizer tableau (:mod:`eprweave.stabilizer`)
and import no numpy; a sampled run draws from the standard library's
``random.Random``. Only ``Tableau.to_statevector`` and the dense
register (:mod:`eprweave.statevec`) load numpy. The dense register is the
oracle the tests check the tableau against; it is not part of this
namespace.

The namespace is lazy: a public name imports the submodule that defines it
on first use, so a topology-only caller never loads the quantum layers.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "ConditioningError",
        "ConnectivityError",
        "EntanglementError",
        "EprWeaveError",
        "LoccViolationError",
        "NetworkSpecError",
        "ProtocolError",
        "ResourceError",
        "SetupClosedError",
        "ZeroProbabilityError",
    ),
    "gates": ("CNOT", "Fork", "Gate", "H", "X", "Z"),
    "locc": ("ALL", "NetworkState", "replay_transcript"),
    "protocols": (
        "BranchRecord",
        "ProtocolReport",
        "disentangle_duplicate",
        "extend_ghz",
        "fusion_step",
        "protocol_one",
        "protocol_three",
        "protocol_two",
        "setup_epr_network",
        "setup_group_network",
        "teleport",
        "verify_ghz",
    ),
    "stabilizer": ("Tableau",),
    "topology": (
        "EntangledHypergraph",
        "EprGraph",
        "SpanningTree",
        "hypergraph_is_connected",
        "is_connected",
        "merge_schedule",
        "minimum_spanning_tree",
        "spanning_tree",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, "__version__"])


def __getattr__(name: str):
    """Import a public name, or one of the submodules above, on first use
    and keep it in the namespace (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
