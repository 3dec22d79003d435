"""Exception types shared across the simulator layers."""


class EprWeaveError(Exception):
    """Base class for all simulator errors."""


class ZeroProbabilityError(EprWeaveError):
    """A measurement branch with (numerically) zero probability was forced."""


class EntanglementError(EprWeaveError):
    """A qubit was treated as unentangled while it still carries entanglement."""


class ResourceError(EprWeaveError):
    """A run would exceed a resource limit: a dense register over the
    qubit limit, or more sampled branches than ``SAMPLE_CAP``."""


class LoccViolationError(EprWeaveError):
    """An agent tried to operate on a qubit it does not own."""


class ConditioningError(EprWeaveError):
    """An operation depends on a classical bit the acting agent cannot know."""


class SetupClosedError(EprWeaveError):
    """Entanglement distribution was attempted after the setup phase ended."""


class ProtocolError(EprWeaveError):
    """A protocol-level rule was broken (topology mismatch, reserved resources, ...)."""


class ConnectivityError(EprWeaveError):
    """The entanglement topology is disconnected; carries one witness pair.

    ``agent_a`` and ``agent_b`` are two agents with no entanglement path
    between them.
    """

    def __init__(self, message: str, agent_a: int | None = None, agent_b: int | None = None):
        super().__init__(message)
        self.agent_a = agent_a
        self.agent_b = agent_b


class NetworkSpecError(EprWeaveError):
    """A network spec file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
