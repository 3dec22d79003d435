"""What both backends share: qubit ids, gates, measurement outcomes,
tolerances and the dense-register limit.

The stabilizer tableau (:mod:`eprweave.stabilizer`), the network model
(:mod:`eprweave.locc`) and the protocols build on this module alone, so
they import no numpy. The dense register (:mod:`eprweave.statevec`)
re-exports every name defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from .errors import ResourceError, ZeroProbabilityError

if TYPE_CHECKING:
    import numpy as np

QubitId = int

# Double precision leaves ample headroom over circuits of <= ~60 gates.
NORM_TOL = 1e-12
PROB_FLOOR = 1e-12
PURITY_TOL = 1e-10

#: The largest dense register: 2**24 complex128 amplitudes are 256 MiB a copy.
DENSE_QUBIT_LIMIT = 24

GATE_KINDS = ("X", "Z", "H", "CNOT")

#: How a measurement picks its branch: a forced bit, a random generator, or
#: a callable ``(p0, p1) -> bit`` that returns 0 or 1.
BranchChooser = Union[int, "np.random.Generator", Callable[[float, float], int]]


def require_dense(n: int) -> None:
    """Refuse a dense register over ``DENSE_QUBIT_LIMIT`` qubits."""
    if n > DENSE_QUBIT_LIMIT:
        raise ResourceError(
            f"a dense register of {n} qubits needs {16 * 2**n / 2**20:,.0f} MiB per copy, "
            f"over the {DENSE_QUBIT_LIMIT}-qubit limit"
        )


@dataclass(frozen=True)
class Gate:
    """One gate from the {X, Z, H, CNOT} set, bound to operand qubits."""

    kind: str
    qubits: tuple[QubitId, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "CNOT" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} operand(s), got {len(self.qubits)}")
        if self.kind == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT control and target must differ")


def X(q: QubitId) -> Gate:
    return Gate("X", (q,))


def Z(q: QubitId) -> Gate:
    return Gate("Z", (q,))


def H(q: QubitId) -> Gate:
    return Gate("H", (q,))


def CNOT(control: QubitId, target: QubitId) -> Gate:
    return Gate("CNOT", (control, target))


@dataclass(frozen=True, slots=True)
class MeasurementOutcome:
    """Result of one computational-basis measurement."""

    qubit: QubitId
    bit: int
    probability: float


def _forced(choose) -> int:
    bit = int(choose)
    if bit not in (0, 1):
        raise ValueError(f"forced bit must be 0 or 1, got {choose}")
    return bit


def choose_outcome(
    q: QubitId, choose: BranchChooser, p0: float, p1: float, made: tuple | None = None
) -> MeasurementOutcome:
    """Pick the branch of measuring ``q`` whose outcomes have probabilities
    ``p0`` and ``p1``; a forced bit below ``PROB_FLOOR`` is an error.
    ``made``, if given, holds the outcomes of bits 0 and 1, built already,
    and the chosen one is returned.

    A callable is called, first, as the branch explorer's chooser is one,
    and must return 0 or 1. A Python int is a forced bit. Anything else
    must be a numpy integer or ``numpy.random.Generator``, so numpy is
    imported only where its caller has loaded it already.
    """
    if callable(choose):
        bit = choose(p0, p1)
        if bit != 0 and bit != 1:
            raise ValueError(f"a chooser must return 0 or 1, got {bit!r}")
        bit = 1 if bit else 0
    elif isinstance(choose, int):
        bit = _forced(choose)
    else:
        import numpy as np

        if isinstance(choose, np.random.Generator):
            bit = 1 if choose.random() < p1 else 0
        elif isinstance(choose, np.integer):
            bit = _forced(choose)
        else:  # not a chooser: calling it raises the TypeError
            bit = int(choose(p0, p1))
    prob = p1 if bit else p0
    if prob < PROB_FLOOR:
        raise ZeroProbabilityError(f"outcome {bit} on qubit {q} has probability {prob:.3e}")
    if made is not None:
        return made[bit]
    return MeasurementOutcome(q, bit, prob)
