"""What both backends share: qubit ids, gates, how a measurement picks
its branch, and tolerances.

A measurement takes its branch from a chooser: a forced bit, or a
callable ``(p0, p1) -> bit`` such as ``Fork``, the one the package builds
for live runs, pinned replays and the branch explorer alike. Both
backends return a measurement as ``(bit, probability, rest)``; the network
model keeps it as the ``MeasureRecord`` it appends to its transcript.

The stabilizer tableau (:mod:`eprweave.stabilizer`), the network model
(:mod:`eprweave.locc`) and the protocols build on this module alone, so
they import no numpy. The dense register (:mod:`eprweave.statevec`)
re-exports the gates and tolerances defined here, and keeps its own size
limit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import ZeroProbabilityError

QubitId = int

# Double precision leaves ample headroom over circuits of <= ~60 gates.
NORM_TOL = 1e-12
PROB_FLOOR = 1e-12
PURITY_TOL = 1e-10

GATE_KINDS = ("X", "Z", "H", "CNOT")

#: How a measurement picks its branch: a forced bit, or a callable
#: ``(p0, p1) -> bit`` that returns 0 or 1, such as a :class:`Fork`.
BranchChooser = Union[int, Callable[[float, float], int]]


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


class Fork:
    """Branch chooser for one execution of a protocol's schedule.

    Measurement i takes ``prefix[i]``; each later one draws
    ``rng.random() < p1`` if a generator ``rng`` is given, else takes the
    lowest live outcome. A generator is anything with a ``random()``
    method, such as a ``random.Random`` or a numpy ``Generator``.

    ``Fork(outcomes)`` pins one branch for a whole schedule, and
    ``Fork(rng=rng)`` samples one.
    """

    def __init__(self, prefix: Sequence[int] = (), rng=None):
        self.prefix, self.rng = tuple(prefix), rng
        self.at = 0

    def __call__(self, p0: float, p1: float) -> int:
        at = self.at
        self.at = at + 1
        if at < len(self.prefix):
            return self.prefix[at]
        if self.rng is not None:
            return 1 if self.rng.random() < p1 else 0
        return 0 if p0 >= PROB_FLOOR else 1


def choose_outcome(q: QubitId, choose: BranchChooser, p0: float, p1: float) -> int:
    """The bit of the branch of measuring ``q`` whose outcomes have
    probabilities ``p0`` and ``p1``; a forced bit below ``PROB_FLOOR`` is an
    error.

    A callable is called, first, as a :class:`Fork` is one, and must
    return 0 or 1. Anything else is a forced bit, taken as an integer by
    ``operator.index``: an int, a bool or a numpy integer, but not a float.
    """
    if callable(choose):
        bit = choose(p0, p1)
        if bit != 0 and bit != 1:
            raise ValueError(f"a chooser must return 0 or 1, got {bit!r}")
        bit = 1 if bit else 0
    else:
        bit = operator.index(choose)
        if bit != 0 and bit != 1:
            raise ValueError(f"forced bit must be 0 or 1, got {choose}")
    prob = p1 if bit else p0
    if prob < PROB_FLOOR:
        raise ZeroProbabilityError(f"outcome {bit} on qubit {q} has probability {prob:.3e}")
    return bit
