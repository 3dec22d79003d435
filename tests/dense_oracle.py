"""An independent dense interpreter of protocol transcripts.

``run_dense(transcript, outcomes)`` runs a transcript, such as a report's
schedule, on ``StateVector`` registers for one outcome vector. It shares no
code with the network model it checks: it keeps its own qubit-to-factor
bookkeeping (factors merge when a CNOT spans two of them, and a measured
qubit is split out), takes each measurement's bit from ``outcomes``, and
applies a conditioned gate when its own label-to-bit map holds a 1 for the
label, never reading the record's ``applied``. Discards, group drops and
zero checks are checked on the dense state. Messages, locks, pair claims
and factor-size checks are bookkeeping of the network model and change no
amplitude, so they are skipped.

``inputs={qubit: amps}`` starts an ancilla in a given one-qubit state
instead of |0>, which is how an arbitrary payload enters a run.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from eprweave.errors import EntanglementError, ProtocolError
from eprweave.locc import (
    AncillaRecord,
    DiscardRecord,
    DropGroupRecord,
    GateRecord,
    MeasureRecord,
    SetupRecord,
    ZeroCheckRecord,
)
from eprweave.statevec import StateVector, ghz_state

#: A qubit that a zero check finds in |1> with more probability than this is refused.
ZERO_TOL = 1e-10


class DenseRun:
    """One branch of a transcript, run record by record on dense factors."""

    def __init__(self, outcomes, inputs=None):
        self.outcomes = tuple(outcomes)
        self.inputs = dict(inputs or {})
        self.bits: dict[str, int] = {}  # measurement label -> its bit on this branch
        self.probabilities: list[float] = []  # of each measurement's outcome, in order
        self.peak = 0  # the largest factor ever held, in qubits
        self._factors: dict[int, StateVector] = {}
        self._slot: dict[int, int] = {}  # qubit -> the key of its factor
        self._keys = itertools.count()

    @property
    def probability(self) -> float:
        return math.prod(self.probabilities)

    def _store(self, state: StateVector) -> None:
        key = next(self._keys)
        self._factors[key] = state
        for q in state.qubits:
            self._slot[q] = key
        self.peak = max(self.peak, state.n)

    def _take(self, q: int) -> StateVector:
        """Remove and return the factor holding ``q``."""
        return self._factors.pop(self._slot[q])

    def apply(self, rec) -> None:
        run = _RUNS.get(type(rec))
        if run is not None:
            run(self, rec)

    def _setup(self, rec: SetupRecord) -> None:
        self._store(ghz_state(rec.qubits))

    def _ancilla(self, rec: AncillaRecord) -> None:
        self._store(StateVector((rec.qubit,), self.inputs.get(rec.qubit, (1.0, 0.0))))

    def _gate(self, rec: GateRecord) -> None:
        if rec.when is not None and not self.bits[rec.when]:
            return
        first, *more = {self._slot[q] for q in rec.gate.qubits}
        if more:  # a CNOT across two factors merges them
            self._store(self._factors.pop(first).tensor(self._factors.pop(more[0])))
            first = self._slot[rec.gate.qubits[0]]
        self._factors[first] = self._factors[first].apply(rec.gate)

    def _measure(self, rec: MeasureRecord) -> None:
        bit = self.outcomes[len(self.probabilities)]
        key = self._slot[rec.qubit]
        _, probability, rest = self._factors.pop(key).measure_out(rec.qubit, bit)
        self.probabilities.append(probability)
        self.bits[rec.label] = bit
        if rest.n:  # the rest keeps the factor's key
            self._factors[key] = rest
        self._store(StateVector((rec.qubit,), (0.0, 1.0) if bit else (1.0, 0.0)))

    def _discard(self, rec: DiscardRecord) -> None:
        factor = self._take(rec.qubit)
        del self._slot[rec.qubit]
        if factor.n > 1:
            self._store(factor.discard(rec.qubit))  # refuses an entangled qubit

    def _drop_group(self, rec: DropGroupRecord) -> None:
        group = self._take(rec.qubits[0]).qubits
        if set(group) != set(rec.qubits):
            raise ProtocolError(f"{sorted(rec.qubits)} is not a factor of its own")
        for q in group:
            del self._slot[q]

    def _zero_check(self, rec: ZeroCheckRecord) -> None:
        stray = self._factors[self._slot[rec.qubit]].probability_of_one(rec.qubit)
        if stray > ZERO_TOL:
            raise EntanglementError(f"qubit {rec.qubit} is not |0> (P[1] = {stray:.3e})")

    def state(self, qubits) -> StateVector:
        """The product of the factors touching ``qubits``."""
        view = StateVector.zeros(())
        for key in sorted({self._slot[q] for q in qubits}):
            view = view.tensor(self._factors[key])
        return view

    def ghz_fidelity(self, qubits) -> float:
        """<GHZ|rho|GHZ> for the reduced state rho of ``qubits``."""
        qubits = tuple(qubits)
        joint = self.state(qubits)
        rest = tuple(q for q in joint.qubits if q not in qubits)
        amps = joint.reordered(qubits + rest).amps.reshape(2 ** len(rest), 2 ** len(qubits))
        overlap = amps @ ghz_state(qubits).amps.conj()
        return float(np.vdot(overlap, overlap).real)


#: What each record kind does to the dense state; the other kinds do nothing.
_RUNS = {
    SetupRecord: DenseRun._setup,
    AncillaRecord: DenseRun._ancilla,
    GateRecord: DenseRun._gate,
    MeasureRecord: DenseRun._measure,
    DiscardRecord: DenseRun._discard,
    DropGroupRecord: DenseRun._drop_group,
    ZeroCheckRecord: DenseRun._zero_check,
}


def run_dense(transcript, outcomes, inputs=None) -> DenseRun:
    """Run every record of ``transcript`` on the branch ``outcomes``,
    which must name one bit per measurement."""
    run = DenseRun(outcomes, inputs)
    for rec in transcript:
        run.apply(rec)
    if len(run.probabilities) != len(run.outcomes):
        raise ValueError(
            f"{len(run.outcomes)} outcomes for {len(run.probabilities)} measurements"
        )
    return run
