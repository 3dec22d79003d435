"""Exact pure-state simulation over registers of named qubits.

Amplitude convention: a state over qubits ``(q_0, ..., q_{n-1})`` is a flat
complex array of length ``2**n`` in which bit ``b`` of the array index
(least significant bit first) holds the computational-basis value of
``qubits[b]``. Cross-register comparisons always align qubits by id, never
by list position, and equality checks are fidelity-based (insensitive to a
global phase).

All operations are pure: they return new ``StateVector`` instances and
never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EntanglementError, ZeroProbabilityError

QubitId = int

# Double precision leaves ample headroom over circuits of <= ~60 gates.
NORM_TOL = 1e-12
PROB_FLOOR = 1e-12
PURITY_TOL = 1e-10

GATE_KINDS = ("X", "Z", "H", "CNOT")

_SQRT_HALF = 1.0 / np.sqrt(2.0)

#: How a measurement picks its branch: a forced bit, a random generator, or
#: a callable ``(p0, p1) -> bit``.
BranchChooser = int | np.random.Generator | Callable[[float, float], int]


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


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of one computational-basis measurement."""

    qubit: QubitId
    bit: int
    probability: float


class StateVector:
    """Normalized pure state over an ordered tuple of qubit ids."""

    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: Iterable[QubitId], amps, _trusted: bool = False):
        qubits = tuple(qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit ids in {qubits}")
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (2 ** len(qubits),):
            raise ValueError(
                f"expected {2 ** len(qubits)} amplitudes for {len(qubits)} qubits, got {amps.shape}"
            )
        if not _trusted:
            norm_sq = float(np.sum(np.abs(amps) ** 2))
            if abs(norm_sq - 1.0) > 1e-9:
                raise ValueError(f"state is not normalized (|psi|^2 = {norm_sq})")
            amps = amps / np.sqrt(norm_sq)
        self.qubits = qubits
        self.amps = amps

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, qubit_ids: Iterable[QubitId]) -> "StateVector":
        """The all-|0> register; an empty id list gives the scalar state."""
        qubit_ids = tuple(qubit_ids)
        amps = np.zeros(2 ** len(qubit_ids), dtype=complex)
        amps[0] = 1.0
        return cls(qubit_ids, amps, _trusted=True)

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.qubits)

    def position(self, q: QubitId) -> int:
        try:
            return self.qubits.index(q)
        except ValueError:
            raise ValueError(f"qubit {q} not in register {self.qubits}") from None

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def probability_of_one(self, q: QubitId) -> float:
        mask = 1 << self.position(q)
        base = np.arange(self.amps.size)
        return float(np.sum(np.abs(self.amps[(base & mask) != 0]) ** 2))

    # -- unitaries -----------------------------------------------------------

    def apply(self, gate: Gate) -> "StateVector":
        """Apply a gate; the result stays normalized to within 1e-12."""
        amps = self.amps
        base = np.arange(amps.size)
        if gate.kind == "CNOT":
            cmask = 1 << self.position(gate.qubits[0])
            tmask = 1 << self.position(gate.qubits[1])
            out = amps.copy()
            hot = (base & cmask) != 0
            out[hot] = amps[base[hot] ^ tmask]
        else:
            mask = 1 << self.position(gate.qubits[0])
            if gate.kind == "X":
                out = amps[base ^ mask]
            elif gate.kind == "Z":
                out = amps.copy()
                out[(base & mask) != 0] *= -1.0
            else:  # H
                lo = base[(base & mask) == 0]
                hi = lo | mask
                out = np.empty_like(amps)
                out[lo] = (amps[lo] + amps[hi]) * _SQRT_HALF
                out[hi] = (amps[lo] - amps[hi]) * _SQRT_HALF
        assert abs(float(np.sum(np.abs(out) ** 2)) - 1.0) <= NORM_TOL, "norm drifted"
        return StateVector(self.qubits, out, _trusted=True)

    # -- measurement -----------------------------------------------------------

    def measure(self, q: QubitId, choose: BranchChooser) -> tuple[MeasurementOutcome, "StateVector"]:
        """Measure one qubit in the computational basis.

        ``choose`` selects the branch: a forced bit (0/1), a seeded
        ``numpy.random.Generator``, or a callable ``(p0, p1) -> bit``.
        Forcing a branch of probability below 1e-12 raises
        ``ZeroProbabilityError``.
        """
        pos = self.position(q)
        mask = 1 << pos
        base = np.arange(self.amps.size)
        hot = (base & mask) != 0
        p1 = float(np.sum(np.abs(self.amps[hot]) ** 2))
        p0 = 1.0 - p1
        if p0 < 1e-3:  # 1 - p1 keeps too few digits of a small p0 to renormalize by
            p0 = float(np.sum(np.abs(self.amps[~hot]) ** 2))
        if isinstance(choose, (int, np.integer)):
            bit = int(choose)
            if bit not in (0, 1):
                raise ValueError(f"forced bit must be 0 or 1, got {choose}")
        elif isinstance(choose, np.random.Generator):
            bit = 1 if choose.random() < p1 else 0
        else:
            bit = int(choose(p0, p1))
        prob = p1 if bit else p0
        if prob < PROB_FLOOR:
            raise ZeroProbabilityError(
                f"outcome {bit} on qubit {q} has probability {prob:.3e}"
            )
        out = self.amps.copy()
        out[hot != bool(bit)] = 0.0
        out /= np.sqrt(prob)
        return MeasurementOutcome(q, bit, prob), StateVector(self.qubits, out, _trusted=True)

    def enumerate_branches(self, q: QubitId) -> list[tuple[MeasurementOutcome, "StateVector"]]:
        """Both measurement branches of ``q`` whose probability exceeds 1e-12."""
        branches = []
        for bit in (0, 1):
            try:
                branches.append(self.measure(q, bit))
            except ZeroProbabilityError:
                pass
        return branches

    # -- register surgery ------------------------------------------------------

    def discard(self, q: QubitId) -> "StateVector":
        """Drop a qubit that is in a product state with the rest.

        Raises ``EntanglementError`` when the qubit's reduced state has
        purity <= 1 - 1e-10. The remaining state is preserved up to a
        global phase.
        """
        pos = self.position(q)
        mask = 1 << pos
        base = np.arange(self.amps.size)
        rows = np.stack([self.amps[(base & mask) == 0], self.amps[(base & mask) != 0]])
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        probs = s**2
        purity = float(np.sum(probs**2))
        if purity <= 1.0 - PURITY_TOL:
            raise EntanglementError(
                f"qubit {q} is still entangled with the rest (purity {purity:.12f})"
            )
        remaining = tuple(x for x in self.qubits if x != q)
        return StateVector(remaining, vh[0], _trusted=True)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Tensor product; ``self`` keeps the low index bits."""
        overlap = set(self.qubits) & set(other.qubits)
        if overlap:
            raise ValueError(f"registers share qubits {sorted(overlap)}")
        return StateVector(
            self.qubits + other.qubits, np.kron(other.amps, self.amps), _trusted=True
        )

    def reordered(self, new_order: Sequence[QubitId]) -> "StateVector":
        """Same state with the qubit list permuted to ``new_order``."""
        new_order = tuple(new_order)
        if set(new_order) != set(self.qubits) or len(new_order) != self.n:
            raise ValueError(f"{new_order} is not a permutation of {self.qubits}")
        if new_order == self.qubits:
            return self
        base = np.arange(self.amps.size)
        dest = np.zeros_like(base)
        for new_pos, q in enumerate(new_order):
            dest |= ((base >> self.position(q)) & 1) << new_pos
        out = np.empty_like(self.amps)
        out[dest] = self.amps
        return StateVector(new_order, out, _trusted=True)

    # -- comparisons and audits ----------------------------------------------

    def fidelity(self, target: "StateVector") -> float:
        """|<target|self>|^2, aligning qubits by id; phase-insensitive."""
        if set(target.qubits) != set(self.qubits):
            raise ValueError(
                f"qubit sets differ: {sorted(self.qubits)} vs {sorted(target.qubits)}"
            )
        aligned = target.reordered(self.qubits)
        return min(1.0, float(abs(np.vdot(aligned.amps, self.amps)) ** 2))

    def cut_entropy(self, subset: Iterable[QubitId]) -> float:
        """Von Neumann entropy (bits) of the reduced state on ``subset``.

        Zero (within 1e-10) iff the state is a product across the cut.
        """
        subset = set(subset)
        if not subset or subset == set(self.qubits):
            raise ValueError("subset must be a nonempty proper subset of the register")
        unknown = subset - set(self.qubits)
        if unknown:
            raise ValueError(f"qubits {sorted(unknown)} not in register")
        inside = [q for q in self.qubits if q in subset]
        outside = [q for q in self.qubits if q not in subset]
        reord = self.reordered(tuple(inside + outside))
        mat = reord.amps.reshape(2 ** len(outside), 2 ** len(inside))
        s = np.linalg.svd(mat, compute_uv=False)
        probs = s**2
        probs = probs[probs > 1e-15]
        return float(-np.sum(probs * np.log2(probs)))

    def reduced_density(self, q: QubitId) -> np.ndarray:
        """2x2 reduced density matrix of one qubit."""
        mask = 1 << self.position(q)
        base = np.arange(self.amps.size)
        rows = np.stack([self.amps[(base & mask) == 0], self.amps[(base & mask) != 0]])
        return rows @ rows.conj().T

    def __repr__(self):
        return f"StateVector(qubits={self.qubits}, amps={np.round(self.amps, 6)!r})"


def new_register(qubit_ids: Iterable[QubitId]) -> StateVector:
    """Fresh |0...0> register over distinct qubit ids."""
    return StateVector.zeros(qubit_ids)


def ghz_state(qubit_ids: Iterable[QubitId]) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) over the given qubits (at least one)."""
    qubit_ids = tuple(qubit_ids)
    if not qubit_ids:
        raise ValueError("need at least one qubit")
    amps = np.zeros(2 ** len(qubit_ids), dtype=complex)
    amps[0] = amps[-1] = _SQRT_HALF
    return StateVector(qubit_ids, amps, _trusted=True)


def bell_pair(q_a: QubitId, q_b: QubitId) -> StateVector:
    """(|00> + |11>)/sqrt(2) over two qubits."""
    return ghz_state((q_a, q_b))
