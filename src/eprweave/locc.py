"""The distributed-network model: who owns what, who knows what.

A ``NetworkState`` tracks n agents, the qubits each one owns, and the
joint quantum state. The joint state is stored as a list of independent
factors (registers over disjoint qubit sets) that are merged only when a
gate spans them, so the largest register ever simulated stays small even
though the network as a whole holds many qubits. Measured qubits are
split back out into singleton factors immediately, which keeps redundancy
out of the working register and makes "does this group factor out?"
audits exact.

Locality is enforced at every operation: gates and measurements require
ownership of every operand, and conditioning a gate on a measurement
result requires the actor to actually know that bit — either by having
measured it or by having received it in a classical message. Classical
messages are transcribed and priced: a message of b bits costs b cbits,
and a broadcast costs the same as a point-to-point send.

All operations, locks, pair claims and schedule checks mutate the
NetworkState in place and append to its transcript, so a transcript is a
complete schedule. ``NetworkState.apply`` is its one interpreter, used by
``replay_transcript`` (which can censor messages: any operation
conditioned on a censored bit must then fail) and by branch exploration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConditioningError,
    EntanglementError,
    LoccViolationError,
    ProtocolError,
    SetupClosedError,
)
from .statevec import (
    BranchChooser,
    Gate,
    MeasurementOutcome,
    QubitId,
    StateVector,
    bell_pair,
    ghz_state,
)

AgentId = int

#: Receiver sentinel: every agent except the sender.
ALL = "all"


# ---------------------------------------------------------------------------
# transcript records


@dataclass(frozen=True)
class SetupRecord:
    kind: str  # "epr" or "ghz"
    agents: tuple[AgentId, ...]
    qubits: tuple[QubitId, ...]


@dataclass(frozen=True)
class AncillaRecord:
    actor: AgentId
    qubit: QubitId


@dataclass(frozen=True)
class GateRecord:
    actor: AgentId
    gate: Gate
    when: str | None  # label the gate was conditioned on, if any
    applied: bool


@dataclass(frozen=True)
class MeasureRecord:
    actor: AgentId
    qubit: QubitId
    label: str
    bit: int
    probability: float


@dataclass(frozen=True)
class ClassicalMessage:
    """One classical transmission; costs len(bits) cbits however many
    agents receive it."""

    sender: AgentId
    receivers: tuple[AgentId, ...] | str  # explicit tuple or ALL
    bits: tuple[int, ...]
    labels: tuple[str | None, ...]  # provenance per bit; None = constant
    purpose: str = ""


@dataclass(frozen=True)
class DiscardRecord:
    actor: AgentId
    qubit: QubitId


@dataclass(frozen=True)
class DropGroupRecord:
    qubits: tuple[QubitId, ...]


@dataclass(frozen=True)
class ConsumeRecord:
    agent_a: AgentId
    agent_b: AgentId


@dataclass(frozen=True)
class LockRecord:
    qubits: tuple[QubitId, ...]
    locked: bool  # False: the qubits were released


@dataclass(frozen=True)
class ZeroCheckRecord:
    """Schedule check: the actor's qubit is |0> here."""

    actor: AgentId
    qubit: QubitId


@dataclass(frozen=True)
class FactorSizeRecord:
    """Schedule check: the factor holding ``qubit`` spans ``size`` qubits."""

    qubit: QubitId
    size: int


Record = (
    SetupRecord
    | AncillaRecord
    | GateRecord
    | MeasureRecord
    | ClassicalMessage
    | DiscardRecord
    | DropGroupRecord
    | ConsumeRecord
    | LockRecord
    | ZeroCheckRecord
    | FactorSizeRecord
)


@dataclass
class EprPairRecord:
    """A setup EPR pair and whether a teleportation has consumed it."""

    agent_a: AgentId
    agent_b: AgentId
    qubit_a: QubitId
    qubit_b: QubitId
    consumed: bool = False


class NetworkState:
    """Mutable model of one protocol run over agents 1..n."""

    def __init__(self, n: int, chooser: BranchChooser | None = None):
        if n < 1:
            raise ValueError("need at least one agent")
        self.n = n
        self.chooser = chooser
        self.owner: dict[QubitId, AgentId] = {}
        self.knowledge: dict[AgentId, dict[str, int]] = {a: {} for a in self.agents}
        self.transcript: list[Record] = []
        self.cbit_count = 0
        self.setup_open = True
        self.epr_pairs: list[EprPairRecord] = []
        self.peak_factor_qubits = 0
        self._factors: list[StateVector] = []
        self._locked: set[QubitId] = set()
        self._labels: set[str] = set()
        self._next_qubit = 1

    # -- structure ----------------------------------------------------------

    @property
    def agents(self) -> range:
        return range(1, self.n + 1)

    def qubits_of(self, agent: AgentId) -> list[QubitId]:
        return sorted(q for q, a in self.owner.items() if a == agent)

    def factor_qubits(self, q: QubitId) -> tuple[QubitId, ...]:
        """The qubit set of the factor currently containing q."""
        return self._factors[self._factor_index(q)].qubits

    def copy(self) -> "NetworkState":
        dup = NetworkState(self.n, self.chooser)
        dup.owner = dict(self.owner)
        dup.knowledge = {a: dict(k) for a, k in self.knowledge.items()}
        dup.transcript = list(self.transcript)
        dup.cbit_count = self.cbit_count
        dup.setup_open = self.setup_open
        dup.epr_pairs = [dataclasses.replace(p) for p in self.epr_pairs]
        dup.peak_factor_qubits = self.peak_factor_qubits
        dup._factors = list(self._factors)  # StateVectors are never mutated
        dup._locked = set(self._locked)
        dup._labels = set(self._labels)
        dup._next_qubit = self._next_qubit
        return dup

    # -- internal plumbing ----------------------------------------------------

    def _new_qubit(self, agent: AgentId) -> QubitId:
        if agent not in self.agents:
            raise ValueError(f"unknown agent {agent}")
        q = self._next_qubit
        self._next_qubit += 1
        self.owner[q] = agent
        return q

    def _factor_index(self, q: QubitId) -> int:
        for i, f in enumerate(self._factors):
            if q in f.qubits:
                return i
        raise ValueError(f"qubit {q} is not live in this network")

    def _store_factor(self, sv: StateVector) -> None:
        if sv.n == 0:
            return  # a fully-discarded register is just a global phase
        self._factors.append(sv)
        self.peak_factor_qubits = max(self.peak_factor_qubits, sv.n)

    def _merged_factor(self, qubits: Sequence[QubitId]) -> int:
        """Ensure all qubits share one factor; return its index."""
        indices = sorted({self._factor_index(q) for q in qubits})
        first = indices[0]
        if len(indices) > 1:
            combined = self._factors[first]
            for i in indices[1:]:
                combined = combined.tensor(self._factors[i])
            for i in reversed(indices[1:]):
                del self._factors[i]
            self._factors[first] = combined
            self.peak_factor_qubits = max(self.peak_factor_qubits, combined.n)
        return first

    def _require_owner(self, actor: AgentId, qubits: Iterable[QubitId]) -> None:
        for q in qubits:
            holder = self.owner.get(q)
            if holder is None:
                raise ValueError(f"qubit {q} is not live in this network")
            if holder != actor:
                raise LoccViolationError(
                    f"agent {actor} touched qubit {q}, which belongs to agent {holder}"
                )

    def _require_unlocked(self, qubits: Iterable[QubitId]) -> None:
        stuck = [q for q in qubits if q in self._locked]
        if stuck:
            raise ProtocolError(
                f"qubits {stuck} are locked until the protocol schedule releases them"
            )

    def _protocol_started(self) -> None:
        self.setup_open = False

    # -- setup phase -----------------------------------------------------------

    def distribute_epr(self, a: AgentId, b: AgentId) -> tuple[QubitId, QubitId]:
        """Hand agents a and b one fresh EPR pair. Setup phase only."""
        if a == b:
            raise ValueError(f"agent {a} cannot share an EPR pair with itself")
        if not self.setup_open:
            raise SetupClosedError("EPR distribution is only allowed during setup")
        qa, qb = self._new_qubit(a), self._new_qubit(b)
        self._store_factor(bell_pair(qa, qb))
        self.epr_pairs.append(EprPairRecord(a, b, qa, qb))
        self.transcript.append(SetupRecord("epr", (a, b), (qa, qb)))
        return qa, qb

    def distribute_ghz(self, members: Iterable[AgentId]) -> dict[AgentId, QubitId]:
        """Hand each member one qubit of a fresh group GHZ state."""
        members = sorted(set(members))
        if len(members) < 2:
            raise ValueError(f"a group state needs at least 2 agents, got {members}")
        if not self.setup_open:
            raise SetupClosedError("group-state distribution is only allowed during setup")
        held = {a: self._new_qubit(a) for a in members}
        self._store_factor(ghz_state(tuple(held[a] for a in members)))
        self.transcript.append(
            SetupRecord("ghz", tuple(members), tuple(held[a] for a in members))
        )
        return held

    # -- local quantum operations -----------------------------------------------

    def add_ancilla(self, actor: AgentId) -> QubitId:
        """Fresh local |0> qubit; free, and legal at any time."""
        q = self._new_qubit(actor)
        self._store_factor(StateVector.zeros((q,)))
        self.transcript.append(AncillaRecord(actor, q))
        return q

    def local_gate(self, actor: AgentId, gate: Gate, when: str | None = None) -> bool:
        """Apply a gate to the actor's own qubits.

        ``when`` names a classical bit: the gate is applied iff the actor
        knows that bit as 1. Conditioning on a bit the actor never learned
        is an error — that is the classical side of LOCC enforcement.
        Returns whether the gate was actually applied.
        """
        self._protocol_started()
        self._require_owner(actor, gate.qubits)
        self._require_unlocked(gate.qubits)
        applied = True
        if when is not None:
            if when not in self.knowledge[actor]:
                raise ConditioningError(
                    f"agent {actor} conditions on {when!r} without having "
                    "measured or received it"
                )
            applied = self.knowledge[actor][when] == 1
        if applied:
            i = self._merged_factor(gate.qubits)
            self._factors[i] = self._factors[i].apply(gate)
        self.transcript.append(GateRecord(actor, gate, when, applied))
        return applied

    def local_measure(
        self,
        actor: AgentId,
        q: QubitId,
        label: str | None = None,
        choose: BranchChooser | None = None,
    ) -> MeasurementOutcome:
        """Measure the actor's qubit; only the actor learns the outcome.

        The result is stored in the actor's knowledge under ``label`` and
        stays private until sent classically. The measured qubit collapses
        and is split into its own single-qubit factor.
        """
        self._protocol_started()
        self._require_owner(actor, (q,))
        self._require_unlocked((q,))
        if label is None:
            label = f"m{len(self._labels) + 1}"
        if label in self._labels:
            raise ValueError(f"measurement label {label!r} already used in this run")
        chooser = choose if choose is not None else self.chooser
        if chooser is None:
            raise ValueError("no branch chooser configured for this measurement")
        i = self._factor_index(q)
        outcome, post = self._factors[i].measure(q, chooser)
        collapsed = np.zeros(2, dtype=complex)
        collapsed[outcome.bit] = 1.0
        if post.n == 1:
            self._factors[i] = StateVector((q,), collapsed, _trusted=True)
        else:
            self._factors[i] = post.discard(q)
            self._store_factor(StateVector((q,), collapsed, _trusted=True))
        self._labels.add(label)
        self.knowledge[actor][label] = outcome.bit
        self.transcript.append(
            MeasureRecord(actor, q, label, outcome.bit, outcome.probability)
        )
        return outcome

    def discard_qubit(self, actor: AgentId, q: QubitId) -> None:
        """Drop a qubit that factors out (e.g. already measured); free."""
        self._require_owner(actor, (q,))
        i = self._factor_index(q)
        reduced = self._factors[i].discard(q)
        if reduced.n == 0:
            del self._factors[i]
        else:
            self._factors[i] = reduced
        del self.owner[q]
        self._locked.discard(q)
        self.transcript.append(DiscardRecord(actor, q))

    def drop_group(self, qubits: Iterable[QubitId]) -> None:
        """Remove an entire factor wholesale (redundant group entanglement).

        Legal only when ``qubits`` is exactly one factor's qubit set, i.e.
        the group is untouched and unentangled with everything else.
        """
        qubits = frozenset(qubits)
        i = self._factor_index(next(iter(qubits)))
        if frozenset(self._factors[i].qubits) != qubits:
            raise ProtocolError(
                f"{sorted(qubits)} is not a standalone group; its factor spans "
                f"{sorted(self._factors[i].qubits)}"
            )
        dropped = self._factors.pop(i)
        for q in dropped.qubits:
            del self.owner[q]
            self._locked.discard(q)
        self.transcript.append(DropGroupRecord(tuple(sorted(qubits))))

    # -- classical communication ---------------------------------------------

    def send_classical(
        self,
        sender: AgentId,
        receivers: AgentId | str,
        bits: Sequence[int | str],
        purpose: str = "",
    ) -> ClassicalMessage:
        """Send classical bits to one agent or to ALL.

        Each bit is either a constant (0/1) or the label of a bit the
        sender knows; referencing an unknown label is a conditioning
        violation. Receivers learn every labeled bit. Cost: len(bits)
        cbits, regardless of how many agents listen.
        """
        self._protocol_started()
        if sender not in self.agents:
            raise ValueError(f"unknown agent {sender}")
        if not bits:
            raise ValueError("a classical message must carry at least one bit")
        if receivers == ALL:
            audience = tuple(a for a in self.agents if a != sender)
            record_receivers: tuple[AgentId, ...] | str = ALL
        else:
            if receivers not in self.agents:
                raise ValueError(f"unknown receiver {receivers}")
            if receivers == sender:
                raise ValueError("sending a message to oneself is not communication")
            audience = (receivers,)
            record_receivers = (receivers,)
        values: list[int] = []
        labels: list[str | None] = []
        for bit in bits:
            if isinstance(bit, str):
                if bit not in self.knowledge[sender]:
                    raise ConditioningError(
                        f"agent {sender} sends {bit!r} without having measured "
                        "or received it"
                    )
                values.append(self.knowledge[sender][bit])
                labels.append(bit)
            else:
                if bit not in (0, 1):
                    raise ValueError(f"classical bits must be 0 or 1, got {bit}")
                values.append(int(bit))
                labels.append(None)
        for agent in audience:
            for label, value in zip(labels, values):
                if label is not None:
                    self.knowledge[agent][label] = value
        msg = ClassicalMessage(sender, record_receivers, tuple(values), tuple(labels), purpose)
        self.transcript.append(msg)
        self.cbit_count += len(values)
        return msg

    # -- scheduling locks --------------------------------------------------------

    def lock_qubits(self, qubits: Iterable[QubitId]) -> None:
        """Freeze qubits until the protocol schedule reaches them; any
        local operation on a locked qubit is a protocol error."""
        qubits = tuple(qubits)
        self._locked.update(qubits)
        self.transcript.append(LockRecord(qubits, True))

    def unlock_qubits(self, qubits: Iterable[QubitId]) -> None:
        qubits = tuple(qubits)
        self._locked.difference_update(qubits)
        self.transcript.append(LockRecord(qubits, False))

    def consume_epr(self, a: AgentId, b: AgentId) -> tuple[QubitId, QubitId]:
        """Claim the first unused EPR pair between a and b, unlocking it.

        Returns (a's half, b's half) and marks the pair consumed so no
        teleportation can use it twice.
        """
        for pair in self.epr_pairs:
            if pair.consumed:
                continue
            if (pair.agent_a, pair.agent_b) == (a, b):
                pair.consumed = True
                halves = (pair.qubit_a, pair.qubit_b)
            elif (pair.agent_a, pair.agent_b) == (b, a):
                pair.consumed = True
                halves = (pair.qubit_b, pair.qubit_a)
            else:
                continue
            self._locked.difference_update(halves)
            self.transcript.append(ConsumeRecord(a, b))
            return halves
        raise ProtocolError(f"no unused EPR pair between agents {a} and {b}")

    # -- schedule checks and the record interpreter ----------------------------

    def check_zero(self, actor: AgentId, q: QubitId) -> None:
        """Require the actor's qubit to be |0>, as a perfect duplicate is
        after its uncopy; anything else is an entanglement error."""
        self._require_owner(actor, (q,))
        stray = self.joint_state((q,)).probability_of_one(q)
        if stray > 1e-10:
            raise EntanglementError(
                f"qubit {q} is not |0> after its uncopy: it was not perfectly "
                f"correlated with its partner (P[1] = {stray:.3e})"
            )
        self.transcript.append(ZeroCheckRecord(actor, q))

    def check_factor_size(self, q: QubitId, size: int) -> None:
        """Require the factor holding q to span exactly ``size`` qubits."""
        actual = len(self.factor_qubits(q))
        if actual != size:
            raise ProtocolError(f"merged group spans {actual} qubits, expected {size}")
        self.transcript.append(FactorSizeRecord(q, size))

    def apply(self, rec: Record, choose: BranchChooser | None = None) -> None:
        """Run the operation that made ``rec``, with all its checks.

        Conditioned gates and message bits follow this network's
        knowledge; a measurement takes ``choose``, else the recorded bit.
        """
        match rec:
            case SetupRecord(kind="epr", agents=(a, b)):
                self.distribute_epr(a, b)
            case SetupRecord():
                self.distribute_ghz(rec.agents)
            case AncillaRecord():
                self.add_ancilla(rec.actor)
            case GateRecord():
                self.local_gate(rec.actor, rec.gate, when=rec.when)
            case MeasureRecord():
                self.local_measure(
                    rec.actor, rec.qubit, label=rec.label,
                    choose=rec.bit if choose is None else choose,
                )
            case ClassicalMessage():
                bits = [
                    value if label is None else label
                    for label, value in zip(rec.labels, rec.bits)
                ]
                receivers = rec.receivers if rec.receivers == ALL else rec.receivers[0]
                self.send_classical(rec.sender, receivers, bits, rec.purpose)
            case DiscardRecord():
                self.discard_qubit(rec.actor, rec.qubit)
            case DropGroupRecord():
                self.drop_group(rec.qubits)
            case ConsumeRecord():
                self.consume_epr(rec.agent_a, rec.agent_b)
            case LockRecord(locked=True):
                self.lock_qubits(rec.qubits)
            case LockRecord():
                self.unlock_qubits(rec.qubits)
            case ZeroCheckRecord():
                self.check_zero(rec.actor, rec.qubit)
            case FactorSizeRecord():
                self.check_factor_size(rec.qubit, rec.size)
            case _:  # pragma: no cover
                raise TypeError(f"unknown transcript record {rec!r}")

    # -- observation ------------------------------------------------------------

    def joint_state(self, qubits: Iterable[QubitId] | None = None) -> StateVector:
        """Read-only merged view of the factors touching ``qubits`` (all
        factors if None). Does not change the stored factoring."""
        if qubits is None:
            involved = list(range(len(self._factors)))
        else:
            involved = sorted({self._factor_index(q) for q in qubits})
        if not involved:
            return StateVector.zeros(())
        view = self._factors[involved[0]]
        for i in involved[1:]:
            view = view.tensor(self._factors[i])
        return view

    def audit_cut(self, part: Iterable[AgentId]) -> float:
        """Entanglement entropy between one group of agents and the rest.

        Exact and cheap: entropy is additive over independent factors, so
        no joint register is ever materialized.
        """
        part = set(part)
        if not part or part == set(self.agents):
            raise ValueError("partition must be a nonempty proper subset of agents")
        unknown = part - set(self.agents)
        if unknown:
            raise ValueError(f"unknown agents {sorted(unknown)}")
        mine = {q for q, a in self.owner.items() if a in part}
        total = 0.0
        for f in self._factors:
            inside = set(f.qubits) & mine
            if inside and inside != set(f.qubits):
                total += f.cut_entropy(inside)
        return total


# ---------------------------------------------------------------------------
# branch controllers


class RecordingChooser:
    """Forces a prefix of outcomes, then takes the first live branch
    (preferring 0), recording every decision with its probabilities.

    A prefix pins a network to one branch, as when a recorded outcome
    vector is run again; the record shows which branches were live.
    """

    def __init__(self, prefix: Sequence[int] = ()):
        self.prefix = tuple(prefix)
        self.record: list[tuple[int, float, float]] = []

    def __call__(self, p0: float, p1: float) -> int:
        i = len(self.record)
        if i < len(self.prefix):
            bit = self.prefix[i]
        else:
            bit = 0 if p0 >= 1e-12 else 1
        self.record.append((bit, p0, p1))
        return bit


def replay_transcript(
    n: int,
    transcript: Sequence[Record],
    skip_messages: Iterable[int] = (),
) -> NetworkState:
    """Re-execute a transcript on a fresh n-agent network.

    Each record goes through ``NetworkState.apply`` with measurement
    outcomes forced to their recorded bits, so a faithful replay
    reproduces the transcript record-for-record, checks included; a
    changed bit replays another branch and its checks. ``skip_messages``
    censors the given transcript indices (which must be messages); any
    later operation conditioned on a censored bit then fails with a
    conditioning violation, which is exactly the soundness check.
    """
    skip = set(skip_messages)
    net = NetworkState(n)
    for i, rec in enumerate(transcript):
        if i in skip:
            if not isinstance(rec, ClassicalMessage):
                raise ValueError(f"transcript entry {i} is not a message")
            continue
        net.apply(rec)
    return net
