"""The distributed-network model: who owns what, who knows what.

A ``NetworkState`` tracks n agents, the qubits each one owns, and the
joint quantum state. The joint state is stored as independent factors
(states over disjoint qubit sets), each in a numbered slot, with a map
from every live qubit to its factor's slot. Factors merge only when a gate
spans them, so the largest factor ever simulated stays small even though
the network as a whole holds many qubits; a merged factor takes its
lowest slot, so factors keep the order in which they were made. Measured
qubits are split back out into singleton factors immediately, which keeps
redundancy out of the working factor and makes "does this group factor
out?" audits exact.

Factors are stabilizer tableaux (:class:`~eprweave.stabilizer.Tableau`):
every setup state, ancilla and protocol operation is a stabilizer one,
so this module needs only :mod:`eprweave.gates` and the tableau, and
never loads numpy.

Locality is enforced at every operation: gates and measurements require
ownership of every operand, and conditioning a gate on a measurement
result requires the actor to actually know that bit — either by having
measured it or by having received it in a classical message. Classical
messages are transcribed and priced: a message of b bits costs b cbits,
and a broadcast costs the same as a point-to-point send. What an agent
knows is its own record of measured and received labels plus the one
record, shared by all agents, of the labels broadcast to ``ALL``; so a
broadcast is written once, however many agents hear it. The own records
sit in one map keyed by agent and label, holding only what was learned,
so a copy of a network whose agents know nothing copies nothing.

All operations, locks, pair claims and schedule checks mutate the
NetworkState in place and append to its transcript, so a transcript is a
complete schedule. One executor per kind of record runs the operation,
and three paths reach it: each public operation builds its record and
calls its executor; ``NetworkState.apply`` looks it up, for
``replay_transcript`` (which can censor messages: any operation
conditioned on a censored bit must then fail); and branch exploration
runs the executor pairs that ``prepare`` looked up once. An operation
that reproduces its record appends that record itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    ConditioningError,
    EntanglementError,
    LoccViolationError,
    ProtocolError,
    SetupClosedError,
)
from .gates import BranchChooser, Gate, QubitId
from .stabilizer import BASIS_XZ, Tableau

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


class NetworkState:
    """Mutable model of one protocol run over agents 1..n."""

    def __init__(self, n: int, chooser: BranchChooser | None = None):
        if n < 1:
            raise ValueError("need at least one agent")
        self.n = n
        self.agents = range(1, n + 1)
        self.chooser = chooser
        self.owner: dict[QubitId, AgentId] = {}
        # (agent, label) -> bit: what one agent measured or was sent point to point
        self._known: dict[tuple[AgentId, str], int] = {}
        self._broadcast: dict[str, int] = {}  # labels sent to ALL: every agent knows them
        self.transcript: list[Record] = []
        self.cbit_count = 0
        self.setup_open = True
        self.epr_pairs: list[SetupRecord] = []  # the "epr" setup records, in order
        self.peak_factor_qubits = 0
        self._factors: dict[int, Tableau] = {}  # slot -> factor, oldest slot first
        self._slot: dict[QubitId, int] = {}  # live qubit -> its factor's slot
        self._next_slot = 0
        # agent pair (low, high) -> indices into epr_pairs of its unused pairs
        self._unclaimed: dict[tuple[AgentId, AgentId], tuple[int, ...]] = {}
        self._locked: set[QubitId] = set()
        self._labels: set[str] = set()
        self._next_qubit = 1

    # -- structure ----------------------------------------------------------

    @property
    def knowledge(self) -> dict[AgentId, dict[str, int]]:
        """What each agent knows, label to bit, as a new dict: ``knowledge[a]``
        holds a's own labels (measured or received point to point) over
        every label broadcast to ``ALL``. Reading it changes nothing."""
        own: dict[AgentId, dict[str, int]] = {a: {} for a in self.agents}
        for (agent, label), bit in self._known.items():
            own[agent][label] = bit
        return {a: {**self._broadcast, **labels} for a, labels in own.items()}

    def qubits_of(self, agent: AgentId) -> list[QubitId]:
        return sorted(q for q, a in self.owner.items() if a == agent)

    def factor_qubits(self, q: QubitId) -> tuple[QubitId, ...]:
        """The qubit set of the factor currently containing q."""
        return self._factors[self._slot_of(q)].qubits

    def copy(self) -> "NetworkState":
        dup = NetworkState.__new__(NetworkState)
        dup.n = self.n
        dup.agents = self.agents
        dup.chooser = self.chooser
        dup.owner = self.owner.copy()
        dup._known = self._known.copy()
        dup._broadcast = self._broadcast.copy()
        dup.transcript = self.transcript.copy()
        dup.cbit_count = self.cbit_count
        dup.setup_open = self.setup_open
        dup.epr_pairs = self.epr_pairs.copy()
        dup.peak_factor_qubits = self.peak_factor_qubits
        dup._factors = self._factors.copy()  # factors are never mutated
        dup._slot = self._slot.copy()
        dup._next_slot = self._next_slot
        dup._unclaimed = self._unclaimed.copy()
        dup._locked = self._locked.copy()
        dup._labels = self._labels.copy()
        dup._next_qubit = self._next_qubit
        return dup

    # -- internal plumbing ----------------------------------------------------

    def _new_qubits(self, agents: Sequence[AgentId]) -> tuple[QubitId, ...]:
        """One fresh qubit per agent, in order; nothing is allocated
        unless every agent exists."""
        for agent in agents:
            if agent not in self.agents:
                raise ValueError(f"unknown agent {agent}")
        qubits = tuple(range(self._next_qubit, self._next_qubit + len(agents)))
        self._next_qubit += len(agents)
        self.owner.update(zip(qubits, agents))
        return qubits

    def _slot_of(self, q: QubitId) -> int:
        try:
            return self._slot[q]
        except KeyError:
            raise ValueError(f"qubit {q} is not live in this network") from None

    def _store_factor(self, f: Tableau) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self._factors[slot] = f
        for q in f.qubits:
            self._slot[q] = slot
        if len(f.qubits) > self.peak_factor_qubits:
            self.peak_factor_qubits = len(f.qubits)

    def _merged_slot(self, a: int, b: int) -> int:
        """Merge the factors in slots a and b; return the slot of the
        result. It takes the lower slot, so it keeps that factor's place,
        and the qubits of the other factor move to it."""
        low, high = (a, b) if a < b else (b, a)
        moved = self._factors.pop(high)
        merged = self._factors[low].tensor(moved)
        self._factors[low] = merged
        for q in moved.qubits:
            self._slot[q] = low
        if len(merged.qubits) > self.peak_factor_qubits:
            self.peak_factor_qubits = len(merged.qubits)
        return low

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

    # -- setup phase -----------------------------------------------------------

    def distribute_epr(self, a: AgentId, b: AgentId) -> tuple[QubitId, QubitId]:
        """Hand agents a and b one fresh EPR pair. Setup phase only."""
        if a == b:
            raise ValueError(f"agent {a} cannot share an EPR pair with itself")
        if not self.setup_open:
            raise SetupClosedError("EPR distribution is only allowed during setup")
        qa, qb = self._new_qubits((a, b))
        self._store_factor(Tableau.ghz((qa, qb)))
        key = (a, b) if a < b else (b, a)
        self._unclaimed[key] = self._unclaimed.get(key, ()) + (len(self.epr_pairs),)
        rec = SetupRecord("epr", (a, b), (qa, qb))
        self.epr_pairs.append(rec)
        self.transcript.append(rec)
        return qa, qb

    def distribute_ghz(self, members: Iterable[AgentId]) -> dict[AgentId, QubitId]:
        """Hand each member one qubit of a fresh group GHZ state."""
        given = tuple(members)
        members = sorted(set(given))
        if len(members) != len(given):
            raise ValueError("repeated agent in hyperedge")
        if len(members) < 2:
            raise ValueError(f"a group state needs at least 2 agents, got {members}")
        if not self.setup_open:
            raise SetupClosedError("group-state distribution is only allowed during setup")
        qubits = self._new_qubits(members)
        self._store_factor(Tableau.ghz(qubits))
        self.transcript.append(SetupRecord("ghz", tuple(members), qubits))
        return dict(zip(members, qubits))

    # -- local quantum operations -----------------------------------------------

    def add_ancilla(self, actor: AgentId) -> QubitId:
        """Fresh local |0> qubit; free, and legal at any time."""
        return self._run_ancilla(AncillaRecord(actor, self._next_qubit), None)

    def local_gate(self, actor: AgentId, gate: Gate, when: str | None = None) -> bool:
        """Apply a gate to the actor's own qubits.

        ``when`` names a classical bit: the gate is applied iff the actor
        knows that bit as 1. Conditioning on a bit the actor never learned
        is an error — that is the classical side of LOCC enforcement.
        Returns whether the gate was actually applied.
        """
        return self._run_gate(GateRecord(actor, gate, when, True), None)

    def local_measure(
        self,
        actor: AgentId,
        q: QubitId,
        label: str | None = None,
        choose: BranchChooser | None = None,
    ) -> MeasureRecord:
        """Measure the actor's qubit; only the actor learns the outcome.

        The result is stored in the actor's knowledge under ``label`` and
        stays private until sent classically. The measured qubit collapses
        and is split into its own single-qubit factor. Returns the
        ``MeasureRecord`` it appends, with the label, bit and probability.
        """
        # no recorded bit: without a chooser there is nothing to measure by
        placeholder = MeasureRecord(actor, q, label, None, 0.0)
        return self._run_measure(placeholder, choose if choose is not None else self.chooser)

    def discard_qubit(self, actor: AgentId, q: QubitId) -> None:
        """Drop a qubit that factors out (e.g. already measured); free."""
        self._run_discard(DiscardRecord(actor, q), None)

    def drop_group(self, qubits: Iterable[QubitId]) -> None:
        """Remove an entire factor wholesale (redundant group entanglement).

        Legal only when ``qubits`` is exactly one factor's qubit set, i.e.
        the group is untouched and unentangled with everything else.
        """
        self._run_drop_group(DropGroupRecord(tuple(sorted(frozenset(qubits)))), None)

    # -- classical communication ---------------------------------------------

    def send_classical(
        self,
        sender: AgentId | ClassicalMessage,
        receivers: AgentId | str | None = None,
        bits: Sequence[int | str] = (),
        purpose: str = "",
    ) -> ClassicalMessage:
        """Send classical bits to one agent or to ALL.

        Each bit is either a constant (0/1) or the label of a bit the
        sender knows; referencing an unknown label is a conditioning
        violation. Receivers learn every labeled bit. Cost: len(bits)
        cbits, regardless of how many agents listen.

        ``send_classical(message)`` sends a recorded message again, as
        :meth:`apply` does: its labeled bits take the values this network
        knows, with every check above. Every message passes through here.
        """
        if isinstance(sender, ClassicalMessage):
            rec = sender
        else:
            bits = tuple(bits)
            rec = ClassicalMessage(
                sender,
                ALL if receivers == ALL else (receivers,),
                tuple(0 if isinstance(b, str) else int(b) if b in (0, 1) else b for b in bits),
                tuple(b if isinstance(b, str) else None for b in bits),
                purpose,
            )
        sender, receivers, agents = rec.sender, rec.receivers, self.agents
        if sender not in agents:
            raise ValueError(f"unknown agent {sender}")
        if not rec.bits:
            raise ValueError("a classical message must carry at least one bit")
        if receivers != ALL:
            for receiver in receivers:
                if receiver not in agents:
                    raise ValueError(f"unknown receiver {receiver}")
                if receiver == sender:
                    raise ValueError("sending a message to oneself is not communication")
        known, shared = self._known, self._broadcast
        values: list[int] = []
        learned: dict[str, int] = {}
        for label, value in zip(rec.labels, rec.bits):
            if label is not None:
                value = known.get((sender, label))
                if value is None:
                    value = shared.get(label)
                    if value is None:
                        raise ConditioningError(
                            f"agent {sender} sends {label!r} without having measured "
                            "or received it"
                        )
                learned[label] = value
            elif value not in (0, 1):
                raise ValueError(f"classical bits must be 0 or 1, got {value}")
            values.append(value)
        values = tuple(values)
        if learned:  # constant bits teach nobody anything
            if receivers == ALL:  # the sender knew these already
                shared.update(learned)
            else:
                for agent in receivers:
                    for label, value in learned.items():
                        known[agent, label] = value
        if values != rec.bits:
            rec = ClassicalMessage(sender, receivers, values, rec.labels, rec.purpose)
        self.setup_open = False
        self.transcript.append(rec)
        self.cbit_count += len(values)
        return rec

    # -- scheduling locks --------------------------------------------------------

    def lock_qubits(self, qubits: Iterable[QubitId]) -> None:
        """Freeze qubits until the protocol schedule reaches them; any
        local operation on a locked qubit is a protocol error."""
        self._run_lock(LockRecord(tuple(qubits), True), None)

    def unlock_qubits(self, qubits: Iterable[QubitId]) -> None:
        self._run_lock(LockRecord(tuple(qubits), False), None)

    def consume_epr(self, a: AgentId, b: AgentId) -> tuple[QubitId, QubitId]:
        """Claim the first unused EPR pair between a and b, unlocking it.

        Returns (a's half, b's half); a pair is claimed once, so no
        teleportation can use it twice.
        """
        return self._run_consume(ConsumeRecord(a, b), None)

    # -- schedule checks -------------------------------------------------------

    def check_zero(self, actor: AgentId, q: QubitId) -> None:
        """Require the actor's qubit to be |0>, as a perfect duplicate is
        after its uncopy; anything else is an entanglement error."""
        self._run_zero_check(ZeroCheckRecord(actor, q), None)

    def check_factor_size(self, q: QubitId, size: int) -> None:
        """Require the factor holding q to span exactly ``size`` qubits."""
        self._run_factor_size(FactorSizeRecord(q, size), None)

    # -- the executors ---------------------------------------------------------
    #
    # One executor per record kind runs the operation, with all its checks,
    # and appends its record: the given one itself when the operation
    # reproduces it, else a new one with this run's result. The checks are
    # inlined; the raising helpers above run only once a check has failed.

    def apply(self, rec: Record, choose: BranchChooser | None = None) -> None:
        """Run the operation that made ``rec``, with all its checks.

        Conditioned gates and message bits follow this network's
        knowledge; a measurement takes ``choose``, else the recorded bit.
        """
        _executor(rec)(self, rec, choose)

    def _run_setup(self, rec: SetupRecord, choose) -> None:
        if rec.kind == "ghz":
            self.distribute_ghz(rec.agents)
        elif rec.kind == "epr" and len(rec.agents) == 2:
            self.distribute_epr(*rec.agents)
        else:
            raise ValueError(f"{rec!r} is neither a 2-agent 'epr' record nor a 'ghz' record")

    def _run_ancilla(self, rec: AncillaRecord, choose) -> QubitId:
        actor, q = rec.actor, self._next_qubit
        if actor not in self.agents:  # the check of _new_qubits
            raise ValueError(f"unknown agent {actor}")
        self._next_qubit = q + 1
        self.owner[q] = actor
        self._store_factor(Tableau((q,), BASIS_XZ, 0))
        if q != rec.qubit:
            rec = AncillaRecord(rec.actor, q)
        self.transcript.append(rec)
        return q

    def _run_gate(self, rec: GateRecord, choose) -> bool:
        actor, gate, when = rec.actor, rec.gate, rec.when
        qubits = gate.qubits
        for q in qubits:
            if self.owner.get(q) != actor:
                self._require_owner(actor, qubits)
        if self._locked and not self._locked.isdisjoint(qubits):
            self._require_unlocked(qubits)
        applied = True
        if when is not None:
            known = self._known.get((actor, when))
            if known is None:
                known = self._broadcast.get(when)
                if known is None:
                    raise ConditioningError(
                        f"agent {actor} conditions on {when!r} without having "
                        "measured or received it"
                    )
            applied = known == 1
        self.setup_open = False
        if applied:
            slot = self._slot[qubits[0]]
            if len(qubits) == 2 and self._slot[qubits[1]] != slot:  # a CNOT across factors
                slot = self._merged_slot(slot, self._slot[qubits[1]])
            self._factors[slot] = self._factors[slot].apply(gate)
        if applied != rec.applied:
            rec = GateRecord(actor, gate, when, applied)
        self.transcript.append(rec)
        return applied

    def _run_measure(self, rec: MeasureRecord, choose) -> MeasureRecord:
        actor, q, label = rec.actor, rec.qubit, rec.label
        if self.owner.get(q) != actor:
            self._require_owner(actor, (q,))
        if q in self._locked:
            self._require_unlocked((q,))
        if label is None:
            label = next(f"m{k}" for k in itertools.count(1) if f"m{k}" not in self._labels)
        if label in self._labels:
            raise ValueError(f"measurement label {label!r} already used in this run")
        if choose is None:
            choose = rec.bit
            if choose is None:
                raise ValueError("no branch chooser configured for this measurement")
        factors, slot = self._factors, self._slot[q]
        bit, probability, rest = factors[slot].measure_out(q, choose)
        self.setup_open = False
        if rest.qubits:  # q leaves a factor of 2 or more qubits: the peak stays
            factors[slot] = rest
            slot = self._next_slot
            self._next_slot = slot + 1
            self._slot[q] = slot
        factors[slot] = Tableau((q,), BASIS_XZ, bit)
        self._labels.add(label)
        self._known[actor, label] = bit
        if bit != rec.bit or probability != rec.probability or label != rec.label:
            rec = MeasureRecord(actor, q, label, bit, probability)
        self.transcript.append(rec)
        return rec

    def _run_message(self, rec: ClassicalMessage, choose) -> None:
        # by name, so that whatever wraps send_classical sees replayed messages too
        self.send_classical(rec)

    def _run_discard(self, rec: DiscardRecord, choose) -> None:
        actor, q = rec.actor, rec.qubit
        if self.owner.get(q) != actor:
            self._require_owner(actor, (q,))
        if q in self._locked:
            self._require_unlocked((q,))
        slot = self._slot[q]
        f = self._factors[slot]
        if len(f.qubits) == 1:  # a qubit alone in its factor just goes
            del self._factors[slot]
        else:
            self._factors[slot] = f.discard(q)
        del self._slot[q]
        del self.owner[q]
        self.transcript.append(rec)

    def _run_drop_group(self, rec: DropGroupRecord, choose) -> None:
        if not rec.qubits:
            raise ValueError("a dropped group needs at least one qubit")
        slot = self._slot_of(rec.qubits[0])
        group = self._factors[slot].qubits
        # an untouched setup group holds its qubits in the record's sorted order
        if group != rec.qubits and frozenset(group) != frozenset(rec.qubits):
            raise ProtocolError(
                f"{sorted(rec.qubits)} is not a standalone group; its factor spans "
                f"{sorted(group)}"
            )
        del self._factors[slot]
        for q in group:
            del self._slot[q]
            del self.owner[q]
            self._locked.discard(q)
        self.transcript.append(rec)

    def _run_consume(self, rec: ConsumeRecord, choose) -> tuple[QubitId, QubitId]:
        a, b = rec.agent_a, rec.agent_b
        key = (a, b) if a < b else (b, a)
        unused = self._unclaimed.get(key)
        if not unused:
            raise ProtocolError(f"no unused EPR pair between agents {a} and {b}")
        self._unclaimed[key] = unused[1:]
        pair = self.epr_pairs[unused[0]]
        halves = pair.qubits if pair.agents[0] == a else pair.qubits[::-1]
        self._locked.difference_update(halves)
        self.transcript.append(rec)
        return halves

    def _run_lock(self, rec: LockRecord, choose) -> None:
        if rec.locked:
            self._locked.update(rec.qubits)
        else:
            self._locked.difference_update(rec.qubits)
        self.transcript.append(rec)

    def _run_zero_check(self, rec: ZeroCheckRecord, choose) -> None:
        actor, q = rec.actor, rec.qubit
        if self.owner.get(q) != actor:
            self._require_owner(actor, (q,))
        stray = self._factors[self._slot[q]].probability_of_one(q)
        if stray > 1e-10:
            raise EntanglementError(
                f"qubit {q} is not |0> after its uncopy: it was not perfectly "
                f"correlated with its partner (P[1] = {stray:.3e})"
            )
        self.transcript.append(rec)

    def _run_factor_size(self, rec: FactorSizeRecord, choose) -> None:
        actual = len(self._factors[self._slot_of(rec.qubit)].qubits)
        if actual != rec.size:
            raise ProtocolError(f"merged group spans {actual} qubits, expected {rec.size}")
        self.transcript.append(rec)

    # -- observation ------------------------------------------------------------

    def factors(self, qubits: Iterable[QubitId] | None = None) -> list[Tableau]:
        """The factors touching ``qubits`` (all if None), in stored order.
        Factors are immutable, so reading them changes nothing."""
        factors, slot = self._factors, self._slot
        if qubits is None:
            return list(factors.values())
        slots = {slot[q] if q in slot else self._slot_of(q) for q in qubits}
        return [factors[s] for s in sorted(slots)]

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
        for f in self._factors.values():
            inside = set(f.qubits) & mine
            if inside and inside != set(f.qubits):
                total += f.cut_entropy(inside)
        return total


#: The executor of each record kind, for :meth:`NetworkState.apply` and
#: :func:`prepare`; a public operation calls its executor directly.
_EXECUTORS = {
    SetupRecord: NetworkState._run_setup,
    AncillaRecord: NetworkState._run_ancilla,
    GateRecord: NetworkState._run_gate,
    MeasureRecord: NetworkState._run_measure,
    ClassicalMessage: NetworkState._run_message,
    DiscardRecord: NetworkState._run_discard,
    DropGroupRecord: NetworkState._run_drop_group,
    ConsumeRecord: NetworkState._run_consume,
    LockRecord: NetworkState._run_lock,
    ZeroCheckRecord: NetworkState._run_zero_check,
    FactorSizeRecord: NetworkState._run_factor_size,
}


def _executor(rec: Record):
    try:
        return _EXECUTORS[type(rec)]
    except KeyError:
        raise TypeError(f"unknown transcript record {rec!r}") from None


def prepare(records: Iterable[Record]) -> list[tuple[Callable, Record]]:
    """Each record with its executor, looked up once: running
    ``execute(net, rec, choose)`` for every pair does what
    ``net.apply(rec, choose)`` for every record does, so a schedule that
    runs on many branches is dispatched once."""
    return [(_executor(rec), rec) for rec in records]


# ---------------------------------------------------------------------------
# replay: ``apply`` takes each recorded bit, or a chooser's; one
# ``gates.Fork(outcomes)`` pins a branch for a whole schedule


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
    censors the given transcript indices, which must be messages of this
    transcript: any other index is refused before anything runs. Any
    later operation conditioned on a censored bit then fails with a
    conditioning violation, which is exactly the soundness check.
    """
    skip = set(skip_messages)
    if outside := skip.difference(range(len(transcript))):
        raise ValueError(f"cannot censor entries {sorted(outside)} outside range({len(transcript)})")
    net = NetworkState(n)
    for i, rec in enumerate(transcript):
        if i in skip:
            if not isinstance(rec, ClassicalMessage):
                raise ValueError(f"transcript entry {i} is not a message")
            continue
        net.apply(rec)
    return net
