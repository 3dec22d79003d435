"""The three weaving protocols and their building blocks.

Everything here drives :class:`~eprweave.locc.NetworkState` through gates,
measurements, and classical messages — never touching amplitudes directly —
so the LOCC checks apply to the protocols themselves.

Protocols succeed on *every* measurement branch. A protocol's schedule
never depends on measured bits, so each protocol body runs live once, on
one branch, and its transcript is the schedule. Every other branch, of
all of them or of those that seeded sample streams reach when exhaustive
enumeration would blow up, runs that schedule from the setup state
through :meth:`NetworkState.apply`, with every message and check. Every
branch sends the same messages, which is what makes cbit counts
branch-independent.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import EntanglementError, ProtocolError
from .locc import (
    ALL,
    MeasureRecord,
    NetworkState,
    RecordingChooser,
    SetupRecord,
)
from .statevec import CNOT, PROB_FLOOR, H, QubitId, X, Z
from .topology import AgentId, EntangledHypergraph, SpanningTree, merge_schedule

FIDELITY_TOL = 1e-10

#: Exhaustive branch walking switches to sampling beyond this many branches.
BRANCH_CAP = 2**20
FALLBACK_SAMPLES = 1024


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BranchRecord:
    """One fully resolved outcome vector of a protocol run."""

    outcomes: tuple[int, ...]
    probability: float
    fidelity: float


@dataclass(frozen=True)
class MergeRecord:
    """Size bookkeeping for one group-fusion step: the merged group must
    span pre + add - overlap qubits, and did."""

    pre_size: int
    add_size: int
    overlap: int
    merged_size: int


@dataclass
class ProtocolReport:
    protocol: str  # "I", "II" or "III"
    n: int
    cbits: int
    branches: tuple[BranchRecord, ...]
    worst_fidelity: float
    transcript: tuple  # the lowest branch's transcript: the protocol's schedule
    designated: dict[AgentId, QubitId]
    branch_mode: str = "all"
    k: int | None = None  # leaf count (Protocol II)
    step2_variant: str | None = None  # Protocol II
    epr_pairs_consumed: int | None = None  # Protocol II
    merge_log: tuple[MergeRecord, ...] | None = None  # Protocol III

    def to_dict(self) -> dict:
        """Stable, JSON-ready form (insertion order is the key order)."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "step2_variant": self.step2_variant,
            "branch_mode": self.branch_mode,
            "cbits": self.cbits,
            "epr_pairs_consumed": self.epr_pairs_consumed,
            "merge_steps": None if self.merge_log is None else len(self.merge_log),
            "worst_fidelity": self.worst_fidelity,
            "designated": {str(a): q for a, q in sorted(self.designated.items())},
            "branches": [
                {
                    "outcomes": "".join(map(str, b.outcomes)),
                    "probability": b.probability,
                    "fidelity": b.fidelity,
                }
                for b in self.branches
            ],
        }


@dataclass(frozen=True)
class CorrectionRule:
    """Who fixes what after the three-party weave.

    The three agents sit in a fixed cyclic order. Whoever shares the two
    EPR pairs starts the cycle's walk: the next agent along applies the X
    correction, the one after applies the Z correction.
    """

    cycle: tuple[AgentId, AgentId, AgentId]
    sharer: AgentId

    def __post_init__(self):
        if len(set(self.cycle)) != 3:
            raise ValueError(f"cycle {self.cycle} must name three distinct agents")
        if self.sharer not in self.cycle:
            raise ValueError(f"sharer {self.sharer} is not in the cycle")

    def _successor(self, agent: AgentId) -> AgentId:
        return self.cycle[(self.cycle.index(agent) + 1) % 3]

    @property
    def x_applier(self) -> AgentId:
        return self._successor(self.sharer)

    @property
    def z_applier(self) -> AgentId:
        return self._successor(self.x_applier)


# ---------------------------------------------------------------------------
# branch exploration


def _stream(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


class _Fork:
    """Branch chooser for one execution of a protocol's schedule.

    It follows ``prefix``; at each later measurement it takes the lowest
    outcome that is live (``streams=None``) or that a sample stream draws,
    and leaves each other outcome, with the streams that drew it, on
    ``pending`` for an execution of its own. So each outcome vector runs
    once, and each stream draws once per measurement on its path, in order.
    """

    def __init__(self, prefix: tuple[int, ...], streams: list | None, pending: list):
        self.bits, self.streams, self.pending = list(prefix), streams, pending
        self.at = 0

    def __call__(self, p0: float, p1: float) -> int:
        self.at += 1
        if self.at <= len(self.bits):
            return self.bits[self.at - 1]
        if self.streams is None:
            groups = {bit: None for bit, p in enumerate((p0, p1)) if p >= PROB_FLOOR}
        else:
            groups = {}
            for rng in self.streams:
                groups.setdefault(1 if rng.random() < p1 else 0, []).append(rng)
        bit, *others = sorted(groups)
        self.pending += [((*self.bits, other), groups[other]) for other in others]
        self.bits.append(bit)
        self.streams = groups[bit]
        return bit


def _live(net: NetworkState, branches: str | int, seed: int) -> NetworkState:
    """The copy of ``net`` a protocol body runs on, once: it takes the
    lowest live branch for ``"all"``, else the lowest that N sample streams
    reach, and leaves the other branches to :func:`_explore`."""
    work = net.copy()
    streams = None if branches == "all" else [_stream(seed, i) for i in range(branches)]
    work.chooser = _Fork((), streams, [])
    return work


def _explore(
    protocol: str,
    net: NetworkState,
    work: NetworkState,
    designated: dict[AgentId, QubitId],
    branches: str | int,
    seed: int,
    max_register: int | None = None,
    **extra,
) -> ProtocolReport:
    """Check on every branch the schedule that ``work`` ran live from
    ``net``'s setup, and report it. Each branch must end in the GHZ state
    on ``designated`` with no register over ``max_register`` qubits.

    The live run is the first branch; every other branch it left pending
    runs the schedule from the setup through :meth:`NetworkState.apply`,
    sending every message and running every check again. ``"all"`` covers
    every live outcome vector, or FALLBACK_SAMPLES streams when the
    schedule has more than BRANCH_CAP; N covers the vectors that N seeded
    streams reach, so one stream is just the live run.
    """
    schedule = work.transcript[len(net.transcript) :]
    pending, executed = work.chooser.pending, [work]
    measurements = sum(isinstance(rec, MeasureRecord) for rec in schedule)
    if branches == "all" and 2**measurements > BRANCH_CAP:
        branches = FALLBACK_SAMPLES
        pending[:] = [((), [_stream(seed, i) for i in range(branches)])]
        executed = []

    def executions() -> Iterable[NetworkState]:
        yield from executed
        while pending:
            fork = _Fork(*pending.pop(), pending)
            run = net.copy()
            for rec in schedule:
                run.apply(rec, fork)
            yield run

    records, transcript = [], None
    for leaf in executions():
        if max_register is not None and leaf.peak_factor_qubits > max_register:
            raise ProtocolError(f"working register grew to {leaf.peak_factor_qubits} qubits")
        measured = [rec for rec in leaf.transcript if isinstance(rec, MeasureRecord)]
        fidelity = verify_ghz(leaf, designated, strict=True)
        prob = math.prod((rec.probability for rec in measured), start=1.0)
        records.append(BranchRecord(tuple(rec.bit for rec in measured), prob, fidelity))
        transcript = transcript or tuple(leaf.transcript)  # the lowest branch runs first
    records.sort(key=lambda rec: rec.outcomes)
    return ProtocolReport(
        protocol=protocol,
        n=net.n,
        cbits=work.cbit_count,
        branches=tuple(records),
        worst_fidelity=min(rec.fidelity for rec in records),
        transcript=transcript,
        designated=designated,
        branch_mode="all" if branches == "all" else f"sample:{branches}",
        **extra,
    )


# ---------------------------------------------------------------------------
# verification


def verify_ghz(
    net: NetworkState,
    designated: Mapping[AgentId, QubitId],
    strict: bool = False,
) -> float:
    """Overlap of the designated qubits' state with (|0…0>+|1…1>)/sqrt(2).

    One designated qubit per agent, owned by that agent. With
    ``strict=True``, any residual entanglement between designated and
    non-designated qubits is an error; without it, the overlap of the
    (possibly mixed) reduced state is simply reported, so an untouched
    setup yields a value below 1 rather than an exception.
    """
    if set(designated) != set(net.agents):
        raise ValueError("exactly one designated qubit per agent is required")
    for agent, q in designated.items():
        if net.owner.get(q) != agent:
            raise ValueError(f"qubit {q} is not held by agent {agent}")
    chosen = set(designated.values())
    t00 = t11 = t01 = 1.0 + 0.0j
    for f in net._factors:
        inside = set(f.qubits) & chosen
        if not inside:
            continue
        if strict and inside != set(f.qubits):
            leak = f.cut_entropy(inside)
            if leak > 1e-10:
                raise EntanglementError(
                    f"designated qubits remain entangled with {sorted(set(f.qubits) - inside)}"
                    f" (cut entropy {leak:.3e})"
                )
        mask = 0
        for q in inside:
            mask |= 1 << f.position(q)
        base = np.arange(f.amps.size)
        rows0 = base[(base & mask) == 0]
        rows1 = rows0 | mask
        lo, hi = f.amps[rows0], f.amps[rows1]
        t00 *= np.sum(np.abs(lo) ** 2)
        t11 *= np.sum(np.abs(hi) ** 2)
        t01 *= np.sum(lo * np.conj(hi))
    fid = (t00.real + t11.real + 2 * t01.real) / 2
    return min(1.0, max(0.0, float(fid)))


# ---------------------------------------------------------------------------
# building blocks


def extend_ghz(net: NetworkState, actor: AgentId, anchor: QubitId) -> QubitId:
    """Grow the actor's entangled state by one fresh local qubit.

    |x…x> picks up a copy of the anchor's bit: m-partite GHZ-form in,
    (m+1)-partite GHZ-form out. Purely local, zero cbits.
    """
    fresh = net.add_ancilla(actor)
    net.local_gate(actor, CNOT(anchor, fresh))
    return fresh


def teleport(
    net: NetworkState, sender: AgentId, payload: QubitId, receiver: AgentId
) -> QubitId:
    """Teleport ``payload`` to ``receiver`` over one shared EPR pair.

    Standard circuit: CNOT payload→half, H on payload, measure both, send
    the two result bits, receiver applies X then Z conditioned on them.
    The pair is consumed, the sender's two measured qubits are discarded,
    and the receiver's half — now carrying the payload state, entanglement
    included — is returned. Costs exactly 2 cbits.
    """
    half_s, half_r = net.consume_epr(sender, receiver)
    m2, m1 = f"M2#{payload}", f"M1#{payload}"
    net.local_gate(sender, CNOT(payload, half_s))
    net.local_gate(sender, H(payload))
    net.local_measure(sender, half_s, label=m2)
    net.local_measure(sender, payload, label=m1)
    net.send_classical(sender, receiver, [m2], purpose="teleport X fix")
    net.send_classical(sender, receiver, [m1], purpose="teleport Z fix")
    net.local_gate(receiver, X(half_r), when=m2)
    net.local_gate(receiver, Z(half_r), when=m1)
    net.discard_qubit(sender, half_s)
    net.discard_qubit(sender, payload)
    return half_r


def fusion_step(
    net: NetworkState,
    f_qubits: Iterable[QubitId],
    e_qubits: Iterable[QubitId],
    junction: AgentId,
    label: str | None = None,
) -> set[QubitId]:
    """Fuse two GHZ-form groups at their common agent.

    The junction CNOTs its group-F qubit into its group-E qubit, measures
    the latter, and broadcasts the outcome (1 cbit, spent on either
    outcome); on 1, every other E-group holder flips. N-partite and
    M-partite in, (N+M-1)-partite out. Returns the surviving qubit set.
    """
    f_qubits, e_qubits = set(f_qubits), set(e_qubits)
    mine_f = [q for q in sorted(f_qubits) if net.owner.get(q) == junction]
    mine_e = [q for q in sorted(e_qubits) if net.owner.get(q) == junction]
    if len(mine_f) != 1 or len(mine_e) != 1:
        raise ProtocolError(
            f"agent {junction} must hold exactly one qubit in each group to fuse "
            f"(has {mine_f} and {mine_e})"
        )
    q_f, q_e = mine_f[0], mine_e[0]
    if label is None:
        label = f"fuse#{q_e}"
    net.local_gate(junction, CNOT(q_f, q_e))
    net.local_measure(junction, q_e, label=label)
    net.send_classical(junction, ALL, [label], purpose="fusion outcome")
    for q in sorted(e_qubits - {q_e}, key=lambda q: (net.owner[q], q)):
        net.local_gate(net.owner[q], X(q), when=label)
    net.discard_qubit(junction, q_e)
    return (f_qubits | e_qubits) - {q_e}


def disentangle_duplicate(
    net: NetworkState, actor: AgentId, keep: QubitId, drop: QubitId
) -> None:
    """Release one of two perfectly correlated qubits from a GHZ-form state.

    CNOT keep→drop peels ``drop`` off into |0>; anything else (residual
    entanglement, anti-correlation leaving it in |1>) is an error. Local
    and free: no measurement, no cbits.
    """
    net.local_gate(actor, CNOT(keep, drop))
    net.check_zero(actor, drop)
    net.discard_qubit(actor, drop)


# ---------------------------------------------------------------------------
# setup builders


def setup_epr_network(n: int, edges: Iterable[tuple[AgentId, AgentId]]) -> NetworkState:
    """Fresh network with one EPR pair per edge."""
    net = NetworkState(n)
    for a, b in edges:
        net.distribute_epr(a, b)
    return net


def setup_group_network(h: EntangledHypergraph) -> NetworkState:
    """Fresh network with one group GHZ state per hyperedge (in stored order)."""
    net = NetworkState(h.n)
    for members in h.hyperedges:
        net.distribute_ghz(members)
    return net


# ---------------------------------------------------------------------------
# Protocol I: two EPR pairs at one agent -> three-party GHZ


def _weave_ghz3(
    work: NetworkState,
    hub: AgentId,
    keep: QubitId,
    x_partner: AgentId,
    x_qubit: QubitId,
    channel: QubitId,
    z_partner: AgentId,
    z_qubit: QubitId,
) -> tuple[dict[AgentId, QubitId], dict, list[int], tuple[str, str]]:
    """The symmetric three-party circuit, from two EPR pairs at the hub.

    ``keep`` is the hub's half of the pair with the X-partner; ``channel``
    is its half of the pair with the Z-partner and gets measured away.
    Exactly 2 cbits. Both partners act: X-partner corrects with X on the
    first result bit, Z-partner with Z on the second. Returns the
    designated qubits, the circuit's roles, the transcript length at each
    of its seven stages, and the labels of its two measurements.
    """
    ancilla = work.add_ancilla(hub)
    roles = {
        "hub": hub,
        "keep": keep,
        "channel": channel,
        "ancilla": ancilla,
        "x_partner": x_partner,
        "x_qubit": x_qubit,
        "z_partner": z_partner,
        "z_qubit": z_qubit,
    }
    m2, m1 = f"M2#{channel}", f"M1#{ancilla}"
    stages: list[int] = []

    def stage() -> None:
        stages.append(len(work.transcript))

    work.local_gate(hub, CNOT(keep, ancilla))
    stage()
    work.local_gate(hub, CNOT(ancilla, channel))
    stage()
    work.local_measure(hub, channel, label=m2)
    stage()
    work.local_gate(hub, H(ancilla))
    stage()
    work.local_measure(hub, ancilla, label=m1)
    stage()
    work.local_gate(hub, X(keep), when=m2)
    work.send_classical(hub, x_partner, [m2], purpose="X correction")
    work.send_classical(hub, z_partner, [m1], purpose="Z correction")
    work.local_gate(x_partner, X(x_qubit), when=m2)
    stage()
    work.local_gate(z_partner, Z(z_qubit), when=m1)
    stage()
    return {hub: keep, x_partner: x_qubit, z_partner: z_qubit}, roles, stages, (m2, m1)


def protocol_one(
    net: NetworkState,
    rule: CorrectionRule | None = None,
    *,
    branches: str | int = "all",
    seed: int = 0,
    on_stage: Callable | None = None,
) -> ProtocolReport:
    """Three agents, two EPR pairs at one of them, out comes a GHZ state.

    The hub entangles a fresh ancilla into its kept pair, routes it into
    the second pair with a CNOT, and measures both the second pair's half
    and the ancilla. Two result bits travel (one to each partner); the
    kept qubit plus both partners' corrected qubits end in
    (|000>+|111>)/sqrt(2) on every branch.

    Once every branch has passed its checks, ``on_stage(stage, snapshot,
    roles, measured)`` fires at each of the circuit's seven stages of each
    reported branch, branches in report order: ``snapshot`` is the joint
    state of the circuit's five qubits and ``measured`` the hub's outcomes
    so far, in measurement order. A branch that several sample streams
    reach is reported, and so staged, once.
    """
    if net.n != 3:
        raise ProtocolError(f"this weave needs exactly 3 agents, got {net.n}")
    if not net.setup_open:
        raise ProtocolError("network has already been operated on")
    if len(net.epr_pairs) != 2:
        raise ProtocolError(f"need exactly 2 EPR pairs, got {len(net.epr_pairs)}")
    ends = [{p.agent_a, p.agent_b} for p in net.epr_pairs]
    common = ends[0] & ends[1]
    if len(common) != 1:
        raise ProtocolError(f"the EPR pairs {ends} do not share a single hub agent")
    hub = common.pop()
    others = sorted(set(net.agents) - {hub})
    if rule is None:
        rule = CorrectionRule(cycle=(hub, others[0], others[1]), sharer=hub)
    if set(rule.cycle) != set(net.agents):
        raise ProtocolError(f"correction cycle {rule.cycle} must name agents 1..3")
    if rule.sharer != hub:
        raise ProtocolError(
            f"correction rule names {rule.sharer} as sharer but the pairs meet at {hub}"
        )

    work = _live(net, branches, seed)
    keep, x_qubit = work.consume_epr(hub, rule.x_applier)
    channel, z_qubit = work.consume_epr(hub, rule.z_applier)
    designated, roles, stages, labels = _weave_ghz3(
        work, hub, keep, rule.x_applier, x_qubit, channel, rule.z_applier, z_qubit
    )
    report = _explore("I", net, work, designated, branches, seed)
    if report.cbits != 2:
        raise ProtocolError(f"three-party weave used {report.cbits} cbits instead of 2")
    if on_stage is not None:  # run each branch once more, stopping at each stage
        qubits = tuple(roles[r] for r in ("keep", "x_qubit", "ancilla", "channel", "z_qubit"))
        marks = {end: i for i, end in enumerate(stages, start=1)}
        for branch in report.branches:
            pin, replay = RecordingChooser(branch.outcomes), NetworkState(net.n)
            for at, rec in enumerate(report.transcript, start=1):
                replay.apply(rec, pin)
                if at in marks:
                    known = replay.knowledge[hub]
                    measured = tuple(known[label] for label in labels if label in known)
                    on_stage(marks[at], replay.joint_state(qubits), dict(roles), measured)
    return report


# ---------------------------------------------------------------------------
# Protocol II: spanning tree of EPR pairs -> n-partite GHZ


def _traversal_schedule(
    tree: SpanningTree,
    initially_entangled: Iterable[AgentId],
    order_rng: np.random.Generator | None = None,
) -> list[tuple[AgentId, AgentId]]:
    """Order of extend-and-teleport hops covering the tree.

    Default: first-come-first-served over agents, neighbors in increasing
    index. With ``order_rng``, any admissible hop (entangled vertex to
    un-entangled neighbor) may fire next — used to check the weave is
    insensitive to who processes first.
    """
    entangled = set(initially_entangled)
    hops = []
    if order_rng is None:
        queue = deque(sorted(entangled))
        while queue:
            v = queue.popleft()
            for u in tree.neighbors(v):
                if u not in entangled:
                    entangled.add(u)
                    hops.append((v, u))
                    queue.append(u)
    else:
        while True:
            frontier = [
                (v, u)
                for v in sorted(entangled)
                for u in tree.neighbors(v)
                if u not in entangled
            ]
            if not frontier:
                break
            v, u = frontier[int(order_rng.integers(len(frontier)))]
            entangled.add(u)
            hops.append((v, u))
    return hops


def protocol_two(
    net: NetworkState,
    tree: SpanningTree,
    *,
    step2: str = "symmetric",
    branches: str | int = "all",
    seed: int = 0,
    order_rng: np.random.Generator | None = None,
) -> ProtocolReport:
    """Weave an n-partite GHZ state over a spanning tree of EPR pairs.

    The start agent broadcasts one signal bit (freezing everyone's pairs),
    builds a three-party GHZ with the root leaf and one more neighbor,
    then the state ripples outward: each entangled vertex locally extends
    the state by one qubit and teleports it across a tree edge (2 cbits a
    hop). Leaves other than the root leaf broadcast one completion bit.
    Classical total: 2n+k-4 with k leaves (2n+k-5 with the fused step-2
    variant); never more than 3n-5.
    """
    if not net.setup_open:
        raise ProtocolError("network has already been operated on")
    if net.n != tree.n:
        raise ProtocolError(f"network has {net.n} agents but the tree has {tree.n}")
    pairs = sorted(tuple(sorted((p.agent_a, p.agent_b))) for p in net.epr_pairs)
    if pairs != sorted(tree.edges):
        raise ProtocolError("the network's EPR pairs do not match the tree's edges")
    if step2 not in ("symmetric", "zeilinger"):
        raise ValueError(f"unknown step-2 variant {step2!r}")

    start, root_leaf = tree.start, tree.root_leaf
    if net.n == 2:
        hops = []
    else:
        third = min(u for u in tree.neighbors(start) if u != root_leaf)
        hops = _traversal_schedule(tree, (start, root_leaf, third), order_rng)

    work = _live(net, branches, seed)
    work.send_classical(start, ALL, [1], purpose="weave start")
    work.lock_qubits(q for p in work.epr_pairs for q in (p.qubit_a, p.qubit_b))
    if work.n == 2:
        qs, qt = work.consume_epr(start, root_leaf)
        designated = {start: qs, root_leaf: qt}
    else:
        keep, x_qubit = work.consume_epr(start, root_leaf)
        channel, z_qubit = work.consume_epr(start, third)
        if step2 == "symmetric":
            designated = _weave_ghz3(
                work, start, keep, root_leaf, x_qubit, channel, third, z_qubit
            )[0]
        else:
            fusion_step(work, {keep, x_qubit}, {channel, z_qubit}, start, label="step2")
            designated = {start: keep, root_leaf: x_qubit, third: z_qubit}
        if third in tree.leaves:
            work.send_classical(third, ALL, [1], purpose="leaf done")
        for v, u in hops:
            fresh = extend_ghz(work, v, designated[v])
            designated[u] = teleport(work, v, fresh, u)
            if u in tree.leaves:
                work.send_classical(u, ALL, [1], purpose="leaf done")

    k = len(tree.leaves)
    report = _explore(
        "II",
        net,
        work,
        designated,
        branches,
        seed,
        max_register=net.n + 2,
        k=k,
        step2_variant=None if net.n == 2 else step2,
        epr_pairs_consumed=sum(p.consumed for p in work.epr_pairs),
    )
    expected = 1 if net.n == 2 else 2 * net.n + k - 4 - (step2 == "zeilinger")
    if report.cbits != expected:
        raise ProtocolError(f"weave used {report.cbits} cbits, expected {expected}")
    if report.epr_pairs_consumed != net.n - 1:
        raise ProtocolError(
            f"weave consumed {report.epr_pairs_consumed} EPR pairs, expected {net.n - 1}"
        )
    return report


# ---------------------------------------------------------------------------
# Protocol III: connected entangled hypergraph -> n-partite GHZ


def protocol_three(
    net: NetworkState,
    h: EntangledHypergraph,
    *,
    branches: str | int = "all",
    seed: int = 0,
) -> ProtocolReport:
    """Merge pre-shared group GHZ states into one n-partite GHZ state.

    Connectivity is checked (and the merge order fixed) before any quantum
    operation. Starting from the largest group, each scheduled hyperedge
    is fused in at its junction agent (1 cbit), then every other agent the
    two groups share uncopies its duplicate qubit for free. Groups whose
    members are already covered are dropped wholesale — their entanglement
    is redundant and costs nothing. Total cbits = number of fusion steps.
    """
    if not net.setup_open:
        raise ProtocolError("network has already been operated on")
    if net.n != h.n:
        raise ProtocolError(f"network has {net.n} agents but the hypergraph has {h.n}")
    groups: list[dict[AgentId, QubitId]] = []
    for rec in net.transcript:
        if isinstance(rec, SetupRecord):
            groups.append(dict(zip(rec.agents, rec.qubits)))
    if [frozenset(g) for g in groups] != list(h.hyperedges):
        raise ProtocolError("the network's group states do not match the hypergraph")
    schedule = merge_schedule(h)  # raises ConnectivityError before any quantum op

    work = _live(net, branches, seed)
    holder = dict(groups[0])
    fused_in = {0}
    merge_log = []
    for step in schedule:
        incoming = groups[step.index]
        fusion_step(
            work,
            set(holder.values()),
            set(incoming.values()),
            step.junction,
            label=f"fuse#{step.index}",
        )
        fused_in.add(step.index)
        for agent in sorted(step.overlap - {step.junction}):
            disentangle_duplicate(work, agent, holder[agent], incoming[agent])
        for agent in step.hyperedge - step.overlap:
            holder[agent] = incoming[agent]
        merged_size = step.pre_size + step.add_size - len(step.overlap)
        work.check_factor_size(holder[step.junction], merged_size)
        merge_log.append(
            MergeRecord(step.pre_size, step.add_size, len(step.overlap), merged_size)
        )
    for i, group in enumerate(groups):
        if i not in fused_in:
            work.drop_group(group.values())

    report = _explore("III", net, work, holder, branches, seed, merge_log=tuple(merge_log))
    if report.cbits != len(schedule):
        raise ProtocolError(
            f"fusion used {report.cbits} cbits for {len(schedule)} merge steps"
        )
    return report
