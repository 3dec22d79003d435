"""The three weaving protocols and their building blocks.

Everything here drives :class:`~eprweave.locc.NetworkState` through gates,
measurements, and classical messages — never touching amplitudes directly —
so the LOCC checks apply to the protocols themselves.

Protocols succeed on *every* measurement branch. A protocol's schedule
never depends on measured bits, so each protocol body runs live once, on
one branch, and its transcript is the schedule. Every other branch, of
all of them or of a seeded sample when exhaustive enumeration would blow
up, runs that schedule from the setup state through
:meth:`~eprweave.locc.NetworkState.run` under a ``Fork`` that pins its
branch, with every message and check. Every branch sends the same
messages, which is what makes cbit counts branch-independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Iterable, Mapping

from .errors import EntanglementError, ProtocolError, ResourceError
from .gates import CNOT, Fork, H, QubitId, X, Z
from .locc import ALL, ConsumeRecord, MeasureRecord, NetworkState, SetupRecord
from .stabilizer import memoized
from .topology import AgentId, EntangledHypergraph, MergeStep, SpanningTree
from .topology import bfs_edges, merge_schedule

FIDELITY_TOL = 1e-10

#: Exhaustive branch walking switches to sampling beyond this many branches.
BRANCH_CAP = 2**20
FALLBACK_SAMPLES = 1024
#: The most sampled branches a run takes: it bounds the runs and the branch
#: records kept, each with a tuple of m outcome ints (about 8*m bytes).
SAMPLE_CAP = 2**16
#: Branches after the live run replay memoized tableau transitions when the
#: live run's largest factor has at most this many qubits. The memo keeps
#: every shape the schedule passes through, k rows of 2k bits each at k
#: qubits; on wider factors it costs more memory than it saves time.
MEMO_MAX_QUBITS = 64


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BranchRecord:
    """One fully resolved outcome vector of a protocol run."""

    outcomes: tuple[int, ...]
    probability: float
    fidelity: float


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
    merge_log: tuple[MergeStep, ...] | None = None  # Protocol III: the steps fused

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


# ---------------------------------------------------------------------------
# branch exploration


def _live(net: NetworkState, branches: str | int, seed: int) -> NetworkState:
    """The copy of ``net`` a protocol body runs on, once: its
    :class:`~eprweave.gates.Fork` takes the lowest live branch for
    ``"all"``, else the first branch that ``Random(seed)`` draws. A count
    below 1, or over SAMPLE_CAP, and a negative seed are refused before
    anything is built, whether or not the run would draw."""
    if seed < 0:  # the text numpy gave when it drew the samples
        raise ValueError("expected non-negative integer")
    if branches != "all":
        if type(branches) is not int or branches < 1:
            raise ValueError(
                f"branches must be 'all' or a sample count of at least 1, got {branches!r}"
            )
        if branches > SAMPLE_CAP:
            raise ResourceError(
                f"sample:{branches} asks for {branches:,} sampled branches, "
                f"over the limit of {SAMPLE_CAP:,}"
            )
    work = net.copy()
    work.chooser = Fork() if branches == "all" else Fork(rng=Random(seed))
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

    Every protocol measurement is a fair coin, and whether one is random
    depends on the tableau's shape alone, so the live run's m measurements
    fix the branches: all 2^m outcome vectors for ``"all"``, and for N the
    first N that ``Random(seed)`` draws, each m draws of ``random() <
    0.5``: the live run drew the first on its generator, which goes on.
    Above BRANCH_CAP, ``"all"`` takes ``sample:FALLBACK_SAMPLES``'s, from
    a fresh ``Random(seed)``. They run in increasing order: the live vector
    is ``work``, and every other runs the schedule from a copy of the setup
    whose chooser is ``Fork(vector)``, through
    :meth:`~eprweave.locc.NetworkState.run`, with every message and
    check. Those runs differ only in their tableaux's signs, so while they
    run the setup factors are armed (:func:`~eprweave.stabilizer.memoized`)
    if the live run's largest factor has at most MEMO_MAX_QUBITS qubits.
    """
    start = len(net.transcript)
    schedule = work.transcript[start:]
    # every executor appends one record, so each branch measures at these positions
    measured_at = [start + i for i, rec in enumerate(schedule) if isinstance(rec, MeasureRecord)]
    m, live = len(measured_at), tuple(work.transcript[i].bit for i in measured_at)
    if branches == "all" and 2**m <= BRANCH_CAP:
        vectors, others = itertools.product((0, 1), repeat=m), m > 0
    else:
        # sample:N goes on from the live run's generator, the fallback from a fresh one
        drawn, rng = (set(), Random(seed)) if branches == "all" else ({live}, work.chooser.rng)
        branches = FALLBACK_SAMPLES if branches == "all" else branches
        for _ in range(len(drawn), branches):
            drawn.add(tuple(1 if rng.random() < 0.5 else 0 for _ in range(m)))
        vectors, others = sorted(drawn), drawn != {live}

    records, transcript = [], None
    armed = net.factors() if others and work.peak_factor_qubits <= MEMO_MAX_QUBITS else ()
    with memoized(armed):
        for vector in vectors:
            if vector == live:
                leaf = work
            else:
                leaf = net.copy()
                leaf.chooser = Fork(vector)
                leaf.run(schedule)
            if max_register is not None and leaf.peak_factor_qubits > max_register:
                raise ProtocolError(f"working register grew to {leaf.peak_factor_qubits} qubits")
            done = leaf.transcript
            fidelity = verify_ghz(leaf, designated, strict=True)
            prob = math.prod((done[i].probability for i in measured_at), start=1.0)
            records.append(BranchRecord(vector, prob, fidelity))
            transcript = transcript or tuple(done)  # the lowest branch runs first
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
    agents = net.agents
    if len(designated) != len(agents) or not all(map(agents.__contains__, designated)):
        raise ValueError("exactly one designated qubit per agent is required")
    owner = net.owner
    for agent, q in designated.items():
        if owner.get(q) != agent:
            raise ValueError(f"qubit {q} is not held by agent {agent}")
    chosen = frozenset(designated.values())
    t00 = t11 = t01 = 1.0 + 0.0j
    for f in net.factors(chosen):
        inside = chosen.intersection(f.qubits)  # a frozenset, as the queries take it
        if strict and len(inside) != len(f.qubits):
            leak = f.cut_entropy(inside)
            if leak > 1e-10:
                raise EntanglementError(
                    f"designated qubits remain entangled with {sorted(set(f.qubits) - inside)}"
                    f" (cut entropy {leak:.3e})"
                )
        w00, w11, w01 = f.ghz_terms(inside)
        t00 *= w00
        t11 *= w11
        t01 *= w01
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
    f_group: Mapping[AgentId, QubitId],
    e_group: Mapping[AgentId, QubitId],
    junction: AgentId,
    label: str | None = None,
) -> None:
    """Fuse two GHZ-form groups at their common agent.

    Each group maps its holders to their qubits. The junction CNOTs its
    group-F qubit into its group-E qubit, measures the latter, and
    broadcasts the outcome (1 cbit, spent on either outcome); on 1, every
    other E-group holder flips, in agent order. N-partite and M-partite
    in, (N+M-1)-partite out: F's qubits and E's other qubits. Only the
    E group is walked, so the step's cost does not grow with F.
    """
    q_f, q_e = f_group.get(junction), e_group.get(junction)
    if q_f is None or q_e is None:
        raise ProtocolError(
            f"agent {junction} must hold exactly one qubit in each group to fuse "
            f"(has {[] if q_f is None else [q_f]} and {[] if q_e is None else [q_e]})"
        )
    if label is None:
        label = f"fuse#{q_e}"
    net.local_gate(junction, CNOT(q_f, q_e))
    net.local_measure(junction, q_e, label=label)
    net.send_classical(junction, ALL, [label], purpose="fusion outcome")
    for agent, q in sorted(e_group.items()):
        if agent != junction:
            net.local_gate(agent, X(q), when=label)
    net.discard_qubit(junction, q_e)


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
) -> dict[AgentId, QubitId]:
    """The symmetric three-party circuit, from two EPR pairs at the hub.

    ``keep`` is the hub's half of the pair with the X-partner; ``channel``
    is its half of the pair with the Z-partner and gets measured away.
    Exactly 2 cbits. Both partners act: X-partner corrects with X on the
    first result bit, Z-partner with Z on the second. Returns the
    designated qubits.
    """
    ancilla = work.add_ancilla(hub)
    m2, m1 = f"M2#{channel}", f"M1#{ancilla}"
    work.local_gate(hub, CNOT(keep, ancilla))
    work.local_gate(hub, CNOT(ancilla, channel))
    work.local_measure(hub, channel, label=m2)
    work.local_gate(hub, H(ancilla))
    work.local_measure(hub, ancilla, label=m1)
    work.local_gate(hub, X(keep), when=m2)
    work.send_classical(hub, x_partner, [m2], purpose="X correction")
    work.send_classical(hub, z_partner, [m1], purpose="Z correction")
    work.local_gate(x_partner, X(x_qubit), when=m2)
    work.local_gate(z_partner, Z(z_qubit), when=m1)
    return {hub: keep, x_partner: x_qubit, z_partner: z_qubit}


def protocol_one(
    net: NetworkState, *, branches: str | int = "all", seed: int = 0
) -> ProtocolReport:
    """Three agents, two EPR pairs at one of them, out comes a GHZ state.

    The roles are read off the network's pairs, which must form a tree on
    the three agents (:meth:`~eprweave.topology.SpanningTree.from_edges`,
    before any quantum operation): its start agent is the hub, and of the
    two leaves the lower (the root leaf) applies the X correction and the
    other the Z correction. The hub entangles a fresh ancilla into its
    pair with the root leaf, routes it into the second pair with a CNOT,
    and measures both the second pair's half and the ancilla. Two result
    bits travel (one to each partner); the kept qubit plus both partners'
    corrected qubits end in (|000>+|111>)/sqrt(2) on every branch.
    """
    if net.n != 3:
        raise ProtocolError(f"this weave needs exactly 3 agents, got {net.n}")
    if not net.setup_open:
        raise ProtocolError("network has already been operated on")
    tree = SpanningTree.from_edges(3, [p.agents for p in net.epr_pairs])
    hub, x_partner = tree.start, tree.root_leaf
    (z_partner,) = tree.leaves - {x_partner}

    work = _live(net, branches, seed)
    keep, x_qubit = work.consume_epr(hub, x_partner)
    channel, z_qubit = work.consume_epr(hub, z_partner)
    designated = _weave_ghz3(work, hub, keep, x_partner, x_qubit, channel, z_partner, z_qubit)
    report = _explore("I", net, work, designated, branches, seed)
    if report.cbits != 2:
        raise ProtocolError(f"three-party weave used {report.cbits} cbits instead of 2")
    return report


# ---------------------------------------------------------------------------
# Protocol II: spanning tree of EPR pairs -> n-partite GHZ


def protocol_two(
    net: NetworkState,
    *,
    step2: str = "symmetric",
    branches: str | int = "all",
    seed: int = 0,
) -> ProtocolReport:
    """Weave an n-partite GHZ state over the network's tree of EPR pairs.

    The tree is read off the network's pairs, which must join all n agents
    with n-1 pairs: :meth:`~eprweave.topology.SpanningTree.from_edges`
    refuses any other set (a disconnected one with a
    :class:`~eprweave.errors.ConnectivityError`) before any quantum operation.
    The start agent broadcasts one signal bit (freezing everyone's pairs),
    builds a three-party GHZ with the root leaf and one more neighbor,
    then the state ripples outward in breadth-first order: each entangled
    vertex locally extends the state by one qubit and teleports it across
    a tree edge (2 cbits a hop). Leaves other than the root leaf broadcast
    one completion bit. Classical total: 2n+k-4 with k leaves (2n+k-5 with
    the fused step-2 variant); never more than 3n-5.
    """
    if not net.setup_open:
        raise ProtocolError("network has already been operated on")
    tree = SpanningTree.from_edges(net.n, [p.agents for p in net.epr_pairs])
    if step2 not in ("symmetric", "zeilinger"):
        raise ValueError(f"unknown step-2 variant {step2!r}")

    start, root_leaf = tree.start, tree.root_leaf
    if net.n == 2:
        hops = []
    else:
        third = min(u for u in tree.neighbors(start) if u != root_leaf)
        hops = bfs_edges((start, root_leaf, third), tree.neighbors)

    work = _live(net, branches, seed)
    work.send_classical(start, ALL, [1], purpose="weave start")
    work.lock_qubits(q for p in work.epr_pairs for q in p.qubits)
    if work.n == 2:
        qs, qt = work.consume_epr(start, root_leaf)
        designated = {start: qs, root_leaf: qt}
    else:
        keep, x_qubit = work.consume_epr(start, root_leaf)
        channel, z_qubit = work.consume_epr(start, third)
        if step2 == "symmetric":
            designated = _weave_ghz3(
                work, start, keep, root_leaf, x_qubit, channel, third, z_qubit
            )
        else:
            fusion_step(
                work, {start: keep, root_leaf: x_qubit}, {start: channel, third: z_qubit},
                start, label="step2",
            )
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
        "II", net, work, designated, branches, seed, max_register=net.n + 2, k=k,
        step2_variant=None if net.n == 2 else step2,
        epr_pairs_consumed=sum(isinstance(rec, ConsumeRecord) for rec in work.transcript),
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
    *,
    branches: str | int = "all",
    seed: int = 0,
) -> ProtocolReport:
    """Merge the network's pre-shared group states into one n-partite GHZ state.

    The hypergraph is read off the network's group states, EPR pairs
    counting as 2-agent groups. Connectivity is checked (and the merge
    order fixed) by :func:`~eprweave.topology.merge_schedule` before any
    quantum operation. Starting from the largest group, each scheduled
    hyperedge is fused in at its junction agent (1 cbit), then every other
    agent the two groups share uncopies its duplicate qubit for free.
    Groups whose members are already covered are dropped wholesale — their
    entanglement is redundant and costs nothing. Total cbits = number of
    fusion steps.
    """
    if not net.setup_open:
        raise ProtocolError("network has already been operated on")
    # largest first, ties in setup order: EntangledHypergraph stores its
    # hyperedges in this order too, so groups[i] is hyperedge i
    groups = sorted(
        (dict(zip(r.agents, r.qubits)) for r in net.transcript if isinstance(r, SetupRecord)),
        key=len,
        reverse=True,
    )
    # distribute_ghz and distribute_epr checked every group as check_group
    # does; merge_schedule raises ConnectivityError before any quantum op
    schedule = merge_schedule(EntangledHypergraph.from_checked(net.n, map(frozenset, groups)))

    work = _live(net, branches, seed)
    holder = dict(groups[0])
    fused_in = {0}
    for step in schedule:
        incoming = groups[step.index]
        fusion_step(work, holder, incoming, step.junction, label=f"fuse#{step.index}")
        fused_in.add(step.index)
        for agent in sorted(step.overlap - {step.junction}):
            disentangle_duplicate(work, agent, holder[agent], incoming[agent])
        for agent in step.hyperedge - step.overlap:
            holder[agent] = incoming[agent]
        merged_size = step.pre_size + step.add_size - len(step.overlap)
        work.check_factor_size(holder[step.junction], merged_size)
    for i, group in enumerate(groups):
        if i not in fused_in:
            work.drop_group(group.values())

    report = _explore("III", net, work, holder, branches, seed, merge_log=tuple(schedule))
    if report.cbits != len(schedule):
        raise ProtocolError(f"fusion used {report.cbits} cbits for {len(schedule)} merge steps")
    return report
