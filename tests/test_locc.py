"""Tests for the distributed-network model: ownership, knowledge, cbits.

The replay and monotone checks here are the unit-scale versions of the
acceptance properties; a hand-rolled teleportation circuit doubles as an
independent oracle for the protocol layer built on top of this module.
"""

import dataclasses
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprweave.errors import (
    ConditioningError,
    EntanglementError,
    LoccViolationError,
    ProtocolError,
    SetupClosedError,
)
from eprweave import locc
from eprweave.gates import Fork
from eprweave.locc import (
    ALL,
    AncillaRecord,
    ClassicalMessage,
    ConsumeRecord,
    DiscardRecord,
    DropGroupRecord,
    FactorSizeRecord,
    GateRecord,
    MeasureRecord,
    NetworkState,
    SetupRecord,
    ZeroCheckRecord,
    replay_transcript,
)
from eprweave.protocols import disentangle_duplicate, protocol_two, setup_epr_network
from eprweave.stabilizer import Tableau
from eprweave.topology import SpanningTree
from eprweave.statevec import CNOT, H, X, Z, StateVector, bell_pair, ghz_state

from dense_oracle import run_dense
from tableau_view import dense_view


def hub_setup(chooser=None):
    """Agent 1 shares one EPR pair with each of agents 2 and 3; the
    network measures under ``chooser``."""
    net = NetworkState(3, chooser)
    a1, b = net.distribute_epr(1, 2)
    a2, c = net.distribute_epr(1, 3)
    return net, a1, a2, b, c


# ---------------------------------------------------------------------------
# setup phase


def test_epr_distribution_creates_a_shared_bell_pair():
    net = NetworkState(2)
    qa, qb = net.distribute_epr(1, 2)
    assert net.owner == {qa: 1, qb: 2}
    assert dense_view(net).fidelity(bell_pair(qa, qb)) == pytest.approx(1.0)
    assert net.audit_cut({1}) == pytest.approx(1.0, abs=1e-10)
    assert net.cbit_count == 0


def test_hub_setup_ownership():
    net, a1, a2, b, c = hub_setup()
    assert net.qubits_of(1) == [a1, a2]
    assert net.qubits_of(2) == [b]
    assert net.audit_cut({2}) == pytest.approx(1.0, abs=1e-10)
    assert net.audit_cut({2, 3}) == pytest.approx(2.0, abs=1e-10)


def test_self_epr_pair_rejected():
    with pytest.raises(ValueError):
        NetworkState(2).distribute_epr(1, 1)


def test_setup_closes_at_first_protocol_step():
    net, a1, a2, b, c = hub_setup()
    net.local_gate(1, X(a1))
    with pytest.raises(SetupClosedError):
        net.distribute_epr(1, 2)
    with pytest.raises(SetupClosedError):
        net.distribute_ghz({1, 2, 3})


# a refused first operation, on a network that forces every measurement's
# bit to 2 -> its error's class and message
REFUSED_FIRST_STEPS = {
    "forced bit 2": (
        lambda net, q: net.local_measure(1, q),
        ValueError, "forced bit must be 0 or 1, got 2",
    ),
    "cross-agent gate": (
        lambda net, q: net.local_gate(1, CNOT(q, q + 1)),
        LoccViolationError, "agent 1 touched qubit 2, which belongs to agent 2",
    ),
    "message to oneself": (
        lambda net, q: net.send_classical(1, 1, [1]),
        ValueError, "sending a message to oneself is not communication",
    ),
    "unknown label": (
        lambda net, q: net.send_classical(1, 2, ["nope"]),
        ConditioningError, "agent 1 sends 'nope' without having measured or received it",
    ),
}


@pytest.mark.parametrize("step", sorted(REFUSED_FIRST_STEPS))
def test_a_refused_operation_leaves_setup_open(step):
    call, error, message = REFUSED_FIRST_STEPS[step]
    net = NetworkState(3, chooser=2)
    qa, _ = net.distribute_epr(1, 2)
    with pytest.raises(error) as caught:
        call(net, qa)
    assert str(caught.value) == message
    assert net.setup_open and net.cbit_count == 0
    net.distribute_epr(2, 3)
    assert len(net.epr_pairs) == 2


def test_group_distribution_is_a_ghz_state():
    net = NetworkState(3)
    held = net.distribute_ghz({1, 2, 3})
    assert sorted(held) == [1, 2, 3]
    for agent in (1, 2, 3):
        assert net.audit_cut({agent}) == pytest.approx(1.0, abs=1e-10)
    assert dense_view(net).fidelity(ghz_state(tuple(held.values()))) == pytest.approx(1.0)


def test_two_member_group_equals_epr_pair():
    net = NetworkState(2)
    held = net.distribute_ghz({1, 2})
    assert dense_view(net).fidelity(bell_pair(held[1], held[2])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        net.distribute_ghz({1})


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda net: net.distribute_epr(1, 9), "unknown agent 9"),
        (lambda net: net.distribute_epr(9, 1), "unknown agent 9"),
        (lambda net: net.distribute_ghz((1, 2, 9)), "unknown agent 9"),
        (lambda net: net.distribute_ghz((1, 1, 2)), "repeated agent in hyperedge"),
        (lambda net: net.add_ancilla(9), "unknown agent 9"),
        (lambda net: net.add_ancilla(0), "unknown agent 0"),
        (lambda net: net.add_ancilla(4), "unknown agent 4"),
        (lambda net: net.add_ancilla(1.5), "unknown agent 1.5"),
        (lambda net: net.add_ancilla("x"), "unknown agent x"),
        # 1.0 and True are in range(1, 4), but agents are ints
        (lambda net: net.distribute_epr(1.0, 2), "unknown agent 1.0"),
        (lambda net: net.distribute_epr(2, True), "unknown agent True"),
        (lambda net: net.distribute_ghz((True, 3)), "unknown agent True"),
        (lambda net: net.add_ancilla(1.0), "unknown agent 1.0"),
    ],
    ids=[
        "epr-second", "epr-first", "ghz", "ghz-repeated", "ancilla", "ancilla-0", "ancilla-n+1",
        "ancilla-float", "ancilla-str", "epr-whole-float", "epr-bool", "ghz-bool",
        "ancilla-whole-float",
    ],
)
def test_refused_setup_call_allocates_nothing(refused, message):
    def network():
        net = NetworkState(3)
        net.distribute_epr(1, 3)
        return net

    net, fresh = network(), network()
    owner, transcript = dict(net.owner), list(net.transcript)
    with pytest.raises(ValueError, match=message):
        refused(net)
    assert net.owner == owner
    assert net.transcript == transcript
    qa, qb = net.distribute_epr(1, 2)
    assert (qa, qb) == fresh.distribute_epr(1, 2)
    net.local_gate(1, H(qa))
    net.local_gate(2, X(qb))
    assert replay_transcript(3, net.transcript).transcript == net.transcript


def test_an_ancilla_agent_is_checked_as_a_member_of_1_to_n():
    net = NetworkState(3)
    with pytest.raises(ValueError, match=r"^unknown agent True$"):
        net.add_ancilla(True)  # True == 1, so range(1, 4) alone would hold it
    q = net.add_ancilla(1)
    assert q == 1 and net.owner == {1: 1} and net.factor_qubits(q) == (q,)


def test_dropping_an_empty_group_is_a_value_error():
    net = NetworkState(2)
    net.distribute_epr(1, 2)
    with pytest.raises(ValueError, match="at least one qubit"):
        net.drop_group(())


def test_automatic_measurement_label_skips_labels_in_use():
    net = NetworkState(1, Fork())
    a, b, c = (net.add_ancilla(1) for _ in range(3))
    net.local_measure(1, a, label="m2")
    net.local_measure(1, b)
    net.local_measure(1, c)
    labels = [rec.label for rec in net.transcript if isinstance(rec, MeasureRecord)]
    assert labels == ["m2", "m1", "m3"]
    assert net.knowledge[1] == {"m1": 0, "m2": 0, "m3": 0}


# ---------------------------------------------------------------------------
# locality enforcement


def test_gate_on_foreign_qubit_is_a_locc_violation():
    net, a1, a2, b, c = hub_setup()
    with pytest.raises(LoccViolationError):
        net.local_gate(1, CNOT(a1, b))
    with pytest.raises(LoccViolationError):
        net.local_gate(2, X(c))


def test_local_two_qubit_gate_merges_factors():
    net, a1, a2, b, c = hub_setup()
    assert set(net.factor_qubits(a1)) == {a1, b}
    net.local_gate(1, CNOT(a1, a2))  # both owned by agent 1: legal
    assert set(net.factor_qubits(a1)) == {a1, a2, b, c}
    assert net.peak_factor_qubits == 4


def test_measurement_requires_ownership():
    net, a1, a2, b, c = hub_setup(0)
    with pytest.raises(LoccViolationError):
        net.local_measure(2, a1)


def test_measurement_outcome_is_private_until_sent():
    net, a1, a2, b, c = hub_setup(1)
    net.local_measure(1, a2, label="flip")
    assert net.knowledge[1] == {"flip": 1}
    assert net.knowledge[2] == {}
    with pytest.raises(ConditioningError):
        net.local_gate(2, X(b), when="flip")
    net.send_classical(1, 2, ["flip"])
    assert net.knowledge[2] == {"flip": 1}
    assert net.local_gate(2, X(b), when="flip") is True


def test_conditioned_gate_skips_on_zero_bit():
    net, a1, a2, b, c = hub_setup(0)
    net.local_measure(1, a2, label="flip")
    before = dense_view(net, (a1,))
    assert net.local_gate(1, X(a1), when="flip") is False
    assert dense_view(net, (a1,)).fidelity(before) == pytest.approx(1.0)


def test_measurement_labels_are_single_use():
    net, a1, a2, b, c = hub_setup(0)
    net.local_measure(1, a1, label="m")
    with pytest.raises(ValueError):
        net.local_measure(1, a2, label="m")


def test_measured_qubit_splits_into_its_own_factor():
    net, a1, a2, b, c = hub_setup(1)
    net.local_measure(1, a1)
    assert net.factor_qubits(a1) == (a1,)
    assert net.factor_qubits(b) == (b,)  # partner collapsed too
    assert dense_view(net, (b,)).probability_of_one(b) == pytest.approx(1.0)


def test_local_measure_slices_the_qubit_out_without_discard(monkeypatch):
    discards = []
    original = Tableau.discard

    def counting(self, q):
        discards.append(q)
        return original(self, q)

    monkeypatch.setattr(Tableau, "discard", counting)
    net = NetworkState(3, chooser=1)
    held = net.distribute_ghz([1, 2, 3])
    a, b = net.distribute_epr(1, 2)
    net.local_gate(1, CNOT(held[1], a))  # one five-qubit factor
    net.local_measure(1, a)
    assert discards == []
    ghz4 = (held[1], held[2], held[3], b)
    assert net.factor_qubits(b) == ghz4
    assert net.factor_qubits(a) == (a,)
    assert dense_view(net, (b,)).fidelity(ghz_state(ghz4).apply(X(b))) == pytest.approx(
        1.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# classical messages and cbit accounting


def test_message_costs_its_bit_length_once():
    net, a1, a2, b, c = hub_setup(0)
    net.local_measure(1, a1, label="r")
    net.send_classical(1, 2, ["r"])
    assert net.cbit_count == 1
    net.send_classical(1, ALL, [1], purpose="go")
    assert net.cbit_count == 2  # broadcast still costs one
    net.send_classical(1, 3, ["r", 0])
    assert net.cbit_count == 4
    assert net.cbit_count == sum(
        len(m.bits) for m in net.transcript if isinstance(m, ClassicalMessage)
    )


def test_broadcast_reaches_everyone_else():
    net, a1, a2, b, c = hub_setup(1)
    net.local_measure(1, a1, label="r")
    net.send_classical(1, ALL, ["r"])
    assert net.knowledge[2] == {"r": 1}
    assert net.knowledge[3] == {"r": 1}


def test_message_validation():
    net, a1, a2, b, c = hub_setup()
    with pytest.raises(ValueError):
        net.send_classical(1, 2, [])
    with pytest.raises(ValueError):
        net.send_classical(1, 1, [1])
    with pytest.raises(ValueError):
        net.send_classical(1, 9, [1])
    with pytest.raises(ConditioningError):
        net.send_classical(2, 3, ["never-measured"])


def test_forwarding_a_received_bit_is_legal():
    net, a1, a2, b, c = hub_setup(0)
    net.local_measure(1, a1, label="r")
    net.send_classical(1, 2, ["r"])
    net.send_classical(2, 3, ["r"])  # B may relay what B knows
    assert net.knowledge[3] == {"r": 0}
    assert net.cbit_count == 2


# ---------------------------------------------------------------------------
# locks and EPR consumption


def test_locked_qubits_reject_operations():
    net, a1, a2, b, c = hub_setup(0)
    net.lock_qubits([b])
    with pytest.raises(ProtocolError):
        net.local_gate(2, X(b))
    with pytest.raises(ProtocolError):
        net.local_measure(2, b)
    with pytest.raises(ProtocolError, match="locked"):  # not the entangled-discard refusal
        net.discard_qubit(2, b)
    fresh = net.add_ancilla(1)
    net.lock_qubits([fresh])
    with pytest.raises(ProtocolError, match="locked"):
        net.discard_qubit(1, fresh)
    with pytest.raises(ProtocolError, match="locked"):  # the refused discard kept the lock
        net.local_gate(1, X(fresh))


def test_epr_pairs_are_consumed_once():
    net, a1, a2, b, c = hub_setup()
    net.lock_qubits([a1, b])
    assert net.consume_epr(2, 1) == (b, a1)  # oriented: first agent's half first
    net.local_gate(2, X(b))  # consumption unlocked the halves
    with pytest.raises(ProtocolError):
        net.consume_epr(1, 2)
    with pytest.raises(ProtocolError):
        net.consume_epr(2, 3)


# ---------------------------------------------------------------------------
# discards


def test_discard_measured_qubit():
    net, a1, a2, b, c = hub_setup(0)
    net.local_measure(1, a1)
    net.discard_qubit(1, a1)
    assert a1 not in net.owner
    with pytest.raises(ValueError):
        net.local_gate(1, X(a1))


def test_discard_entangled_qubit_fails():
    net, a1, a2, b, c = hub_setup()
    with pytest.raises(EntanglementError):
        net.discard_qubit(1, a1)
    with pytest.raises(EntanglementError):  # the dense oracle refuses it too
        run_dense(net.transcript + [DiscardRecord(1, a1)], ())


def test_drop_group_requires_exact_factor():
    net = NetworkState(4)
    held_a = net.distribute_ghz({1, 2})
    held_b = net.distribute_ghz({3, 4})
    with pytest.raises(ProtocolError):
        net.drop_group([held_a[1]])
    with pytest.raises(ProtocolError):  # the dense oracle refuses it too
        run_dense(net.transcript + [DropGroupRecord((held_a[1],))], ())
    net.drop_group(held_b.values())
    assert net.qubits_of(3) == []
    assert set(net.owner.values()) == {1, 2}


def test_a_dropped_group_is_matched_as_a_set_of_qubits():
    net = NetworkState(4)
    held = net.distribute_ghz({1, 2, 3})
    mixed = net.distribute_ghz({2, 4})
    net.local_gate(2, CNOT(held[2], mixed[2]))  # one factor over both groups
    qubits = sorted(held.values())
    with pytest.raises(ProtocolError, match="not a standalone group"):
        net.run([DropGroupRecord(tuple(qubits))])  # now part of a five-qubit factor
    twin = NetworkState(4)
    group = sorted(twin.distribute_ghz({1, 2, 3}).values())
    twin.run([DropGroupRecord(tuple(reversed(group)))])  # a record out of qubit order
    assert twin.factors() == [] and twin.owner == {}


# ---------------------------------------------------------------------------
# audits


def test_audit_cut_rejects_trivial_partitions():
    net, *_ = hub_setup()
    with pytest.raises(ValueError):
        net.audit_cut(set())
    with pytest.raises(ValueError):
        net.audit_cut({1, 2, 3})
    with pytest.raises(ValueError):
        net.audit_cut({7})


def test_disconnected_setup_has_zero_cross_entropy():
    net = NetworkState(4)
    net.distribute_epr(1, 2)
    net.distribute_epr(3, 4)
    assert net.audit_cut({1, 2}) == pytest.approx(0.0, abs=1e-10)
    assert net.audit_cut({1}) == pytest.approx(1.0, abs=1e-10)
    assert net.audit_cut({1, 3}) == pytest.approx(2.0, abs=1e-10)


def test_local_operations_cannot_entangle_a_zero_cut():
    rng = np.random.default_rng(11)
    net = NetworkState(4, chooser=Fork(rng=rng))
    q1, q2 = net.distribute_epr(1, 2)
    q3, q4 = net.distribute_epr(3, 4)
    x1 = net.add_ancilla(1)
    net.local_gate(1, CNOT(q1, x1))
    net.local_gate(1, H(x1))
    net.local_measure(1, x1, label="s")
    net.send_classical(1, 3, ["s"])
    net.local_gate(3, X(q3), when="s")
    net.local_gate(3, Z(q3), when="s")
    net.local_measure(3, q3, label="t")
    net.send_classical(3, ALL, ["t"])
    net.local_gate(2, X(q2), when="t")
    assert net.audit_cut({1, 2}) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# hand-rolled teleportation: algebra oracle for the protocol layer


def manual_teleport(prefix, prep=()):
    """Teleport a 1-qubit state from agent 1 to agent 2, forcing the two
    measurement outcomes from `prefix`. The payload is the ancilla |0>
    after the `prep` gate constructors; the dense oracle can start that
    ancilla in any other state instead."""
    chooser = Fork(prefix)
    net = NetworkState(2, chooser)
    half_a, half_b = net.distribute_epr(1, 2)
    payload = net.add_ancilla(1)
    for make_gate in prep:
        net.local_gate(1, make_gate(payload))
    net.local_gate(1, CNOT(payload, half_a))
    net.local_gate(1, H(payload))
    net.local_measure(1, half_a, label="m2")
    net.local_measure(1, payload, label="m1")
    net.send_classical(1, 2, ["m2"])
    net.send_classical(1, 2, ["m1"])
    net.local_gate(2, X(half_b), when="m2")
    net.local_gate(2, Z(half_b), when="m1")
    return net, half_b


@pytest.mark.parametrize("prefix", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_manual_teleport_is_an_identity_channel(prefix):
    amps = np.array([0.6, 0.8j])
    net, carrier = manual_teleport(prefix)
    (payload,) = [rec.qubit for rec in net.transcript if isinstance(rec, AncillaRecord)]
    dense = run_dense(net.transcript, prefix, inputs={payload: amps})
    target = StateVector((carrier,), amps)
    assert dense.state((carrier,)).fidelity(target) == pytest.approx(1.0, abs=1e-10)
    assert net.cbit_count == 2


# ---------------------------------------------------------------------------
# transcript replay


def test_replay_reproduces_the_transcript_exactly():
    net, carrier = manual_teleport((1, 0), prep=(H, Z))  # payload |->
    twin = replay_transcript(net.n, net.transcript)
    assert twin.transcript == net.transcript
    assert twin.cbit_count == net.cbit_count
    assert twin.knowledge == net.knowledge
    assert dense_view(twin, (carrier,)).fidelity(dense_view(net, (carrier,))) == pytest.approx(1.0)


def test_replay_without_trigger_message_raises_conditioning_error():
    net, _ = manual_teleport((1, 1), prep=(H,))
    msg_index = next(
        i
        for i, rec in enumerate(net.transcript)
        if isinstance(rec, ClassicalMessage) and rec.labels == ("m2",)
    )
    with pytest.raises(ConditioningError):
        replay_transcript(net.n, net.transcript, skip_messages=[msg_index])


def claims_per_pair(net: NetworkState) -> list[int]:
    """For each setup EPR pair, in order, how many ``ConsumeRecord``s of the
    transcript name its two agents."""
    claims = [
        {rec.agent_a, rec.agent_b} for rec in net.transcript if isinstance(rec, ConsumeRecord)
    ]
    return [claims.count(set(pair.agents)) for pair in net.epr_pairs]


def test_replay_of_a_weave_consumes_its_pairs_and_keeps_its_locks():
    tree = SpanningTree.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    report = protocol_two(setup_epr_network(4, tree.edges))
    twin = replay_transcript(4, report.transcript)
    assert claims_per_pair(twin) == [1, 1, 1]
    for pair in twin.epr_pairs:  # no pair can be claimed twice
        with pytest.raises(ProtocolError, match="no unused EPR pair"):
            twin.consume_epr(*pair.agents)
    assert twin.transcript == list(report.transcript)

    # stopped after the first claim, the other pairs' halves stay locked
    live = setup_epr_network(4, tree.edges)
    live.send_classical(1, ALL, [1], purpose="weave start")
    live.lock_qubits(q for p in live.epr_pairs for q in p.qubits)
    live.consume_epr(1, 2)
    twin = replay_transcript(4, live.transcript)
    assert claims_per_pair(twin) == [1, 0, 0]
    with pytest.raises(ProtocolError, match="no unused EPR pair"):
        twin.consume_epr(1, 2)
    assert twin._locked == live._locked == {3, 4, 5, 6}
    with pytest.raises(ProtocolError, match="locked"):
        twin.local_gate(2, X(3))
    twin.local_gate(2, X(2))


def test_replay_reruns_the_release_check_on_a_changed_branch():
    net = NetworkState(1, chooser=Fork())  # takes outcome 0
    keep, drop = net.add_ancilla(1), net.add_ancilla(1)
    net.local_gate(1, H(drop))
    net.local_measure(1, drop, label="b")
    disentangle_duplicate(net, 1, keep, drop)  # drop is |0> on this branch
    assert replay_transcript(1, net.transcript).transcript == net.transcript
    flipped = [
        dataclasses.replace(rec, bit=1) if isinstance(rec, MeasureRecord) else rec
        for rec in net.transcript
    ]
    with pytest.raises(EntanglementError, match="not perfectly correlated"):
        replay_transcript(1, flipped)
    run_dense(net.transcript, (0,))
    with pytest.raises(EntanglementError, match=r"is not \|0>"):
        run_dense(net.transcript, (1,))


def test_replay_reuses_exactly_the_records_it_reproduces():
    tree = SpanningTree.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    report = protocol_two(setup_epr_network(5, tree.edges))
    setup = sum(isinstance(rec, SetupRecord) for rec in report.transcript)
    # the recorded bits; the live run's own branch (all 0); another branch
    for choose in (None, 0, 1):
        twin = setup_epr_network(5, tree.edges)
        twin.chooser = choose
        twin.run(report.transcript[setup:])
        pairs = list(zip(report.transcript[setup:], twin.transcript[setup:]))
        assert len(pairs) == len(report.transcript) - setup
        assert all((new is old) == (new == old) for old, new in pairs)
        assert all(new is old for old, new in pairs) == (choose != 1)


# ---------------------------------------------------------------------------
# the record executors refuse what the public operations refuse


def refusal_scene():
    """Agent 1 has measured its half a1 (qubit 1) as "r" and claimed the
    1-2 pair; agent 3's half c (qubit 4) is locked; setup is closed."""
    net, a1, a2, b, c = hub_setup(Fork())
    net.consume_epr(1, 2)
    net.local_measure(1, a1, label="r")
    net.lock_qubits([c])
    return net


REFUSALS = [
    # (public call, the record given to `run`, error class, message)
    (lambda n: n.local_gate(2, X(3)), GateRecord(2, X(3), None, True),
     LoccViolationError, "belongs to agent 1"),
    (lambda n: n.local_gate(2, X(9)), GateRecord(2, X(9), None, True),
     ValueError, "not live"),
    (lambda n: n.local_gate(3, X(4)), GateRecord(3, X(4), None, True),
     ProtocolError, "locked"),
    (lambda n: n.local_gate(2, X(2), when="r"), GateRecord(2, X(2), "r", True),
     ConditioningError, "without having"),
    (lambda n: n.local_measure(2, 3, label="s"), MeasureRecord(2, 3, "s", 0, 0.5),
     LoccViolationError, "belongs to agent 1"),
    (lambda n: n.local_measure(3, 4, label="s"), MeasureRecord(3, 4, "s", 0, 0.5),
     ProtocolError, "locked"),
    (lambda n: n.local_measure(1, 3, label="r"), MeasureRecord(1, 3, "r", 0, 0.5),
     ValueError, "already used"),
    (lambda n: n.send_classical(2, 3, ["r"]), ClassicalMessage(2, (3,), (0,), ("r",)),
     ConditioningError, "without having"),
    (lambda n: n.send_classical(2, ALL, ["r"]), ClassicalMessage(2, ALL, (0,), ("r",)),
     ConditioningError, "without having"),
    (lambda n: n.send_classical(1, 1, [1]), ClassicalMessage(1, (1,), (1,), (None,)),
     ValueError, "oneself"),
    (lambda n: n.send_classical(1, 9, [1]), ClassicalMessage(1, (9,), (1,), (None,)),
     ValueError, "unknown receiver 9"),
    (lambda n: n.send_classical(9, 1, [1]), ClassicalMessage(9, (1,), (1,), (None,)),
     ValueError, "unknown agent 9"),
    (lambda n: n.send_classical(1, 2, ["r", 2]), ClassicalMessage(1, (2,), (0, 2), ("r", None)),
     ValueError, "must be 0 or 1"),
    (lambda n: n.send_classical(1, 2, []), ClassicalMessage(1, (2,), (), ()),
     ValueError, "at least one bit"),
    (lambda n: n.discard_qubit(2, 3), DiscardRecord(2, 3),
     LoccViolationError, "belongs to agent 1"),
    (lambda n: n.discard_qubit(1, 3), DiscardRecord(1, 3),
     EntanglementError, "still entangled"),
    (lambda n: n.consume_epr(2, 3), ConsumeRecord(2, 3),
     ProtocolError, "no unused EPR pair"),
    (lambda n: n.consume_epr(2, 1), ConsumeRecord(2, 1),
     ProtocolError, "no unused EPR pair"),
    (lambda n: n.drop_group([3]), DropGroupRecord((3,)),
     ProtocolError, "not a standalone group"),
    (lambda n: n.drop_group([]), DropGroupRecord(()),
     ValueError, "at least one qubit"),
    (lambda n: n.check_zero(2, 3), ZeroCheckRecord(2, 3),
     LoccViolationError, "belongs to agent 1"),
    (lambda n: n.check_zero(1, 3), ZeroCheckRecord(1, 3),
     EntanglementError, "not perfectly correlated"),
    (lambda n: n.check_factor_size(3, 3), FactorSizeRecord(3, 3),
     ProtocolError, "spans 2 qubits, expected 3"),
    (lambda n: n.check_factor_size(9, 1), FactorSizeRecord(9, 1),
     ValueError, "not live"),
    (lambda n: n.add_ancilla(9), AncillaRecord(9, 5),
     ValueError, "unknown agent 9"),
    (lambda n: n.distribute_epr(2, 3), SetupRecord("epr", (2, 3), (5, 6)),
     SetupClosedError, "only allowed during setup"),
    (lambda n: n.add_ancilla(1.0), AncillaRecord(1.0, 5),
     ValueError, "unknown agent 1.0"),
    # a bool or a float equals an agent's int, and is refused all the same
    (lambda n: n.send_classical(True, 2, [1]), ClassicalMessage(True, (2,), (1,), (None,)),
     ValueError, "unknown agent True"),
    (lambda n: n.send_classical(2, True, [1]), ClassicalMessage(2, (True,), (1,), (None,)),
     ValueError, "unknown receiver True"),
    (lambda n: n.consume_epr(1.0, 3), ConsumeRecord(1.0, 3),
     ValueError, "unknown agent 1.0"),
    (lambda n: n.consume_epr(3, True), ConsumeRecord(3, True),
     ValueError, "unknown agent True"),
]


@pytest.mark.parametrize(
    "public, rec, error, message",
    REFUSALS,
    ids=[f"{type(rec).__name__}-{i}" for i, (_, rec, _, _) in enumerate(REFUSALS)],
)
def test_apply_refuses_a_record_as_its_public_operation_does(public, rec, error, message):
    live, replayed = refusal_scene(), refusal_scene()
    with pytest.raises(error, match=message) as by_call:
        public(live)
    with pytest.raises(error) as by_record:
        replayed.run([rec])
    assert type(by_record.value) is type(by_call.value)
    assert str(by_record.value) == str(by_call.value)
    assert replayed.transcript == live.transcript == refusal_scene().transcript
    assert replayed.owner == live.owner


def test_every_record_kind_has_an_executor():
    kinds = set(typing.get_args(locc.Record))
    assert kinds == set(locc._EXECUTORS)
    assert {type(rec) for _, rec, _, _ in REFUSALS} == kinds - {locc.LockRecord}


# ---------------------------------------------------------------------------
# monotone property (unit-scale; the acceptance suite runs 1000 sequences)


@st.composite
def split_network_ops(draw):
    """A disconnected two-cluster setup plus a random legal LOCC script."""
    setups = draw(
        st.lists(st.sampled_from(["epr12", "epr34", "ghz12", "ghz34"]), min_size=2, max_size=4)
    )
    if not any(s.endswith("12") for s in setups):
        setups.append("epr12")
    if not any(s.endswith("34") for s in setups):
        setups.append("ghz34")
    script = draw(st.lists(st.integers(0, 4), min_size=1, max_size=25))
    seed = draw(st.integers(0, 2**32 - 1))
    return setups, script, seed


@settings(max_examples=60, deadline=None)
@given(split_network_ops())
def test_random_local_scripts_preserve_zero_cuts(case):
    setups, script, seed = case
    rng = np.random.default_rng(seed)
    net = NetworkState(4, chooser=Fork(rng=rng))
    for s in setups:
        members = (1, 2) if s.endswith("12") else (3, 4)
        if s.startswith("epr"):
            net.distribute_epr(*members)
        else:
            net.distribute_ghz(members)
    sent = 0
    for op in script:
        actor = int(rng.integers(1, 5))
        mine = net.qubits_of(actor)
        if op == 0 and mine:
            net.local_gate(actor, [X, Z, H][int(rng.integers(3))](mine[int(rng.integers(len(mine)))]))
        elif op == 1 and len(mine) >= 2:
            a, b = rng.choice(mine, size=2, replace=False)
            net.local_gate(actor, CNOT(int(a), int(b)))
        elif op == 2 and mine:
            net.local_measure(actor, mine[int(rng.integers(len(mine)))], label=f"s{sent}")
            sent += 1
        elif op == 3 and sent:
            label = f"s{int(rng.integers(sent))}"
            holder = next((a for a in net.agents if label in net.knowledge[a]), None)
            if holder is not None:
                others = [a for a in net.agents if a != holder]
                net.send_classical(holder, others[int(rng.integers(len(others)))], [label])
        elif op == 4:
            net.add_ancilla(actor)
        assert net.audit_cut({1, 2}) == pytest.approx(0.0, abs=1e-10)
