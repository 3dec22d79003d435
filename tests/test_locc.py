"""Tests for the distributed-network model: ownership, knowledge, cbits.

The replay and monotone checks here are the unit-scale versions of the
acceptance properties; a hand-rolled teleportation circuit doubles as an
independent oracle for the protocol layer built on top of this module.
"""

import dataclasses

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
from eprweave.locc import (
    ALL,
    ClassicalMessage,
    MeasureRecord,
    NetworkState,
    RecordingChooser,
    replay_transcript,
)
from eprweave.protocols import disentangle_duplicate, protocol_two, setup_epr_network
from eprweave.topology import SpanningTree
from eprweave.statevec import CNOT, H, X, Z, StateVector, bell_pair, ghz_state


def hub_setup(chooser=None):
    """Agent 1 shares one EPR pair with each of agents 2 and 3."""
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
    assert net.joint_state().fidelity(bell_pair(qa, qb)) == pytest.approx(1.0)
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


def test_group_distribution_is_a_ghz_state():
    net = NetworkState(3)
    held = net.distribute_ghz({1, 2, 3})
    assert sorted(held) == [1, 2, 3]
    for agent in (1, 2, 3):
        assert net.audit_cut({agent}) == pytest.approx(1.0, abs=1e-10)
    assert net.joint_state().fidelity(ghz_state(tuple(held.values()))) == pytest.approx(1.0)


def test_two_member_group_equals_epr_pair():
    net = NetworkState(2)
    held = net.distribute_ghz({1, 2})
    assert net.joint_state().fidelity(bell_pair(held[1], held[2])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        net.distribute_ghz({1})


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
    net, a1, a2, b, c = hub_setup()
    with pytest.raises(LoccViolationError):
        net.local_measure(2, a1, choose=0)


def test_measurement_outcome_is_private_until_sent():
    net, a1, a2, b, c = hub_setup()
    net.local_measure(1, a2, label="flip", choose=1)
    assert net.knowledge[1] == {"flip": 1}
    assert net.knowledge[2] == {}
    with pytest.raises(ConditioningError):
        net.local_gate(2, X(b), when="flip")
    net.send_classical(1, 2, ["flip"])
    assert net.knowledge[2] == {"flip": 1}
    assert net.local_gate(2, X(b), when="flip") is True


def test_conditioned_gate_skips_on_zero_bit():
    net, a1, a2, b, c = hub_setup()
    net.local_measure(1, a2, label="flip", choose=0)
    before = net.joint_state((a1,))
    assert net.local_gate(1, X(a1), when="flip") is False
    assert net.joint_state((a1,)).fidelity(before) == pytest.approx(1.0)


def test_measurement_labels_are_single_use():
    net, a1, a2, b, c = hub_setup()
    net.local_measure(1, a1, label="m", choose=0)
    with pytest.raises(ValueError):
        net.local_measure(1, a2, label="m", choose=0)


def test_measured_qubit_splits_into_its_own_factor():
    net, a1, a2, b, c = hub_setup()
    net.local_measure(1, a1, choose=1)
    assert net.factor_qubits(a1) == (a1,)
    assert net.factor_qubits(b) == (b,)  # partner collapsed too
    assert net.joint_state((b,)).probability_of_one(b) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# classical messages and cbit accounting


def test_message_costs_its_bit_length_once():
    net, a1, a2, b, c = hub_setup()
    net.local_measure(1, a1, label="r", choose=0)
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
    net, a1, a2, b, c = hub_setup()
    net.local_measure(1, a1, label="r", choose=1)
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
    net, a1, a2, b, c = hub_setup()
    net.local_measure(1, a1, label="r", choose=0)
    net.send_classical(1, 2, ["r"])
    net.send_classical(2, 3, ["r"])  # B may relay what B knows
    assert net.knowledge[3] == {"r": 0}
    assert net.cbit_count == 2


# ---------------------------------------------------------------------------
# locks and EPR consumption


def test_locked_qubits_reject_operations():
    net, a1, a2, b, c = hub_setup()
    net.lock_qubits([b])
    with pytest.raises(ProtocolError):
        net.local_gate(2, X(b))
    with pytest.raises(ProtocolError):
        net.local_measure(2, b, choose=0)
    net.unlock_qubits([b])
    net.local_gate(2, X(b))


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
    net, a1, a2, b, c = hub_setup()
    net.local_measure(1, a1, choose=0)
    net.discard_qubit(1, a1)
    assert a1 not in net.owner
    with pytest.raises(ValueError):
        net.local_gate(1, X(a1))


def test_discard_entangled_qubit_fails():
    net, a1, a2, b, c = hub_setup()
    with pytest.raises(EntanglementError):
        net.discard_qubit(1, a1)


def test_drop_group_requires_exact_factor():
    net = NetworkState(4)
    held_a = net.distribute_ghz({1, 2})
    held_b = net.distribute_ghz({3, 4})
    with pytest.raises(ProtocolError):
        net.drop_group([held_a[1]])
    net.drop_group(held_b.values())
    assert net.qubits_of(3) == []
    assert set(net.owner.values()) == {1, 2}


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
    net = NetworkState(4, chooser=rng)
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


def manual_teleport(prefix, payload_amps=None, prep=()):
    """Teleport a 1-qubit state from agent 1 to agent 2, forcing the two
    measurement outcomes from `prefix`. The payload is either loaded from
    explicit amplitudes (test-only shortcut, invisible to the transcript)
    or prepared by `prep` gate constructors (replayable)."""
    chooser = RecordingChooser(prefix)
    net = NetworkState(2, chooser)
    half_a, half_b = net.distribute_epr(1, 2)
    payload = net.add_ancilla(1)
    if payload_amps is not None:
        net._factors[net._factor_index(payload)] = StateVector((payload,), payload_amps)
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
    net, carrier = manual_teleport(prefix, amps)
    target = StateVector((carrier,), amps)
    assert net.joint_state((carrier,)).fidelity(target) == pytest.approx(1.0, abs=1e-10)
    assert net.cbit_count == 2


# ---------------------------------------------------------------------------
# transcript replay


def test_replay_reproduces_the_transcript_exactly():
    net, carrier = manual_teleport((1, 0), prep=(H, Z))  # payload |->
    twin = replay_transcript(net.n, net.transcript)
    assert twin.transcript == net.transcript
    assert twin.cbit_count == net.cbit_count
    assert twin.knowledge == net.knowledge
    assert twin.joint_state((carrier,)).fidelity(net.joint_state((carrier,))) == pytest.approx(1.0)


def test_replay_without_trigger_message_raises_conditioning_error():
    net, _ = manual_teleport((1, 1), prep=(H,))
    msg_index = next(
        i
        for i, rec in enumerate(net.transcript)
        if isinstance(rec, ClassicalMessage) and rec.labels == ("m2",)
    )
    with pytest.raises(ConditioningError):
        replay_transcript(net.n, net.transcript, skip_messages=[msg_index])


def test_replay_of_a_weave_consumes_its_pairs_and_keeps_its_locks():
    tree = SpanningTree.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    report = protocol_two(setup_epr_network(4, tree.edges), tree)
    twin = replay_transcript(4, report.transcript)
    assert [p.consumed for p in twin.epr_pairs] == [True, True, True]
    assert twin.transcript == list(report.transcript)

    # stopped after the first claim, the other pairs' halves stay locked
    live = setup_epr_network(4, tree.edges)
    live.send_classical(1, ALL, [1], purpose="weave start")
    live.lock_qubits(q for p in live.epr_pairs for q in (p.qubit_a, p.qubit_b))
    live.consume_epr(1, 2)
    twin = replay_transcript(4, live.transcript)
    assert [p.consumed for p in twin.epr_pairs] == [True, False, False]
    assert twin._locked == live._locked == {3, 4, 5, 6}
    with pytest.raises(ProtocolError, match="locked"):
        twin.local_gate(2, X(3))
    twin.local_gate(2, X(2))


def test_replay_reruns_the_release_check_on_a_changed_branch():
    net = NetworkState(1, chooser=RecordingChooser())  # takes outcome 0
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
    net = NetworkState(4, chooser=rng)
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
