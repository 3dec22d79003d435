"""Tests for the shared record of broadcast labels.

A label sent to ``ALL`` is written once, into one record that every agent
reads, instead of into each receiver's own knowledge. These tests hold the
network to a small reference model that keeps one dict per agent, written
message by message, and check the cases where a shared record could leak:
into a copy's original, to an agent a point-to-point label never reached,
and past a censored broadcast.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprweave.errors import ConditioningError
from eprweave.gates import H, X
from eprweave.locc import ALL, ClassicalMessage, NetworkState, replay_transcript

AGENTS = 4
LABELS = [f"m{i}" for i in range(6)]


class PerAgentModel:
    """Knowledge as one dict per agent, with every message's checks in the
    network's order; an operation that raises changes nothing."""

    def __init__(self, n):
        self.n = n
        self.known = {a: {} for a in range(1, n + 1)}
        self.cbits = 0

    def measure(self, actor, label, bit):
        self.known[actor][label] = bit

    def send(self, sender, to, bits):
        agents = range(1, self.n + 1)
        if sender not in agents:
            raise ValueError
        if not bits:
            raise ValueError
        receivers = [a for a in agents if a != sender] if to == ALL else [to]
        if to != ALL and (to not in agents or to == sender):
            raise ValueError
        learned = {}
        for b in bits:
            if isinstance(b, str):
                if b not in self.known[sender]:
                    raise ConditioningError
                learned[b] = self.known[sender][b]
            elif b not in (0, 1):
                raise ValueError
        for agent in receivers:
            self.known[agent].update(learned)
        self.cbits += len(bits)

    def gate(self, actor, label):
        if label not in self.known[actor]:
            raise ConditioningError
        return self.known[actor][label] == 1


agent = st.integers(1, AGENTS)
receiver = st.one_of(st.just(ALL), st.integers(0, AGENTS + 1))
bit_or_label = st.one_of(st.integers(0, 2), st.sampled_from(LABELS))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("measure"), agent, st.integers(0, 1)),
        st.tuples(
            st.just("send"), st.integers(0, AGENTS), receiver, st.lists(bit_or_label, max_size=3)
        ),
        st.tuples(st.just("relay"), agent, receiver, st.integers(0, 99)),
        st.tuples(st.just("gate"), agent, st.sampled_from(LABELS)),
        st.tuples(st.just("copy")),
    ),
    max_size=30,
)


def measure(net, actor, label, bit):
    """The actor measures a fresh |+> qubit and learns ``bit`` as ``label``."""
    q = net.add_ancilla(actor)
    net.local_gate(actor, H(q))
    net.local_measure(actor, q, label=label, choose=bit)


def outcome(call):
    try:
        return call(), None
    except (ValueError, ConditioningError) as exc:
        return None, type(exc)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_knowledge_errors_and_cbits_match_per_agent_dicts(script):
    net, model = NetworkState(AGENTS), PerAgentModel(AGENTS)
    wire = {a: net.add_ancilla(a) for a in net.agents}  # conditioned gates act here
    measured = 0
    for op in script:
        kind = op[0]
        if kind == "measure":
            _, actor, bit = op
            if measured == len(LABELS):
                continue
            label = LABELS[measured]
            measured += 1
            measure(net, actor, label, bit)
            model.measure(actor, label, bit)
        elif kind in ("send", "relay"):
            _, sender, to, bits = op
            if kind == "relay":  # pass on a label the sender heard or measured
                known = sorted(model.known[sender])
                if not known:
                    continue
                bits = [known[bits % len(known)]]
            got = outcome(lambda: net.send_classical(sender, to, bits))
            expected = outcome(lambda: model.send(sender, to, bits))
            assert got[1] == expected[1]
        elif kind == "gate":
            _, actor, label = op
            got = outcome(lambda: net.local_gate(actor, X(wire[actor]), when=label))
            assert got == outcome(lambda: model.gate(actor, label))
        else:
            net = net.copy()
        assert {a: net.knowledge[a] for a in net.agents} == model.known
        assert net.cbit_count == model.cbits


def test_knowledge_reads_like_a_dict_of_dicts():
    net = NetworkState(3)
    measure(net, 1, "a", 0)
    net.send_classical(1, ALL, ["a"])
    net.send_classical(1, 2, ["a"])
    assert dict(net.knowledge) == {1: {"a": 0}, 2: {"a": 0}, 3: {"a": 0}}
    assert len(net.knowledge) == 3 and list(net.knowledge) == [1, 2, 3]
    with pytest.raises(KeyError):
        net.knowledge[4]
    net.knowledge[3]["b"] = 1  # a new dict on every read: the network is unchanged
    assert net.knowledge[3] == {"a": 0}


def test_a_broadcast_on_a_copy_does_not_reach_the_original():
    net = NetworkState(3)
    measure(net, 1, "a", 1)
    twin = net.copy()
    twin.send_classical(1, ALL, ["a"])
    assert twin.knowledge[3] == {"a": 1}
    assert net.knowledge[2] == net.knowledge[3] == {}
    with pytest.raises(ConditioningError):
        net.local_gate(3, X(net.add_ancilla(3)), when="a")
    assert twin.local_gate(3, X(twin.add_ancilla(3)), when="a") is True


def test_own_labels_learned_on_a_copy_do_not_reach_the_original():
    net = NetworkState(3)
    measure(net, 1, "a", 1)
    twin = net.copy()
    measure(twin, 2, "b", 1)  # measured on the copy
    twin.send_classical(1, 3, ["a"])  # received point to point on the copy
    assert dict(twin.knowledge) == {1: {"a": 1}, 2: {"b": 1}, 3: {"a": 1}}
    assert dict(net.knowledge) == {1: {"a": 1}, 2: {}, 3: {}}
    with pytest.raises(ConditioningError):
        net.local_gate(2, X(net.add_ancilla(2)), when="b")
    with pytest.raises(ConditioningError):
        net.local_gate(3, X(net.add_ancilla(3)), when="a")
    measure(net, 2, "b", 0)  # the original's own run of the label is its own
    assert net.knowledge[2] == {"b": 0} and twin.knowledge[2] == {"b": 1}


def test_a_point_to_point_label_does_not_reach_a_third_agent():
    net = NetworkState(3)
    measure(net, 1, "a", 1)
    net.send_classical(1, 2, ["a"])
    net.send_classical(1, ALL, [1])  # a constant broadcast teaches nobody a label
    assert net.local_gate(2, X(net.add_ancilla(2)), when="a") is True
    with pytest.raises(ConditioningError):
        net.local_gate(3, X(net.add_ancilla(3)), when="a")
    with pytest.raises(ConditioningError):
        net.send_classical(3, 1, ["a"])


def test_censoring_a_broadcast_fails_a_receivers_conditioned_gate():
    net = NetworkState(3)
    target = net.add_ancilla(3)
    measure(net, 1, "a", 0)
    net.send_classical(1, ALL, ["a"])
    net.local_gate(3, X(target), when="a")
    assert replay_transcript(3, net.transcript).transcript == net.transcript
    [sent] = [i for i, rec in enumerate(net.transcript) if isinstance(rec, ClassicalMessage)]
    with pytest.raises(ConditioningError, match="agent 3 conditions on 'a'"):
        replay_transcript(3, net.transcript, skip_messages=[sent])
