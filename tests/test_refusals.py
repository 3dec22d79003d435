"""Refusals across the layers: each bad call raises its own error class
with its own message."""

import io
import re

import pytest

from eprweave.cli import parse_spec, run
from eprweave.errors import ConnectivityError, NetworkSpecError, ProtocolError
from eprweave.gates import X
from eprweave.locc import NetworkState, SetupRecord, replay_transcript
from eprweave.protocols import (
    CorrectionRule,
    protocol_one,
    protocol_three,
    protocol_two,
    setup_epr_network,
    setup_group_network,
)
from eprweave.stabilizer import Tableau
from eprweave.topology import EntangledHypergraph, EprGraph, MergeStep


def _operated_group_network():
    net = setup_group_network(EntangledHypergraph(3, [(1, 2), (2, 3)]))
    net.local_gate(1, X(1))
    return net


def _measured_without_a_chooser():
    net = NetworkState(2)
    qa, _ = net.distribute_epr(1, 2)
    net.local_measure(1, qa)


def _censored(index):
    net = setup_epr_network(2, [(1, 2)])  # one record: the pair's setup
    replay_transcript(2, net.transcript, skip_messages=[index])


# case -> (the call, its error class, a regex for its whole message)
REFUSALS = {
    "protocol_one, cycle outside 1..3": (
        lambda: protocol_one(setup_epr_network(3, [(1, 2), (1, 3)]), CorrectionRule((1, 2, 4), 1)),
        ProtocolError,
        r"correction cycle \(1, 2, 4\) must name agents 1\.\.3",
    ),
    "protocol_two, pairs with a cycle": (
        lambda: protocol_two(setup_epr_network(3, [(1, 2), (2, 3), (1, 3)])),
        ProtocolError,
        r"the network has 3 EPR pairs; a tree on 3 agents has 2",
    ),
    "protocol_three, operated network": (
        lambda: protocol_three(_operated_group_network()),
        ProtocolError,
        r"network has already been operated on",
    ),
    "protocol_three, split groups": (
        lambda: protocol_three(setup_group_network(EntangledHypergraph(4, [(1, 2), (3, 4)]))),
        ConnectivityError,
        r"entangled hypergraph is disconnected: no chain of groups joins agents 1 and 3",
    ),
    "local_measure, no chooser": (
        _measured_without_a_chooser,
        ValueError,
        r"no branch chooser configured for this measurement",
    ),
    "apply, not a record": (
        lambda: NetworkState(2).apply(object()),
        TypeError,
        r"unknown transcript record <object object at 0x[0-9a-f]+>",
    ),
    "replay_transcript, setup skipped": (
        lambda: _censored(0),
        ValueError,
        r"transcript entry 0 is not a message",
    ),
    "replay_transcript, censored index past the end": (
        lambda: _censored(999),
        ValueError,
        r"cannot censor entries \[999\] outside range\(1\)",
    ),
    "replay_transcript, censored index counted from the end": (
        lambda: _censored(-1),
        ValueError,
        r"cannot censor entries \[-1\] outside range\(1\)",
    ),
    "replay_transcript, censored index one past the last": (
        lambda: _censored(1),
        ValueError,
        r"cannot censor entries \[1\] outside range\(1\)",
    ),
    "replay_transcript, 3-agent epr record": (
        lambda: replay_transcript(3, [SetupRecord("epr", (1, 2, 3), (1, 2, 3))]),
        ValueError,
        r"SetupRecord\(kind='epr', agents=\(1, 2, 3\), qubits=\(1, 2, 3\)\) is neither "
        r"a 2-agent 'epr' record nor a 'ghz' record",
    ),
    "replay_transcript, unknown setup kind": (
        lambda: replay_transcript(3, [SetupRecord("bogus", (1, 2), (1, 2))]),
        ValueError,
        r"SetupRecord\(kind='bogus', agents=\(1, 2\), qubits=\(1, 2\)\) is neither "
        r"a 2-agent 'epr' record nor a 'ghz' record",
    ),
    "EprGraph.weight, missing edge": (
        lambda: EprGraph(3, [(1, 2), (2, 3)]).weight(3, 1),
        ValueError,
        r"no edge \(1, 3\)",
    ),
    "Tableau.tensor, shared qubits": (
        lambda: Tableau.ghz((1, 2)).tensor(Tableau.zeros((2, 3))),
        ValueError,
        r"registers share qubits \[2\]",
    ),
    "cut_entropy, unknown qubit": (
        lambda: Tableau.ghz((1, 2)).cut_entropy([9]),
        ValueError,
        r"qubits \[9\] not in register",
    ),
    "MergeStep, empty overlap": (
        lambda: MergeStep(1, frozenset({2, 3}), 2, frozenset(), 2, 2),
        ValueError,
        r"merge step with empty overlap",
    ),
    "MergeStep, junction not the lowest shared agent": (
        lambda: MergeStep(1, frozenset({2, 3}), 3, frozenset({2, 3}), 2, 2),
        ValueError,
        r"junction must be the smallest-index shared agent",
    ),
    "parse_spec, two agent counts": (
        lambda: parse_spec("agents 3 4"),
        NetworkSpecError,
        r"line 1: 'agents' takes exactly one number",
    ),
    "parse_spec, member not a number": (
        lambda: parse_spec("agents 3\nhyper 1 x"),
        NetworkSpecError,
        r"line 2: expected an agent number, got 'x'",
    ),
    # numbers are ASCII digits with no underscores, though int() and float() take more
    "parse_spec, agent count, Arabic-Indic digit": (
        lambda: parse_spec("agents \u0663"),
        NetworkSpecError,
        r"line 1: bad agent count '\u0663'",
    ),
    "parse_spec, agent count, underscore": (
        lambda: parse_spec("agents 1_0"),
        NetworkSpecError,
        r"line 1: bad agent count '1_0'",
    ),
    "parse_spec, edge agent, Arabic-Indic digit": (
        lambda: parse_spec("agents 3\nedge 2 \u0663"),
        NetworkSpecError,
        r"line 2: expected an agent number, got '\u0663'",
    ),
    "parse_spec, edge agent, underscore": (
        lambda: parse_spec("agents 3\nedge 2 1_0"),
        NetworkSpecError,
        r"line 2: expected an agent number, got '1_0'",
    ),
    "parse_spec, group member, Arabic-Indic digit": (
        lambda: parse_spec("agents 3\nhyper 1 2 \u0663"),
        NetworkSpecError,
        r"line 2: expected an agent number, got '\u0663'",
    ),
    "parse_spec, edge weight, Arabic-Indic digit": (
        lambda: parse_spec("agents 3\nedge 1 2 \u0663"),
        NetworkSpecError,
        r"line 2: bad edge weight '\u0663'",
    ),
    "parse_spec, edge weight, underscore": (
        lambda: parse_spec("agents 3\nedge 1 2 0.2_5"),
        NetworkSpecError,
        r"line 2: bad edge weight '0\.2_5'",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_has_its_class_and_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert re.fullmatch(message, str(caught.value)), str(caught.value)


def test_a_spec_with_non_ascii_comments_still_parses():
    # a non-ASCII character or an underscore anywhere sends each number through the token check
    spec = parse_spec("agents 3  # \u0663 agents_here\nedge 1 2 0.5\n")
    assert (spec.n, spec.edges) == (3, ((1, 2, 0.5),))


@pytest.mark.parametrize("seed", ["\u0663", "1_0"])
def test_a_seed_outside_ascii_digits_is_a_usage_error(seed):
    out, err = io.StringIO(), io.StringIO()
    assert run(["weave", "any.spec", "--seed", seed], out=out, err=err) == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("usage: eprweave weave ")
    assert err.getvalue().endswith(
        f"eprweave weave: error: argument --seed: invalid int value: {seed!r}\n"
    )
