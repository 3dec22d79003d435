"""Live runs, branch exploration and replay agree record for record.

Every branch a protocol checks is captured where it is verified: the live
run first, then each branch the explorer ran from the setup state through
``NetworkState.apply``. Replaying a captured transcript on a fresh network
must give the same transcript, knowledge, cbits and factors. After every
``apply``, each live qubit must lie in exactly one factor, and the
network's qubit-to-factor map must agree with a scan of its factors.
"""

import numpy as np
import pytest

from eprweave import protocols
from eprweave.locc import (
    ClassicalMessage,
    GateRecord,
    MeasureRecord,
    NetworkState,
    replay_transcript,
)
from eprweave.protocols import protocol_three, protocol_two, setup_epr_network, setup_group_network
from eprweave.topology import EntangledHypergraph, SpanningTree, hypergraph_is_connected

from test_acceptance import _random_connected_hypergraph
from test_stabilizer import census_trees


def check_factor_map(net: NetworkState) -> None:
    """Each live qubit lies in exactly one factor, and the qubit-to-factor
    map says which."""
    scanned = {}
    for slot, f in net._factors.items():
        for q in f.qubits:
            assert q not in scanned, f"qubit {q} lies in two factors"
            scanned[q] = slot
    assert scanned == net._slot
    assert scanned.keys() == net.owner.keys()


def check_results_follow_outcomes(transcript) -> None:
    """Every conditioned gate ran iff its bit is 1, and every message
    carries the measured bits it names."""
    bits = {}
    for rec in transcript:
        if isinstance(rec, MeasureRecord):
            bits[rec.label] = rec.bit
        elif isinstance(rec, GateRecord):
            assert rec.applied == (rec.when is None or bits[rec.when] == 1), rec
        elif isinstance(rec, ClassicalMessage):
            for label, bit in zip(rec.labels, rec.bits):
                assert label is None or bits[label] == bit, rec


def factor_view(net: NetworkState):
    return [(f.qubits, f.rows) for f in net.factors()]


@pytest.fixture
def explored(monkeypatch):
    """Checks the factor map after every ``apply``, and returns the list
    that each verified branch's network is added to."""
    leaves = []
    original_apply, original_verify = NetworkState.apply, protocols.verify_ghz

    def checked_apply(self, rec, choose=None):
        original_apply(self, rec, choose)
        check_factor_map(self)

    def capturing_verify(net, designated, strict=False):
        leaves.append(net)
        return original_verify(net, designated, strict)

    monkeypatch.setattr(NetworkState, "apply", checked_apply)
    monkeypatch.setattr(protocols, "verify_ghz", capturing_verify)
    return leaves


def assert_replays_alike(report, leaves):
    assert len(leaves) == len(report.branches)
    assert leaves[0].transcript == list(report.transcript)  # the live run is the first branch
    outcomes = set()
    for leaf in leaves:
        check_factor_map(leaf)
        check_results_follow_outcomes(leaf.transcript)
        twin = replay_transcript(leaf.n, leaf.transcript)
        assert twin.transcript == leaf.transcript
        assert twin.cbit_count == leaf.cbit_count == report.cbits
        assert twin.knowledge == leaf.knowledge
        assert factor_view(twin) == factor_view(leaf)
        outcomes.add(tuple(r.bit for r in leaf.transcript if isinstance(r, MeasureRecord)))
    assert len(outcomes) == len(leaves)


def acceptance_4_hypergraphs():
    """The hypergraphs of acceptance test 4, drawn the same way."""
    rng = np.random.default_rng(404)
    cases = [
        EntangledHypergraph(n, [(i, i + 1, i + 2) for i in range(1, n - 1)])
        for n in (4, 5, 6, 7, 8)
    ]
    while len(cases) < 30:
        h = _random_connected_hypergraph(rng, int(rng.integers(3, 9)))
        if hypergraph_is_connected(h):
            cases.append(h)
    return cases


def test_every_census_weave_replays_alike_on_every_branch(explored):
    runs = 0
    for n, edges in census_trees():
        tree = SpanningTree.from_edges(n, edges)
        for step2 in ("symmetric", "zeilinger"):
            explored.clear()
            report = protocol_two(setup_epr_network(n, tree.edges), tree, step2=step2)
            assert_replays_alike(report, explored)
            runs += 1
    assert runs == 2 * (3 + 16 + 125)


def test_acceptance_4_fusions_replay_alike_on_every_branch(explored):
    for h in acceptance_4_hypergraphs():
        explored.clear()
        report = protocol_three(setup_group_network(h), h)
        assert_replays_alike(report, explored)


def test_sampled_branches_replay_alike(explored):
    edges = [(1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (4, 7), (7, 8), (8, 9)]
    tree = SpanningTree.from_edges(9, edges)
    report = protocol_two(setup_epr_network(9, tree.edges), tree, branches=5, seed=3)
    assert_replays_alike(report, explored)
