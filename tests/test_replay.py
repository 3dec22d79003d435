"""Live runs, branch exploration and replay agree record for record.

Every branch a protocol checks is captured where it is verified: the live
run first, then each branch the explorer ran from the setup state through
the executor pairs of ``locc.prepare``. Replaying a captured transcript on
a fresh network must give the same transcript, knowledge, cbits and
factors. After every record is executed, by a public operation, by
``NetworkState.apply`` or by the explorer, each live qubit must lie in
exactly one factor, and the network's qubit-to-factor map must agree with
a scan of its factors.

A broken schedule must be refused: with any one conditioned correction
left out, some branch fails both through ``NetworkState.apply`` and on the
dense oracle. With the explorer's memoized transitions, the branches that
fail are exactly those where the left-out correction's bit is 1.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest

from eprweave import locc, protocols
from eprweave.errors import EprWeaveError
from eprweave.gates import Fork
from eprweave.locc import (
    ClassicalMessage,
    GateRecord,
    MeasureRecord,
    NetworkState,
    SetupRecord,
    replay_transcript,
)
from eprweave.protocols import (
    protocol_one,
    protocol_three,
    protocol_two,
    setup_epr_network,
    setup_group_network,
    verify_ghz,
)
from eprweave.topology import EntangledHypergraph, SpanningTree, hypergraph_is_connected

from dense_oracle import run_dense
from test_acceptance import _random_connected_hypergraph, hub_network
from test_stabilizer import TOL, census_trees


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


#: The NetworkState methods that append a transcript record themselves:
#: every executor but the two that hand their record to a public method.
RECORDING = [
    name
    for name in vars(NetworkState)
    if name.startswith("_run_") and name not in ("_run_setup", "_run_message")
] + ["distribute_epr", "distribute_ghz", "send_classical"]


class Captured(list):
    """The networks of the verified branches, in order; ``checked`` counts
    the records after whose execution the factor map was checked."""

    checked = 0


@contextmanager
def capture_branches():
    """Checks the factor map after every record is executed while the
    block runs, and yields the ``Captured`` list that each verified
    branch's network is added to.

    Public operations call the executors by name, and ``apply`` and the
    explorer's ``prepare`` look them up in ``locc._EXECUTORS``, so both are
    patched."""
    leaves = Captured()
    original_verify = protocols.verify_ghz

    def checked(method):
        def run(self, *args, **kwargs):
            before = len(self.transcript)
            result = method(self, *args, **kwargs)
            assert len(self.transcript) == before + 1, method.__name__
            check_factor_map(self)
            leaves.checked += 1
            return result

        return run

    def capturing_verify(net, designated, strict=False):
        leaves.append(net)
        return original_verify(net, designated, strict)

    with pytest.MonkeyPatch.context() as patch:
        for name in RECORDING:
            patch.setattr(NetworkState, name, checked(getattr(NetworkState, name)))
        for kind, execute in locc._EXECUTORS.items():
            patch.setitem(locc._EXECUTORS, kind, getattr(NetworkState, execute.__name__))
        patch.setattr(protocols, "verify_ghz", capturing_verify)
        yield leaves


def capture_census_weaves():
    """``[(report, leaves), ...]``: ``protocol_two`` on every census tree
    under both step-2 circuits, each with the networks of the branches it
    verified, captured as by ``capture_branches``."""
    weaves = []
    for n, edges in census_trees():
        tree = SpanningTree.from_edges(n, edges)
        for step2 in ("symmetric", "zeilinger"):
            with capture_branches() as leaves:
                report = protocol_two(setup_epr_network(n, tree.edges), step2=step2)
            weaves.append((report, leaves))
    return weaves


@pytest.fixture
def explored():
    with capture_branches() as leaves:
        yield leaves


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


def test_every_census_weave_replays_alike_on_every_branch(census_weaves):
    runs = 0
    for report, leaves in census_weaves:
        assert_replays_alike(report, leaves)
        runs += 1
    assert runs == 2 * (3 + 16 + 125)


def test_the_factor_map_was_checked_after_every_census_record(census_weaves):
    """The setup's records once, then every record of every branch's
    schedule, which the live run and the explorer each executed."""
    records = 0
    for report, leaves in census_weaves:
        setup = sum(isinstance(rec, SetupRecord) for rec in report.transcript)
        executed = setup + sum(len(leaf.transcript) - setup for leaf in leaves)
        assert leaves.checked == executed
        records += executed
    assert records > 400_000


def test_acceptance_4_fusions_replay_alike_on_every_branch(explored):
    for h in acceptance_4_hypergraphs():
        explored.clear()
        report = protocol_three(setup_group_network(h))
        assert_replays_alike(report, explored)


def test_sampled_branches_replay_alike(explored):
    edges = [(1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (4, 7), (7, 8), (8, 9)]
    tree = SpanningTree.from_edges(9, edges)
    report = protocol_two(setup_epr_network(9, tree.edges), branches=5, seed=3)
    assert_replays_alike(report, explored)


# ---------------------------------------------------------------------------
# a schedule without one of its corrections is refused


def _path_weave(step2):
    tree = SpanningTree.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    return protocol_two(setup_epr_network(4, tree.edges), step2=step2)


@pytest.mark.parametrize("step2", ["symmetric", "zeilinger"])
def test_the_readme_recipe_replays_every_branch_of_a_report(step2):
    report = _path_weave(step2)
    assert len(report.branches) == 2 ** (8 - 4 - (step2 == "zeilinger"))
    for branch in report.branches:
        # one fork for the whole schedule: it hands out the branch's bits in order
        net, pin = NetworkState(report.n), Fork(branch.outcomes)
        for rec in report.transcript:
            net.apply(rec, pin)
        bits = tuple(rec.bit for rec in net.transcript if isinstance(rec, MeasureRecord))
        assert bits == branch.outcomes
        assert verify_ghz(net, report.designated, strict=True) == 1.0


MUTATED = {
    # schedule -> (its report, how many conditioned gates it has)
    "ghz3": (lambda: protocol_one(hub_network()), 3),
    "weave-symmetric": (lambda: _path_weave("symmetric"), 5),
    "weave-zeilinger": (lambda: _path_weave("zeilinger"), 3),
}


def replayed_fidelity(n, schedule, designated, outcomes):
    """The strict GHZ fidelity after running ``schedule`` on the branch
    ``outcomes`` through ``NetworkState.apply``; None if it is refused."""
    net, pin = NetworkState(n), Fork(outcomes)
    try:
        for rec in schedule:
            net.apply(rec, pin)
        return verify_ghz(net, designated, strict=True)
    except EprWeaveError:
        return None


@pytest.mark.parametrize("schedule", sorted(MUTATED))
def test_dropping_any_conditioned_gate_fails_a_branch_on_both_interpreters(schedule):
    build, conditioned = MUTATED[schedule]
    report = build()
    designated = report.designated
    measurements = sum(isinstance(rec, MeasureRecord) for rec in report.transcript)
    branches = list(itertools.product((0, 1), repeat=measurements))
    for outcomes in branches:  # the schedule itself holds on every branch
        assert replayed_fidelity(report.n, report.transcript, designated, outcomes) == 1.0
        dense = run_dense(report.transcript, outcomes)
        assert dense.ghz_fidelity(designated.values()) == pytest.approx(1.0, abs=TOL)

    mutants = 0
    for i, rec in enumerate(report.transcript):
        if not (isinstance(rec, GateRecord) and rec.when is not None):
            continue
        mutant = report.transcript[:i] + report.transcript[i + 1 :]
        replayed = [replayed_fidelity(report.n, mutant, designated, b) for b in branches]
        assert any(f is None or f < 1.0 for f in replayed), (i, rec)
        dense = [run_dense(mutant, b).ghz_fidelity(designated.values()) for b in branches]
        assert any(f < 1.0 - TOL for f in dense), (i, rec)
        mutants += 1
    assert mutants == conditioned


# ---------------------------------------------------------------------------
# the memoized explorer tells branches apart


def _path_schedule():
    tree = SpanningTree.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    return lambda: protocol_two(setup_epr_network(5, tree.edges))


def _chain_fusion():
    h = EntangledHypergraph(7, [(1, 2, 3), (3, 4, 5), (5, 6, 7)])
    return lambda: protocol_three(setup_group_network(h))


def _teleport_z_fix(transcript):
    """The label of the first teleport's Z fix, and no actor: every gate
    conditioned on it."""
    message = next(
        rec
        for rec in transcript
        if isinstance(rec, ClassicalMessage) and rec.purpose == "teleport Z fix"
    )
    return message.labels[0], None


def _holder_x_fix(transcript):
    """The label and actor of the first fusion's first X fix: one holder's
    correction, the other holders keep theirs."""
    gate = next(
        rec
        for rec in transcript
        if isinstance(rec, GateRecord) and rec.gate.kind == "X" and rec.when.startswith("fuse#")
    )
    return gate.when, gate.actor


DROPPED_FIX = {
    # schedule -> (its run, which correction the live run leaves out)
    "protocol-two-teleport-z": (_path_schedule(), _teleport_z_fix),
    "protocol-three-holder-x": (_chain_fusion(), _holder_x_fix),
}


@pytest.mark.parametrize("case", sorted(DROPPED_FIX))
def test_a_dropped_correction_fails_exactly_the_branches_where_its_bit_is_1(case, monkeypatch):
    run, pick = DROPPED_FIX[case]
    label, actor = pick(run().transcript)

    original_gate = NetworkState.local_gate

    def leaving_out(self, who, gate, when=None):
        if when == label and actor in (None, who):
            return False  # the live run, and so the schedule, lacks this gate
        return original_gate(self, who, gate, when)

    armed = []
    original_memoized = protocols.memoized

    def spying(tableaux):
        tableaux = list(tableaux)
        armed.append(len(tableaux))
        return original_memoized(tableaux)

    monkeypatch.setattr(NetworkState, "local_gate", leaving_out)
    monkeypatch.setattr(protocols, "memoized", spying)
    report = run()

    assert armed and armed[0] > 0  # the branches ran on memoized transitions
    kept = [
        rec
        for rec in report.transcript
        if isinstance(rec, GateRecord) and rec.when == label and actor in (None, rec.actor)
    ]
    assert not kept
    labels = [rec.label for rec in report.transcript if isinstance(rec, MeasureRecord)]
    at = labels.index(label)
    assert len(report.branches) == 2 ** len(labels)
    failed = {b.outcomes for b in report.branches if b.fidelity < 1.0}
    assert failed == {b.outcomes for b in report.branches if b.outcomes[at] == 1}
    assert all(b.fidelity == 1.0 for b in report.branches if b.outcomes not in failed)
