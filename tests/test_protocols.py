"""Tests for the weaving protocols.

The three-party weave is checked stage by stage against states written
out by hand from the circuit algebra (see ``expected_stage_state``), not
just by its end product, and every protocol is exercised on all of its
measurement branches.
"""

import heapq
import itertools
import math
import tracemalloc
from random import Random

import numpy as np
import pytest

from eprweave.errors import (
    ConnectivityError,
    EntanglementError,
    ProtocolError,
    ResourceError,
)
from eprweave import protocols
from eprweave.gates import Fork
from eprweave.cli import CONNECTIVITY_LAW
from eprweave.locc import ALL, DropGroupRecord, MeasureRecord, NetworkState, SetupRecord
from eprweave.protocols import (
    disentangle_duplicate,
    extend_ghz,
    fusion_step,
    protocol_one,
    protocol_three,
    protocol_two,
    setup_epr_network,
    setup_group_network,
    teleport,
    verify_ghz,
)
from eprweave.statevec import CNOT, H, StateVector, X, Z, ghz_state
from eprweave.topology import (
    EntangledHypergraph,
    SpanningTree,
    minimum_spanning_tree,
    spanning_tree,
)
from tableau_view import dense_view
from test_acceptance import cli, merged_sizes
from test_locc import claims_per_pair
from weave_stages import weave_stages

GOOD = 1 - 1e-10


def weighted_basis(qubits, terms):
    """Build a state from (coefficient, {qubit: bit}) terms."""
    amps = np.zeros(2 ** len(qubits), dtype=complex)
    pos = {q: i for i, q in enumerate(qubits)}
    for coeff, bits in terms:
        index = 0
        for q, bit in bits.items():
            if bit:
                index |= 1 << pos[q]
        amps[index] += coeff
    return StateVector(tuple(qubits), amps)


def hub_network(hub=1):
    """Three agents; the hub shares one EPR pair with each of the others."""
    others = sorted(set((1, 2, 3)) - {hub})
    net = NetworkState(3)
    net.distribute_epr(hub, others[0])
    net.distribute_epr(hub, others[1])
    return net


# ---------------------------------------------------------------------------
# Protocol I: stage-by-stage against hand-written circuit algebra


def expected_stage_state(stage, roles, measured):
    """The exact 5-qubit state after each stage of the three-party weave.

    Derived by hand: starting from two EPR pairs and an ancilla in |0>,
    push each gate through the superposition. ``measured`` carries the
    outcomes known so far, (m,) after the channel measurement and (m, y)
    after the ancilla measurement.
    """
    a1, b = roles["keep"], roles["x_qubit"]
    a3 = roles["ancilla"]
    a2, c = roles["channel"], roles["z_qubit"]
    qs = (a1, b, a3, a2, c)
    half = 0.5
    inv = 1 / math.sqrt(2)
    two = ((0, 0), (0, 1), (1, 0), (1, 1))
    if stage == 1:  # CNOT keep -> ancilla copied x onto the ancilla
        terms = [(half, {a1: x, b: x, a3: x, a2: z, c: z}) for x, z in two]
    elif stage == 2:  # CNOT ancilla -> channel folded x into the second pair
        terms = [(half, {a1: x, b: x, a3: x, a2: z ^ x, c: z}) for x, z in two]
    elif stage == 3:  # channel measured m: the pairs are now correlated
        (m,) = measured
        terms = [(inv, {a1: x, b: x, a3: x, a2: m, c: x ^ m}) for x in (0, 1)]
    elif stage == 4:  # H on the ancilla
        (m,) = measured
        terms = [
            (half * (-1) ** (x * y), {a1: x, b: x, a3: y, a2: m, c: x ^ m})
            for x, y in two
        ]
    elif stage == 5:  # ancilla measured y
        m, y = measured
        terms = [
            (inv * (-1) ** (x * y), {a1: x, b: x, a3: y, a2: m, c: x ^ m})
            for x in (0, 1)
        ]
    elif stage == 6:  # both X^m corrections applied (hub and X-partner)
        m, y = measured
        terms = [
            (inv * (-1) ** (x * y), {a1: x ^ m, b: x ^ m, a3: y, a2: m, c: x ^ m})
            for x in (0, 1)
        ]
    elif stage == 7:  # Z^y correction: GHZ up to the global sign (-1)^(m y)
        m, y = measured
        terms = [
            (inv * (-1) ** (m * y), {a1: u, b: u, a3: y, a2: m, c: u})
            for u in (0, 1)
        ]
    else:
        raise AssertionError(stage)
    return weighted_basis(qs, terms)


def test_three_party_weave_matches_stage_algebra_on_every_branch():
    report = protocol_one(hub_network())
    snapshots = weave_stages(report)
    assert len(report.branches) == 4
    assert len(snapshots) == 7 * 4
    for stage, snapshot, roles, measured in snapshots:
        expected = expected_stage_state(stage, roles, measured)
        assert snapshot.fidelity(expected) >= GOOD, (stage, measured)


def test_sampled_weave_stages_each_reported_branch_once_in_report_order():
    report = protocol_one(hub_network(), branches=16, seed=3)
    staged = weave_stages(report)
    assert report.branch_mode == "sample:16" and 1 < len(report.branches) <= 4
    assert [stage for stage, *_ in staged] == list(range(1, 8)) * len(report.branches)
    finals = [measured for stage, _, _, measured in staged if stage == 7]
    assert finals == [b.outcomes for b in report.branches]
    for stage, snapshot, roles, measured in staged:
        assert len(measured) == (stage >= 3) + (stage >= 5)
        assert snapshot.fidelity(expected_stage_state(stage, roles, measured)) >= GOOD


@pytest.mark.parametrize("hub", [1, 2, 3])
def test_weave_stage_algebra_holds_for_every_hub(hub):
    net = hub_network(hub)
    tree = SpanningTree.from_edges(3, [p.agents for p in net.epr_pairs])
    (other_leaf,) = tree.leaves - {tree.root_leaf}
    snapshots = weave_stages(protocol_one(net))
    assert len(snapshots) == 7 * 4
    for stage, snapshot, roles, measured in snapshots:
        assert (roles["hub"], roles["x_partner"], roles["z_partner"]) == (
            tree.start, tree.root_leaf, other_leaf
        ) == (hub, *sorted({1, 2, 3} - {hub}))
        expected = expected_stage_state(stage, roles, measured)
        assert snapshot.fidelity(expected) >= GOOD, (hub, stage, measured)


def test_three_party_weave_succeeds_on_all_four_branches():
    report = protocol_one(hub_network())
    assert report.protocol == "I"
    assert report.cbits == 2
    assert report.branch_mode == "all"
    assert report.worst_fidelity >= GOOD
    assert {b.outcomes for b in report.branches} == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }
    for branch in report.branches:
        assert branch.probability == pytest.approx(0.25, abs=1e-12)
        assert branch.fidelity >= GOOD


def test_three_party_weave_designates_one_qubit_per_agent():
    report = protocol_one(hub_network())
    assert set(report.designated) == {1, 2, 3}
    # hub keeps its half of the first pair; partners keep their own halves
    assert report.designated == {1: 1, 2: 2, 3: 4}


def test_three_party_weave_detects_hub_automatically():
    report = protocol_one(hub_network(hub=2))
    assert report.worst_fidelity >= GOOD
    assert set(report.designated) == {1, 2, 3}


def test_three_party_weave_rejects_bad_setups():
    with pytest.raises(ProtocolError, match="exactly 3 agents"):
        protocol_one(NetworkState(4))
    with pytest.raises(ConnectivityError, match=r"no path joins agents 1 and 3$"):
        net = NetworkState(3)
        net.distribute_epr(1, 2)
        protocol_one(net)
    with pytest.raises(ValueError, match=r"^duplicate edge 1 2$"):
        net = NetworkState(3)
        net.distribute_epr(1, 2)
        net.distribute_epr(1, 2)
        protocol_one(net)
    with pytest.raises(ProtocolError, match="already been operated"):
        net = hub_network()
        net.send_classical(1, 2, [1])
        protocol_one(net)
    # the roles are read off the pairs: there is no rule to pass
    with pytest.raises(TypeError):
        protocol_one(hub_network(), None)


def test_three_party_weave_sampled_mode():
    report = protocol_one(hub_network(), branches=16, seed=5)
    assert report.branch_mode == "sample:16"
    assert 1 <= len(report.branches) <= 4
    assert report.worst_fidelity >= GOOD
    again = protocol_one(hub_network(), branches=16, seed=5)
    assert report.to_dict() == again.to_dict()


def test_three_party_weave_is_deterministic():
    first = protocol_one(hub_network()).to_dict()
    second = protocol_one(hub_network()).to_dict()
    assert first == second


# ---------------------------------------------------------------------------
# building blocks


def test_extend_ghz_adds_one_correlated_qubit_for_free():
    net = NetworkState(2)
    held = net.distribute_ghz((1, 2))
    fresh = extend_ghz(net, 1, held[1])
    state = dense_view(net, (fresh,))
    assert state.fidelity(ghz_state((held[1], held[2], fresh))) >= GOOD
    assert net.cbit_count == 0


def test_teleport_moves_an_unknown_qubit_on_every_branch():
    for prefix in ((0, 0), (0, 1), (1, 0), (1, 1)):
        net = NetworkState(2, chooser=Fork(prefix))
        net.distribute_epr(1, 2)
        payload = net.add_ancilla(1)
        net.local_gate(1, H(payload))
        net.local_gate(1, Z(payload))
        carrier = teleport(net, 1, payload, 2)
        assert net.owner[carrier] == 2
        expected = StateVector((carrier,), np.array([1, -1]) / math.sqrt(2))
        assert dense_view(net, (carrier,)).fidelity(expected) >= GOOD
        assert net.cbit_count == 2
        assert claims_per_pair(net) == [1]
        with pytest.raises(ProtocolError, match="no unused EPR pair"):
            net.consume_epr(1, 2)


def test_teleport_preserves_entanglement_of_the_payload():
    for prefix in ((0, 0), (0, 1), (1, 0), (1, 1)):
        net = NetworkState(3, chooser=Fork(prefix))
        net.distribute_epr(1, 3)
        held = net.distribute_ghz((1, 2))
        fresh = extend_ghz(net, 1, held[1])
        carrier = teleport(net, 1, fresh, 3)
        designated = {1: held[1], 2: held[2], 3: carrier}
        assert verify_ghz(net, designated, strict=True) >= GOOD


def test_fusion_step_merges_two_groups_at_the_junction():
    for prefix in ((0,), (1,)):
        net = NetworkState(4, chooser=Fork(prefix))
        big = net.distribute_ghz((1, 2, 3))
        small = net.distribute_ghz((3, 4))
        fusion_step(net, big, small, 3)
        assert set(net.owner) == {big[1], big[2], big[3], small[4]}
        assert net.cbit_count == 1
        designated = {1: big[1], 2: big[2], 3: big[3], 4: small[4]}
        assert verify_ghz(net, designated, strict=True) >= GOOD


def test_fusion_step_outcomes_are_equally_likely():
    net = NetworkState(4, chooser=Fork())
    big = net.distribute_ghz((1, 2, 3))
    small = net.distribute_ghz((3, 4))
    fusion_step(net, big, small, 3)
    (measured,) = [rec for rec in net.transcript if isinstance(rec, MeasureRecord)]
    assert measured.probability == pytest.approx(0.5, abs=1e-12)  # so outcome 1 has the rest


def test_fusion_step_requires_one_qubit_per_group_at_the_junction():
    net = NetworkState(4, chooser=Fork())
    big = net.distribute_ghz((1, 2, 3))
    small = net.distribute_ghz((3, 4))
    with pytest.raises(ProtocolError, match="exactly one qubit"):
        fusion_step(net, big, small, 2)


def scanning_fusion_step(net, f_group, e_group, junction, label=None):
    """``fusion_step`` as first written: it finds the junction's qubits by
    scanning both groups for their owner, and corrects E's other qubits in
    order of owner, then qubit."""
    f_qubits, e_qubits = set(f_group.values()), set(e_group.values())
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


def out_of_qubit_order(group):
    return [group[a] for a in sorted(group)] != sorted(group.values())


def test_fusion_step_finds_by_owner_what_a_scan_of_both_groups_finds():
    # a merged E group whose owners and qubit ids run in opposite orders
    net = NetworkState(5, chooser=1)  # every outcome 1: every correction runs
    f = net.distribute_ghz((2, 4))
    e = net.distribute_ghz((3, 4))
    first = net.distribute_ghz((1, 4))
    fusion_step(net, e, first, 4)
    e = {1: first[1], 3: e[3], 4: e[4]}
    assert out_of_qubit_order({a: q for a, q in e.items() if a != 4})
    twin = net.copy()
    fusion_step(net, f, e, 4, label="x")
    scanning_fusion_step(twin, f, e, 4, label="x")
    assert net.transcript == twin.transcript
    corrected = [rec.gate.qubits[0] for rec in net.transcript[-3:-1]]
    assert corrected == [first[1], e[3]]  # agent 1 first, though its qubit is newer
    with pytest.raises(ProtocolError) as found:
        fusion_step(net.copy(), f, e, 3)
    with pytest.raises(ProtocolError) as scanned:
        scanning_fusion_step(net.copy(), f, e, 3)
    assert str(found.value) == str(scanned.value)


def test_group_fusion_transcript_is_that_of_the_owner_scan(monkeypatch):
    # agents 3 to 6 hold the oldest qubits, so the fused group's owner order and
    # qubit order disagree
    h = EntangledHypergraph(7, [(3, 4, 5, 6), (1, 3), (1, 2, 6), (5, 7)])
    report = protocol_three(setup_group_network(h))
    assert out_of_qubit_order(report.designated)
    monkeypatch.setattr(protocols, "fusion_step", scanning_fusion_step)
    scanned = protocol_three(setup_group_network(h))
    assert report.transcript == scanned.transcript
    assert report.to_dict() == scanned.to_dict()


def test_sample_streams_over_the_cap_are_refused_before_any_is_built(monkeypatch):
    built = []

    def spy(*args):
        built.append(args)
        raise AssertionError("a sample generator was built")

    monkeypatch.setattr(protocols, "Random", spy)
    too_many = protocols.SAMPLE_CAP + 1
    h = EntangledHypergraph(4, [(1, 2, 3), (3, 4)])
    tree = SpanningTree.from_edges(3, [(1, 2), (1, 3)])
    runs = [
        lambda: protocol_one(setup_epr_network(3, tree.edges), branches=too_many),
        lambda: protocol_two(setup_epr_network(3, tree.edges), branches=too_many),
        lambda: protocol_three(setup_group_network(h), branches=too_many),
    ]
    for run in runs:
        with pytest.raises(ResourceError, match=f"sample:{too_many} asks for 65,537 sampled branches"):
            run()
    assert built == []


@pytest.mark.parametrize("count", [0, -1, 2.0, True, "sample:4"])
def test_branch_counts_other_than_positive_ints_are_refused_before_any_stream(
    monkeypatch, count
):
    def spy(*args):
        raise AssertionError("a sample generator was built")

    monkeypatch.setattr(protocols, "Random", spy)
    h = EntangledHypergraph(4, [(1, 2, 3), (3, 4)])
    tree = SpanningTree.from_edges(3, [(1, 2), (1, 3)])
    nets = [setup_epr_network(3, tree.edges), setup_group_network(h)]
    runs = [
        lambda: protocol_one(nets[0], branches=count),
        lambda: protocol_two(nets[0], branches=count),
        lambda: protocol_three(nets[1], branches=count),
    ]
    message = f"branches must be 'all' or a sample count of at least 1, got {count!r}"
    for run in runs:
        with pytest.raises(ValueError) as refused:
            run()
        assert str(refused.value) == message
    assert all(net.setup_open and net.cbit_count == 0 for net in nets)


@pytest.mark.parametrize("branches", ["all", 2])
def test_a_negative_seed_is_refused_in_every_branch_mode(monkeypatch, branches):
    # "all" on these networks draws no sample, yet the seed is refused alike
    def spy(*args):
        raise AssertionError("a sample generator was built")

    monkeypatch.setattr(protocols, "Random", spy)
    h = EntangledHypergraph(4, [(1, 2, 3), (3, 4)])
    tree = SpanningTree.from_edges(3, [(1, 2), (1, 3)])
    nets = [setup_epr_network(3, tree.edges), setup_group_network(h)]
    runs = [
        lambda: protocol_one(nets[0], branches=branches, seed=-1),
        lambda: protocol_two(nets[0], branches=branches, seed=-1),
        lambda: protocol_three(nets[1], branches=branches, seed=-1),
    ]
    for run in runs:
        with pytest.raises(ValueError) as refused:
            run()
        assert str(refused.value) == "expected non-negative integer"
    assert all(net.setup_open and net.cbit_count == 0 for net in nets)


def test_sample_cap_admits_exactly_its_own_count(monkeypatch):
    monkeypatch.setattr(protocols, "SAMPLE_CAP", 4)
    h = EntangledHypergraph(4, [(1, 2, 3), (3, 4)])
    assert protocol_three(setup_group_network(h), branches=4).branch_mode == "sample:4"
    with pytest.raises(ResourceError, match="over the limit of 4"):
        protocol_three(setup_group_network(h), branches=5)


def test_disentangle_duplicate_releases_a_copied_qubit():
    net = NetworkState(3, chooser=Fork())
    held = net.distribute_ghz((1, 2, 3))
    extra = extend_ghz(net, 1, held[1])
    disentangle_duplicate(net, 1, held[1], extra)
    assert extra not in net.owner
    assert net.cbit_count == 0
    assert verify_ghz(net, held, strict=True) >= GOOD


def test_disentangle_duplicate_rejects_anticorrelated_qubits():
    net = NetworkState(2, chooser=Fork())
    held = net.distribute_ghz((1, 2))
    extra = extend_ghz(net, 1, held[1])
    net.local_gate(1, X(extra))
    with pytest.raises(EntanglementError, match="not perfectly correlated"):
        disentangle_duplicate(net, 1, held[1], extra)


def test_disentangle_duplicate_rejects_uncorrelated_qubits():
    net = NetworkState(1, chooser=Fork())
    keep = net.add_ancilla(1)
    drop = net.add_ancilla(1)
    net.local_gate(1, H(keep))
    net.local_gate(1, H(drop))
    with pytest.raises(EntanglementError):
        disentangle_duplicate(net, 1, keep, drop)


# ---------------------------------------------------------------------------
# Protocol II: spanning trees of EPR pairs


def prufer_tree(n, seq):
    """Decode a Prüfer sequence into the edge list of a labelled tree."""
    if n == 2:
        return [(1, 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    heap = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append(tuple(sorted((leaf, v))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    edges.append(tuple(sorted((heapq.heappop(heap), heapq.heappop(heap)))))
    return edges


def tree_network(edges, n=None):
    n = n if n is not None else max(max(e) for e in edges)
    tree = SpanningTree.from_edges(n, edges)
    return setup_epr_network(n, tree.edges), tree


def check_weave_identities(report, tree):
    n, k = tree.n, len(tree.leaves)
    assert report.worst_fidelity >= GOOD
    assert report.cbits == (1 if n == 2 else 2 * n + k - 4)
    assert report.cbits <= max(1, 3 * n - 5)
    assert report.epr_pairs_consumed == n - 1
    assert set(report.designated) == set(range(1, n + 1))


def test_weave_on_a_three_agent_path():
    net, tree = tree_network([(1, 2), (2, 3)])
    report = protocol_two(net)
    assert report.protocol == "II"
    assert len(report.branches) == 4
    assert report.k == 2
    assert report.cbits == 4
    check_weave_identities(report, tree)


def test_weave_on_a_five_agent_star_hits_the_cbit_ceiling():
    net, tree = tree_network([(1, 2), (1, 3), (1, 4), (1, 5)])
    report = protocol_two(net)
    assert len(report.branches) == 64
    assert report.k == 4
    assert report.cbits == 10 == 3 * tree.n - 5
    check_weave_identities(report, tree)


def test_weave_on_a_single_pair_degenerates_to_a_signal():
    net, tree = tree_network([(1, 2)])
    report = protocol_two(net)
    assert report.cbits == 1
    assert report.epr_pairs_consumed == 1
    assert report.branches == tuple(report.branches)
    assert len(report.branches) == 1
    assert report.branches[0].outcomes == ()
    assert report.worst_fidelity >= GOOD


def test_weave_fused_step_two_variant_saves_one_cbit():
    net, tree = tree_network([(1, 2), (2, 3)])
    report = protocol_two(net, step2="zeilinger")
    assert report.step2_variant == "zeilinger"
    assert len(report.branches) == 2
    assert report.cbits == 3 == 2 * 3 + 2 - 5
    assert report.worst_fidelity >= GOOD
    with pytest.raises(ValueError, match="variant"):
        protocol_two(tree_network([(1, 2), (2, 3)])[0], step2="other")


def test_weave_exhaustive_over_all_small_trees():
    # every labelled tree on 4 agents (16 Prüfer sequences)
    for seq in [(a, b) for a in range(1, 5) for b in range(1, 5)]:
        net, tree = tree_network(prufer_tree(4, seq), n=4)
        report = protocol_two(net)
        assert report.branch_mode == "all"
        check_weave_identities(report, tree)


def test_weave_on_random_larger_trees_with_sampling():
    rng = np.random.default_rng(20)
    for n in (6, 7, 8):
        seq = tuple(int(v) for v in rng.integers(1, n + 1, size=n - 2))
        net, tree = tree_network(prufer_tree(n, seq), n=n)
        report = protocol_two(net, branches=64, seed=9)
        assert report.branch_mode == "sample:64"
        assert len(report.branches) >= 32
        check_weave_identities(report, tree)


def test_sampled_branches_are_those_each_stream_reaches_on_its_own():
    net, tree = tree_network(prufer_tree(6, (2, 2, 5, 5)), n=6)
    report = protocol_two(net, branches=12, seed=5)
    schedule = report.transcript[len(net.transcript) :]
    reached, rng = set(), Random(5)
    for _ in range(12):  # 12 full runs of the schedule, one after another on one generator
        again = net.copy()
        again.chooser = Fork(rng=rng)
        again.run(schedule)
        reached.add(tuple(r.bit for r in again.transcript if isinstance(r, MeasureRecord)))
    assert [b.outcomes for b in report.branches] == sorted(reached)


def test_branch_cap_fallback_is_decided_before_any_branch_runs(monkeypatch):
    edges = [(1, 2), (2, 3), (2, 4), (4, 5)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return verify_ghz(*args, **kwargs)

    monkeypatch.setattr(protocols, "BRANCH_CAP", 16)
    monkeypatch.setattr(protocols, "verify_ghz", counted)
    report = protocol_two(tree_network(edges)[0], branches="all")
    assert report.branch_mode == "sample:1024"
    assert len(calls) == len(report.branches) == 64
    assert report.to_dict() == protocol_two(tree_network(edges)[0], branches=1024).to_dict()


@pytest.mark.parametrize("branches", ["all", 3])
def test_branches_run_in_increasing_order_and_the_lowest_gives_the_transcript(branches):
    # at seed 3 on this path, the live run draws 1010 and the two runs after it 0110 and 1101
    report = protocol_two(tree_network([(1, 2), (2, 3), (3, 4)])[0], branches=branches, seed=3)
    outcomes = [b.outcomes for b in report.branches]
    m = len(outcomes[0])
    if branches == "all":
        assert outcomes == list(itertools.product((0, 1), repeat=m))
    else:
        rng = Random(3)
        live = tuple(1 if rng.random() < 0.5 else 0 for _ in range(m))
        assert live in outcomes and live != outcomes[0]
        assert outcomes == sorted(outcomes)
    measured = tuple(r.bit for r in report.transcript if isinstance(r, MeasureRecord))
    assert measured == outcomes[0]


class _LiveRunDone(Exception):
    pass


def test_an_exhaustive_live_run_holds_no_more_than_a_sampled_one(monkeypatch):
    # the live run of "all" keeps no list of the branches it did not take
    def stop(*args, **kwargs):
        raise _LiveRunDone

    monkeypatch.setattr(protocols, "_explore", stop)
    edges = [(i, i + 1) for i in range(1, 256)]
    peaks = {}
    for branches in (1, "all"):
        net, tree = tree_network(edges)
        tracemalloc.start()
        try:
            with pytest.raises(_LiveRunDone):
                protocol_two(net, branches=branches)
            peaks[branches] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["all"] <= 1.1 * peaks[1], peaks


def any_admissible_hop(rng):
    """A stand-in for ``bfs_edges`` that fires any admissible hop next (an
    entangled agent to an unentangled neighbor), as ``rng`` draws it."""

    def walk(roots, neighbors):
        entangled, hops = set(roots), []
        while frontier := [
            (v, u) for v in sorted(entangled) for u in neighbors(v) if u not in entangled
        ]:
            v, u = rng.choice(frontier)
            entangled.add(u)
            hops.append((v, u))
        return hops

    return walk


def test_weave_is_insensitive_to_hop_ordering(monkeypatch):
    # past its first three agents, the first tree is a path: one hop order only
    reordered = 0
    for seq in ((3, 3, 5, 2), (2, 4, 4, 2)):
        edges = prufer_tree(6, seq)
        baseline = protocol_two(tree_network(edges, n=6)[0], branches=32, seed=4)
        for seed in (0, 1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(protocols, "bfs_edges", any_admissible_hop(Random(seed)))
                shuffled = protocol_two(tree_network(edges, n=6)[0], branches=32, seed=4)
            assert shuffled.cbits == baseline.cbits
            assert shuffled.worst_fidelity >= GOOD
            assert shuffled.epr_pairs_consumed == baseline.epr_pairs_consumed
            reordered += shuffled.transcript != baseline.transcript
    assert reordered  # some seed fired the hops out of breadth-first order


def test_weave_accepts_minimum_spanning_tree_input():
    edges = [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0), (3, 4, 0.5)]
    from eprweave.topology import EprGraph

    g = EprGraph(4, edges)
    tree = minimum_spanning_tree(g)
    net = setup_epr_network(4, tree.edges)
    report = protocol_two(net)
    check_weave_identities(report, tree)


def test_weave_refuses_pairs_that_are_not_a_tree():
    cycle = setup_epr_network(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError, match=r"^3 edges cannot form a tree on 3 agents$"):
        protocol_two(cycle)
    doubled = setup_epr_network(3, [(1, 2), (2, 3), (2, 1)])
    with pytest.raises(ValueError, match=r"^duplicate edge 1 2$"):
        protocol_two(doubled)
    bare = NetworkState(4)
    with pytest.raises(ConnectivityError, match=r"no path joins agents 1 and 2$"):
        protocol_two(bare)
    assert all(net.setup_open and net.cbit_count == 0 for net in (cycle, doubled, bare))
    closed, _ = tree_network([(1, 2), (2, 3)])
    closed.send_classical(1, ALL, [0])
    with pytest.raises(ProtocolError, match="already been operated"):
        protocol_two(closed)


@pytest.mark.parametrize(
    "protocol, build, command, spec",
    [
        (
            protocol_two,
            lambda: setup_epr_network(5, [(1, 2), (3, 4), (4, 5)]),
            "weave",
            "agents 5\nedge 1 2\nedge 3 4\nedge 4 5\n",
        ),
        (
            protocol_three,
            lambda: setup_group_network(EntangledHypergraph(5, [(1, 2), (3, 4, 5)])),
            "fuse",
            "agents 5\nhyper 1 2\nhyper 3 4 5\n",
        ),
    ],
    ids=["weave", "fuse"],
)
def test_a_disconnected_network_is_refused_as_the_cli_refuses_it(
    tmp_path, protocol, build, command, spec
):
    net = build()
    with pytest.raises(ConnectivityError) as refused:
        protocol(net)
    assert (refused.value.agent_a, refused.value.agent_b) == (1, 3)
    assert net.setup_open  # nothing ran
    assert net.cbit_count == 0
    assert all(isinstance(r, SetupRecord) for r in net.transcript)
    path = tmp_path / "split.spec"
    path.write_text(spec)
    code, out, err = cli([command, str(path)])
    assert (code, out) == (2, "")
    assert err == f"rejected: {refused.value} ({CONNECTIVITY_LAW})\n"


def test_weave_transcript_starts_with_the_wakeup_broadcast():
    net, tree = tree_network([(1, 2), (2, 3)])
    report = protocol_two(net)
    messages = [r for r in report.transcript if hasattr(r, "receivers")]
    assert messages[0].receivers == ALL
    assert messages[0].bits == (1,)


# ---------------------------------------------------------------------------
# Protocol III: merging pre-shared group states


def group_network(hyperedges, n=None):
    n = n if n is not None else max(max(e) for e in hyperedges)
    return setup_group_network(EntangledHypergraph(n, hyperedges))


def test_merge_chain_of_pairs_into_ghz():
    net = group_network([(1, 2), (2, 3), (3, 4)])
    report = protocol_three(net)
    assert report.protocol == "III"
    assert report.cbits == 2
    assert len(report.branches) == 4
    assert report.worst_fidelity >= GOOD
    steps = zip(report.merge_log, merged_sizes(report))
    assert [(m.pre_size, m.add_size, len(m.overlap), size) for m, size in steps] == [
        (2, 2, 1, 3),
        (3, 2, 1, 4),
    ]


def test_merge_overlapping_triples_uncopies_duplicates():
    net = group_network([(1, 2, 3), (2, 3, 4)])
    report = protocol_three(net)
    assert report.cbits == 1
    assert len(report.branches) == 2
    assert report.worst_fidelity >= GOOD
    (step,) = report.merge_log
    (size,) = merged_sizes(report)
    assert (step.pre_size, step.add_size, len(step.overlap), size) == (3, 3, 2, 4)


def test_merge_drops_redundant_contained_groups():
    net = group_network([(1, 2, 3), (1, 2, 3, 4)])
    report = protocol_three(net)
    assert report.cbits == 0
    assert report.merge_log == ()
    assert merged_sizes(report) == []
    assert report.worst_fidelity >= GOOD
    assert any(isinstance(r, DropGroupRecord) for r in report.transcript)


def test_merge_accepts_epr_pairs_as_two_agent_groups():
    # the larger group is the one fused into, whichever was set up first
    for pair_first in (False, True):
        net = NetworkState(4)
        if pair_first:
            net.distribute_epr(3, 4)
        net.distribute_ghz((1, 2, 3))
        if not pair_first:
            net.distribute_epr(3, 4)
        report = protocol_three(net)
        assert report.cbits == 1
        assert report.worst_fidelity >= GOOD
        assert [step.hyperedge for step in report.merge_log] == [frozenset({3, 4})]


def test_merge_rejects_disconnected_hypergraphs_before_any_quantum_op():
    net = group_network([(1, 2), (3, 4)])
    with pytest.raises(ConnectivityError):
        protocol_three(net)
    assert net.setup_open
    assert net.cbit_count == 0


@pytest.mark.parametrize(
    "first, second", [((2, 3), (1, 2)), ((1, 2), (2, 3))], ids=["2-3 first", "1-2 first"]
)
def test_merge_breaks_a_size_tie_by_setup_order(first, second):
    net = NetworkState(3)
    net.distribute_ghz(first)
    net.distribute_ghz(second)
    report = protocol_three(net)
    assert [step.hyperedge for step in report.merge_log] == [frozenset(second)]
    assert report.cbits == 1
    assert report.worst_fidelity >= GOOD


def random_connected_hypergraph(rng, n):
    """Chain random small chunks through shared anchors, plus extras."""
    agents = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
    edges = []
    covered = [agents[0]]
    i = 1
    while i < len(agents):
        take = min(int(rng.integers(1, 4)), len(agents) - i)
        anchor = covered[int(rng.integers(len(covered)))]
        edges.append(frozenset([anchor, *agents[i : i + take]]))
        covered.extend(agents[i : i + take])
        i += take
    for _ in range(int(rng.integers(0, 3))):
        size = int(rng.integers(2, min(4, n) + 1))
        extra = rng.choice(np.array(covered), size=size, replace=False)
        edges.append(frozenset(int(v) for v in extra))
    return EntangledHypergraph(n, edges)


def test_merge_random_connected_hypergraphs():
    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(3, 7))
        h = random_connected_hypergraph(rng, n)
        report = protocol_three(setup_group_network(h))
        assert report.worst_fidelity >= GOOD
        assert report.cbits == len(report.merge_log)
        for step, size in zip(report.merge_log, merged_sizes(report)):
            assert size == step.pre_size + step.add_size - len(step.overlap)


# ---------------------------------------------------------------------------
# verification helper


def test_verify_ghz_on_a_distributed_group_is_exact():
    net = NetworkState(3)
    held = net.distribute_ghz((1, 2, 3))
    assert verify_ghz(net, held, strict=True) == pytest.approx(1.0)


def test_verify_ghz_on_untouched_pairs_reports_the_classical_overlap():
    net = hub_network()
    designated = {1: 1, 2: 2, 3: 4}
    assert verify_ghz(net, designated) == pytest.approx(0.25, abs=1e-12)


def test_verify_ghz_strict_flags_residual_entanglement():
    net = hub_network()
    with pytest.raises(EntanglementError, match="remain entangled"):
        verify_ghz(net, {1: 1, 2: 2, 3: 4}, strict=True)


def test_verify_ghz_validates_designations():
    net = hub_network()
    with pytest.raises(ValueError, match="one designated qubit per agent"):
        verify_ghz(net, {1: 1, 2: 2})
    with pytest.raises(ValueError, match="not held by"):
        verify_ghz(net, {1: 1, 2: 2, 3: 3})


def test_verify_ghz_ignores_spectator_factors():
    net = NetworkState(3)
    held = net.distribute_ghz((1, 2, 3))
    spectator = net.distribute_epr(1, 2)  # extra pair, never touched
    assert verify_ghz(net, held, strict=True) == pytest.approx(1.0)
    # designating one half of the spectator pair leaves agent 2's qubit
    # entangled with an undesignated one, which strict mode flags
    with pytest.raises(EntanglementError):
        verify_ghz(net, {1: held[1], 2: spectator[1], 3: held[3]}, strict=True)


def test_weave_reports_are_json_ready():
    report = protocol_one(hub_network())
    d = report.to_dict()
    assert list(d) == [
        "protocol", "n", "k", "step2_variant", "branch_mode", "cbits",
        "epr_pairs_consumed", "merge_steps", "worst_fidelity", "designated",
        "branches",
    ]
    assert d["branches"][0]["outcomes"] == "00"


def test_weave_uses_bfs_tree_helper_end_to_end():
    from eprweave.topology import EprGraph

    g = EprGraph(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
    tree = spanning_tree(g)
    net = setup_epr_network(4, tree.edges)
    report = protocol_two(net)
    check_weave_identities(report, tree)
