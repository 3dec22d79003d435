"""Tests for the weaving protocols.

The three-party weave is checked stage by stage against states written
out by hand from the circuit algebra (see ``expected_stage_state``), not
just by its end product, and every protocol is exercised on all of its
measurement branches.
"""

import heapq
import math

import numpy as np
import pytest

from eprweave.errors import (
    ConnectivityError,
    EntanglementError,
    ProtocolError,
)
from eprweave import protocols
from eprweave.locc import ALL, DropGroupRecord, MeasureRecord, NetworkState, RecordingChooser
from eprweave.protocols import (
    CorrectionRule,
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
    snapshots = []

    def on_stage(stage, snapshot, roles, measured):
        snapshots.append((stage, snapshot, roles, measured))

    report = protocol_one(hub_network(), on_stage=on_stage)
    assert len(report.branches) == 4
    assert len(snapshots) == 7 * 4
    for stage, snapshot, roles, measured in snapshots:
        expected = expected_stage_state(stage, roles, measured)
        assert snapshot.fidelity(expected) >= GOOD, (stage, measured)


def test_sampled_weave_stages_each_reported_branch_once_in_report_order():
    staged = []
    report = protocol_one(
        hub_network(), branches=16, seed=3, on_stage=lambda *rec: staged.append(rec)
    )
    assert report.branch_mode == "sample:16" and 1 < len(report.branches) <= 4
    assert [stage for stage, *_ in staged] == list(range(1, 8)) * len(report.branches)
    finals = [measured for stage, _, _, measured in staged if stage == 7]
    assert finals == [b.outcomes for b in report.branches]
    for stage, snapshot, roles, measured in staged:
        assert len(measured) == (stage >= 3) + (stage >= 5)
        assert snapshot.fidelity(expected_stage_state(stage, roles, measured)) >= GOOD


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


def test_correction_rule_cyclic_succession():
    rule = CorrectionRule(cycle=(1, 2, 3), sharer=1)
    assert (rule.x_applier, rule.z_applier) == (2, 3)
    rule = CorrectionRule(cycle=(1, 2, 3), sharer=3)
    assert (rule.x_applier, rule.z_applier) == (1, 2)
    rule = CorrectionRule(cycle=(2, 1, 3), sharer=2)
    assert (rule.x_applier, rule.z_applier) == (1, 3)
    with pytest.raises(ValueError):
        CorrectionRule(cycle=(1, 1, 2), sharer=1)
    with pytest.raises(ValueError):
        CorrectionRule(cycle=(1, 2, 3), sharer=4)


def test_three_party_weave_honours_explicit_correction_rule():
    rule = CorrectionRule(cycle=(1, 3, 2), sharer=1)
    report = protocol_one(hub_network(), rule)
    assert report.worst_fidelity >= GOOD
    # agent 3 now takes the X role, agent 2 the Z role
    assert report.designated[3] == 4
    assert report.designated[2] == 2


def test_three_party_weave_rejects_bad_setups():
    with pytest.raises(ProtocolError, match="exactly 3 agents"):
        protocol_one(NetworkState(4))
    with pytest.raises(ProtocolError, match="exactly 2 EPR pairs"):
        net = NetworkState(3)
        net.distribute_epr(1, 2)
        protocol_one(net)
    with pytest.raises(ProtocolError, match="share a single hub"):
        net = NetworkState(3)
        net.distribute_epr(1, 2)
        net.distribute_epr(1, 2)
        protocol_one(net)
    with pytest.raises(ProtocolError, match="already been operated"):
        net = hub_network()
        net.send_classical(1, 2, [1])
        protocol_one(net)
    with pytest.raises(ProtocolError, match="sharer"):
        protocol_one(hub_network(), CorrectionRule(cycle=(1, 2, 3), sharer=2))


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
    state = net.joint_state((fresh,))
    assert state.fidelity(ghz_state((held[1], held[2], fresh))) >= GOOD
    assert net.cbit_count == 0


def test_teleport_moves_an_unknown_qubit_on_every_branch():
    for prefix in ((0, 0), (0, 1), (1, 0), (1, 1)):
        net = NetworkState(2, chooser=RecordingChooser(prefix))
        net.distribute_epr(1, 2)
        payload = net.add_ancilla(1)
        net.local_gate(1, H(payload))
        net.local_gate(1, Z(payload))
        carrier = teleport(net, 1, payload, 2)
        assert net.owner[carrier] == 2
        expected = StateVector((carrier,), np.array([1, -1]) / math.sqrt(2))
        assert net.joint_state((carrier,)).fidelity(expected) >= GOOD
        assert net.cbit_count == 2
        assert all(p.consumed for p in net.epr_pairs)


def test_teleport_preserves_entanglement_of_the_payload():
    for prefix in ((0, 0), (0, 1), (1, 0), (1, 1)):
        net = NetworkState(3, chooser=RecordingChooser(prefix))
        net.distribute_epr(1, 3)
        held = net.distribute_ghz((1, 2))
        fresh = extend_ghz(net, 1, held[1])
        carrier = teleport(net, 1, fresh, 3)
        designated = {1: held[1], 2: held[2], 3: carrier}
        assert verify_ghz(net, designated, strict=True) >= GOOD


def test_fusion_step_merges_two_groups_at_the_junction():
    for prefix in ((0,), (1,)):
        net = NetworkState(4, chooser=RecordingChooser(prefix))
        big = net.distribute_ghz((1, 2, 3))
        small = net.distribute_ghz((3, 4))
        survivors = fusion_step(net, set(big.values()), set(small.values()), 3)
        assert survivors == {big[1], big[2], big[3], small[4]}
        assert net.cbit_count == 1
        designated = {1: big[1], 2: big[2], 3: big[3], 4: small[4]}
        assert verify_ghz(net, designated, strict=True) >= GOOD


def test_fusion_step_outcomes_are_equally_likely():
    chooser = RecordingChooser()
    net = NetworkState(4, chooser=chooser)
    big = net.distribute_ghz((1, 2, 3))
    small = net.distribute_ghz((3, 4))
    fusion_step(net, set(big.values()), set(small.values()), 3)
    (_, p0, p1), = chooser.record
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert p1 == pytest.approx(0.5, abs=1e-12)


def test_fusion_step_requires_one_qubit_per_group_at_the_junction():
    net = NetworkState(4, chooser=RecordingChooser())
    big = net.distribute_ghz((1, 2, 3))
    small = net.distribute_ghz((3, 4))
    with pytest.raises(ProtocolError, match="exactly one qubit"):
        fusion_step(net, set(big.values()), set(small.values()), 2)


def test_disentangle_duplicate_releases_a_copied_qubit():
    net = NetworkState(3, chooser=RecordingChooser())
    held = net.distribute_ghz((1, 2, 3))
    extra = extend_ghz(net, 1, held[1])
    disentangle_duplicate(net, 1, held[1], extra)
    assert extra not in net.owner
    assert net.cbit_count == 0
    assert verify_ghz(net, held, strict=True) >= GOOD


def test_disentangle_duplicate_rejects_anticorrelated_qubits():
    net = NetworkState(2, chooser=RecordingChooser())
    held = net.distribute_ghz((1, 2))
    extra = extend_ghz(net, 1, held[1])
    net.local_gate(1, X(extra))
    with pytest.raises(EntanglementError, match="not perfectly correlated"):
        disentangle_duplicate(net, 1, held[1], extra)


def test_disentangle_duplicate_rejects_uncorrelated_qubits():
    net = NetworkState(1, chooser=RecordingChooser())
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
    report = protocol_two(net, tree)
    assert report.protocol == "II"
    assert len(report.branches) == 4
    assert report.k == 2
    assert report.cbits == 4
    check_weave_identities(report, tree)


def test_weave_on_a_five_agent_star_hits_the_cbit_ceiling():
    net, tree = tree_network([(1, 2), (1, 3), (1, 4), (1, 5)])
    report = protocol_two(net, tree)
    assert len(report.branches) == 64
    assert report.k == 4
    assert report.cbits == 10 == 3 * tree.n - 5
    check_weave_identities(report, tree)


def test_weave_on_a_single_pair_degenerates_to_a_signal():
    net, tree = tree_network([(1, 2)])
    report = protocol_two(net, tree)
    assert report.cbits == 1
    assert report.epr_pairs_consumed == 1
    assert report.branches == tuple(report.branches)
    assert len(report.branches) == 1
    assert report.branches[0].outcomes == ()
    assert report.worst_fidelity >= GOOD


def test_weave_fused_step_two_variant_saves_one_cbit():
    net, tree = tree_network([(1, 2), (2, 3)])
    report = protocol_two(net, tree, step2="zeilinger")
    assert report.step2_variant == "zeilinger"
    assert len(report.branches) == 2
    assert report.cbits == 3 == 2 * 3 + 2 - 5
    assert report.worst_fidelity >= GOOD
    with pytest.raises(ValueError, match="variant"):
        protocol_two(*tree_network([(1, 2), (2, 3)]), step2="other")


def test_weave_exhaustive_over_all_small_trees():
    # every labelled tree on 4 agents (16 Prüfer sequences)
    for seq in [(a, b) for a in range(1, 5) for b in range(1, 5)]:
        net, tree = tree_network(prufer_tree(4, seq), n=4)
        report = protocol_two(net, tree)
        assert report.branch_mode == "all"
        check_weave_identities(report, tree)


def test_weave_on_random_larger_trees_with_sampling():
    rng = np.random.default_rng(20)
    for n in (6, 7, 8):
        seq = tuple(int(v) for v in rng.integers(1, n + 1, size=n - 2))
        net, tree = tree_network(prufer_tree(n, seq), n=n)
        report = protocol_two(net, tree, branches=64, seed=9)
        assert report.branch_mode == "sample:64"
        assert len(report.branches) >= 32
        check_weave_identities(report, tree)


def test_sampled_branches_are_those_each_stream_reaches_on_its_own():
    net, tree = tree_network(prufer_tree(6, (2, 2, 5, 5)), n=6)
    report = protocol_two(net, tree, branches=12, seed=5)
    schedule = report.transcript[len(net.transcript) :]
    reached = set()
    for i in range(12):  # one full run of the schedule per stream
        rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(i,)))
        run = net.copy()
        for rec in schedule:
            run.apply(rec, choose=rng if isinstance(rec, MeasureRecord) else None)
        reached.add(tuple(r.bit for r in run.transcript if isinstance(r, MeasureRecord)))
    assert [b.outcomes for b in report.branches] == sorted(reached)


def test_branch_cap_fallback_is_decided_before_any_branch_runs(monkeypatch):
    edges = [(1, 2), (2, 3), (2, 4), (4, 5)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return verify_ghz(*args, **kwargs)

    monkeypatch.setattr(protocols, "BRANCH_CAP", 16)
    monkeypatch.setattr(protocols, "verify_ghz", counted)
    report = protocol_two(*tree_network(edges), branches="all")
    assert report.branch_mode == "sample:1024"
    assert len(calls) == len(report.branches) == 64
    assert report.to_dict() == protocol_two(*tree_network(edges), branches=1024).to_dict()


def test_weave_is_insensitive_to_hop_ordering():
    edges = prufer_tree(6, (3, 3, 5, 2))
    baseline = protocol_two(*tree_network(edges, n=6), branches=32, seed=4)
    for seed in (0, 1, 2):
        net, tree = tree_network(edges, n=6)
        shuffled = protocol_two(
            net, tree, branches=32, seed=4, order_rng=np.random.default_rng(seed)
        )
        assert shuffled.cbits == baseline.cbits
        assert shuffled.worst_fidelity >= GOOD
        assert shuffled.epr_pairs_consumed == baseline.epr_pairs_consumed


def test_weave_accepts_minimum_spanning_tree_input():
    edges = [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0), (3, 4, 0.5)]
    from eprweave.topology import EprGraph

    g = EprGraph(4, edges)
    tree = minimum_spanning_tree(g)
    net = setup_epr_network(4, tree.edges)
    report = protocol_two(net, tree)
    check_weave_identities(report, tree)


def test_weave_rejects_mismatched_setups():
    net, tree = tree_network([(1, 2), (2, 3)])
    _, other = tree_network([(1, 3), (2, 3)])
    with pytest.raises(ProtocolError, match="do not match the tree"):
        protocol_two(net, other)
    with pytest.raises(ProtocolError, match="agents"):
        protocol_two(NetworkState(4), tree)
    closed, tree2 = tree_network([(1, 2), (2, 3)])
    closed.send_classical(1, ALL, [0])
    with pytest.raises(ProtocolError, match="already been operated"):
        protocol_two(closed, tree2)


def test_weave_transcript_starts_with_the_wakeup_broadcast():
    net, tree = tree_network([(1, 2), (2, 3)])
    report = protocol_two(net, tree)
    messages = [r for r in report.transcript if hasattr(r, "receivers")]
    assert messages[0].receivers == ALL
    assert messages[0].bits == (1,)


# ---------------------------------------------------------------------------
# Protocol III: merging pre-shared group states


def group_network(hyperedges, n=None):
    n = n if n is not None else max(max(e) for e in hyperedges)
    h = EntangledHypergraph(n, hyperedges)
    return setup_group_network(h), h


def test_merge_chain_of_pairs_into_ghz():
    net, h = group_network([(1, 2), (2, 3), (3, 4)])
    report = protocol_three(net, h)
    assert report.protocol == "III"
    assert report.cbits == 2
    assert len(report.branches) == 4
    assert report.worst_fidelity >= GOOD
    assert [(m.pre_size, m.add_size, m.overlap, m.merged_size) for m in report.merge_log] == [
        (2, 2, 1, 3),
        (3, 2, 1, 4),
    ]


def test_merge_overlapping_triples_uncopies_duplicates():
    net, h = group_network([(1, 2, 3), (2, 3, 4)])
    report = protocol_three(net, h)
    assert report.cbits == 1
    assert len(report.branches) == 2
    assert report.worst_fidelity >= GOOD
    (step,) = report.merge_log
    assert (step.pre_size, step.add_size, step.overlap, step.merged_size) == (3, 3, 2, 4)


def test_merge_drops_redundant_contained_groups():
    net, h = group_network([(1, 2, 3), (1, 2, 3, 4)])
    report = protocol_three(net, h)
    assert report.cbits == 0
    assert report.merge_log == ()
    assert report.worst_fidelity >= GOOD
    assert any(isinstance(r, DropGroupRecord) for r in report.transcript)


def test_merge_accepts_epr_pairs_as_two_agent_groups():
    h = EntangledHypergraph(4, [(1, 2, 3), (3, 4)])
    net = NetworkState(4)
    net.distribute_ghz((1, 2, 3))
    net.distribute_epr(3, 4)
    report = protocol_three(net, h)
    assert report.cbits == 1
    assert report.worst_fidelity >= GOOD


def test_merge_rejects_disconnected_hypergraphs_before_any_quantum_op():
    net, h = group_network([(1, 2), (3, 4)])
    with pytest.raises(ConnectivityError):
        protocol_three(net, h)
    assert net.setup_open
    assert net.cbit_count == 0


def test_merge_rejects_mismatched_group_distribution():
    h = EntangledHypergraph(3, [(1, 2), (2, 3)])
    net = NetworkState(3)
    net.distribute_ghz((2, 3))
    net.distribute_ghz((1, 2))
    with pytest.raises(ProtocolError, match="do not match the hypergraph"):
        protocol_three(net, h)


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
        report = protocol_three(setup_group_network(h), h)
        assert report.worst_fidelity >= GOOD
        assert report.cbits == len(report.merge_log)
        for step in report.merge_log:
            assert step.merged_size == step.pre_size + step.add_size - step.overlap


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
    report = protocol_two(net, tree)
    check_weave_identities(report, tree)
