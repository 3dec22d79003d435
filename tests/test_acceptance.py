"""Acceptance suite: one test per headline guarantee of the package.

Each test re-derives its expected values from scratch (independent
oracles, exhaustive enumerations, or closed-form identities) rather than
trusting the library's own bookkeeping, runs at the stated tolerances,
and prints a single PASS line on success.

1. the three-party weave is exact on every branch, stage by stage;
2. the tree weave identity (fidelity, 2n+k-4 cbits, n-1 pairs) holds
   across exhaustive small trees and sampled large ones;
3. disconnected networks are rejected up front, and no legal LOCC
   sequence moves the cross-component entanglement off zero;
4. the group-fusion protocol works on random connected hypergraphs with
   exact classical cost and size bookkeeping;
5. the topology layer agrees with brute-force oracles;
6. the simulator core teleports faithfully, preserves norms, and gets
   GHZ reduced states right;
7. seeded CLI runs are byte-for-byte reproducible.
"""

import io
import itertools
import json
import math
import time

import numpy as np
import pytest

from eprweave.cli import run as cli_run
from eprweave.errors import ConnectivityError
from eprweave.gates import Fork
from eprweave.locc import (
    ALL,
    DiscardRecord,
    FactorSizeRecord,
    NetworkState,
    SetupRecord,
)
from eprweave.protocols import (
    protocol_one,
    protocol_three,
    protocol_two,
    setup_epr_network,
    setup_group_network,
    teleport,
)
from eprweave.stabilizer import Tableau
from eprweave.statevec import CNOT, H, StateVector, X, Z, ghz_state
from eprweave.topology import (
    EntangledHypergraph,
    EprGraph,
    SpanningTree,
    hypergraph_is_connected,
    minimum_spanning_tree,
    spanning_tree,
)
from dense_oracle import run_dense
from tableau_view import assert_stabilizer_generators
from weave_stages import weave_stages

GOOD = 1 - 1e-10


# ---------------------------------------------------------------------------
# small self-contained oracles


def prufer_tree(n, seq):
    """Decode a Prüfer sequence into a labelled tree's edge list."""
    import heapq

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


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def hub_network():
    net = NetworkState(3)
    net.distribute_epr(1, 2)
    net.distribute_epr(1, 3)
    return net


def weighted_basis(qubits, terms):
    amps = np.zeros(2 ** len(qubits), dtype=complex)
    pos = {q: i for i, q in enumerate(qubits)}
    for coeff, bits in terms:
        index = 0
        for q, bit in bits.items():
            if bit:
                index |= 1 << pos[q]
        amps[index] += coeff
    return StateVector(tuple(qubits), amps)


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# 1. three-party weave exactness


def stage_oracle(stage, roles, measured):
    """Hand-derived state after each stage of the three-party weave."""
    a1, b = roles["keep"], roles["x_qubit"]
    a3, a2, c = roles["ancilla"], roles["channel"], roles["z_qubit"]
    inv = 1 / math.sqrt(2)
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    if stage == 1:
        terms = [(0.5, {a1: x, b: x, a3: x, a2: z, c: z}) for x, z in pairs]
    elif stage == 2:
        terms = [(0.5, {a1: x, b: x, a3: x, a2: z ^ x, c: z}) for x, z in pairs]
    elif stage == 3:
        (m,) = measured
        terms = [(inv, {a1: x, b: x, a3: x, a2: m, c: x ^ m}) for x in (0, 1)]
    elif stage == 4:
        (m,) = measured
        terms = [
            (0.5 * (-1) ** (x * y), {a1: x, b: x, a3: y, a2: m, c: x ^ m})
            for x, y in pairs
        ]
    elif stage == 5:
        m, y = measured
        terms = [
            (inv * (-1) ** (x * y), {a1: x, b: x, a3: y, a2: m, c: x ^ m})
            for x in (0, 1)
        ]
    elif stage == 6:
        m, y = measured
        terms = [
            (inv * (-1) ** (x * y), {a1: x ^ m, b: x ^ m, a3: y, a2: m, c: x ^ m})
            for x in (0, 1)
        ]
    else:
        m, y = measured
        terms = [
            (inv * (-1) ** (m * y), {a1: u, b: u, a3: y, a2: m, c: u})
            for u in (0, 1)
        ]
    return weighted_basis((a1, b, a3, a2, c), terms)


def test_acceptance_1_three_party_weave_exact_on_every_branch():
    started = time.perf_counter()
    report = protocol_one(hub_network())
    snapshots = weave_stages(report)
    elapsed = time.perf_counter() - started

    assert len(report.branches) == 4
    assert {br.outcomes for br in report.branches} == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }
    for br in report.branches:
        assert br.fidelity >= GOOD
    assert report.cbits == 2
    # intermediates: 7 stages x 4 branches, amplitude-by-amplitude up to
    # a global phase (fidelity 1 on pure states is exactly that); the
    # final stage oracle is GHZ x |y> x |m>, so the ancillas factor out
    assert len(snapshots) == 28
    for stage, snapshot, roles, measured in snapshots:
        assert snapshot.fidelity(stage_oracle(stage, roles, measured)) >= GOOD
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(
        "PASS 1: three-party weave exact on all 4 branches, 7/7 stages, "
        f"2 cbits, {elapsed * 1000:.0f} ms"
    )


# ---------------------------------------------------------------------------
# 2. tree weave identity


def test_acceptance_2_tree_weave_identity_across_tree_census():
    started = time.perf_counter()
    trees = []
    for n in (3, 4, 5):  # every labelled tree, via its Prüfer sequence
        for seq in itertools.product(range(1, n + 1), repeat=n - 2):
            trees.append((n, prufer_tree(n, seq), "all"))
    rng = np.random.default_rng(2024)
    for i in range(50):  # random larger trees, sampled branches
        n = 6 + i % 3
        seq = tuple(int(v) for v in rng.integers(1, n + 1, size=n - 2))
        trees.append((n, prufer_tree(n, seq), 64))
    assert len(trees) == 3 + 16 + 125 + 50

    for n, edges, branches in trees:
        tree = SpanningTree.from_edges(n, edges)
        net = setup_epr_network(n, tree.edges)
        report = protocol_two(net, branches=branches, seed=11)
        k = len(tree.leaves)
        assert report.worst_fidelity >= GOOD, (n, edges)
        assert report.cbits == 2 * n + k - 4, (n, edges)
        assert report.cbits <= 3 * n - 5, (n, edges)
        assert report.epr_pairs_consumed == n - 1, (n, edges)
        if branches == "all":
            assert len(report.branches) == 2 ** (2 * n - 4)
        else:
            assert len(report.branches) >= 32
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"PASS 2: weave identity (fidelity, 2n+k-4 cbits <= 3n-5, n-1 pairs) "
        f"on {len(trees)} trees in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 3. necessity: disconnection is rejected and uncrossable


def test_acceptance_3_disconnected_networks_rejected_and_loccproof(tmp_path):
    # up-front rejection with exit code 2, before any quantum operation
    graph_spec = tmp_path / "graph.spec"
    graph_spec.write_text("agents 4\nedge 1 2\nedge 3 4\n")
    hyper_spec = tmp_path / "hyper.spec"
    hyper_spec.write_text("agents 5\nhyper 1 2 3\nhyper 4 5\n")
    for command, path in (
        ("check", graph_spec), ("weave", graph_spec), ("tree", graph_spec),
        ("check", hyper_spec), ("fuse", hyper_spec),
    ):
        code, _, err = cli([command, str(path)])
        assert code == 2, (command, err)
        assert "if and only if" in err

    with pytest.raises(ConnectivityError):
        spanning_tree(EprGraph(4, [(1, 2), (3, 4)]))
    h = EntangledHypergraph(5, [(1, 2, 3), (4, 5)])
    net = setup_group_network(h)
    with pytest.raises(ConnectivityError):
        protocol_three(net)
    assert net.setup_open  # nothing ran
    assert net.cbit_count == 0
    assert all(isinstance(r, SetupRecord) for r in net.transcript)

    # 1000 random legal LOCC scripts on split setups: the cut stays dead
    sequences = 1000
    for i in range(sequences):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=31, spawn_key=(i,)))
        net, left = _random_split_setup(rng)
        assert net.audit_cut(left) <= 1e-10
        for _ in range(int(rng.integers(4, 11))):
            _random_legal_op(rng, net)
            assert net.audit_cut(left) <= 1e-10
    print(
        "PASS 3: disconnected specs exit 2 before any quantum op; "
        f"cross-cut entropy stayed <= 1e-10 through {sequences} random LOCC scripts"
    )


def _random_split_setup(rng):
    """Two independently entangled agent islands with no shared pair."""
    a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    net = NetworkState(a + b, chooser=Fork(rng=rng))
    left = list(range(1, a + 1))
    right = list(range(a + 1, a + b + 1))
    for island in (left, right):
        if len(island) < 2:
            continue
        for _ in range(int(rng.integers(0, 3))):
            x, y = (int(v) for v in rng.choice(island, size=2, replace=False))
            net.distribute_epr(x, y)
        if rng.random() < 0.5:
            size = int(rng.integers(2, len(island) + 1))
            net.distribute_ghz(int(v) for v in rng.choice(island, size=size, replace=False))
    return net, left


def _random_legal_op(rng, net):
    """One random LOCC-legal operation (local act or classical message)."""
    kinds = ["ancilla", "gate", "cnot", "measure", "send", "conditioned"]
    rng.shuffle(kinds)
    mine = {}
    for q, agent in net.owner.items():
        mine.setdefault(agent, []).append(q)
    for kind in kinds:
        if kind == "ancilla":
            net.add_ancilla(int(rng.choice(list(net.agents))))
            return
        if kind == "gate" and mine:
            agent = int(rng.choice(list(mine)))
            q = int(rng.choice(mine[agent]))
            gate = rng.choice([X, Z, H])(q)
            net.local_gate(agent, gate)
            return
        if kind == "cnot":
            rich = [a for a, qs in mine.items() if len(qs) >= 2]
            if rich:
                agent = int(rng.choice(rich))
                q1, q2 = (int(v) for v in rng.choice(mine[agent], size=2, replace=False))
                net.local_gate(agent, CNOT(q1, q2))
                return
        if kind == "measure" and mine:
            agent = int(rng.choice(list(mine)))
            net.local_measure(agent, int(rng.choice(mine[agent])))
            return
        if kind == "send":
            sender = int(rng.choice(list(net.agents)))
            known = sorted(net.knowledge[sender])
            bits = []
            for _ in range(int(rng.integers(1, 3))):
                if known and rng.random() < 0.5:
                    bits.append(str(rng.choice(known)))
                else:
                    bits.append(int(rng.integers(0, 2)))
            others = [a for a in net.agents if a != sender]
            to = ALL if rng.random() < 0.3 else int(rng.choice(others))
            net.send_classical(sender, to, bits)
            return
        if kind == "conditioned":
            informed = [
                a for a in net.agents if net.knowledge[a] and mine.get(a)
            ]
            if informed:
                agent = int(rng.choice(informed))
                label = str(rng.choice(sorted(net.knowledge[agent])))
                q = int(rng.choice(mine[agent]))
                net.local_gate(agent, rng.choice([X, Z])(q), when=label)
                return
    raise AssertionError("no legal operation found")


# ---------------------------------------------------------------------------
# 4. group fusion on random hypergraphs


def _random_connected_hypergraph(rng, n):
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
        edges.append(frozenset(int(v) for v in rng.choice(covered, size=size, replace=False)))
    assert all(2 <= len(e) <= 4 for e in edges)
    return EntangledHypergraph(n, edges)


def merged_sizes(report) -> list[int]:
    """The size that each merge step's ``FactorSizeRecord`` enforced, one
    record per step of ``report.merge_log``, in order."""
    sizes = [rec.size for rec in report.transcript if isinstance(rec, FactorSizeRecord)]
    assert len(sizes) == len(report.merge_log)
    return sizes


def test_acceptance_4_group_fusion_on_random_hypergraphs():
    rng = np.random.default_rng(404)
    # five staircases of triples: consecutive groups share two agents, so
    # every merge step has overlap 2 and must release a duplicate qubit
    cases = [
        EntangledHypergraph(n, [(i, i + 1, i + 2) for i in range(1, n - 1)])
        for n in (4, 5, 6, 7, 8)
    ]
    while len(cases) < 30:
        h = _random_connected_hypergraph(rng, int(rng.integers(3, 9)))
        if hypergraph_is_connected(h):
            cases.append(h)

    deep_overlap_cases = 0
    for h in cases:
        report = protocol_three(setup_group_network(h))
        assert report.worst_fidelity >= GOOD, h.hyperedges
        for br in report.branches:
            assert br.fidelity >= GOOD, h.hyperedges
        # classical cost is exactly one broadcast bit per merge step
        assert report.cbits == len(report.merge_log)
        # the |F| + |E_i| - |F n E_i| bookkeeping versus the simulation
        for step, size in zip(report.merge_log, merged_sizes(report)):
            assert size == step.pre_size + step.add_size - len(step.overlap)
        # every merge discards one fused qubit plus (overlap-1) duplicates,
        # each verified in |0> before discard (or the run would have raised)
        discards = sum(isinstance(r, DiscardRecord) for r in report.transcript)
        assert discards == sum(len(step.overlap) for step in report.merge_log)
        if any(len(step.overlap) >= 2 for step in report.merge_log):
            deep_overlap_cases += 1
    assert deep_overlap_cases >= 5
    print(
        f"PASS 4: fused {len(cases)} random hypergraphs exactly "
        f"({deep_overlap_cases} with duplicate-releasing overlaps >= 2)"
    )


# ---------------------------------------------------------------------------
# 5. topology oracles


def test_acceptance_5_topology_matches_bruteforce_oracles():
    rng = np.random.default_rng(505)
    # hypergraph connectivity vs union-find over clique expansions
    for _ in range(200):
        n = int(rng.integers(1, 10))
        edges = []
        for _ in range(int(rng.integers(0, 5))):
            size = int(rng.integers(2, min(4, n) + 1)) if n >= 2 else 2
            if n < 2:
                break
            edges.append(frozenset(int(v) for v in rng.choice(np.arange(1, n + 1), size=size, replace=False)))
        h = EntangledHypergraph(n, edges)
        uf = UnionFind(range(1, n + 1))
        for e in edges:
            members = sorted(e)
            for v in members[1:]:
                uf.union(members[0], v)
        oracle = len({uf.find(v) for v in range(1, n + 1)}) == 1
        assert hypergraph_is_connected(h) == oracle, (n, edges)

    # minimum spanning trees vs exhaustive enumeration
    def exhaustive_mst_weight(g):
        best = None
        for combo in itertools.combinations(g.edges, g.n - 1):
            uf = UnionFind(range(1, g.n + 1))
            for a, b in combo:
                uf.union(a, b)
            if len({uf.find(v) for v in range(1, g.n + 1)}) == 1:
                total = sum(g.weight(a, b) for a, b in combo)
                best = total if best is None else min(best, total)
        return best

    for case in range(20):
        n = int(rng.integers(3, 7))
        edges = set(prufer_tree(n, tuple(int(v) for v in rng.integers(1, n + 1, size=n - 2))))
        for _ in range(int(rng.integers(0, 4))):
            a, b = (int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
            edges.add((min(a, b), max(a, b)))
        weighted = [(a, b, float(rng.choice([0.5, 1.0, 1.0, 2.0, 3.0]))) for a, b in sorted(edges)]
        g = EprGraph(n, weighted)
        tree = minimum_spanning_tree(g)
        assert tree.total_weight(g) == pytest.approx(exhaustive_mst_weight(g), abs=1e-12)
    print(
        "PASS 5: connectivity agreed with union-find on 200 hypergraphs; "
        "MST weight agreed with exhaustive enumeration on 20 graphs"
    )


# ---------------------------------------------------------------------------
# 6. simulator core


def test_acceptance_6_simulator_core_guarantees():
    rng = np.random.default_rng(606)

    # 100 random single-qubit states, teleported on all four branches: the
    # dense oracle runs the teleport schedule with the payload loaded
    net = NetworkState(2, chooser=Fork())
    net.distribute_epr(1, 2)
    payload = net.add_ancilla(1)
    carrier = teleport(net, 1, payload, 2)
    for _ in range(100):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        for prefix in ((0, 0), (0, 1), (1, 0), (1, 1)):
            received = run_dense(net.transcript, prefix, inputs={payload: amps}).state((carrier,))
            assert received.fidelity(StateVector((carrier,), amps)) >= GOOD

    # norm preserved within 1e-12 by every gate application; the same gates
    # keep a tableau's rows n independent, commuting generators
    for _ in range(60):
        n = int(rng.integers(1, 6))
        raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(tuple(range(n)), raw / np.linalg.norm(raw))
        tableau = Tableau.zeros(tuple(range(n)))
        for _ in range(12):
            q = int(rng.integers(n))
            if n >= 2 and rng.random() < 0.4:
                others = [v for v in range(n) if v != q]
                gate = CNOT(q, int(rng.choice(others)))
            else:
                gate = rng.choice([X, Z, H])(q)
            state = state.apply(gate)
            assert abs(state.norm_squared() - 1.0) <= 1e-12
            tableau = tableau.apply(gate)
            assert_stabilizer_generators(tableau)

    # GHZ_n: every single-qubit reduced state is the maximally mixed one,
    # and every single qubit of the tableau's GHZ_n carries one bit of entropy
    for n in range(2, 9):
        qubits = tuple(range(1, n + 1))
        state, tableau = ghz_state(qubits), Tableau.ghz(qubits)
        for q in qubits:
            rho = state.reduced_density(q)
            assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-10
            assert tableau.cut_entropy({q}) == 1.0
    print(
        "PASS 6: 100 teleports exact on all 4 branches; norms within 1e-12 and "
        "tableau generators valid over 720 gates; GHZ reduced states I/2 within "
        "1e-10 and tableau single-qubit entropy 1 up to n=8"
    )


def test_acceptance_6_teleporting_half_of_a_bell_pair_is_exact_on_every_branch():
    # Choi-Jamiolkowski: a channel that hands on half of a Bell pair as half
    # of the same Bell pair is the identity on every input state
    for prefix in ((0, 0), (0, 1), (1, 0), (1, 1)):
        net = NetworkState(3, chooser=Fork(prefix))
        net.distribute_epr(1, 2)
        payload, reference = net.distribute_epr(1, 3)
        carrier = teleport(net, 1, payload, 2)
        pair = {carrier, reference}
        (factor,) = net.factors(pair)
        assert set(factor.qubits) == pair  # nothing else is entangled with the pair
        t00, t11, t01 = factor.ghz_terms(pair)
        assert (t00 + t11 + 2 * t01.real) / 2 == 1.0
    print("PASS 6: half of a Bell pair teleported to an exact Bell pair on all 4 branches")


# ---------------------------------------------------------------------------
# 7. determinism


def test_acceptance_7_seeded_weave_reports_are_byte_identical(tmp_path):
    spec = tmp_path / "net.spec"
    spec.write_text("agents 6\nedge 1 2\nedge 2 3\nedge 2 4\nedge 4 5\nedge 4 6\n")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code1, _, _ = cli(
        ["weave", str(spec), "--seed", "7", "--branches", "sample:40", "--report", str(first)]
    )
    code2, _, _ = cli(
        ["weave", str(spec), "--seed", "7", "--branches", "sample:40", "--report", str(second)]
    )
    assert code1 == code2 == 0
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    doc = json.loads(a)
    assert doc["seed"] == 7
    assert doc["result"]["ok"] is True
    print(f"PASS 7: weave --seed 7 reports byte-identical ({len(a)} bytes)")
