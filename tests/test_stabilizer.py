"""Oracle tests for the stabilizer tableau.

The dense ``StateVector`` is the oracle. Hypothesis draws X/Z/H/CNOT and
measurement sequences over products of Bell pairs, GHZ states and |0>
registers, and after every operation each query of the ``Tableau`` must
agree with the same query of the dense state. A tableau over an armed
shape must give, on every sign word, exactly what the unarmed computation
gives. Every branch of a whole protocol run must agree with the dense
transcript interpreter (``dense_oracle``), and the tableau must carry the
protocols to sizes no dense register reaches.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprweave import protocols
from eprweave.errors import EntanglementError, EprWeaveError, ResourceError, ZeroProbabilityError
from eprweave.gates import Fork
from eprweave.locc import MeasureRecord, NetworkState
from eprweave.protocols import (
    protocol_three,
    protocol_two,
    setup_epr_network,
    setup_group_network,
    verify_ghz,
)
from eprweave.stabilizer import Tableau, _mul, memoized
from eprweave.statevec import (
    CNOT,
    DENSE_QUBIT_LIMIT,
    PROB_FLOOR,
    H,
    X,
    Z,
    StateVector,
    bell_pair,
    ghz_state,
    new_register,
)
from eprweave.topology import EntangledHypergraph, SpanningTree, hypergraph_is_connected

from dense_oracle import run_dense
from test_acceptance import _random_connected_hypergraph, merged_sizes, prufer_tree

TOL = 1e-12


# ---------------------------------------------------------------------------
# gate-level agreement with the dense oracle


@st.composite
def product_states(draw):
    """A (Tableau, StateVector) pair over 1-6 qubits: a product of Bell
    pairs, GHZ states and |0> registers, in drawn order."""
    tableau, dense, next_id = None, None, 1
    while next_id <= 6:
        kind = draw(st.sampled_from(["bell", "ghz", "zeros"]))
        size = 2 if kind == "bell" else draw(st.integers(1, 3))
        if next_id + size > 7:
            break
        ids = tuple(range(next_id, next_id + size))
        next_id += size
        if kind == "bell":
            t, d = Tableau.ghz(ids), bell_pair(*ids)
        elif kind == "ghz":
            t, d = Tableau.ghz(ids), ghz_state(ids)
        else:
            t, d = Tableau.zeros(ids), new_register(ids)
        tableau = t if tableau is None else tableau.tensor(t)
        dense = d if dense is None else dense.tensor(d)
        if draw(st.booleans()):
            break
    return tableau, dense


def assert_agree(t: Tableau, d: StateVector, data) -> None:
    assert t.qubits == d.qubits
    assert t.to_statevector().fidelity(d) == pytest.approx(1.0, abs=TOL)
    for q in d.qubits:
        assert t.probability_of_one(q) == pytest.approx(d.probability_of_one(q), abs=TOL)
        for bit in (0, 1):
            try:
                d_bit, d_prob, d_rest = d.measure_out(q, bit)
            except ZeroProbabilityError:
                with pytest.raises(ZeroProbabilityError):
                    t.measure_out(q, bit)
                continue
            t_bit, t_prob, t_rest = t.measure_out(q, bit)
            assert t_bit == d_bit == bit
            assert t_prob == pytest.approx(d_prob, abs=TOL)
            assert t_rest.qubits == d_rest.qubits
            assert t_rest.to_statevector().fidelity(d_rest) == pytest.approx(1.0, abs=TOL)
        try:
            d_kept = d.discard(q)
        except EntanglementError:
            with pytest.raises(EntanglementError):
                t.discard(q)
        else:
            t_kept = t.discard(q)
            assert t_kept.qubits == d_kept.qubits
            assert t_kept.to_statevector().fidelity(d_kept) == pytest.approx(1.0, abs=TOL)
    subset = data.draw(st.lists(st.sampled_from(d.qubits), min_size=1, unique=True))
    np.testing.assert_allclose(t.ghz_terms(subset), d.ghz_terms(subset), atol=TOL)
    if len(subset) < d.n:
        assert t.cut_entropy(subset) == pytest.approx(d.cut_entropy(subset), abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(product_states(), st.data())
def test_tableau_agrees_with_the_dense_state_after_every_operation(start, data):
    t, d = start
    assert_agree(t, d, data)
    for _ in range(data.draw(st.integers(1, 10))):
        op = data.draw(st.sampled_from(["X", "Z", "H", "CNOT", "measure"]))
        q = data.draw(st.sampled_from(d.qubits))
        if op == "CNOT":
            if d.n < 2:
                continue
            gate = CNOT(q, data.draw(st.sampled_from([v for v in d.qubits if v != q])))
        elif op == "measure":  # keep the collapsed qubit, at the top
            bit = data.draw(st.integers(0, 1))
            try:
                d_bit, _, d_rest = d.measure_out(q, bit)
            except ZeroProbabilityError:
                continue
            t_bit, _, t_rest = t.measure_out(q, bit)
            assert t_bit == d_bit
            collapsed = np.zeros(2, dtype=complex)
            collapsed[bit] = 1.0
            t = t_rest.tensor(Tableau.basis_state(q, bit))
            d = d_rest.tensor(StateVector((q,), collapsed))
            assert_agree(t, d, data)
            continue
        else:
            gate = {"X": X, "Z": Z, "H": H}[op](q)
        t, d = t.apply(gate), d.apply(gate)
        assert_agree(t, d, data)


@settings(max_examples=100, deadline=None)
@given(product_states(), st.data())
def test_long_gate_sequences_track_the_dense_state(start, data):
    # fidelity only, so sequences can be long enough to reach Y components
    t, d = start
    for _ in range(40):
        q = data.draw(st.sampled_from(d.qubits))
        kind = data.draw(st.sampled_from(["X", "Z", "H", "CNOT"] if d.n > 1 else ["X", "Z", "H"]))
        if kind == "CNOT":
            gate = CNOT(q, data.draw(st.sampled_from([v for v in d.qubits if v != q])))
        else:
            gate = {"X": X, "Z": Z, "H": H}[kind](q)
        t, d = t.apply(gate), d.apply(gate)
        assert t.to_statevector().fidelity(d) == pytest.approx(1.0, abs=TOL)


def test_measure_out_follows_the_chooser_contract():
    t = Tableau.ghz((1, 2, 3))
    seen = []
    bit, prob, rest = t.measure_out(2, lambda p0, p1: seen.append((p0, p1)) or 1)
    assert seen == [(0.5, 0.5)]
    assert (bit, prob) == (1, 0.5)
    assert rest.to_statevector().fidelity(StateVector((1, 3), [0, 0, 0, 1])) == 1.0
    with pytest.raises(ValueError, match="forced bit"):
        t.measure_out(2, 2)
    _, prob, _ = t.measure_out(1, Fork(rng=np.random.default_rng(0)))
    assert prob == 0.5
    certain = Tableau.zeros((1, 2)).apply(X(2))
    with pytest.raises(ZeroProbabilityError):
        certain.measure_out(2, 0)
    bit, prob, rest = certain.measure_out(2, 1)
    assert (bit, prob, rest.qubits) == (1, 1.0, (1,))


def _chooser_states():
    """p1 of qubit 2 -> the same state as a tableau and as a dense register."""
    return {
        0.0: (Tableau.zeros((1, 2)), new_register((1, 2))),
        0.5: (Tableau.ghz((1, 2, 3)), ghz_state((1, 2, 3))),
        1.0: (Tableau.zeros((1, 2)).apply(X(2)), new_register((1, 2)).apply(X(2))),
    }


def _measured(state, choose):
    """``measure_out`` of qubit 2: (bit, probability, rest), or the error's
    class and message."""
    try:
        return state.measure_out(2, choose)
    except Exception as exc:
        return type(exc), str(exc)


_NO_ZERO = (ZeroProbabilityError, "outcome 0 on qubit 2 has probability 0.000e+00")
_NO_ONE = (ZeroProbabilityError, "outcome 1 on qubit 2 has probability 0.000e+00")
_FORCED_ONE = {0.0: _NO_ONE, 0.5: (1, 0.5), 1.0: (1, 1.0)}
_NOT_A_BIT = (ValueError, "forced bit must be 0 or 1, got 2")
_NOT_A_CHOICE = {
    bad: dict.fromkeys((0.0, 0.5, 1.0), (ValueError, f"a chooser must return 0 or 1, got {bad}"))
    for bad in (2, -1)
}
_NOT_A_CHOOSER = (TypeError, "'float' object cannot be interpreted as an integer")

# chooser -> what measuring qubit 2 gives, by its p1
CHOOSER_TABLE = [
    ("0", 0, {0.0: (0, 1.0), 0.5: (0, 0.5), 1.0: _NO_ZERO}),
    ("1", 1, _FORCED_ONE),
    ("True", True, _FORCED_ONE),
    ("np.int64(1)", np.int64(1), _FORCED_ONE),
    ("2", 2, dict.fromkeys((0.0, 0.5, 1.0), _NOT_A_BIT)),
    ("np.int64(2)", np.int64(2), dict.fromkeys((0.0, 0.5, 1.0), _NOT_A_BIT)),
    ("callable", lambda p0, p1: int(p1 > 0.25), {0.0: (0, 1.0), 0.5: (1, 0.5), 1.0: (1, 1.0)}),
    ("callable returning 2", lambda p0, p1: 2, _NOT_A_CHOICE[2]),
    ("callable returning -1", lambda p0, p1: -1, _NOT_A_CHOICE[-1]),
    ("float", 0.5, dict.fromkeys((0.0, 0.5, 1.0), _NOT_A_CHOOSER)),
]


@pytest.mark.parametrize(
    "choose, expected", [row[1:] for row in CHOOSER_TABLE], ids=[row[0] for row in CHOOSER_TABLE]
)
def test_choosers_pick_the_same_branch_on_both_backends(choose, expected):
    for p1, (tableau, dense) in _chooser_states().items():
        t, d = _measured(tableau, choose), _measured(dense, choose)
        if len(expected[p1]) == 2 and isinstance(expected[p1][0], type):
            assert t == d == expected[p1], p1
            continue
        assert t[:2] == expected[p1], p1
        assert d[:2] == pytest.approx(expected[p1], abs=TOL), p1
        assert t[2].to_statevector().fidelity(d[2]) == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("bad", [2, -1])
def test_a_chooser_that_returns_no_bit_leaves_the_network_untouched(bad):
    net = NetworkState(2, chooser=lambda p0, p1: bad)
    qa, qb = net.distribute_epr(1, 2)
    before = (list(net.transcript), dict(net.knowledge), net.factors())
    with pytest.raises(ValueError, match=f"^a chooser must return 0 or 1, got {bad}$"):
        net.local_measure(1, qa, label="m")
    assert (net.transcript, dict(net.knowledge), net.factors()) == before
    # the label is still free, and the pair still whole
    net.chooser = 1
    assert net.local_measure(1, qa, label="m").bit == 1
    assert net.knowledge[1] == {"m": 1}


def test_a_seeded_generator_draws_alike_on_both_backends():
    states = _chooser_states()
    t_rng, d_rng, reference = (np.random.default_rng(2024) for _ in range(3))
    t_fork, d_fork = Fork(rng=t_rng), Fork(rng=d_rng)
    for i in range(60):
        p1 = (0.5, 0.0, 0.5, 1.0)[i % 4]
        tableau, dense = states[p1]
        t_bit, t_prob, _ = tableau.measure_out(2, t_fork)
        d_bit, d_prob, _ = dense.measure_out(2, d_fork)
        bit = 1 if reference.random() < p1 else 0
        assert t_bit == d_bit == bit, i
        assert t_prob == pytest.approx(d_prob, abs=TOL)


def test_tableau_ghz_block_is_exact_on_mixed_subsets():
    t = Tableau.ghz((1, 2, 3, 4))
    # any proper subset of a GHZ state is the classical mixture of 0...0 and 1...1
    assert t.ghz_terms((2, 4)) == (0.5, 0.5, 0.0)
    assert t.ghz_terms((1, 2, 3, 4)) == (0.5, 0.5, 0.5)
    assert t.cut_entropy((1, 3)) == 1.0
    with pytest.raises(EntanglementError):
        t.discard(3)


# ---------------------------------------------------------------------------
# memoized transitions: an armed shape replays what an unarmed one computes

# H and CNOT twice as often, so that rows pick up Y parts and products phases
MEMO_OPS = (
    "X", "Z", "H", "H", "CNOT", "CNOT", "measure", "chosen", "discard", "tensor", "p1", "ghz", "cut"
)
FRESH = ("zeros", "ghz", "one")


def fresh_tableau(made, ids):
    if made == "zeros":
        return Tableau.zeros(ids)
    return Tableau.ghz(ids) if made == "ghz" else Tableau.basis_state(ids[0], 1)


def fresh_dense(made, ids):
    if made == "zeros":
        return new_register(ids)
    return ghz_state(ids) if made == "ghz" else new_register(ids).apply(X(ids[0]))


def run_ops(state, ops, fresh):
    """Apply ``ops`` to ``state`` in turn; ``[(value, state after), ...]``.

    Each op is ``(kind, a, b)``: ``a`` picks the qubit and ``b`` the second
    operand, the forced bit, the subset (as a bit mask over the register)
    or the made state. A query asks about the qubit and the subset alike.
    A refused op leaves the state as it was and its value is
    ``("error", type, message)``. A measurement whose forced bit has
    probability 0 takes the other bit, so every run drops the same qubits.
    ``chosen`` measures with a callable, as the branch explorer does: it
    wants bit ``b % 2`` on the same terms, and the value records the
    ``(p0, p1)`` it was called with.
    ``tensor`` adds a fresh state over new qubit ids while the register is
    small enough for the dense oracle. Runs on a ``Tableau`` and on a
    ``StateVector`` alike, given the matching ``fresh``.
    """
    results, next_id = [], 100
    for kind, a, b in ops:
        qubits = state.qubits
        if kind == "tensor":
            if len(qubits) > 8:
                continue
            made = FRESH[b % 3]
            ids = tuple(range(next_id, next_id + (2 if made == "ghz" else 1)))
            next_id += len(ids)
            state = state.tensor(fresh(made, ids))
            results.append((("tensor",), state))
            continue
        if not qubits or (kind == "CNOT" and len(qubits) < 2):
            continue
        q = qubits[a % len(qubits)]
        subset = [v for i, v in enumerate(qubits) if b >> i & 1] or [q]
        try:
            if kind == "CNOT":
                others = [v for v in qubits if v != q]
                state = state.apply(CNOT(q, others[b % len(others)]))
                value = ("gate",)
            elif kind in ("X", "Z", "H"):
                state = state.apply({"X": X, "Z": Z, "H": H}[kind](q))
                value = ("gate",)
            elif kind == "measure":
                refused = None
                try:
                    bit, prob, state = state.measure_out(q, b % 2)
                except ZeroProbabilityError as exc:
                    refused = (type(exc), str(exc))
                    bit, prob, state = state.measure_out(q, 1 - b % 2)
                value = ("measure", refused, bit, prob)
            elif kind == "chosen":
                seen = []

                def choose(p0, p1, want=b % 2):
                    seen.append((p0, p1))
                    return want if (p1 if want else p0) >= PROB_FLOOR else 1 - want

                bit, prob, state = state.measure_out(q, choose)
                [asked] = seen  # called once
                value = ("chosen", bit, prob, *asked)
            elif kind == "discard":
                state = state.discard(q)
                value = ("discard",)
            elif kind == "p1":  # two queries on one state: two keys on one shape
                value = ("p1", state.probability_of_one(q), state.probability_of_one(subset[-1]))
            elif kind == "ghz":
                value = ("ghz", *state.ghz_terms(subset), *state.ghz_terms([q]))
            else:
                value = ("cut", state.cut_entropy([q]), state.cut_entropy(subset))
        except (EprWeaveError, ValueError) as exc:
            value = ("error", type(exc), str(exc))
        results.append((value, state))
    return results


def assert_dense_run_agrees(tableau_run, dense_run):
    """The tableau run's values and states are the dense run's, up to
    rounding; a refusal is refused alike."""
    assert len(tableau_run) == len(dense_run)
    for (value, t), (dense_value, d) in zip(tableau_run, dense_run):
        assert t.qubits == d.qubits
        assert t.to_statevector().fidelity(d) == pytest.approx(1.0, abs=TOL)
        assert value[0] == dense_value[0]
        if value[0] == "error":
            assert value[1] is dense_value[1]
        elif value[0] == "measure":
            assert (value[1] is None) == (dense_value[1] is None)
            assert value[2] == dense_value[2]
            assert value[3] == pytest.approx(dense_value[3], abs=TOL)
        else:
            np.testing.assert_allclose(value[1:], dense_value[1:], atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(product_states(), st.data())
def test_an_armed_shape_replays_exactly_what_an_unarmed_one_computes(start, data):
    t, _ = start
    # another generating set of the same group: products give rows Y parts,
    # whose own products carry phases
    rows = list(t.rows)
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=6)):
        if a % t.n != b % t.n:
            rows[a % t.n] = _mul(rows[a % t.n], rows[b % t.n])
    qubits, xz = t.qubits, tuple((x, z, 0) for x, z, _ in rows)
    ops = data.draw(
        st.lists(
            st.tuples(st.sampled_from(MEMO_OPS), st.integers(0, 255), st.integers(0, 255)),
            min_size=1,
            max_size=24,
        )
    )
    # two sign words over one shape: two branches of one schedule
    first = data.draw(st.integers(0, 2**t.n - 1))
    second = first ^ data.draw(st.integers(1, 2**t.n - 1))
    armed = Tableau(qubits, xz, first)
    with memoized([armed]):
        for word in (first, second):
            unarmed = run_ops(Tableau(qubits, xz, word), ops, fresh_tableau)
            replayed = run_ops(Tableau(qubits, xz, word, armed.memo), ops, fresh_tableau)
            assert [(v, s.qubits, s.rows) for v, s in replayed] == [
                (v, s.qubits, s.rows) for v, s in unarmed
            ]
            dense = run_ops(Tableau(qubits, xz, word).to_statevector(), ops, fresh_dense)
            assert_dense_run_agrees(unarmed, dense)
    assert armed.memo is None  # the memo goes with the block


# ---------------------------------------------------------------------------
# protocol-level agreement: every reported branch again on the dense oracle


@pytest.fixture
def leaves(monkeypatch):
    """The network of every branch a protocol verifies: its live run, then
    each branch the explorer ran through ``NetworkState.run``."""
    captured = []
    verify = protocols.verify_ghz

    def capturing(net, designated, strict=False):
        captured.append(net)
        return verify(net, designated, strict)

    monkeypatch.setattr(protocols, "verify_ghz", capturing)
    return captured


def assert_dense_oracle_agrees(report, leaves):
    """Run each reported branch of the report's schedule on the dense
    oracle: it must give the branch's outcomes, measurement probabilities
    and GHZ state on the designated qubits, with the peak factor size of
    the network that ran that branch."""
    networks = {}
    for net in leaves:
        measured = [rec for rec in net.transcript if isinstance(rec, MeasureRecord)]
        networks[tuple(rec.bit for rec in measured)] = net, measured
    assert len(networks) == len(leaves) == len(report.branches)
    designated = tuple(report.designated.values())
    for branch in report.branches:
        assert branch.fidelity == 1.0
        assert branch.probability == 0.5 ** len(branch.outcomes)
        dense = run_dense(report.transcript, branch.outcomes)
        assert tuple(dense.bits.values()) == branch.outcomes
        assert dense.probability == pytest.approx(branch.probability, abs=TOL)
        assert dense.ghz_fidelity(designated) == pytest.approx(1.0, abs=TOL)
        net, measured = networks[branch.outcomes]
        for rec, p in zip(measured, dense.probabilities, strict=True):
            assert abs(rec.probability - p) <= TOL
        assert dense.peak == net.peak_factor_qubits


def census_trees():
    for n in (3, 4, 5):
        for seq in itertools.product(range(1, n + 1), repeat=n - 2):
            yield n, prufer_tree(n, seq)


def test_every_census_tree_weaves_alike_on_both_backends(census_weaves):
    runs = 0
    for report, leaves in census_weaves:
        assert_dense_oracle_agrees(report, leaves)
        runs += 1
    assert runs == 2 * (3 + 16 + 125)


def test_acceptance_4_hypergraphs_fuse_alike_on_both_backends(leaves):
    # the hypergraphs of acceptance test 4, drawn the same way
    rng = np.random.default_rng(404)
    cases = [
        EntangledHypergraph(n, [(i, i + 1, i + 2) for i in range(1, n - 1)])
        for n in (4, 5, 6, 7, 8)
    ]
    while len(cases) < 30:
        h = _random_connected_hypergraph(rng, int(rng.integers(3, 9)))
        if hypergraph_is_connected(h):
            cases.append(h)
    for h in cases:
        leaves.clear()
        assert_dense_oracle_agrees(protocol_three(setup_group_network(h)), leaves)


# ---------------------------------------------------------------------------
# sizes no dense register reaches


def test_weaves_past_the_dense_limit():
    path = SpanningTree.from_edges(64, [(i, i + 1) for i in range(1, 64)])
    star = SpanningTree.from_edges(40, [(1, i) for i in range(2, 41)])
    for tree in (path, star):
        report = protocol_two(setup_epr_network(tree.n, tree.edges), branches=1)
        assert report.cbits == 2 * tree.n + len(tree.leaves) - 4
        assert report.epr_pairs_consumed == tree.n - 1
        assert report.worst_fidelity == 1.0
        (branch,) = report.branches
        assert branch.probability == 0.5 ** (2 * tree.n - 4)


def test_fuses_past_the_dense_limit():
    rng = np.random.default_rng(40)
    h = _random_connected_hypergraph(rng, 40)
    assert hypergraph_is_connected(h)
    report = protocol_three(setup_group_network(h), branches=16)
    assert merged_sizes(report)[-1] == 40 > DENSE_QUBIT_LIMIT
    assert report.cbits == len(report.merge_log)
    assert report.worst_fidelity == 1.0
    assert all(b.fidelity == 1.0 for b in report.branches)


def test_dense_registers_over_the_limit_are_refused():
    assert issubclass(ResourceError, EprWeaveError)  # so the CLI exits 1 with a message
    net = NetworkState(30)
    held = net.distribute_ghz(net.agents)
    assert verify_ghz(net, held, strict=True) == 1.0
    big = tuple(range(DENSE_QUBIT_LIMIT + 1))
    with pytest.raises(ResourceError):
        StateVector.zeros(big)
    with pytest.raises(ResourceError):
        Tableau.ghz(big).to_statevector()
    with pytest.raises(ResourceError):
        StateVector.zeros(big[:12]).tensor(StateVector.zeros(big[12:]))
