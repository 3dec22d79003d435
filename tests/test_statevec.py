"""Unit and property tests for the pure-state simulator.

Oracles used here are deliberately independent of the implementation:
reduced density matrices come from an explicit double loop over amplitude
indices, and entropies from eigenvalues of those matrices.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eprweave.errors import EntanglementError, ZeroProbabilityError
from eprweave.statevec import (
    CNOT,
    H,
    X,
    Z,
    Gate,
    StateVector,
    bell_pair,
    ghz_state,
    new_register,
)

SQ2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# oracles


def reduced_density_oracle(sv, keep):
    """Partial trace of |psi><psi| keeping `keep`, via explicit index loops."""
    keep_pos = [sv.qubits.index(q) for q in keep]
    other_pos = [p for p in range(sv.n) if p not in keep_pos]
    dim = 2 ** len(keep_pos)
    rho = np.zeros((dim, dim), dtype=complex)
    for i, ai in enumerate(sv.amps):
        for j, aj in enumerate(sv.amps):
            if any((i >> p) & 1 != (j >> p) & 1 for p in other_pos):
                continue
            ki = sum(((i >> p) & 1) << a for a, p in enumerate(keep_pos))
            kj = sum(((j >> p) & 1) << a for a, p in enumerate(keep_pos))
            rho[ki, kj] += ai * np.conj(aj)
    return rho


def entropy_oracle(rho):
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > 1e-15]
    return float(-np.sum(eigs * np.log2(eigs)))


# ---------------------------------------------------------------------------
# strategies

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def states(draw, min_qubits=1, max_qubits=4):
    n = draw(st.integers(min_qubits, max_qubits))
    ids = tuple(draw(st.lists(st.integers(0, 31), min_size=n, max_size=n, unique=True)))
    re = draw(st.lists(finite, min_size=2**n, max_size=2**n))
    im = draw(st.lists(finite, min_size=2**n, max_size=2**n))
    amps = np.array(re, dtype=complex) + 1j * np.array(im)
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return StateVector(ids, amps / norm)


@st.composite
def states_with_gates(draw, max_gates=12):
    sv = draw(states(min_qubits=2))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(["X", "Z", "H", "CNOT"]))
        if kind == "CNOT":
            c, t = draw(st.permutations(sv.qubits).map(lambda p: p[:2]))
            gates.append(CNOT(c, t))
        else:
            gates.append(Gate(kind, (draw(st.sampled_from(sv.qubits)),)))
    return sv, gates


# ---------------------------------------------------------------------------
# construction


def test_new_register_is_all_zeros():
    sv = new_register([3, 7, 1])
    assert sv.qubits == (3, 7, 1)
    assert sv.amps[0] == 1.0
    assert np.all(sv.amps[1:] == 0.0)


def test_new_register_empty_gives_scalar_state():
    sv = new_register([])
    assert sv.qubits == ()
    assert sv.amps.shape == (1,)
    assert abs(sv.amps[0]) == 1.0


def test_duplicate_qubit_ids_rejected():
    with pytest.raises(ValueError):
        StateVector((1, 1), [1, 0, 0, 0])


def test_unnormalized_amplitudes_rejected():
    with pytest.raises(ValueError):
        StateVector((0,), [1.0, 1.0])


def test_gate_arity_validation():
    with pytest.raises(ValueError):
        Gate("X", (0, 1))
    with pytest.raises(ValueError):
        Gate("CNOT", (2, 2))
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))


def test_apply_to_unknown_qubit_rejected():
    with pytest.raises(ValueError):
        new_register([0]).apply(X(5))


# ---------------------------------------------------------------------------
# gate semantics (hand-checked truth tables)


def test_x_flips_the_addressed_qubit():
    sv = new_register([10, 20]).apply(X(20))
    # qubit 20 sits at index bit 1, so |01>_{bit} = index 2
    assert sv.amps[2] == 1.0


def test_z_phases_only_the_one_component():
    sv = new_register([0]).apply(H(0)).apply(Z(0))
    assert np.allclose(sv.amps, [SQ2, -SQ2])


def test_h_twice_is_identity():
    sv = new_register([4, 5]).apply(X(4))
    back = sv.apply(H(4)).apply(H(4))
    assert np.allclose(back.amps, sv.amps, atol=1e-12)


def test_cnot_truth_table():
    for c_in, t_in, t_out in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        sv = new_register([8, 9])
        if c_in:
            sv = sv.apply(X(8))
        if t_in:
            sv = sv.apply(X(9))
        sv = sv.apply(CNOT(8, 9))
        idx = c_in | (t_out << 1)
        assert sv.amps[idx] == 1.0


def test_bell_pair_amplitudes():
    sv = bell_pair(1, 2)
    assert np.allclose(sv.amps, [SQ2, 0, 0, SQ2])
    circuit = new_register([1, 2]).apply(H(1)).apply(CNOT(1, 2))
    assert circuit.fidelity(sv) == pytest.approx(1.0, abs=1e-12)


def test_ghz_circuit_matches_builder():
    built = ghz_state((0, 1, 2))
    circ = new_register([0, 1, 2]).apply(H(0)).apply(CNOT(0, 1)).apply(CNOT(1, 2))
    assert circ.fidelity(built) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fidelity and entropy


def test_fidelity_of_zeros_with_ghz3_is_half():
    assert new_register([0, 1, 2]).fidelity(ghz_state((0, 1, 2))) == pytest.approx(
        0.5, abs=1e-12
    )


def test_fidelity_aligns_by_qubit_id_not_position():
    a = bell_pair(1, 2).apply(X(1))  # (|10> + |01>)/sqrt(2) on (1, 2)
    b = bell_pair(2, 1).apply(X(2))  # same physical state, listed the other way
    assert a.fidelity(b) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_requires_same_qubit_set():
    with pytest.raises(ValueError):
        bell_pair(0, 1).fidelity(bell_pair(0, 2))


def test_fidelity_ignores_global_phase():
    sv = ghz_state((0, 1))
    rotated = StateVector(sv.qubits, sv.amps * np.exp(1j * 0.7))
    assert sv.fidelity(rotated) == pytest.approx(1.0, abs=1e-12)


def test_ghz_reduced_density_is_maximally_mixed():
    sv = ghz_state((0, 1, 2, 3))
    for q in sv.qubits:
        rho = sv.reduced_density(q)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(rho, reduced_density_oracle(sv, [q]), atol=1e-12)


def test_cut_entropy_of_bell_pair_is_one():
    assert bell_pair(0, 1).cut_entropy([0]) == pytest.approx(1.0, abs=1e-10)


def test_cut_entropy_of_ghz_is_one_across_every_cut():
    sv = ghz_state((0, 1, 2, 3))
    for cut in ([0], [1], [3], [0, 1], [0, 2], [1, 2, 3]):
        assert sv.cut_entropy(cut) == pytest.approx(1.0, abs=1e-10)


def test_cut_entropy_zero_across_product_cut():
    sv = bell_pair(0, 1).tensor(bell_pair(2, 3))
    assert sv.cut_entropy([0, 1]) == pytest.approx(0.0, abs=1e-10)
    # both pairs straddle the {0, 2} | {1, 3} cut, so it carries two full bits
    assert sv.cut_entropy([0, 2]) == pytest.approx(2.0, abs=1e-10)


def test_cut_entropy_rejects_trivial_cuts():
    sv = bell_pair(0, 1)
    with pytest.raises(ValueError):
        sv.cut_entropy([])
    with pytest.raises(ValueError):
        sv.cut_entropy([0, 1])
    with pytest.raises(ValueError):
        sv.cut_entropy([9])


@settings(max_examples=150)
@given(states(min_qubits=2, max_qubits=4), st.data())
def test_cut_entropy_matches_partial_trace_oracle(sv, data):
    size = data.draw(st.integers(1, sv.n - 1))
    cut = data.draw(st.permutations(sv.qubits).map(lambda p: list(p[:size])))
    rho = reduced_density_oracle(sv, cut)
    assert sv.cut_entropy(cut) == pytest.approx(entropy_oracle(rho), abs=1e-10)


@settings(max_examples=100)
@given(states(min_qubits=1, max_qubits=4), st.data())
def test_reduced_density_matches_oracle(sv, data):
    q = data.draw(st.sampled_from(sv.qubits))
    assert np.allclose(sv.reduced_density(q), reduced_density_oracle(sv, [q]), atol=1e-12)


# ---------------------------------------------------------------------------
# measurement


def test_forced_zero_probability_branch_raises():
    sv = new_register([0])
    with pytest.raises(ZeroProbabilityError):
        sv.measure(0, 1)


def test_measure_projects_and_renormalizes():
    outcome, post = ghz_state((0, 1, 2)).measure(1, 0)
    assert outcome.probability == pytest.approx(0.5, abs=1e-12)
    assert post.fidelity(new_register([0, 1, 2])) == pytest.approx(1.0, abs=1e-12)


def test_improbable_zero_outcome_renormalizes_exactly():
    a = 0.001953  # P[0] ~ 3.8e-6, where 1 - P[1] keeps only ~10 digits
    sv = StateVector((0,), np.array([1j * a, 1j * np.sqrt(1 - a * a)]))
    outcome, post = sv.measure(0, 0)
    assert outcome.probability == pytest.approx(a * a, rel=1e-12)
    assert abs(post.norm_squared() - 1.0) <= 1e-12
    post.apply(X(0))  # asserts the norm has not drifted


def test_measure_with_callable_chooser():
    outcome, _ = bell_pair(0, 1).measure(0, lambda p0, p1: int(p1 > 0.25))
    assert outcome.bit == 1


def test_measure_with_generator_is_reproducible():
    bits = []
    for _ in range(2):
        gen = np.random.default_rng(7)
        bits.append([bell_pair(0, 1).measure(0, gen)[0].bit for _ in range(20)])
    assert bits[0] == bits[1]
    assert set(bits[0]) == {0, 1}


@settings(max_examples=150)
@given(states(min_qubits=1), st.data())
def test_branch_probabilities_sum_to_one(sv, data):
    q = data.draw(st.sampled_from(sv.qubits))
    branches = sv.enumerate_branches(q)
    assert abs(sum(o.probability for o, _ in branches) - 1.0) <= 1e-12
    for _, post in branches:
        assert abs(post.norm_squared() - 1.0) <= 1e-12


@settings(max_examples=150)
@given(states(min_qubits=1), st.data())
def test_projection_is_amplitude_exact(sv, data):
    q = data.draw(st.sampled_from(sv.qubits))
    pos = sv.qubits.index(q)
    for outcome, post in sv.enumerate_branches(q):
        for i, amp in enumerate(post.amps):
            if (i >> pos) & 1 != outcome.bit:
                assert amp == 0.0
            else:
                assert amp == pytest.approx(
                    sv.amps[i] / np.sqrt(outcome.probability), abs=1e-12
                )


# ---------------------------------------------------------------------------
# discard / tensor / reorder


def test_discard_of_product_qubit_preserves_rest():
    sv = ghz_state((0, 1)).tensor(new_register([5]).apply(X(5)))
    kept = sv.discard(5)
    assert kept.qubits == (0, 1)
    assert kept.fidelity(ghz_state((0, 1))) == pytest.approx(1.0, abs=1e-12)


def test_discard_entangled_qubit_raises():
    with pytest.raises(EntanglementError):
        bell_pair(0, 1).discard(0)


def test_discard_last_qubit_gives_scalar_state():
    sv = new_register([3]).apply(X(3)).discard(3)
    assert sv.qubits == ()
    assert abs(sv.amps[0]) == pytest.approx(1.0, abs=1e-12)


def test_tensor_rejects_overlapping_registers():
    with pytest.raises(ValueError):
        bell_pair(0, 1).tensor(bell_pair(1, 2))


@settings(max_examples=100)
@given(states(min_qubits=1, max_qubits=3), st.data())
def test_tensor_then_discard_roundtrip(sv, data):
    spare = data.draw(st.integers(100, 110))
    theta = data.draw(st.floats(0, np.pi, allow_nan=False))
    extra = StateVector((spare,), [np.cos(theta), np.sin(theta)])
    back = sv.tensor(extra).discard(spare)
    assert back.fidelity(sv) == pytest.approx(1.0, abs=1e-10)
    assert sv.tensor(extra).cut_entropy([spare]) == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=100)
@given(states(min_qubits=2), st.data())
def test_reorder_preserves_physics(sv, data):
    order = tuple(data.draw(st.permutations(sv.qubits)))
    shuffled = sv.reordered(order)
    assert shuffled.qubits == order
    assert shuffled.fidelity(sv) == pytest.approx(1.0, abs=1e-12)
    for q in sv.qubits:
        assert shuffled.probability_of_one(q) == pytest.approx(
            sv.probability_of_one(q), abs=1e-12
        )
    assert np.array_equal(shuffled.reordered(sv.qubits).amps, sv.amps)


# ---------------------------------------------------------------------------
# norm and unitarity invariants


@settings(max_examples=150)
@given(states_with_gates())
def test_gates_preserve_norm(sv_and_gates):
    sv, gates = sv_and_gates
    for gate in gates:
        sv = sv.apply(gate)
    assert abs(sv.norm_squared() - 1.0) <= 1e-12


@settings(max_examples=100)
@given(states_with_gates(), st.data())
def test_gates_preserve_inner_products(sv_and_gates, data):
    u, gates = sv_and_gates
    v = data.draw(states(min_qubits=u.n, max_qubits=u.n))
    v = StateVector(u.qubits, v.amps)  # same register, independent amplitudes
    before = np.vdot(u.amps, v.amps)
    for gate in gates:
        u, v = u.apply(gate), v.apply(gate)
    after = np.vdot(u.amps, v.amps)
    assert abs(after - before) <= 1e-10
