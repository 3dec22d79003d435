"""Exact pure-state simulation over registers of named qubits.

Amplitude convention: a state over qubits ``(q_0, ..., q_{n-1})`` is a flat
complex array of length ``2**n`` in which bit ``b`` of the array index
(least significant bit first) holds the computational-basis value of
``qubits[b]``. Cross-register comparisons always align qubits by id, never
by list position, and equality checks are fidelity-based (insensitive to a
global phase).

Kernels never build index masks. In C order the flat array is
``(high, bit, low)`` around the qubit at position ``p``, with
``high = 2**(n-1-p)`` and ``low = 2**p``, and ``(…, bit, …, bit, …)``
around several qubits. ``_split`` returns that reshape as a view with the
bit axes in front, so ``view[b]`` is the strided block of amplitudes in
which the qubit reads ``b``. Gates copy or combine such blocks, a
measurement weighs them, and measuring a qubit out keeps one block.

All operations are pure: they return new ``StateVector`` instances and
never mutate their inputs.

Protocol runs keep their factors as stabilizer tableaux
(:mod:`eprweave.stabilizer`) and never build a dense register; this
module is the oracle the tests check the tableau and the protocols
against. No dense register grows beyond ``DENSE_QUBIT_LIMIT`` qubits:
building one raises ``ResourceError`` before it is allocated.

This is the one module that imports numpy at the top. Gates,
``choose_outcome`` and the tolerances live in :mod:`eprweave.gates`, which
the tableau and the network model share, and are re-exported here; the
dense-register limit is this module's own. A measurement returns
``(bit, probability, state)``, as the tableau's does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import EntanglementError, ResourceError, ZeroProbabilityError
# the vocabulary both backends share, re-exported for ``from .statevec import ...``
from .gates import (  # noqa: F401
    CNOT,
    GATE_KINDS,
    NORM_TOL,
    PROB_FLOOR,
    PURITY_TOL,
    BranchChooser,
    Gate,
    H,
    QubitId,
    X,
    Z,
    choose_outcome,
)

_SQRT_HALF = 1.0 / np.sqrt(2.0)

#: The largest dense register: 2**24 complex128 amplitudes are 256 MiB a copy.
DENSE_QUBIT_LIMIT = 24


def require_dense(n: int) -> None:
    """Refuse a dense register over ``DENSE_QUBIT_LIMIT`` qubits."""
    if n > DENSE_QUBIT_LIMIT:
        raise ResourceError(
            f"a dense register of {n} qubits needs {16 * 2**n / 2**20:,.0f} MiB per copy, "
            f"over the {DENSE_QUBIT_LIMIT}-qubit limit"
        )


def _split(amps: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """View a register with one length-2 axis per qubit position, in front.

    ``view[b_0, b_1, ...]`` is the strided block of amplitudes whose index
    bits at ``positions[0], positions[1], ...`` are ``b_0, b_1, ...``; the
    remaining axes run over the other bits, most significant first, so a
    block flattens to the register without those qubits. No copy is made.
    """
    shape, axis_of = [], {}
    top = amps.size.bit_length() - 1
    for p in sorted(positions, reverse=True):
        if top - p > 1:
            shape.append(1 << (top - p - 1))
        axis_of[p] = len(shape)
        shape.append(2)
        top = p
    if top:
        shape.append(1 << top)
    front = [axis_of[p] for p in positions]
    rest = [a for a in range(len(shape)) if a not in front]
    return amps.reshape(shape).transpose(front + rest)


def _norm_sq(block) -> float:
    """Squared norm of an amplitude block. ``np.vdot`` is several times
    slower on a 2-D strided view than on the flattened copy."""
    flat = block.reshape(-1)
    return float(np.vdot(flat, flat).real)


def _block_density(lo, hi) -> np.ndarray:
    """2x2 Gram matrix ``rho[i, j] = <block_j|block_i>`` of two blocks."""
    lo, hi = lo.reshape(-1), hi.reshape(-1)
    off = np.vdot(hi, lo)
    return np.array([[np.vdot(lo, lo), off], [np.conj(off), np.vdot(hi, hi)]])


class StateVector:
    """Normalized pure state over an ordered tuple of qubit ids."""

    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: Iterable[QubitId], amps, _trusted: bool = False):
        qubits = tuple(qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit ids in {qubits}")
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (2 ** len(qubits),):
            raise ValueError(
                f"expected {2 ** len(qubits)} amplitudes for {len(qubits)} qubits, got {amps.shape}"
            )
        if not _trusted:
            norm_sq = _norm_sq(amps)
            if abs(norm_sq - 1.0) > 1e-9:
                raise ValueError(f"state is not normalized (|psi|^2 = {norm_sq})")
            amps = amps / np.sqrt(norm_sq)
        self.qubits = qubits
        self.amps = amps

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, qubit_ids: Iterable[QubitId]) -> "StateVector":
        """The all-|0> register; an empty id list gives the scalar state."""
        qubit_ids = tuple(qubit_ids)
        require_dense(len(qubit_ids))
        amps = np.zeros(2 ** len(qubit_ids), dtype=complex)
        amps[0] = 1.0
        return cls(qubit_ids, amps, _trusted=True)

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.qubits)

    def position(self, q: QubitId) -> int:
        try:
            return self.qubits.index(q)
        except ValueError:
            raise ValueError(f"qubit {q} not in register {self.qubits}") from None

    def norm_squared(self) -> float:
        return _norm_sq(self.amps)

    def probability_of_one(self, q: QubitId) -> float:
        return _norm_sq(_split(self.amps, (self.position(q),))[1])

    # -- unitaries -----------------------------------------------------------

    def apply(self, gate: Gate) -> "StateVector":
        """Apply a gate; the result stays normalized to within 1e-12."""
        positions = [self.position(q) for q in gate.qubits]
        src = _split(self.amps, positions)
        out = self.amps.copy()
        dst = _split(out, positions)
        if gate.kind == "CNOT":
            dst[1, 0], dst[1, 1] = src[1, 1], src[1, 0]
        elif gate.kind == "X":
            dst[0], dst[1] = src[1], src[0]
        elif gate.kind == "Z":
            dst[1] *= -1.0
        else:  # H
            dst[0] = (src[0] + src[1]) * _SQRT_HALF
            dst[1] = (src[0] - src[1]) * _SQRT_HALF
        assert abs(_norm_sq(out) - 1.0) <= NORM_TOL, "norm drifted"
        return StateVector(self.qubits, out, _trusted=True)

    # -- measurement -----------------------------------------------------------

    def _outcome(self, q: QubitId, choose: BranchChooser) -> tuple[int, float, np.ndarray]:
        """Pick the branch of measuring ``q``: its bit and probability, and
        the block of amplitudes it keeps (a view of ``self.amps``, not
        renormalized)."""
        halves = _split(self.amps, (self.position(q),))
        p1 = _norm_sq(halves[1])
        p0 = 1.0 - p1
        if p0 < 1e-3:  # 1 - p1 keeps too few digits of a small p0 to renormalize by
            p0 = _norm_sq(halves[0])
        bit = choose_outcome(q, choose, p0, p1)
        return bit, p1 if bit else p0, halves[bit]

    def measure(self, q: QubitId, choose: BranchChooser) -> tuple[int, float, "StateVector"]:
        """Measure one qubit in the computational basis: ``(bit,
        probability, state)``.

        ``choose`` selects the branch: a forced bit (0/1) or a callable
        ``(p0, p1) -> bit``, such as a seeded ``Fork(rng=rng)``.
        Forcing a branch of probability below 1e-12 raises
        ``ZeroProbabilityError``. The returned state is the full register,
        projected and renormalized.
        """
        bit, probability, kept = self._outcome(q, choose)
        out = np.zeros_like(self.amps)
        _split(out, (self.position(q),))[bit] = kept / np.sqrt(probability)
        return bit, probability, StateVector(self.qubits, out, _trusted=True)

    def measure_out(self, q: QubitId, choose: BranchChooser) -> tuple[int, float, "StateVector"]:
        """Measure ``q`` as ``measure`` does and return the rest of the register.

        After the measurement ``q`` is exactly classical, so the rest is the
        kept block renormalized by its own norm: no purity check and no
        linear algebra.
        """
        bit, probability, kept = self._outcome(q, choose)
        rest = kept.reshape(-1) / np.sqrt(_norm_sq(kept))
        remaining = tuple(x for x in self.qubits if x != q)
        return bit, probability, StateVector(remaining, rest, _trusted=True)

    def enumerate_branches(self, q: QubitId) -> list[tuple[int, float, "StateVector"]]:
        """Both measurement branches of ``q`` whose probability exceeds 1e-12."""
        branches = []
        for bit in (0, 1):
            try:
                branches.append(self.measure(q, bit))
            except ZeroProbabilityError:
                pass
        return branches

    # -- register surgery ------------------------------------------------------

    def discard(self, q: QubitId) -> "StateVector":
        """Drop a qubit that is in a product state with the rest.

        Raises ``EntanglementError`` when the qubit's reduced state has
        purity <= 1 - 1e-10. The remaining state is preserved up to a
        global phase: it is the blocks' combination along the dominant
        eigenvector of the qubit's 2x2 reduced density matrix.
        """
        pos = self.position(q)
        remaining = tuple(x for x in self.qubits if x != q)
        if not remaining:  # a one-qubit register is always pure
            return StateVector((), np.ones(1, dtype=complex), _trusted=True)
        halves = _split(self.amps, (pos,))
        probs, vecs = np.linalg.eigh(_block_density(halves[0], halves[1]))
        purity = float(np.sum(probs**2))
        if purity <= 1.0 - PURITY_TOL:
            raise EntanglementError(
                f"qubit {q} is still entangled with the rest (purity {purity:.12f})"
            )
        top = vecs[:, 1].conj()
        rest = (top[0] * halves[0] + top[1] * halves[1]).reshape(-1)
        rest /= np.sqrt(_norm_sq(rest))
        return StateVector(remaining, rest, _trusted=True)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Tensor product; ``self`` keeps the low index bits."""
        overlap = set(self.qubits) & set(other.qubits)
        if overlap:
            raise ValueError(f"registers share qubits {sorted(overlap)}")
        require_dense(self.n + other.n)
        # the outer product, flattened, is np.kron of two vectors without its overhead
        amps = np.multiply.outer(other.amps, self.amps).reshape(-1)
        return StateVector(self.qubits + other.qubits, amps, _trusted=True)

    def reordered(self, new_order: Sequence[QubitId]) -> "StateVector":
        """Same state with the qubit list permuted to ``new_order``."""
        new_order = tuple(new_order)
        if set(new_order) != set(self.qubits) or len(new_order) != self.n:
            raise ValueError(f"{new_order} is not a permutation of {self.qubits}")
        if new_order == self.qubits:
            return self
        msb_first = [self.position(q) for q in reversed(new_order)]
        return StateVector(new_order, _split(self.amps, msb_first).reshape(-1), _trusted=True)

    # -- comparisons and audits ----------------------------------------------

    def fidelity(self, target: "StateVector") -> float:
        """|<target|self>|^2, aligning qubits by id; phase-insensitive."""
        if set(target.qubits) != set(self.qubits):
            raise ValueError(
                f"qubit sets differ: {sorted(self.qubits)} vs {sorted(target.qubits)}"
            )
        aligned = target.reordered(self.qubits)
        return min(1.0, float(abs(np.vdot(aligned.amps, self.amps)) ** 2))

    def cut_entropy(self, subset: Iterable[QubitId]) -> float:
        """Von Neumann entropy (bits) of the reduced state on ``subset``.

        Zero (within 1e-10) iff the state is a product across the cut.
        """
        subset = set(subset)
        if not subset or subset == set(self.qubits):
            raise ValueError("subset must be a nonempty proper subset of the register")
        unknown = subset - set(self.qubits)
        if unknown:
            raise ValueError(f"qubits {sorted(unknown)} not in register")
        inside = [q for q in self.qubits if q in subset]
        outside = [q for q in self.qubits if q not in subset]
        reord = self.reordered(tuple(inside + outside))
        mat = reord.amps.reshape(2 ** len(outside), 2 ** len(inside))
        s = np.linalg.svd(mat, compute_uv=False)
        probs = s**2
        probs = probs[probs > 1e-15]
        return float(-np.sum(probs * np.log2(probs)))

    def reduced_density(self, q: QubitId) -> np.ndarray:
        """2x2 reduced density matrix of one qubit."""
        halves = _split(self.amps, (self.position(q),))
        return _block_density(halves[0], halves[1])

    def ghz_terms(self, qubits: Iterable[QubitId]) -> tuple:
        """The reduced density matrix of ``qubits`` on span{|0…0>, |1…1>}:
        the weights of all-zeros and all-ones and their coherence
        ``<0…0|rho|1…1>``. The overlap with the GHZ state is
        ``(t00 + t11 + 2 Re t01) / 2``.
        """
        positions = [self.position(q) for q in qubits]
        view = _split(self.amps, positions)
        block = _block_density(view[(0,) * len(positions)], view[(1,) * len(positions)])
        return block[0, 0], block[1, 1], block[0, 1]

    def __repr__(self):
        return f"StateVector(qubits={self.qubits}, amps={np.round(self.amps, 6)!r})"


def new_register(qubit_ids: Iterable[QubitId]) -> StateVector:
    """Fresh |0...0> register over distinct qubit ids."""
    return StateVector.zeros(qubit_ids)


def ghz_state(qubit_ids: Iterable[QubitId]) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) over the given qubits (at least one)."""
    qubit_ids = tuple(qubit_ids)
    if not qubit_ids:
        raise ValueError("need at least one qubit")
    require_dense(len(qubit_ids))
    amps = np.zeros(2 ** len(qubit_ids), dtype=complex)
    amps[0] = amps[-1] = _SQRT_HALF
    return StateVector(qubit_ids, amps, _trusted=True)


def bell_pair(q_a: QubitId, q_b: QubitId) -> StateVector:
    """(|00> + |11>)/sqrt(2) over two qubits."""
    return ghz_state((q_a, q_b))
