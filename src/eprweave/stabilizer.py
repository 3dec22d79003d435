"""Exact stabilizer-state simulation over registers of named qubits.

Every gate of the weaving protocols is X, Z, H or CNOT and every
measurement is in the Z basis, so by Gottesman–Knill a stabilizer tableau
tracks a run exactly (Aaronson–Gottesman, arXiv:quant-ph/0406196).

A ``Tableau`` over k qubits holds k independent, commuting generators of
the state's stabilizer group, row-packed as Python ints. Row ``(x, z, r)``
is the Pauli ``(-1)^r ⊗_b i^(x_b z_b) X^(x_b) Z^(z_b)``, where bit ``b`` of
``x`` and ``z`` acts on ``qubits[b]`` (the bit order of ``StateVector``'s
amplitude index), so ``(1, 1)`` on a qubit is Y. A gate rewrites each row
with a few int operations; the product of two rows is two XORs, with its
phase from ``int.bit_count``.

Queries reduce rows over GF(2). A cut's entropy is the rank of the rows
restricted to one side minus that side's size (Fattal et al.,
arXiv:quant-ph/0406168). ``ghz_terms`` reads the GHZ overlap off the
stabilizers supported on a subset, and ``to_statevector`` builds the dense
state, which stays the oracle. Every result is exact: probabilities are 0,
1/2 or 1, and GHZ terms are signed powers of two.

Like ``StateVector``, a ``Tableau`` is immutable: every operation returns
a new one. Only ``to_statevector``, which tests compare against the dense
oracle, imports numpy, when it is called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from .errors import EntanglementError
from .gates import BranchChooser, Gate, MeasurementOutcome, QubitId, choose_outcome, require_dense

if TYPE_CHECKING:
    from .statevec import StateVector

Row = tuple[int, int, int]  # (x bits, z bits, sign bit)

_IDENTITY: Row = (0, 0, 0)
_I_POWERS = (1.0, 1j, -1.0, -1j)


def _mul(a: Row, b: Row) -> Row:
    """The product ``a b`` of two commuting rows.

    With ``P(x, z) = i^|x&z| X^x Z^z``, moving ``Z^za`` past ``X^xb`` costs
    ``(-1)^|za&xb|``, so ``P(a) P(b) = i^e P(a^b)`` with ``e`` below; ``e``
    is even because commuting Hermitian Paulis have a Hermitian product.
    """
    ax, az, ar = a
    bx, bz, br = b
    x, z = ax ^ bx, az ^ bz
    e = (
        (ax & az).bit_count()
        + (bx & bz).bit_count()
        - (x & z).bit_count()
        + 2 * ((az & bx).bit_count() + ar + br)
    )
    return x, z, (e & 3) >> 1


def _eliminate(rows: Iterable[Row], key: Callable[[Row], int]) -> tuple[dict[int, Row], list[Row]]:
    """Row-reduce over GF(2) on the bits that ``key`` picks out.

    Returns ``basis``, rows keyed by the top bit of their independent keys,
    and ``kernel``, products whose key is 0. Together they generate the
    same group as ``rows``, so ``kernel`` generates its subgroup on which
    ``key`` vanishes.
    """
    basis: dict[int, Row] = {}
    kernel: list[Row] = []
    for row in rows:
        v = key(row)
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = row
                break
            row = _mul(row, basis[top])
            v = key(row)
        else:
            kernel.append(row)
    return basis, kernel


def _on(mask: int, width: int) -> Callable[[Row], int]:
    """Key for ``_eliminate``: a row's X and Z bits on the qubits in
    ``mask``, side by side in one int."""
    return lambda row: (row[0] & mask) | (row[1] & mask) << width


def _x_part(row: Row) -> int:
    return row[0]


def _express(basis: dict[int, Row], key: Callable[[Row], int], target: int) -> Row | None:
    """The product of ``basis`` rows whose key is ``target``, or None."""
    acc = _IDENTITY
    while target:
        row = basis.get(target.bit_length())
        if row is None:
            return None
        acc = _mul(acc, row)
        target ^= key(row)
    return acc


class Tableau:
    """Stabilizer state over an ordered tuple of qubit ids.

    ``rows`` must be ``len(qubits)`` independent, commuting generators
    without -I in their group; build tableaux with the constructors below.
    """

    __slots__ = ("qubits", "rows")

    def __init__(self, qubits: Iterable[QubitId], rows: Iterable[Row]):
        self.qubits = tuple(qubits)
        self.rows = tuple(rows)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, qubit_ids: Iterable[QubitId]) -> "Tableau":
        """The all-|0> register, stabilized by each qubit's Z."""
        qubit_ids = _distinct(qubit_ids)
        return cls(qubit_ids, [(0, 1 << j, 0) for j in range(len(qubit_ids))])

    @classmethod
    def basis_state(cls, q: QubitId, bit: int) -> "Tableau":
        """One qubit in |bit>, stabilized by (-1)^bit Z."""
        return cls((q,), [(0, 1, bit)])

    @classmethod
    def ghz(cls, qubit_ids: Iterable[QubitId]) -> "Tableau":
        """(|0...0> + |1...1>)/sqrt(2), stabilized by X...X and each
        neighbouring ZZ; at least one qubit."""
        qubit_ids = _distinct(qubit_ids)
        if not qubit_ids:
            raise ValueError("need at least one qubit")
        k = len(qubit_ids)
        rows = [((1 << k) - 1, 0, 0)] + [(0, 3 << j, 0) for j in range(k - 1)]
        return cls(qubit_ids, rows)

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.qubits)

    def position(self, q: QubitId) -> int:
        try:
            return self.qubits.index(q)
        except ValueError:
            raise ValueError(f"qubit {q} not in register {self.qubits}") from None

    def _z_sign(self, m: int) -> int:
        """r with (-1)^r Z_q in the group, where ``m`` is q's bit and no
        generator has X on q: Z_q then commutes with the whole group, which
        is maximal, so it holds Z_q or -Z_q."""
        width = self.n
        key = _on((1 << width) - 1, width)
        basis, _ = _eliminate(self.rows, key)
        return _express(basis, key, m << width)[2]

    def probability_of_one(self, q: QubitId) -> float:
        m = 1 << self.position(q)
        if any(x & m for x, _, _ in self.rows):
            return 0.5
        return float(self._z_sign(m))

    # -- unitaries -----------------------------------------------------------

    def apply(self, gate: Gate) -> "Tableau":
        """Conjugate every generator by the gate."""
        j = self.position(gate.qubits[0])
        m = 1 << j
        rows = []
        if gate.kind == "X":  # flips the sign of Z and Y on the qubit
            rows = [(x, z, r ^ 1) if z & m else (x, z, r) for x, z, r in self.rows]
        elif gate.kind == "Z":  # flips the sign of X and Y
            rows = [(x, z, r ^ 1) if x & m else (x, z, r) for x, z, r in self.rows]
        elif gate.kind == "H":  # swaps X and Z, and Y picks up a sign
            for row in self.rows:
                x, z, r = row
                xb, zb = x & m, z & m
                if xb != zb:
                    row = (x ^ m, z ^ m, r)
                elif xb:
                    row = (x, z, r ^ 1)
                rows.append(row)
        else:  # CNOT: X on the control spreads to the target, Z on the target to the control
            t = self.position(gate.qubits[1])
            tm = 1 << t
            for row in self.rows:
                x, z, r = row
                xc, zt = x & m, z & tm
                if xc or zt:
                    if xc and zt and not ((x >> t) ^ (z >> j)) & 1:
                        r ^= 1
                    row = (x ^ tm if xc else x, z ^ m if zt else z, r)
                rows.append(row)
        return Tableau(self.qubits, rows)

    # -- measurement -----------------------------------------------------------

    def measure_out(self, q: QubitId, choose: BranchChooser) -> tuple[MeasurementOutcome, "Tableau"]:
        """Measure ``q`` in the Z basis and return the rest of the register.

        ``choose`` is a forced bit, a ``numpy.random.Generator`` or a
        callable ``(p0, p1) -> bit``, as for ``StateVector.measure``. When a
        generator anticommutes with Z_q both outcomes have probability 1/2:
        that generator becomes (-1)^bit Z_q and clears q's X part from the
        others, and the rows drop q. Otherwise Z_q or -Z_q is a stabilizer,
        the outcome is certain, and q factors out.
        """
        j = self.position(q)
        m = 1 << j
        for pivot, p in enumerate(self.rows):
            if p[0] & m:
                break
        else:
            one = self._z_sign(m)
            return choose_outcome(q, choose, 1.0 - one, float(one)), self.discard(q)
        outcome = choose_outcome(q, choose, 0.5, 0.5)
        bit, low, j1 = outcome.bit, m - 1, j + 1
        rest = []
        for i, row in enumerate(self.rows):
            if i == pivot:
                continue
            if row[0] & m:
                row = _mul(row, p)
            x, z, r = row
            # x has no bit j now; if z has, times (-1)^bit Z_q clears it.
            # Either way bit j goes, and the bits above it move down.
            if z & m:
                r ^= bit
            rest.append(((x & low) | (x >> j1) << j, (z & low) | (z >> j1) << j, r))
        return outcome, Tableau(self.qubits[:j] + self.qubits[j1:], rest)

    # -- register surgery ------------------------------------------------------

    def discard(self, q: QubitId) -> "Tableau":
        """Drop a qubit that is in a product state with the rest.

        q factors out iff the generators' parts on q span one Pauli (its
        one-qubit entropy, a GF(2) rank minus 1, is 0); otherwise
        ``EntanglementError``. The first generator acting on q clears q
        from the others and is dropped; the rest generate the remainder.
        """
        j = self.position(q)
        pivot, part, rest = None, 0, []
        for row in self.rows:
            x, z, _ = row
            on_q = (x >> j & 1) | (z >> j & 1) << 1
            if on_q:
                if pivot is None:
                    pivot, part = row, on_q
                    continue
                if on_q != part:
                    raise EntanglementError(
                        f"qubit {q} is still entangled with the rest (purity {0.5:.12f})"
                    )
                row = _mul(row, pivot)
            rest.append(row)
        return self._without(j, rest)

    def _without(self, j: int, rows: Iterable[Row]) -> "Tableau":
        """The tableau over every qubit but the one at position ``j``, from
        ``rows`` that no longer act on it: the bits above ``j`` move down."""
        low, j1 = (1 << j) - 1, j + 1
        rows = [((x & low) | (x >> j1) << j, (z & low) | (z >> j1) << j, r) for x, z, r in rows]
        return Tableau(self.qubits[:j] + self.qubits[j1:], rows)

    def tensor(self, other: "Tableau") -> "Tableau":
        """Tensor product; ``self`` keeps the low bits."""
        overlap = set(self.qubits) & set(other.qubits)
        if overlap:
            raise ValueError(f"registers share qubits {sorted(overlap)}")
        k = self.n
        rows = self.rows + tuple((x << k, z << k, r) for x, z, r in other.rows)
        return Tableau(self.qubits + other.qubits, rows)

    # -- comparisons and audits ----------------------------------------------

    def cut_entropy(self, subset: Iterable[QubitId]) -> float:
        """Entanglement entropy (bits) across the cut around ``subset``:
        the GF(2) rank of the generators restricted to it, minus its size."""
        subset = set(subset)
        if not subset or subset == set(self.qubits):
            raise ValueError("subset must be a nonempty proper subset of the register")
        unknown = subset - set(self.qubits)
        if unknown:
            raise ValueError(f"qubits {sorted(unknown)} not in register")
        mask = sum(1 << self.position(q) for q in subset)
        basis, _ = _eliminate(self.rows, _on(mask, self.n))
        return float(len(basis) - len(subset))

    def ghz_terms(self, qubits: Iterable[QubitId]) -> tuple[float, float, complex]:
        """The reduced density matrix of ``qubits`` on span{|0…0>, |1…1>}:
        the weights of |0…0> and |1…1> and their coherence
        ``<0…0|rho|1…1>``, as plain numbers.

        The reduced state is ``2^-s`` times the sum of the stabilizers
        supported on the s qubits. Those without X (a group D of size 2^d)
        weigh |0…0> and |1…1>: each gets 2^(d-s) if every generator of D
        fixes it, else 0. The coherence comes from the coset of stabilizers
        that flip every qubit, P0·D: ``<0…0|P0|1…1>`` times 2^(d-s), if D
        fixes |1…1>. When ``qubits`` is the whole register, as for a
        finished GHZ factor, every stabilizer is supported on it and the
        first row reduction is skipped.
        """
        inside = sum(1 << self.position(q) for q in set(qubits))
        s = inside.bit_count()
        full = (1 << self.n) - 1
        local = self.rows
        if inside != full:
            _, local = _eliminate(self.rows, _on(full ^ inside, self.n))
        flipping, diagonal = _eliminate(local, _x_part)
        weight = 2.0 ** (len(diagonal) - s)
        t00 = 0.0 if any(r for _, _, r in diagonal) else weight
        t11 = 0.0 if any((r ^ z.bit_count()) & 1 for _, z, r in diagonal) else weight
        t01 = 0.0
        p0 = _express(flipping, _x_part, inside) if t11 else None
        if p0 is not None:
            _, z0, r0 = p0
            t01 = (-weight if r0 else weight) * _I_POWERS[-z0.bit_count() & 3]
        return t00, t11, t01

    def to_statevector(self) -> StateVector:
        """The dense state, up to global phase; ``ResourceError`` over
        ``DENSE_QUBIT_LIMIT`` qubits.

        The support is ``base`` plus the span of the flipping generators'
        X parts, where ``base`` satisfies every diagonal generator. Each
        support state ``base ^ x`` has amplitude ``<base^x|F|base>`` for
        the group element F with X part x; F runs over products of the
        flipping generators, kept as ``i^e X^x Z^z``.
        """
        import numpy as np

        from .statevec import StateVector

        require_dense(self.n)
        flipping, diagonal = _eliminate(self.rows, _x_part)
        base = 0
        for top, (_, z, r) in sorted(_eliminate(diagonal, lambda row: row[1])[0].items()):
            if ((z & base).bit_count() ^ r) & 1:  # z's top bit is the free one
                base |= 1 << (top - 1)
        xs = np.zeros(1, dtype=np.uint64)
        zs = np.zeros(1, dtype=np.uint64)
        es = np.zeros(1, dtype=np.int64)
        for x, z, r in flipping.values():
            e = 2 * r + (x & z).bit_count()
            es = np.concatenate((es, es + e + 2 * np.bitwise_count(zs & np.uint64(x))))
            xs = np.concatenate((xs, xs ^ np.uint64(x)))
            zs = np.concatenate((zs, zs ^ np.uint64(z)))
        es += 2 * np.bitwise_count(zs & np.uint64(base))
        amps = np.zeros(2**self.n, dtype=complex)
        amps[xs ^ np.uint64(base)] = np.array(_I_POWERS)[es & 3] * 2.0 ** (-len(flipping) / 2)
        return StateVector(self.qubits, amps, _trusted=True)

    def __repr__(self):
        return f"Tableau(qubits={self.qubits}, rows={self.rows})"


def _distinct(qubit_ids: Iterable[QubitId]) -> tuple[QubitId, ...]:
    qubit_ids = tuple(qubit_ids)
    if len(set(qubit_ids)) != len(qubit_ids):
        raise ValueError(f"duplicate qubit ids in {qubit_ids}")
    return qubit_ids
