"""Exact stabilizer-state simulation over registers of named qubits.

Every gate of the weaving protocols is X, Z, H or CNOT and every
measurement is in the Z basis, so by Gottesman–Knill a stabilizer tableau
tracks a run exactly (Aaronson–Gottesman, arXiv:quant-ph/0406196).

A ``Tableau`` over k qubits holds k independent, commuting generators of
the state's stabilizer group. Row ``(x, z, r)`` is the Pauli
``(-1)^r ⊗_b i^(x_b z_b) X^(x_b) Z^(z_b)``, where bit ``b`` of ``x`` and
``z`` acts on ``qubits[b]`` (the bit order of ``StateVector``'s amplitude
index), so ``(1, 1)`` on a qubit is Y. The rows are stored in two parts:
the *shape*, the qubit order and each row's X and Z bits, and the sign
word ``signs``, which holds row i's sign in bit i. The product of two rows
is two XORs, with its phase from ``int.bit_count``.

What an operation does to the X and Z bits depends on the shape alone;
what it does to the signs is affine over GF(2) in the old signs, as for a
Pauli frame (Gidney, arXiv:2103.02202). A gate XORs a mask into the sign
word. A measurement or discard, which share one elimination
(``Tableau._eliminated``), drops the pivot row's bit, then XORs a
constant mask, a second mask if the pivot's sign was set, and a third if
the outcome is 1. A certain outcome, ``probability_of_one`` and
``ghz_terms`` are parities of the sign word under masks. So an operation
first computes its *transition*, which depends on the shape alone, and
then applies it to the sign word.

A shape can be *armed* (:func:`memoized`). An armed shape keeps each
transition it computes, keyed by the operation, and the shape that
transition leads to is armed too. Each operation looks its transition up
with one ``memo.get`` in its own body and computes it, on a miss, with the
function an unarmed shape calls. So any later tableau over that shape,
whatever its signs, replays the transition with a dict lookup and a few
int operations. The branches of one protocol schedule differ only in
their signs, which is why the branch explorer arms the setup factors. An
unarmed shape computes each transition and applies it at once.

Queries reduce rows over GF(2), with each sign a *form*: an int whose bit
0 is a constant and whose bit i + 1 stands for row i's sign. Every row's
sign is its own variable, so a query's forms depend on the shape alone and
hold for every sign word; an armed shape keeps them. ``probability_of_one``
reads the form of the measurement's transition. A cut's entropy is the
rank of the rows restricted to one side minus that side's size (Fattal et
al., arXiv:quant-ph/0406168).
``ghz_terms`` reads the GHZ overlap off the stabilizers supported on a
subset, and ``to_statevector`` builds the dense state, which stays the
oracle. Every result is exact: probabilities are 0, 1/2 or 1, and GHZ
terms are signed powers of two.

Like ``StateVector``, a ``Tableau`` is immutable: every operation returns
a new one. Only ``to_statevector``, which tests compare against the dense
oracle, imports numpy, when it is called.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import EntanglementError
from .gates import BranchChooser, Gate, QubitId, choose_outcome

if TYPE_CHECKING:
    from .statevec import StateVector

Row = tuple[int, int, int]  # (x bits, z bits, sign): a bit, or a form over a sign word

_IDENTITY: Row = (0, 0, 0)
#: The shape of one qubit in a basis state: its one row is Z, signed by the bit.
BASIS_XZ: tuple[Row, ...] = ((0, 1, 0),)
_I_POWERS = (1.0, 1j, -1.0, -1j)


def _mul(a: Row, b: Row) -> Row:
    """The product ``a b`` of two commuting rows.

    With ``P(x, z) = i^|x&z| X^x Z^z``, moving ``Z^za`` past ``X^xb`` costs
    ``(-1)^|za&xb|``, so ``P(a) P(b) = i^e P(a^b)`` with ``e`` below; ``e``
    is even because commuting Hermitian Paulis have a Hermitian product.
    The signs only add to the phase, so they may be forms: the product's
    sign is both signs XOR the constant ``e/2 mod 2``.
    """
    ax, az, ar = a
    bx, bz, br = b
    x, z = ax ^ bx, az ^ bz
    e = (
        (ax & az).bit_count()
        + (bx & bz).bit_count()
        - (x & z).bit_count()
        + 2 * (az & bx).bit_count()
    )
    return x, z, ((e & 3) >> 1) ^ ar ^ br


def _value(form: int, word: int) -> int:
    """A form's value on the sign word s, given ``word = s << 1 | 1``."""
    return (form & word).bit_count() & 1


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
    """Stabilizer state: a shape and a sign word.

    The shape is ``qubits`` and ``xz``, the rows' X and Z bits as
    ``(x, z, 0)``; bit i of ``signs`` is row i's sign. The rows must be
    ``len(qubits)`` independent, commuting generators, and then any sign
    word gives a state. Every tableau over one shape shares its tuples and
    its ``memo``: None, or once the shape is armed (:func:`memoized`), a
    dict from each operation met on the shape to its transition. Build
    tableaux with the constructors below.
    """

    __slots__ = ("qubits", "xz", "signs", "memo")

    def __init__(self, qubits: tuple[QubitId, ...], xz: tuple[Row, ...], signs: int, memo=None):
        self.qubits = qubits
        self.xz = xz
        self.signs = signs
        self.memo = memo

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, qubit_ids: Iterable[QubitId]) -> "Tableau":
        """The all-|0> register, stabilized by each qubit's Z."""
        qubit_ids = _distinct(qubit_ids)
        return cls(qubit_ids, tuple([(0, 1 << j, 0) for j in range(len(qubit_ids))]), 0)

    @classmethod
    def basis_state(cls, q: QubitId, bit: int) -> "Tableau":
        """One qubit in |bit>, stabilized by (-1)^bit Z."""
        return cls((q,), BASIS_XZ, bit)

    @classmethod
    def ghz(cls, qubit_ids: Iterable[QubitId]) -> "Tableau":
        """(|0...0> + |1...1>)/sqrt(2), stabilized by X...X and each
        neighbouring ZZ; at least one qubit."""
        qubit_ids = _distinct(qubit_ids)
        if not qubit_ids:
            raise ValueError("need at least one qubit")
        k = len(qubit_ids)
        xz = [((1 << k) - 1, 0, 0)] + [(0, 3 << j, 0) for j in range(k - 1)]
        return cls(qubit_ids, tuple(xz), 0)

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.qubits)

    @property
    def rows(self) -> tuple[Row, ...]:
        """The generators as ``(x, z, sign bit)``."""
        signs = self.signs
        return tuple((x, z, signs >> i & 1) for i, (x, z, _) in enumerate(self.xz))

    def position(self, q: QubitId) -> int:
        try:
            return self.qubits.index(q)
        except ValueError:
            raise ValueError(f"qubit {q} not in register {self.qubits}") from None

    def probability_of_one(self, q: QubitId) -> float:
        """Read off the form of measuring q (``Tableau._eliminated``)."""
        memo = self.memo
        if memo is None:
            form = self._eliminated(q, True)[0]
        else:
            key = ("measure", q)
            form = (memo.get(key) or memo.setdefault(key, self._eliminated(q, True)))[0]
        if form is None:
            return 0.5
        return float(_value(form, self.signs << 1 | 1))

    # -- unitaries -----------------------------------------------------------

    def apply(self, gate: Gate) -> "Tableau":
        """Conjugate every generator by the gate."""
        memo = self.memo
        if memo is None:
            xz, memo, flip = self._gate(gate)
        else:  # keyed by plain values: Gate's dataclass __hash__ is a Python call
            key = (gate.kind, gate.qubits)
            xz, memo, flip = memo.get(key) or memo.setdefault(key, self._gate(gate))
        if xz is None:  # X or Z: the same shape
            return Tableau(self.qubits, self.xz, self.signs ^ flip, self.memo)
        return Tableau(self.qubits, xz, self.signs ^ flip, memo)

    # -- measurement -----------------------------------------------------------

    def measure_out(self, q: QubitId, choose: BranchChooser) -> tuple[int, float, "Tableau"]:
        """Measure ``q`` in the Z basis: ``(bit, probability, rest)``, with
        the rest of the register.

        ``choose`` is a forced bit or a callable ``(p0, p1) -> bit``, such
        as a :class:`~eprweave.gates.Fork`, as for ``StateVector.measure``.
        When a generator anticommutes with Z_q both outcomes have
        probability 1/2; otherwise the outcome is certain and q factors out
        (``Tableau._eliminated``).
        """
        memo = self.memo
        if memo is None:
            step = self._eliminated(q, True)
        else:
            key = ("measure", q)
            step = memo.get(key) or memo.setdefault(key, self._eliminated(q, True))
        form, qubits, xz, memo, drop, const, times, flip = step
        signs = self.signs
        if form is None:
            bit, probability = choose_outcome(q, choose, 0.5, 0.5), 0.5
        else:  # certain: the other bit is refused, so the chosen one has probability 1
            one = _value(form, signs << 1 | 1)
            bit, probability = choose_outcome(q, choose, 1.0 - one, float(one)), 1.0
        # the pivot's bit goes; const flips rows, and times does if the pivot's sign was 1
        word = (signs & drop - 1 | signs >> 1 & -drop) ^ (const ^ times if signs & drop else const)
        if bit:
            word ^= flip
        return bit, probability, Tableau(qubits, xz, word, memo)

    # -- register surgery ------------------------------------------------------

    def discard(self, q: QubitId) -> "Tableau":
        """Drop a qubit that is in a product state with the rest;
        ``EntanglementError`` if it is not (``Tableau._eliminated``)."""
        memo = self.memo
        if memo is None:
            step = self._eliminated(q, False)
        else:
            key = ("discard", q)
            step = memo.get(key) or memo.setdefault(key, self._eliminated(q, False))
        if isinstance(step, str):
            raise EntanglementError(step)
        _, qubits, xz, memo, drop, const, times, _ = step
        signs = self.signs  # the pivot's sign bit goes, as in measure_out
        word = (signs & drop - 1 | signs >> 1 & -drop) ^ (const ^ times if signs & drop else const)
        return Tableau(qubits, xz, word, memo)

    def tensor(self, other: "Tableau") -> "Tableau":
        """Tensor product; ``self`` keeps the low bits. An armed shape
        keys the transition by the other factor's qubits and rows, since a
        fresh ancilla or collapsed qubit is a new shape on every branch."""
        memo = self.memo
        if memo is None:
            qubits, xz, memo = self._tensored(other)
        else:
            key = ("tensor", other.qubits, other.xz)
            qubits, xz, memo = memo.get(key) or memo.setdefault(key, self._tensored(other))
        return Tableau(qubits, xz, self.signs | other.signs << len(self.qubits), memo)

    # -- comparisons and audits ----------------------------------------------

    def cut_entropy(self, subset: Iterable[QubitId]) -> float:
        """Entanglement entropy (bits) across the cut around ``subset``:
        the GF(2) rank of the generators restricted to it, minus its size."""
        subset = frozenset(subset)
        memo = self.memo
        if memo is None:
            return self._cut(subset)
        entropy = memo.get(("cut", subset))
        if entropy is None:
            entropy = memo["cut", subset] = self._cut(subset)
        return entropy

    def ghz_terms(self, qubits: Iterable[QubitId]) -> tuple[float, float, complex]:
        """The reduced density matrix of ``qubits`` on span{|0…0>, |1…1>}:
        the weights of |0…0> and |1…1> and their coherence
        ``<0…0|rho|1…1>``, as plain numbers (``Tableau._ghz_forms``)."""
        qubits = frozenset(qubits)
        memo = self.memo
        if memo is None:
            forms = self._ghz_forms(qubits)
        else:
            key = ("ghz", qubits)
            forms = memo.get(key) or memo.setdefault(key, self._ghz_forms(qubits))
        weight, zero, one, coherence = forms
        word = self.signs << 1 | 1
        t00 = t11 = weight
        for f in zero:
            if (f & word).bit_count() & 1:
                t00 = 0.0
        for f in one:
            if (f & word).bit_count() & 1:
                t11 = 0.0
        t01 = 0.0
        if t11 and coherence is not None:
            r0, phase = coherence
            t01 = (-weight if _value(r0, word) else weight) * phase
        return t00, t11, t01

    # -- transitions -------------------------------------------------------------
    #
    # Each depends on the shape alone: the qubits, the X and Z bits, and
    # whether the shape is armed, so that its memo can keep the result. A
    # transition is a nonempty tuple or a refusal's text, never false, so
    # ``memo.get(key) or memo.setdefault(key, ...)`` computes it on a miss only.

    def _signed(self) -> list[Row]:
        """The rows with a form for each sign: row i's own variable, so
        what a query finds holds for every sign word over the shape."""
        return [(x, z, 2 << i) for i, (x, z, _) in enumerate(self.xz)]

    def _gate(self, gate: Gate) -> tuple[tuple[Row, ...] | None, dict | None, int]:
        """Conjugate every row by the gate: the new rows and memo, or None
        for X and Z, which change signs only, and the mask of the rows
        whose sign flips. So a Pauli correction that runs on some branches
        and not on others leaves them all on one shape."""
        j = self.position(gate.qubits[0])
        m = 1 << j
        kind, xz = gate.kind, self.xz
        flip = 0
        if kind in ("X", "Z"):  # X flips the rows with Z or Y on the qubit, Z those with X or Y
            part = 1 if kind == "X" else 0
            for i, row in enumerate(xz):
                if row[part] & m:
                    flip |= 1 << i
            return None, None, flip
        rows = []
        if kind == "H":  # swaps X and Z, and Y picks up a sign
            for row in xz:
                x, z, _ = row
                xb, zb = x & m, z & m
                if xb != zb:
                    row = (x ^ m, z ^ m, 0)
                elif xb:
                    flip |= 1 << len(rows)
                rows.append(row)
        else:  # CNOT: X on the control spreads to the target, Z on the target to the control
            t = self.position(gate.qubits[1])
            tm = 1 << t
            for row in xz:
                x, z, _ = row
                xc, zt = x & m, z & tm
                if xc or zt:
                    if xc and zt and not ((x >> t) ^ (z >> j)) & 1:
                        flip |= 1 << len(rows)
                    row = (x ^ tm if xc else x, z ^ m if zt else z, 0)
                rows.append(row)
        return tuple(rows), None if self.memo is None else {}, flip

    def _eliminated(self, q: QubitId, measuring: bool):
        """Measuring q in the Z basis, or dropping it: the form of the
        outcome if the measurement is certain (else None), the next shape
        ``(qubits, xz, memo)``, the pivot row's bit in the sign word, the
        masks of the rows whose sign flips always, if the pivot's sign is
        1, and if the outcome is 1; or, when dropping a q that is entangled
        with the rest, the refusal's message.

        The pivot is the first row with X on q when measuring, or the first
        row acting on q when dropping. It clears that part from the other
        rows and is dropped, and q's bits go; the bits above q move down.
        Each row left with Z on q takes the outcome into its sign. A dropped
        q factors out iff the rows' parts on q span one Pauli (its one-qubit
        entropy, a GF(2) rank minus 1, is 0), and then no row is left with Z
        on q. A measurement with no pivot is certain: Z_q or -Z_q is a
        stabilizer, and q is dropped.
        """
        j = self.position(q)
        m = 1 << j
        low, j1 = m - 1, j + 1
        zm = 0 if measuring else m  # the pivot clears q's X bit, or both its bits
        p = None
        rest, const, times, flip = [], 0, 0, 0
        for row in self.xz:
            x, z, _ = row
            if x & m or z & zm:
                on_q = x & m | (z & zm) << 1
                if p is None:
                    pivot, part, p = len(rest), on_q, row
                    continue
                if on_q != part:
                    return f"qubit {q} is still entangled with the rest (purity {0.5:.12f})"
                x, z, c = _mul(row, p)
                times |= 1 << len(rest)
                const |= c << len(rest)
            if z & m:  # times (-1)^bit Z_q clears it
                flip |= 1 << len(rest)
            rest.append(((x & low) | (x >> j1) << j, (z & low) | (z >> j1) << j, 0))
        if p is None:  # certain: q is dropped as a product
            return (self._z_form(m), *self._eliminated(q, False)[1:])
        qubits, memo = self.qubits[:j] + self.qubits[j1:], None if self.memo is None else {}
        return None, qubits, tuple(rest), memo, 1 << pivot, const, times, flip

    def _tensored(self, other: "Tableau"):
        """The shape ``(qubits, xz, memo)`` of the tensor product."""
        overlap = set(self.qubits) & set(other.qubits)
        if overlap:
            raise ValueError(f"registers share qubits {sorted(overlap)}")
        k = len(self.qubits)
        xz = self.xz + tuple([(x << k, z << k, 0) for x, z, _ in other.xz])
        return self.qubits + other.qubits, xz, None if self.memo is None else {}

    def _z_form(self, m: int) -> int:
        """The form of r with (-1)^r Z_q in the group, where ``m`` is q's
        bit and no row has X on q: Z_q then commutes with the whole group,
        which is maximal, so it holds Z_q or -Z_q."""
        width = len(self.qubits)
        key = _on((1 << width) - 1, width)
        basis, _ = _eliminate(self._signed(), key)
        return _express(basis, key, m << width)[2]

    def _cut(self, subset: frozenset) -> float:
        qubits = set(self.qubits)
        if not subset or subset == qubits:
            raise ValueError("subset must be a nonempty proper subset of the register")
        unknown = subset - qubits
        if unknown:
            raise ValueError(f"qubits {sorted(unknown)} not in register")
        mask = sum(1 << self.position(q) for q in subset)
        basis, _ = _eliminate(self.xz, _on(mask, len(self.qubits)))  # the rank ignores signs
        return float(len(basis) - len(subset))

    def _ghz_forms(self, qubits: frozenset):
        """``(weight, zero, one, coherence)`` for ``ghz_terms``: |0…0> and
        |1…1> weigh ``weight`` each if every form in ``zero``, respectively
        ``one``, is 0; ``coherence`` is None or the form and phase of the
        stabilizer that flips every qubit.

        The reduced state is ``2^-s`` times the sum of the stabilizers
        supported on the s qubits. Those without X (a group D of size 2^d)
        weigh |0…0> and |1…1>: each gets 2^(d-s) if every generator of D
        fixes it, else 0. The coherence comes from the coset of stabilizers
        that flip every qubit, P0·D: ``<0…0|P0|1…1>`` times 2^(d-s), if D
        fixes |1…1>. When ``qubits`` is the whole register, as for a
        finished GHZ factor, every stabilizer is supported on it and the
        first row reduction is skipped.
        """
        inside = sum(1 << self.position(q) for q in qubits)
        width = len(self.qubits)
        full = (1 << width) - 1
        local = self._signed()
        if inside != full:
            _, local = _eliminate(local, _on(full ^ inside, width))
        flipping, diagonal = _eliminate(local, _x_part)
        weight = 2.0 ** (len(diagonal) - inside.bit_count())
        zero = tuple(r for _, _, r in diagonal)
        one = tuple(r ^ (z.bit_count() & 1) for _, z, r in diagonal)
        p0 = _express(flipping, _x_part, inside)
        coherence = None if p0 is None else (p0[2], _I_POWERS[-p0[1].bit_count() & 3])
        return weight, zero, one, coherence

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

        from .statevec import StateVector, require_dense

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


@contextmanager
def memoized(tableaux: Iterable[Tableau]) -> Iterator[None]:
    """Arm the shapes of ``tableaux`` while the block runs.

    Each transition from an armed shape is computed once and kept, with
    the shape it leads to, armed too; every tableau over one of these
    shapes, whatever its signs, replays the transition with a lookup. When
    the block ends the memos are dropped, so they are freed with the
    networks that ran in it.
    """
    tableaux = list(tableaux)
    for t in tableaux:
        t.memo = {}
    try:
        yield
    finally:
        for t in tableaux:
            t.memo = None


def _distinct(qubit_ids: Iterable[QubitId]) -> tuple[QubitId, ...]:
    qubit_ids = tuple(qubit_ids)
    if len(set(qubit_ids)) != len(qubit_ids):
        raise ValueError(f"duplicate qubit ids in {qubit_ids}")
    return qubit_ids
