"""Views of a network's tableau factors, for tests that only observe a
state: the product of ``net.factors(qubits)`` as one dense register, and a
check that a tableau's rows describe a state at all."""

import itertools

from eprweave.stabilizer import Tableau
from eprweave.statevec import StateVector


def dense_view(net, qubits=None) -> StateVector:
    """The factors of ``net`` touching ``qubits`` (all if None) as one
    dense register."""
    view = StateVector.zeros(())
    for factor in net.factors(qubits):
        view = view.tensor(factor.to_statevector())
    return view


def assert_stabilizer_generators(t: Tableau) -> None:
    """``t``'s rows are n pairwise-commuting generators, independent over
    GF(2), with 0/1 signs and no bits outside the register: so they
    stabilize exactly one state. Independence also keeps -I out of their
    group, since no product of them has empty X and Z parts."""
    n, rows = t.n, t.rows
    assert len(rows) == n
    for x, z, r in rows:
        assert r in (0, 1) and 0 <= x < 1 << n and 0 <= z < 1 << n
    for (x1, z1, _), (x2, z2, _) in itertools.combinations(rows, 2):
        assert ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0, "rows anticommute"
    basis: dict[int, int] = {}  # top bit -> reduced X|Z vector
    for x, z, _ in rows:
        v = x | z << n
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        assert v, "rows are dependent"
        basis[v.bit_length()] = v
