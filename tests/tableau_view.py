"""A dense view of a network's tableau factors, for tests that only observe
a state: the product of ``net.factors(qubits)``, each converted with
``Tableau.to_statevector``."""

from eprweave.statevec import StateVector


def dense_view(net, qubits=None) -> StateVector:
    """The factors of ``net`` touching ``qubits`` (all if None) as one
    dense register."""
    view = StateVector.zeros(())
    for factor in net.factors(qubits):
        view = view.tensor(factor.to_statevector())
    return view
