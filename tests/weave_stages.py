"""Stage-by-stage replay of the three-party weave (Protocol I).

A report carries its schedule, ``report.transcript``, and the outcomes of
every branch it checked. ``weave_stages`` runs each reported branch of
that schedule again on the dense oracle (``dense_oracle.DenseRun``) and
snapshots the circuit's five qubits at the end of each of its seven
stages. The roles and the stage ends are read from the schedule's own gate
and measurement records, not taken from the library.
"""

from eprweave.locc import GateRecord, MeasureRecord

from dense_oracle import DenseRun

#: The circuit's gate and measurement records, in schedule order.
CIRCUIT = ("CNOT", "CNOT", "measure", "H", "measure", "X", "X", "Z")

#: The qubits each snapshot spans, in order.
SNAPSHOT_ROLES = ("keep", "x_qubit", "ancilla", "channel", "z_qubit")


def _step(rec):
    return "measure" if isinstance(rec, MeasureRecord) else rec.gate.kind


def weave_stages(report):
    """``(stage, snapshot, roles, measured)`` for stages 1..7 of every
    reported branch, branches in report order. ``snapshot`` is the joint
    state of the ``SNAPSHOT_ROLES`` qubits and ``measured`` the branch's
    outcomes so far, in measurement order."""
    schedule = report.transcript
    ops = [i for i, rec in enumerate(schedule) if isinstance(rec, (GateRecord, MeasureRecord))]
    records = [schedule[i] for i in ops]
    assert [_step(rec) for rec in records] == list(CIRCUIT), records
    copy, route, channel_out, _, ancilla_out, hub_x, x_fix, z_fix = records
    roles = {
        "hub": copy.actor,
        "keep": copy.gate.qubits[0],
        "channel": channel_out.qubit,
        "ancilla": copy.gate.qubits[1],
        "x_partner": x_fix.actor,
        "x_qubit": x_fix.gate.qubits[0],
        "z_partner": z_fix.actor,
        "z_qubit": z_fix.gate.qubits[0],
    }
    assert route.gate.qubits == (roles["ancilla"], roles["channel"])
    assert ancilla_out.qubit == roles["ancilla"]
    assert hub_x.actor == roles["hub"] and hub_x.gate.qubits == (roles["keep"],)
    del ops[5]  # the hub's X ends stage 6 together with the X-partner's
    stage_at = {i: stage for stage, i in enumerate(ops, start=1)}
    qubits = tuple(roles[role] for role in SNAPSHOT_ROLES)

    snapshots = []
    for branch in report.branches:
        dense = DenseRun(branch.outcomes)
        for i, rec in enumerate(schedule):
            dense.apply(rec)
            if i in stage_at:
                measured = branch.outcomes[: len(dense.probabilities)]
                snapshots.append((stage_at[i], dense.state(qubits), dict(roles), measured))
    return snapshots
