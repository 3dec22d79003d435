"""Span tracing of eprweave's layers from outside the package.

``Tracer.install`` wraps every public function and method defined in the
layer modules (``cli``, ``topology``, ``protocols``, ``locc``, ``statevec``)
and rebinds every module-level name that refers to a wrapped function, so a
call is traced wherever the name is looked up (``eprweave.cli.spanning_tree``
as well as ``eprweave.topology.spanning_tree``). ``remove`` restores the
originals. Spans (name, start, end, parent, item) live in flat arrays until
the run ends; a few wrapped calls also feed computed counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "eprweave"
LAYERS = ("cli", "topology", "protocols", "locc", "statevec")

AUDIT_METHODS = ("cut_entropy", "probability_of_one", "reordered")
KERNELS = ("apply", "measure", "discard", "tensor")
LOCC_OPS = {
    "local_gate": "locc.gates",
    "local_measure": "locc.measures",
    "send_classical": "locc.messages",
    "discard_qubit": "locc.discards",
}
AMP_BYTES = 16  # complex128


# ---------------------------------------------------------------------------
# counters fed by wrapped calls: hook(counters, maxima, args, result)


def _edges_scanned(counters, maxima, args, result):
    counters["topology.edges_scanned_computed"] += len(args[0].edges)


def _register_pass(counters, maxima, args, result):
    # model: one read and one write of the complex128 register per call
    n = args[0].n
    counters["statevec.bytes_moved_computed"] += 2 * AMP_BYTES * 2**n
    maxima["statevec.max_register_qubits"] = max(maxima["statevec.max_register_qubits"], n)


def _tensor_pass(counters, maxima, args, result):
    counters["statevec.bytes_moved_computed"] += AMP_BYTES * (
        2 ** args[0].n + 2 ** args[1].n + 2**result.n
    )
    maxima["statevec.max_register_qubits"] = max(maxima["statevec.max_register_qubits"], result.n)


def _cbits(counters, maxima, args, result):
    counters["locc.cbits_sent"] += len(result.bits)


def _verified(counters, maxima, args, result):
    counters["protocols.verify_calls"] += 1
    maxima["locc.peak_factor_qubits"] = max(
        maxima["locc.peak_factor_qubits"], args[0].peak_factor_qubits
    )


def _protocol_branches(counters, maxima, args, result):
    counters["protocols.branches"] += len(result.branches)


HOOKS = {
    "topology.EprGraph.neighbors": _edges_scanned,
    "topology.SpanningTree.neighbors": _edges_scanned,
    "statevec.StateVector.apply": _register_pass,
    "statevec.StateVector.measure": _register_pass,
    "statevec.StateVector.discard": _register_pass,
    "statevec.StateVector.tensor": _tensor_pass,
    "locc.NetworkState.send_classical": _cbits,
    "protocols.verify_ghz": _verified,
    "protocols.protocol_one": _protocol_branches,
    "protocols.protocol_two": _protocol_branches,
    "protocols.protocol_three": _protocol_branches,
}


def _targets(module):
    """(owner, attribute, raw attribute, span name) for every public
    function and method the module defines."""
    layer = module.__name__.rpartition(".")[2]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    yield obj, attr, raw, f"{layer}.{name}.{attr}"


class Tracer:
    """Collects spans for the calls made between ``install`` and ``remove``."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self.current_item = -1
        self._stack = [-1]
        self._wrappers: dict[int, tuple] = {}
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        hook = HOOKS.get(span_name)
        start, end, names, parents, items = self.start, self.end, self.name, self.parent, self.item
        stack, counters, maxima = self._stack, self.counters, self.maxima
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.current_item)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, maxima, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        functions = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for owner, attr, raw, span_name in _targets(module):
                if id(raw) not in self._wrappers:
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(raw.__func__, span_name))
                    else:
                        wrapped = self._wrap(raw, span_name)
                    self._wrappers[id(raw)] = (raw, wrapped)
                wrapped = self._wrappers[id(raw)][1]
                if inspect.isclass(owner):
                    self._patch(owner, attr, raw, wrapped)
                else:
                    functions[id(raw)] = wrapped
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in functions and self._wrappers[id(value)][0] is value:
                    self._patch(module, name, value, functions[id(value)])

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name]

    def save(self, path) -> None:
        """Write the spans as one ``.npz`` archive of flat arrays."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered, run_s, run_e = 0.0, None, None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append(e - s - covered)
    return out


def bucket(span_name: str) -> str:
    """The per-layer time metric a span's self time is charged to."""
    layer, _, rest = span_name.partition(".")
    method = rest.rpartition(".")[2]
    if layer == "cli":
        return "cli.parse_s" if rest in ("parse_spec", "load_spec") else "cli.self_s"
    if layer == "protocols":
        return "protocols.verify_s" if rest == "verify_ghz" else "protocols.self_s"
    if layer == "locc":
        return "locc.copy_s" if rest == "NetworkState.copy" else "locc.self_s"
    if layer == "statevec":
        if method in KERNELS:
            return f"statevec.{method}_s"
        return "statevec.audit_s" if method in AUDIT_METHODS else "statevec.other_s"
    return f"{layer}.self_s"


def call_counter(span_name: str) -> str | None:
    """The per-layer call count a span adds one to, if any."""
    layer, _, rest = span_name.partition(".")
    method = rest.rpartition(".")[2]
    if layer == "topology" and method == "neighbors":
        return "topology.neighbors_calls"
    if layer == "locc":
        if rest == "NetworkState.copy":
            return "locc.copy_calls"
        return LOCC_OPS.get(method) if rest.startswith("NetworkState.") else None
    if layer == "statevec" and rest.startswith("StateVector."):
        if method in KERNELS:
            return f"statevec.{method}_calls"
        if method in AUDIT_METHODS:
            return "statevec.audit_calls"
    return None


TIME_METRICS = (
    "cli.parse_s", "cli.self_s", "topology.self_s", "protocols.self_s",
    "protocols.verify_s", "locc.self_s", "locc.copy_s", "statevec.apply_s",
    "statevec.measure_s", "statevec.discard_s", "statevec.tensor_s",
    "statevec.audit_s", "statevec.other_s",
)

PER_ITEM_COUNTS = (
    "topology.neighbors_calls", "locc.copy_calls", "locc.gates", "locc.measures",
    "locc.messages", "locc.discards", "statevec.apply_calls", "statevec.measure_calls",
    "statevec.discard_calls", "statevec.tensor_calls", "statevec.audit_calls",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in TIME_METRICS:
        return "s/item"
    if name in ("trace.items_per_s", "trace.untraced_items_per_s"):
        return "1/s"
    if name.endswith("_qubits"):
        return "qubits"
    if name == "locc.cbits":
        return "bits/run"
    if name == "statevec.bytes_moved_computed":
        return "bytes/item"
    if name in PER_ITEM_COUNTS or name in (
        "protocols.verify_calls", "protocols.branches", "topology.edges_scanned_computed"
    ):
        return "count/item"
    return "ratio"


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-item self times and counts, plus the ratios the layers define."""
    names = tracer.span_names()
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    totals: Counter = Counter({m: 0.0 for m in TIME_METRICS})
    calls: Counter = Counter()
    for name, dt in zip(names, selfs):
        totals[bucket(name)] += dt
        counter = call_counter(name)
        if counter:
            calls[counter] += 1
    c = tracer.counters
    verify = c["protocols.verify_calls"]
    branches = c["protocols.branches"]
    locc_ops = sum(calls[m] for m in LOCC_OPS.values())

    def ratio(a, b):
        return a / b if b else 0.0

    per_item = {m: totals[m] / items for m in TIME_METRICS}
    for m in PER_ITEM_COUNTS:
        per_item[m] = calls[m] / items
    per_item.update(
        {
            "topology.edges_scanned_computed": c["topology.edges_scanned_computed"] / items,
            "protocols.verify_calls": verify / items,
            "protocols.branches": branches / items,
            "protocols.branch_yield": ratio(branches, verify),
            "locc.ops_per_branch": ratio(locc_ops, branches),
            "locc.cbits": ratio(c["locc.cbits_sent"], verify),
            "locc.peak_factor_qubits": float(tracer.maxima["locc.peak_factor_qubits"]),
            "statevec.discards_per_measure": ratio(
                calls["statevec.discard_calls"], calls["statevec.measure_calls"]
            ),
            "statevec.bytes_moved_computed": c["statevec.bytes_moved_computed"] / items,
            "statevec.max_register_qubits": float(tracer.maxima["statevec.max_register_qubits"]),
        }
    )
    return per_item
