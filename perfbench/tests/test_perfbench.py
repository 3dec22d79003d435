"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stats import tail  # noqa: E402


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_times_subtract_the_union_of_child_intervals():
    #  0: root   [0, 10]  children 1, 2
    #  1: a      [1, 4]   child 3
    #  2: b      [5, 9]
    #  3: c      [2, 3]
    #  4: d      [0, 10]  children 5, 6 overlap: [1, 5] u [4, 8] covers 7
    #  7: e      [0, 4]   child 8 runs past its parent: only [3, 4] counts
    start = [0, 1, 5, 2, 0, 1, 4, 0, 3]
    end = [10, 4, 9, 3, 10, 5, 8, 4, 6]
    parent = [-1, 0, 0, 1, -1, 4, 4, -1, 7]
    got = spans.self_times(start, end, parent)
    assert got == pytest.approx([3, 2, 4, 1, 3, 4, 4, 3, 3])


def test_layer_buckets_partition_the_span_names():
    assert spans.bucket("cli.parse_spec") == "cli.parse_s"
    assert spans.bucket("cli.run") == "cli.self_s"
    assert spans.bucket("protocols.verify_ghz") == "protocols.verify_s"
    assert spans.bucket("protocols.protocol_two") == "protocols.self_s"
    assert spans.bucket("locc.NetworkState.copy") == "locc.copy_s"
    assert spans.bucket("statevec.StateVector.discard") == "statevec.discard_s"
    assert spans.bucket("statevec.StateVector.reordered") == "statevec.audit_s"
    assert spans.bucket("statevec.X") == "statevec.other_s"
    assert spans.bucket("topology.EprGraph.neighbors") == "topology.self_s"
    for name in ("cli.run", "statevec.X", "locc.NetworkState.copy"):
        assert spans.bucket(name) in spans.TIME_METRICS


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, count = tail(range(1, 101))
    assert (value, pct, count) == (90, 90.0, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    value, pct, count = tail(list(range(40, 0, -1)))
    assert (value, pct, count) == (30, 75.0, 40)


def test_tail_falls_back_to_the_maximum_with_too_few_samples():
    assert tail(range(1, 21)) == (10, 50.0, 20)
    assert tail(range(1, 20)) == (19, 100.0, 19)
    assert tail([0.5]) == (0.5, 100.0, 1)
    with pytest.raises(ValueError):
        tail([])


# ---------------------------------------------------------------------------
# host-normalized times


def test_times_scale_by_nominal_over_measured_kernel_time():
    nominal = hostspeed.COMPOSITE_NOMINAL_S
    assert hostspeed.scale(0.3, [nominal, nominal], nominal) == pytest.approx(0.3)
    # a host running the kernels at half speed doubled the wall time
    assert hostspeed.scale(0.6, [1.5 * nominal, 2.5 * nominal], nominal) == pytest.approx(0.3)


def test_item_times_are_per_item_medians_of_scaled_passes():
    k = hostspeed.COMPOSITE_NOMINAL_S
    samples = [[0, 1.0, k], [1, 4.0, 2 * k], [0, 3.0, 2 * k], [0, 0.5, k / 4], [1, 2.0, k]]
    # item 0 scales to 1.0, 1.5, 2.0; item 1 to 2.0, 2.0
    assert sorted(run.item_times(samples)) == pytest.approx([1.5, 2.0])


def test_kernels_time_each_repetition():
    assert len(hostspeed.python_time(3)) == 3
    assert all(t > 0 for t in hostspeed.python_time(2) + hostspeed.composite_time(1))


# ---------------------------------------------------------------------------
# workload generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_identical_for_the_same_seed(workload):
    a = workloads.generate(workload, 7)
    assert a == workloads.generate(workload, 7)
    assert a != workloads.generate(workload, 8)
    assert len(a) == workloads.POOL[workload]
    assert json.loads(json.dumps(a)) is not None


def test_generated_networks_have_the_advertised_shape():
    for item in workloads.census(0):
        assert item["calls"][0]["expect"]["n"] == 5
    assert {i["kind"] for i in workloads.wide(0)} == {"path", "star", "random"}
    for item in workloads.fuse(0):
        assert 4 <= item["calls"][0]["expect"]["merge_steps"] <= 7
        assert item["qubits"] <= workloads.FUSE_AGENTS + 4
    share = workloads.overlap_share(workloads.fuse(0))
    assert 0 < share < 1
    item = workloads.topology(0, size=1, n=50, m=100)[0]
    assert item["specs"]["net"].count("edge ") == 100
    assert len(item["calls"][1]["expect"]["edges"]) == 49


# ---------------------------------------------------------------------------
# identity checks against real reports


def _reports(tmp_path, item):
    """``(report, expectation)`` of each call of the item."""
    [materialized] = workloads.materialize([item], tmp_path)
    import eprweave.cli as cli

    found = []
    for call in materialized["calls"]:
        assert cli.run(call["argv"], io.StringIO(), io.StringIO()) == 0
        found.append((json.loads(Path(call["report"]).read_text()), call["expect"]))
    return found


def _check_weave_report(document, expect):
    assert checks.check_report(document, expect) == []

    more_bits = copy.deepcopy(document)
    more_bits["result"]["cbits"] += 1
    assert any("cbits" in p for p in checks.check_report(more_bits, expect))

    low = copy.deepcopy(document)
    low["result"]["branches"][5]["fidelity"] = 0.9
    assert any("fidelity" in p for p in checks.check_report(low, expect))


def test_identity_checker_accepts_weave_and_rejects_doctored_reports(tmp_path):
    for item in workloads.census(3, size=2):
        for document, expect in _reports(tmp_path, item):
            _check_weave_report(document, expect)


def test_identity_checker_accepts_fuse_and_rejects_doctored_reports(tmp_path):
    [(document, expect)] = _reports(tmp_path, workloads.fuse(3, size=1)[0])
    assert checks.check_report(document, expect) == []
    more_bits = copy.deepcopy(document)
    more_bits["result"]["cbits"] += 1
    assert any("merge_steps" in p for p in checks.check_report(more_bits, expect))
    low = copy.deepcopy(document)
    low["result"]["branches"][0]["fidelity"] = 0.9
    assert checks.check_report(low, expect)


def test_schedule_check_rejects_a_reordered_schedule():
    groups = [[1, 2, 3], [3, 4], [4, 5]]
    steps = [
        {"hyperedge": [3, 4], "junction": 3, "overlap": [3], "pre_size": 3, "add_size": 2},
        {"hyperedge": [4, 5], "junction": 4, "overlap": [4], "pre_size": 4, "add_size": 2},
    ]
    assert checks.check_schedule(steps, 5, groups) == []
    assert checks.check_schedule(steps[::-1], 5, groups)
    assert checks.check_schedule(steps[:1], 5, groups)


# ---------------------------------------------------------------------------
# memory ceiling


class _ExplodingCli:
    def run(self, argv, out, err):
        raise AssertionError("an over-budget item reached eprweave")


def test_an_n32_path_item_is_refused_before_anything_is_allocated():
    item = workloads.path_weave_item(32)
    assert item["qubits"] == 34
    runner = child.Runner(_ExplodingCli(), None, run.QUBIT_BUDGET)
    assert runner.attempt(item) is None
    assert (runner.attempted, runner.failed) == (1, 1)
    [problem] = runner.problems
    assert "34 qubits" in problem and f"{run.QUBIT_BUDGET}-qubit budget" in problem
    with pytest.raises(child.Refused):
        child.admit(item, run.QUBIT_BUDGET)
    child.admit(workloads.path_weave_item(20), run.QUBIT_BUDGET)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_patches_names_where_they_are_looked_up_and_restores_them(tmp_path):
    import eprweave.cli as cli
    import eprweave.protocols as protocols
    import eprweave.topology as topology

    originals = (cli.spanning_tree, topology.spanning_tree, protocols.verify_ghz, cli.run)
    [item] = workloads.materialize(workloads.census(1, size=1), tmp_path)
    tracer = spans.Tracer()
    runner = child.Runner(cli, topology, run.QUBIT_BUDGET, tracer)
    tracer.install()
    try:
        assert cli.spanning_tree is topology.spanning_tree
        assert cli.spanning_tree is not originals[0]
        assert protocols.verify_ghz is not originals[2]
    finally:
        tracer.remove()
    assert (cli.spanning_tree, topology.spanning_tree, protocols.verify_ghz, cli.run) == originals

    assert runner.attempt(item) is not None
    assert runner.attempt(item, traced=True) is not None
    assert runner.failed == 0 and not runner.conflicts
    assert (cli.spanning_tree, topology.spanning_tree, protocols.verify_ghz, cli.run) == originals

    names = tracer.span_names()
    assert names[0] == "cli.run" and tracer.parent[0] == -1
    assert "topology.spanning_tree" in names and "cli.parse_spec" in names
    metrics = spans.layer_metrics(tracer, 1)
    expects = [call["expect"] for call in item["calls"]]
    assert [e["step2"] for e in expects] == ["symmetric", "zeilinger"]
    runs = [2 ** (2 * e["n"] - 4 - (e["step2"] == "zeilinger")) for e in expects]
    bits = sum(child.expected_cbits(e) * r for e, r in zip(expects, runs))
    assert metrics["protocols.verify_calls"] == sum(runs)
    assert metrics["protocols.branch_yield"] == 1
    assert metrics["locc.cbits"] == pytest.approx(bits / sum(runs))
    traced_time = sum(metrics[m] for m in spans.TIME_METRICS)
    roots = sum(
        e - s for s, e, parent in zip(tracer.start, tracer.end, tracer.parent) if parent == -1
    )
    assert traced_time == pytest.approx(roots, rel=1e-9)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the layer map agree with the code


def test_benchmark_json_names_every_metric_the_code_reports(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    tracer = spans.Tracer()
    reported = set(spans.layer_metrics(tracer, 1)) | {
        "trace.items_per_s", "trace.untraced_items_per_s", "trace.overhead_ratio"
    }
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(per_layer) == reported
    assert all(per_layer[name] == spans.unit(name) for name in per_layer)
    layer_map = json.loads((BENCH / "layers.json").read_text())
    assert {m["name"] for m in layer_map["per_layer"]} == reported
    assert set(layer_map["workloads"]) == set(workloads.WORKLOADS)
