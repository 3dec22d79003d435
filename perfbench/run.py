"""eprweave benchmark: four CLI workloads, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload census --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Each workload runs in fresh child processes, one at a time, that call the
public entry point ``eprweave.cli.run(argv, out, err)`` in-process over
seeded inputs (``workloads.py``), one client in a closed loop. Every report
is checked against the paper's identities (``checks.py``).

With ``--trace 0`` two set-up children and one measuring child run, and the
end-to-end metrics are printed: ``setup_s`` (median over the three children
of importing ``eprweave.cli`` plus the warm-up items), ``items_per_s``,
``item_p50_s``, ``item_tail_s`` and ``peak_rss_mib`` (the measuring child's
``ru_maxrss``). Times are host-normalized: each wall time is scaled by the
nominal over the measured time of fixed reference kernels timed around it
(``hostspeed.py``), because other tenants of a shared host slow everything
down by up to 1.8x in phases that can outlast a run. An item's time is the
median over its passes of the pool. The raw wall-time throughput, the
failure ratio, the tail's percentile and sample count, the environment and
a digest of all reports are printed next to the numbers.

With ``--trace 1`` one child alternates untraced and traced items and the
per-layer metrics of ``spans.py`` are printed, with the tracing overhead.
The layer-to-metric map lives in ``perfbench/layers.json``.

Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Work files go to
``.bench_work/`` in the checkout. Exit code 0 means the run completed;
a missing ``src/eprweave``, a child that crashes or overruns, or bad
arguments give a non-zero exit and no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import unit  # noqa: E402
from stats import tail  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Largest dense register an item may build: 2^22 amplitudes, 64 MiB.
QUBIT_BUDGET = 22
#: Address-space ceiling each child sets on itself.
ADDRESS_SPACE_BYTES = 2 * 2**30
#: Fresh children whose set-up time is measured; the last one also measures items.
SETUP_CHILDREN = 3
#: The whole invocation must finish within this many seconds.
DEADLINE_S = 170

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark could not complete a run."""


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eprweave").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_child(manifest_path: Path, mode: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} child")
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(manifest_path), mode],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} child overran the {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"the {mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def check_digests(workload: str, inputs: str, children: list[dict]) -> tuple[dict, list[str]]:
    """Merge per-item report digests of all children with those of earlier
    runs of the same source on the same inputs; any disagreement is a
    conflict."""
    conflicts = [c for child in children for c in child["conflicts"]]
    merged: dict[str, str] = {}
    for child in children:
        for index, digest in child["digests"].items():
            if merged.setdefault(index, digest) != digest:
                conflicts.append(f"item {index} gave different reports in two children")
    store = WORK / "digests.json"
    key = f"{workload}:{inputs}:{source_hash()}"
    known = json.loads(store.read_text()) if store.exists() else {}
    earlier = known.get(key, {})
    for index, digest in merged.items():
        if earlier.get(index, digest) != digest:
            conflicts.append(f"item {index} differs from an earlier run of the same source")
    known[key] = dict(earlier, **merged)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return merged, conflicts


def workload_digest(workload: str, merged: dict) -> tuple[str, int]:
    indices = range(workloads.POOL[workload])
    covered = [str(i) for i in indices if str(i) in merged]
    digest = hashlib.sha256("".join(merged[i] for i in covered).encode())
    return digest.hexdigest()[:16], len(covered)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / workload
    generated = workloads.generate(workload, seed)
    inputs = hashlib.sha256(json.dumps(generated).encode()).hexdigest()
    items = workloads.materialize(generated, workdir)
    manifest = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "src": str(SRC),
        "items": items,
        "warmup": workloads.WARMUP[workload],
        "qubit_budget": QUBIT_BUDGET,
        "address_space_bytes": ADDRESS_SPACE_BYTES,
        "spans_path": str(workdir / "spans.npz"),
    }
    manifest_path = workdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))

    if trace:
        children = [run_child(manifest_path, "trace", deadline)]
    else:
        children = [run_child(manifest_path, "setup", deadline) for _ in range(SETUP_CHILDREN - 1)]
        children.append(run_child(manifest_path, "measure", deadline))
    last = children[-1]
    merged, conflicts = check_digests(workload, inputs, children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    summary = {
        "workload": workload,
        "seed": seed,
        "env": dict(last["env"], qubit_budget=QUBIT_BUDGET, address_space_mib=ADDRESS_SPACE_BYTES // 2**20),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for c in children for p in c["problems"]],
        "conflicts": conflicts,
        "digest": workload_digest(workload, merged),
        "correct": failed == 0 and not conflicts,
    }
    if trace:
        summary["metrics"] = {
            name: {"value": value, "unit": unit(name)}
            for name, value in last["layers"].items()
        }
        summary["traced_items"] = last["traced_items"]
        summary["spans"] = last["spans"]
        return summary
    samples = last["samples"]
    if not samples:
        raise BenchError(f"no {workload} item passed its checks")
    times = item_times(samples)
    tail_value, tail_pct, count = tail(times)
    values = {
        "setup_s": statistics.median(
            hostspeed.scale(c["setup_s"], c["setup_kernel_s"], hostspeed.PYTHON_NOMINAL_S)
            for c in children
        ),
        "items_per_s": len(times) / sum(times),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_value,
        "peak_rss_mib": last["peak_rss_mib"],
    }
    summary["metrics"] = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
    }
    summary["tail"] = {"percentile": tail_pct, "samples": count}
    if workload == "fuse":
        summary["overlap_share"] = workloads.overlap_share(generated)
    summary["observed"] = {
        "runs": len(samples),
        "wall_items_per_s": len(samples) / sum(elapsed for _, elapsed, _ in samples),
        "host_factor": statistics.median(k for _, _, k in samples) / hostspeed.COMPOSITE_NOMINAL_S,
    }
    return summary


def item_times(samples: list[list]) -> list[float]:
    """Each pool item's median host-normalized time over its passes."""
    passes: dict[int, list[float]] = {}
    for index, elapsed, kernel_s in samples:
        scaled = hostspeed.scale(elapsed, [kernel_s], hostspeed.COMPOSITE_NOMINAL_S)
        passes.setdefault(index, []).append(scaled)
    return [statistics.median(p) for p in passes.values()]


def print_summary(s: dict, out=sys.stdout) -> None:
    env = s["env"]
    print(f"== {s['workload']}  seed {s['seed']}", file=out)
    print(
        f"   python {env['python']}, numpy {env['numpy']} ({env['blas']}), nproc {env['nproc']}, "
        f"BLAS threads {env['blas_threads']}, qubit budget {env['qubit_budget']}, "
        f"RLIMIT_AS {env['address_space_mib']} MiB",
        file=out,
    )
    for name, m in s["metrics"].items():
        extra = ""
        if name == "item_tail_s":
            extra = f"  (p{s['tail']['percentile']:.1f} of {s['tail']['samples']} items)"
        print(f"   {name:32s} {m['value']:14.6g} {m['unit']}{extra}", file=out)
    ratio = s["failed"] / s["attempted"] if s["attempted"] else 0.0
    print(f"   {'fail_ratio':32s} {ratio:14.6g} ratio  ({s['failed']}/{s['attempted']})", file=out)
    if "observed" in s:
        o = s["observed"]
        print(
            f"   times are host-normalized medians of {o['runs'] / s['tail']['samples']:.1f} "
            f"passes per item; the reference kernels ran {o['host_factor']:.3f}x their "
            f"nominal time; raw wall time gave {o['wall_items_per_s']:.6g} items/s",
            file=out,
        )
    if "overlap_share" in s:
        print(f"   merge steps with overlap >= 2: {s['overlap_share']:.1%} of the pool's", file=out)
    digest, covered = s["digest"]
    print(f"   report digest {digest} over pool items 0..{covered - 1}", file=out)
    if "traced_items" in s:
        print(f"   traced items {s['traced_items']}, spans {s['spans']}", file=out)
    for line in s["problems"] + s["conflicts"]:
        print(f"   FAIL {line}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eprweave" / "cli.py").is_file():
        print(f"perfbench: no eprweave sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_summary(results[name])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(results) == 1:
        line["metrics"] = results[names[0]]["metrics"]
    else:
        line["metrics"] = {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
