"""One fresh interpreter measuring one workload; started by ``run.py``.

Usage: ``python3 perfbench/child.py MANIFEST MODE`` with MODE one of

- ``setup``: import ``eprweave.cli`` and run the warm-up items, timed;
- ``measure``: the same, then a closed loop with one client over the pool
  until the manifest's seconds are spent (untraced), timing the reference
  kernels of ``hostspeed`` just before and just after every item;
- ``trace``: the same, then a closed loop that runs each item untraced and
  then traced, and reports per-layer metrics.

The child caps its own address space before importing anything heavy and
refuses an item whose dense register would exceed the qubit budget. It
prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from checks import check_report, check_schedule  # noqa: E402

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_PROBLEMS = 5


class Refused(Exception):
    """An item the memory ceiling turns away before eprweave sees it."""


def admit(item: dict, qubit_budget: int) -> None:
    """Refuse an item whose dense register exceeds the qubit budget."""
    qubits = item["qubits"]
    if qubits > qubit_budget:
        mib = 16 * 2**qubits / 2**20
        raise Refused(
            f"item {item['index']} refused: a dense register of {qubits} qubits "
            f"needs {mib:,.0f} MiB per copy, over the {qubit_budget}-qubit budget"
        )


def cap_address_space(limit: int) -> None:
    """Lower RLIMIT_AS so a runaway allocation raises MemoryError here
    instead of drawing the machine's OOM killer."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def schedule_rows(steps) -> list[dict]:
    return [
        {
            "index": s.index,
            "hyperedge": sorted(s.hyperedge),
            "junction": s.junction,
            "overlap": sorted(s.overlap),
            "pre_size": s.pre_size,
            "add_size": s.add_size,
        }
        for s in steps
    ]


def expected_cbits(expect: dict) -> int | None:
    """cbits per protocol execution of one call by the paper's identities,
    if any."""
    if expect["kind"] == "weave":
        return 2 * expect["n"] + expect["k"] - 4 - (expect["step2"] == "zeilinger")
    if expect["kind"] == "fuse":
        return expect["merge_steps"]
    return None


class Runner:
    """Runs items through ``eprweave.cli.run`` and checks their reports."""

    def __init__(self, cli, topology, qubit_budget: int, tracer=None):
        self.cli = cli
        self.topology = topology
        self.qubit_budget = qubit_budget
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.conflicts: list[str] = []

    def _fail(self, item: dict, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"item {item['index']} ({item['kind']}): {message}")

    def _execute(self, item: dict, traced: bool) -> tuple[float, list[int], list | None, str, list]:
        """Run the item's calls; with ``traced``, ``marks`` holds the
        tracer's counters before the first call and after each one."""
        hyper = None
        if item["schedule"] is not None:
            hyper = self.cli.load_spec(item["schedule"]["path"]).to_hypergraph()
        out, err = io.StringIO(), io.StringIO()
        codes, steps, elapsed, marks = [], None, 0.0, []
        if traced:
            self.tracer.current_item = item["index"]
            self.tracer.install()
            marks.append(dict(self.tracer.counters))
        try:
            for call in item["calls"]:
                t0 = time.perf_counter()
                codes.append(self.cli.run(call["argv"], out, err))
                elapsed += time.perf_counter() - t0
                if traced:
                    marks.append(dict(self.tracer.counters))
            if hyper is not None:
                t0 = time.perf_counter()
                steps = self.topology.merge_schedule(hyper)
                elapsed += time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.remove()
        return elapsed, codes, steps, err.getvalue(), marks

    def attempt(self, item: dict, traced: bool = False) -> float | None:
        """Run and check one item; its wall time, or None if it failed."""
        self.attempted += 1
        try:
            admit(item, self.qubit_budget)
            elapsed, codes, steps, err, marks = self._execute(item, traced)
        except Refused as exc:
            self._fail(item, str(exc))
            return None
        except MemoryError:
            self._fail(item, "refused by the address-space ceiling (MemoryError)")
            return None
        except Exception:
            self._fail(item, traceback.format_exc(limit=3).strip().replace("\n", " | "))
            return None
        problems, digest = [], hashlib.sha256()
        for call, code in zip(item["calls"], codes):
            if code != 0:
                problems.append(f"`eprweave {call['argv'][0]}` exited {code}: {err.strip()}")
                continue
            data = Path(call["report"]).read_bytes()
            digest.update(data)
            problems += check_report(json.loads(data), call["expect"])
        if steps is not None:
            rows = schedule_rows(steps)
            digest.update(json.dumps(rows).encode())
            problems += check_schedule(rows, **item["schedule"]["expect"])
        if traced:
            problems += self._check_counted_cbits(item, marks)
        self._record_digest(item, digest.hexdigest())
        if problems:
            self._fail(item, "; ".join(problems))
            return None
        return elapsed

    def _check_counted_cbits(self, item: dict, marks: list[dict]) -> list[str]:
        problems = []
        for call, before, after in zip(item["calls"], marks, marks[1:]):
            expected = expected_cbits(call["expect"])
            if expected is None:
                continue
            runs = after.get("protocols.verify_calls", 0) - before.get("protocols.verify_calls", 0)
            sent = after.get("locc.cbits_sent", 0) - before.get("locc.cbits_sent", 0)
            if runs == 0 or sent != expected * runs:
                problems.append(
                    f"`eprweave {call['argv'][0]}`: locc sent {sent} cbits over {runs} "
                    f"executions, identity says {expected} each"
                )
        return problems

    def _record_digest(self, item: dict, digest: str) -> None:
        seen = self.digests.setdefault(item["index"], digest)
        if seen != digest:
            self.conflicts.append(f"item {item['index']} gave two different reports")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
    }


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[1]).read_text())
    mode = argv[2]
    cap_address_space(manifest["address_space_bytes"])
    src = manifest["src"]
    sys.path.insert(0, src)
    items = manifest["items"]
    warmup = items[: manifest["warmup"]]
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()

    kernel_before = hostspeed.python_time()
    t0 = time.perf_counter()
    import eprweave.cli as cli
    from eprweave import topology

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported eprweave from {cli.__file__}, not from {src}")
    runner = Runner(cli, topology, manifest["qubit_budget"], tracer)
    for item in warmup:
        runner.attempt(item)
    setup_s = time.perf_counter() - t0
    kernel_after = hostspeed.python_time()

    result = {
        "mode": mode,
        "setup_s": setup_s,
        "setup_kernel_s": kernel_before + kernel_after,
        "env": environment(),
    }
    if mode == "measure":
        result["samples"] = closed_loop(runner, items, manifest["seconds"])
    elif mode == "trace":
        result.update(traced_loop(runner, tracer, items, manifest))
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        conflicts=runner.conflicts,
        digests=runner.digests,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


def closed_loop(runner: Runner, items: list[dict], seconds: float) -> list[list]:
    """One client: the next item starts when the previous one returned,
    passing over the pool again and again. ``[pool index, wall time,
    kernel time]`` of every item that passed its checks; the kernel time is
    the mean of the reference-kernel timings just before and just after the
    item."""
    hostspeed.composite_time(3)  # first calls import numpy and allocate
    samples, i = [], 0
    start = time.perf_counter()
    while True:
        item = items[i % len(items)]
        before = hostspeed.composite_time()
        elapsed = runner.attempt(item)
        after = hostspeed.composite_time()
        i += 1
        if elapsed is not None:
            samples.append([item["index"], elapsed, statistics.fmean(before + after)])
        if time.perf_counter() - start >= seconds:
            return samples


def traced_loop(runner: Runner, tracer, items: list[dict], manifest: dict) -> dict:
    """Each item runs untraced and then traced; the traced spans give the
    per-layer metrics, the pair gives the tracing overhead."""
    from spans import layer_metrics

    plain, traced, i = [], [], 0
    start = time.perf_counter()
    while True:
        item = items[i % len(items)]
        i += 1
        a = runner.attempt(item)
        b = runner.attempt(item, traced=True)
        if a is not None and b is not None:
            plain.append(a)
            traced.append(b)
        if time.perf_counter() - start >= manifest["seconds"]:
            break
    tracer.save(manifest["spans_path"])
    metrics = layer_metrics(tracer, max(1, len(traced)))
    plain_ips = len(plain) / sum(plain) if plain else 0.0
    traced_ips = len(traced) / sum(traced) if traced else 0.0
    metrics["trace.items_per_s"] = traced_ips
    metrics["trace.untraced_items_per_s"] = plain_ips
    metrics["trace.overhead_ratio"] = 1 - traced_ips / plain_ips if plain_ips else 0.0
    return {"layers": metrics, "traced_items": len(traced), "spans": len(tracer.name)}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
