"""Run a fixed corpus of CLI calls and write what each one produced.

Usage (from anywhere)::

    python3 tools/report_corpus.py OUTDIR

Every entry calls ``eprweave.cli.run`` in-process, from this checkout's
``src``, and gets a directory ``OUTDIR/<entry>/`` holding ``exit`` (the
exit code), ``stdout``, ``stderr`` and, when the call wrote one,
``report.json``. Calls run inside a scratch directory with relative spec
and report paths, so the output names no path of the machine and two
checkouts compare with ``diff -r``.

The corpus is the benchmark's four pools (``perfbench/workloads.py``, read
only) at one seed with ``--verbose``, then hand-written specs that reach
paths the pools do not: ``ghz3`` with its hub at each of the three agents
and on three 3-agent pair sets that form no tree (a pair missing, a pair
doubled, a triangle), both step-2 circuits on small and weighted
trees, sampled runs under a 97-bit and a negative seed, the ``BRANCH_CAP``
fallback, contained, duplicate and EPR groups under ``fuse``, runs on both
sides of the branch explorer's memo bound (an 80-agent ``fuse`` staircase
and a sampled 30-agent weave), a wide fan-out of sampled
fusion broadcasts (a chain of 3-agent groups over 61 agents), one run that
asks for more sampled branches than ``SAMPLE_CAP``, disconnected networks under
every command (among them one whose lowest unreached agent is not 2,
groups that leave one agent out, and three group components where agent 1
is outside the largest group), refused specs, one malformed spec per
parse error, and
spec-format cases (reversed, integer, tiny and mixed weights, comments and
blank lines) under every command.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from eprweave.cli import run  # noqa: E402

SEED = 7
COMMANDS = ("check", "tree", "mst", "ghz3", "weave", "fuse")


def _spec(n: int, lines) -> str:
    return f"agents {n}\n" + "".join(f"{line}\n" for line in lines)


def _edges(n: int, pairs) -> str:
    return _spec(n, ("edge " + " ".join(map(str, e)) for e in pairs))


def _groups(n: int, groups) -> str:
    return _spec(n, ("hyper " + " ".join(map(str, g)) for g in groups))


def corpus():
    """``(name, spec text, argv without spec path or --report)`` entries."""
    for workload in workloads.WORKLOADS:
        for item in workloads.generate(workload, SEED):
            for c, call in enumerate(item["calls"]):
                command, *options = call["argv"]
                yield (
                    f"{workload}-{item['index']:03d}-{c}",
                    item["specs"][call["spec"]],
                    [command, *options, "--verbose"],
                )

    hub = _edges(3, [(1, 2), (1, 3)])
    for branches in ("all", "sample:4"):
        yield f"ghz3-{branches}", hub, ["ghz3", "--branches", branches, "--seed", "3", "--verbose"]
    # the hub and its X and Z partners are read off the pairs
    for at, pairs in ((2, [(1, 2), (2, 3)]), (3, [(1, 3), (2, 3)])):
        yield f"ghz3-hub-{at}", _edges(3, pairs), ["ghz3", "--verbose"]
    # three agents whose pairs form no tree
    not_trees = {
        "missing-pair": [(1, 2)],
        "triangle": [(1, 2), (2, 3), (1, 3)],
        "doubled-pair": [(1, 2), (1, 2)],
    }
    for name, pairs in not_trees.items():
        yield f"ghz3-{name}", _edges(3, pairs), ["ghz3"]

    trees = {
        "pair": _edges(2, [(1, 2)]),
        "path": _edges(6, [(v, v + 1) for v in range(1, 6)]),
        "star": _edges(6, [(1, v) for v in range(2, 7)]),
        "weighted": _edges(5, [(1, 2, 4), (2, 3, 1), (1, 3, 1), (3, 4, 2.5), (4, 5, 1), (2, 5, 0)]),
    }
    for name, text in trees.items():
        for step2 in ("symmetric", "zeilinger"):
            yield f"weave-{name}-{step2}", text, ["weave", "--step2", step2, "--verbose"]
    yield "weave-fallback-13", _edges(13, [(v, v + 1) for v in range(1, 13)]), ["weave"]
    # a seed wider than 64 bits, and a negative seed, which is refused
    yield "weave-path-sample-16-seed-97-bit", trees["path"], [
        "weave", "--branches", "sample:16", "--seed", str(2**96 + 987654321), "--verbose"
    ]
    yield "weave-path-sample-2-seed-negative", trees["path"], [
        "weave", "--branches", "sample:2", "--seed", "-1"
    ]
    # refused too, though exhaustive "all" draws no sample on this tree
    yield "weave-path-all-seed-negative", trees["path"], [
        "weave", "--branches", "all", "--seed", "-1"
    ]

    fused = {
        "contained": _groups(5, [(1, 2, 3, 4), (2, 3), (4, 5)]),
        "duplicate": _groups(4, [(1, 2, 3), (1, 2, 3), (3, 4)]),
        "epr": _edges(5, [(1, 2), (2, 3), (3, 4), (2, 5)]),
    }
    for name, text in fused.items():
        yield f"fuse-{name}", text, ["fuse", "--verbose"]

    staircase = _groups(80, [range(1, 41), range(21, 61), range(41, 81)])
    yield "fuse-staircase-80", staircase, ["fuse", "--verbose"]
    path30 = _edges(30, [(v, v + 1) for v in range(1, 30)])
    yield "weave-path-30-sample-8", path30, ["weave", "--branches", "sample:8", "--verbose"]

    # 29 merges, each broadcasting its outcome to all 61 agents, on 8 sampled branches
    chain = _groups(61, [(v, v + 1, v + 2) for v in range(1, 60, 2)])
    yield "fuse-chain-61-sample-8", chain, ["fuse", "--branches", "sample:8", "--verbose"]
    # one sampled branch more than SAMPLE_CAP (2^16) is refused before any runs
    yield "ghz3-sample-65537", hub, ["ghz3", "--branches", "sample:65537"]

    refused = {
        "disconnected-edges": _edges(5, [(1, 2), (2, 3), (4, 5)]),
        "disconnected-groups": _groups(5, [(1, 2, 3), (4, 5)]),
        "nan-weight": _edges(3, [(1, 2, "nan"), (2, 3)]),
        "repeated-member": _groups(3, [(1, 1, 2), (2, 3)]),
    }
    for name, text in refused.items():
        for command in COMMANDS:
            yield f"{name}-{command}", text, [command]

    # the tree and merge walks refuse these themselves: a weighted 40-agent
    # graph whose lowest agent out of agent 1's reach is 24, and groups that
    # overlap in a chain but leave agent 6 in none
    split = [(v, v + 1, v * 7 % 5 + 1) for v in range(1, 40) if v != 23]
    split += [(v, v + 3, 2) for v in range(1, 37, 4) if (v <= 23) == (v + 3 <= 23)]
    for command in ("check", "tree", "mst", "weave"):
        yield f"disconnected-40-{command}", _edges(40, split), [command]
    for command in ("check", "fuse"):
        yield f"uncovered-agent-{command}", _groups(6, [(1, 2, 3), (3, 4), (4, 5)]), [command]
    # three components: the largest group, which the merge walk fuses first,
    # agent 1's pair, and a third that holds agent 3, lower than every agent
    # of the largest group; agent 1 cannot reach agent 3, so 3 is named
    apart = _groups(9, [(6, 7, 8, 9), (1, 2), (3, 4, 5)])
    for command in ("check", "fuse"):
        yield f"three-components-{command}", apart, [command]

    # one malformed spec per parse error, so stderr and its line numbers show
    malformed = {
        "first-directive": "edge 1 2\n",
        "agents-twice": "agents 3\nagents 4\n",
        "agents-arity": "agents 3 4\n",
        "bad-agent-count": "agents two\n",
        "no-agents": "agents 0\n",
        "edge-arity": "agents 3\nedge 1\n",
        "edge-out-of-range": "agents 3\nedge 1 5\n",
        "edge-not-a-number": "agents 3\nedge 1 x\n",
        "self-loop": "agents 3\nedge 2 2\n",
        "duplicate-edge": "agents 3\nedge 1 2\nedge 2 1\n",
        "bad-weight": "agents 3\nedge 1 2 heavy\n",
        "negative-weight": "agents 3\nedge 1 2 -1\n",
        "inf-weight": "agents 3\nedge 1 2 inf\n",
        "lone-member": "agents 3\nhyper 1\n",
        "member-not-a-number": "agents 3\nhyper 1 2.5\n",
        "edge-after-hyper": "agents 3\nhyper 1 2 3\nedge 1 2\n",
        "hyper-after-edge": "agents 3\nedge 1 2\nhyper 1 2 3\n",
        "unknown-directive": "agents 3\nwire 1 2\n",
        "empty": "# nothing but comments\n\n",
    }
    for name, text in malformed.items():
        yield f"malformed-{name}", text, ["check"]

    # spec-format cases that parse: the report's network and spec hash show
    # how each one is read back
    formats = {
        "reversed-edge": _edges(5, [(1, 2), (5, 2), (3, 2), (4, 3)]),
        "int-weight": _edges(4, [(1, 2, 3), (2, 3), (3, 4, 1)]),
        "tiny-weight": _edges(4, [(1, 2, "1e-05"), (2, 3, "0.1"), (1, 3), (3, 4, "2")]),
        "mixed-weights": _edges(5, [(1, 2), (2, 3, 0.5), (3, 4), (4, 5, 2), (1, 5)]),
        "comments": "# a path of four\n\nagents 4   # count\n  edge 1 2\n\n# middle\n"
        "edge 2 3 # trailing\n\tedge 3 4\t\n\n",
    }
    for name, text in formats.items():
        for command in COMMANDS:
            yield f"format-{name}-{command}", text, [command]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/report_corpus.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(args[0]).resolve()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, text, argv in corpus():
                Path("net.spec").write_text(text)
                out, err = io.StringIO(), io.StringIO()
                code = run([argv[0], "net.spec", *argv[1:], "--report", "report.json"], out, err)
                entry = outdir / name
                entry.mkdir(parents=True, exist_ok=True)
                (entry / "exit").write_text(f"{code}\n")
                (entry / "stdout").write_text(out.getvalue())
                (entry / "stderr").write_text(err.getvalue())
                if os.path.exists("report.json"):
                    os.replace("report.json", entry / "report.json")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
