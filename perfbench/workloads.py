"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of ``(seed, size)``: it returns a list of
JSON-ready item dicts and touches no file. ``materialize`` writes the spec
files of a pool into a work directory and turns each call into a complete
``eprweave`` argv.

An item is one unit of closed-loop work::

    {"index": i, "kind": str,
     "specs": {name: spec text},
     "calls": [{"argv": [...], "spec": name, "expect": {...}}, ...],
     "schedule": None | {"spec": name, "expect": {...}},
     "qubits": largest dense register the item can build}

``expect`` holds what the benchmark derived from its own generated network,
never from a report; ``checks.py`` compares reports against it.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

WORKLOADS = ("census", "wide", "fuse", "topology")

#: One-line reason each workload exists (mirrored in BENCHMARK.json).
WHY = {
    "census": "every labelled 5-agent tree with both step-2 circuits on every branch: branch explorer, locc bookkeeping and tiny statevec calls dominate",
    "wide": "one sampled branch at n=18: multi-MiB registers, so per-amplitude statevec work and peak memory dominate",
    "fuse": "12-agent group fusion on all branches: broadcast corrections, duplicate release, group drops and audits",
    "topology": "1000-agent weighted spec through check, tree, mst and merge_schedule: the only workload where topology and parsing work",
}

#: Untimed warm-up items per fresh child (taken from the front of the pool).
WARMUP = {"census": 3, "wide": 1, "fuse": 2, "topology": 1}

#: Items per pool. The closed loop passes over the pool again and again; a
#: 28 s run makes about one pass over census and 3-5 over the others.
POOL = {"census": 125, "wide": 12, "fuse": 54, "topology": 8}

CENSUS_AGENTS = 5
# The two step-2 circuits of every census item: 2^(2n-4) and 2^(2n-5) branches.
CENSUS_ARGV = (
    ["--branches", "all", "--step2", "symmetric"],
    ["--branches", "all", "--step2", "zeilinger"],
)
WIDE_AGENTS = 18
FUSE_AGENTS = 12
# Merge steps per fuse item in turn (16, 32 or 128 branches). Item cost
# roughly doubles per step, so with a 54-item pool the median item sits
# inside the 5-step stratum and the tail (rank 44) inside the 7-step one,
# not in the gap between two strata.
FUSE_STEP_CYCLE = (4, 5, 5, 5, 7, 7)
# 1000 agents keep an O(V*E) topology item near half a second, so a run
# passes over the pool several times.
TOPOLOGY_AGENTS = 1000
TOPOLOGY_EDGES = 2000


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"eprweave-perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# trees and spec text


def prufer_tree(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over agents 1..n into n-1 sorted edges."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = next(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    a, b = (u for u in range(1, n + 1) if degree[u] == 1)
    edges.append((a, b))
    return sorted(edges)


def leaf_count(n: int, edges) -> int:
    degree = [0] * (n + 1)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    return sum(1 for v in range(1, n + 1) if degree[v] == 1)


def edge_spec(n: int, edges, rng: random.Random | None = None) -> str:
    """Spec text with the edge lines in a (seeded) shuffled order."""
    lines = [
        "edge " + " ".join(str(x) for x in e) for e in edges
    ]
    if rng is not None:
        rng.shuffle(lines)
    return f"agents {n}\n" + "".join(line + "\n" for line in lines)


def hyper_spec(n: int, groups) -> str:
    return f"agents {n}\n" + "".join(
        "hyper " + " ".join(map(str, g)) + "\n" for g in groups
    )


def _weave_item(index, kind, n, edges, argv, rng):
    step2 = argv[argv.index("--step2") + 1] if "--step2" in argv else "symmetric"
    branches = argv[argv.index("--branches") + 1]
    return {
        "index": index,
        "kind": kind,
        "specs": {"net": edge_spec(n, edges, rng)},
        "calls": [
            {
                "argv": ["weave", *argv],
                "spec": "net",
                "expect": {
                    "kind": "weave",
                    "n": n,
                    "k": leaf_count(n, edges),
                    "step2": step2,
                    "branches": branches,
                },
            }
        ],
        "schedule": None,
        "qubits": n + 2,
    }


# ---------------------------------------------------------------------------
# census: every labelled 5-agent tree, exhaustively


def census(seed: int, size: int | None = None) -> list[dict]:
    """All n^(n-2) labelled trees in a seeded order; each item weaves its
    tree with both step-2 circuits, so every item does the same kind of
    work and the exhaustive proof covers both circuits on every tree."""
    n = CENSUS_AGENTS
    rng = _rng("census", seed)
    trees = [
        (i, prufer_tree(list(seq), n))
        for i, seq in enumerate(itertools.product(range(1, n + 1), repeat=n - 2))
    ]
    rng.shuffle(trees)
    items = []
    for index, (tree_id, edges) in enumerate(trees[: size or len(trees)]):
        item = _weave_item(index, f"prufer-{tree_id}", n, edges, CENSUS_ARGV[0], rng)
        [call] = _weave_item(index, "", n, edges, CENSUS_ARGV[1], None)["calls"]
        item["calls"].append(call)
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# wide: one sampled branch on an 18-agent tree


def wide(seed: int, size: int | None = None, n: int = WIDE_AGENTS) -> list[dict]:
    """Path, star and random Prüfer trees in turn, agents relabelled at
    random, one CLI sampling seed per item."""
    rng = _rng("wide", seed)
    items = []
    for index in range(size or POOL["wide"]):
        kind = ("path", "star", "random")[index % 3]
        label = list(range(1, n + 1))
        rng.shuffle(label)
        if kind == "path":
            raw = [(label[i], label[i + 1]) for i in range(n - 1)]
        elif kind == "star":
            raw = [(label[0], label[i]) for i in range(1, n)]
        else:
            raw = prufer_tree([rng.randint(1, n) for _ in range(n - 2)], n)
        edges = sorted((min(a, b), max(a, b)) for a, b in raw)
        argv = ["--branches", "sample:1", "--seed", str(rng.randrange(2**31))]
        items.append(_weave_item(index, kind, n, edges, argv, rng))
    return items


def path_weave_item(n: int) -> dict:
    """A single exhaustive weave over the path 1-2-...-n."""
    edges = [(i, i + 1) for i in range(1, n)]
    return _weave_item(0, "path", n, edges, ["--branches", "all"], None)


# ---------------------------------------------------------------------------
# fuse: 12-agent group fusion


def merge_overlaps(groups) -> list[int]:
    """Overlap size of every merge step eprweave's schedule takes.

    Groups are consumed largest first (ties in declaration order); the
    running fused set absorbs the first group that overlaps it without
    being contained in it, and contained groups are dropped.
    """
    edges = sorted((frozenset(g) for g in groups), key=len, reverse=True)
    fused, remaining, overlaps = set(edges[0]), edges[1:], []
    while True:
        remaining = [e for e in remaining if not e <= fused]
        if not remaining:
            return overlaps
        pos = next((p for p, e in enumerate(remaining) if e & fused), None)
        if pos is None:
            raise ValueError("hypergraph is disconnected")
        overlaps.append(len(remaining[pos] & fused))
        fused |= remaining.pop(pos)


def _spanning_groups(rng, agents, covered, shared=1):
    """Groups of 2-4 that each add new agents to ``covered`` until all are in."""
    groups = []
    todo = [a for a in agents if a not in covered]
    while todo:
        size = rng.randint(2, 4)
        keep = min(shared, len(covered), size - 1)
        fresh = todo[: size - keep]
        todo = todo[len(fresh):]
        group = rng.sample(sorted(covered), keep) + fresh
        covered.update(fresh)
        groups.append(sorted(group))
    return groups


def _fuse_groups(rng, kind, n):
    agents = list(range(1, n + 1))
    rng.shuffle(agents)
    if kind == "staircase":
        # triples sharing two agents: a b c, b c d, c d e, ...
        steps = rng.randint(2, 4)
        groups = [sorted(agents[i:i + 3]) for i in range(steps)]
        covered = set(agents[: steps + 2])
    else:
        first = agents[: rng.randint(2, 4)]
        groups, covered = [sorted(first)], set(first)
    groups += _spanning_groups(rng, agents, covered, shared=rng.choice((1, 1, 2)))
    if kind == "redundant":
        # copies and sub-groups of existing groups add no new agent
        for _ in range(rng.randint(1, 3)):
            base = rng.choice(groups)
            size = rng.randint(2, len(base))
            groups.append(sorted(rng.sample(base, size)))
    elif kind == "random":
        for _ in range(rng.randint(0, 2)):
            groups.append(sorted(rng.sample(agents, rng.randint(2, 4))))
    rng.shuffle(groups)
    return groups


def fuse(seed: int, size: int | None = None, n: int = FUSE_AGENTS) -> list[dict]:
    """Random connected hypergraphs, staircases of triples and redundant
    groups in turn, each redrawn until its schedule has the merge-step count
    the item's place asks for. Every run of 18 items holds the same mix of
    kinds and step counts, so the cost of a pool barely depends on the seed."""
    rng = _rng("fuse", seed)
    items = []
    for index in range(size or POOL["fuse"]):
        kind = ("random", "staircase", "redundant")[index % 3]
        steps = FUSE_STEP_CYCLE[(index // 3) % len(FUSE_STEP_CYCLE)]
        while True:
            groups = _fuse_groups(rng, kind, n)
            overlaps = merge_overlaps(groups)
            if len(overlaps) == steps:
                break
        items.append(
            {
                "index": index,
                "kind": kind,
                "specs": {"net": hyper_spec(n, groups)},
                "calls": [
                    {
                        "argv": ["fuse", "--branches", "all"],
                        "spec": "net",
                        "expect": {
                            "kind": "fuse",
                            "n": n,
                            "merge_steps": len(overlaps),
                            "branches": "all",
                        },
                    }
                ],
                "schedule": None,
                "qubits": n + max(len(g) for g in groups),
                "overlaps": overlaps,
            }
        )
    return items


def overlap_share(items: list[dict]) -> float:
    """Share of merge steps whose incoming group shares >= 2 agents."""
    steps = [o for item in items for o in item.get("overlaps", ())]
    return sum(1 for o in steps if o >= 2) / len(steps)


# ---------------------------------------------------------------------------
# topology: one large weighted network and one large hypergraph


def bfs_tree(n: int, edges) -> list[tuple[int, int]]:
    """Breadth-first tree from agent 1, neighbors in increasing order."""
    adj = {v: [] for v in range(1, n + 1)}
    for a, b, *_ in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, queue, chosen = {1}, [1], []
    for v in queue:
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                chosen.append((min(u, v), max(u, v)))
                queue.append(u)
    if len(seen) != n:
        raise ValueError("graph is disconnected")
    return sorted(chosen)


def kruskal(n: int, edges) -> list[tuple[int, int]]:
    """Minimum spanning tree, ties broken by (weight, edge) order."""
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen = []
    for a, b, w in sorted(edges, key=lambda e: (e[2], e[:2])):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
    return sorted(chosen)


def topology(
    seed: int, size: int | None = None, n: int = TOPOLOGY_AGENTS, m: int = TOPOLOGY_EDGES
) -> list[dict]:
    """Connected weighted graphs (random recursive tree plus random chords)
    and connected hypergraphs of 2-4 agent groups, both over n agents."""
    rng = _rng("topology", seed)
    items = []
    for index in range(size or POOL["topology"]):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        pairs = {
            tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)
        }
        while len(pairs) < m:
            a, b = rng.sample(range(1, n + 1), 2)
            pairs.add((min(a, b), max(a, b)))
        edges = [(a, b, rng.randint(1, 1000) / 100) for a, b in sorted(pairs)]
        groups = _spanning_groups(rng, order[1:], {order[0]})
        for _ in range(len(groups) // 4):
            groups.append(sorted(rng.sample(range(1, n + 1), rng.randint(2, 4))))
        rng.shuffle(groups)
        mst = kruskal(n, edges)
        weights = {e[:2]: e[2] for e in edges}
        items.append(
            {
                "index": index,
                "kind": "weighted-graph",
                "specs": {"net": edge_spec(n, edges, rng), "hyper": hyper_spec(n, groups)},
                "calls": [
                    {"argv": ["check"], "spec": "net", "expect": {"kind": "connected"}},
                    {
                        "argv": ["tree"],
                        "spec": "net",
                        "expect": {"kind": "tree", "edges": bfs_tree(n, edges)},
                    },
                    {
                        "argv": ["mst"],
                        "spec": "net",
                        "expect": {
                            "kind": "tree",
                            "edges": mst,
                            "weight": sum(weights[e] for e in mst),
                        },
                    },
                    {"argv": ["check"], "spec": "hyper", "expect": {"kind": "connected"}},
                ],
                "schedule": {"spec": "hyper", "expect": {"n": n, "groups": groups}},
                "qubits": 0,
            }
        )
    return items


GENERATORS = {"census": census, "wide": wide, "fuse": fuse, "topology": topology}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def materialize(items: list[dict], workdir: Path) -> list[dict]:
    """Write each item's specs under ``workdir`` and complete every argv
    with its spec path and a ``--report`` path. Returns new item dicts."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for item in items:
        paths = {}
        for name, text in item["specs"].items():
            path = workdir / f"item{item['index']}-{name}.spec"
            path.write_text(text)
            paths[name] = str(path)
        calls = []
        for c, call in enumerate(item["calls"]):
            report = str(workdir / f"report{c}.json")
            argv = [call["argv"][0], paths[call["spec"]], *call["argv"][1:], "--report", report]
            calls.append(dict(call, argv=argv, report=report))
        schedule = item["schedule"]
        if schedule is not None:
            schedule = dict(schedule, path=paths[schedule["spec"]])
        done = {k: v for k, v in item.items() if k != "specs"}
        out.append(dict(done, calls=calls, schedule=schedule))
    return out
