"""Independent checks of eprweave reports against the paper's identities.

Each checker takes a parsed ``--report`` document and the expectation the
benchmark derived from its own generated network, and returns a list of
problems; an empty list means the report is correct.
"""

from __future__ import annotations

FIDELITY_FLOOR = 1 - 1e-10


def _fidelity_problems(result: dict) -> list[str]:
    problems = []
    if not result.get("ok"):
        problems.append("report says ok=false")
    if not result["worst_fidelity"] >= FIDELITY_FLOOR:
        problems.append(f"worst fidelity {result['worst_fidelity']!r} < 1-1e-10")
    bad = [b["outcomes"] for b in result["branches"] if not b["fidelity"] >= FIDELITY_FLOOR]
    if bad:
        problems.append(f"{len(bad)} branch(es) below fidelity 1-1e-10, first {bad[0]!r}")
    return problems


def _branch_problems(result: dict, branches: str, measurements: int) -> list[str]:
    got = len(result["branches"])
    if result["branch_mode"] != branches:
        return [f"branch mode {result['branch_mode']!r}, asked for {branches!r}"]
    if branches == "all":
        if got != 2**measurements:
            return [f"{got} branches explored, expected 2^{measurements}"]
        total = sum(b["probability"] for b in result["branches"])
        if abs(total - 1.0) > 1e-9:
            return [f"branch probabilities sum to {total!r}"]
    elif not 1 <= got <= int(branches.split(":")[1]):
        return [f"{got} branches for {branches}"]
    return []


def check_weave(document: dict, n: int, k: int, step2: str, branches: str) -> list[str]:
    """Protocol II over a tree with n >= 3 agents and k leaves: cbits =
    2n+k-4 (one fewer with the zeilinger step 2) and <= 3n-5, n-1 pairs
    consumed, and every outcome vector of 2n-4 (2n-5) measurements."""
    result = document["result"]
    zeilinger = step2 == "zeilinger"
    expected = 2 * n + k - 4 - zeilinger
    problems = _fidelity_problems(result)
    if result["cbits"] != expected:
        problems.append(f"cbits {result['cbits']} != 2n+k-4{'-1' if zeilinger else ''} = {expected}")
    if result["cbits"] > 3 * n - 5:
        problems.append(f"cbits {result['cbits']} > 3n-5 = {3 * n - 5}")
    if result["epr_pairs_consumed"] != n - 1:
        problems.append(f"{result['epr_pairs_consumed']} EPR pairs consumed, expected n-1 = {n - 1}")
    return problems + _branch_problems(result, branches, 2 * n - 4 - zeilinger)


def check_fuse(document: dict, n: int, merge_steps: int, branches: str) -> list[str]:
    """Protocol III: one cbit and one measurement per merge step."""
    result = document["result"]
    problems = _fidelity_problems(result)
    if result["merge_steps"] != merge_steps:
        problems.append(f"{result['merge_steps']} merge steps, expected {merge_steps}")
    if result["cbits"] != result["merge_steps"]:
        problems.append(f"cbits {result['cbits']} != merge_steps {result['merge_steps']}")
    if len(result["designated"]) != n:
        problems.append(f"{len(result['designated'])} designated qubits for {n} agents")
    return problems + _branch_problems(result, branches, merge_steps)


def check_connected(document: dict) -> list[str]:
    return [] if document["result"]["connected"] else ["spec reported disconnected"]


def check_tree(document: dict, edges, weight: float | None = None) -> list[str]:
    """The reported tree is exactly the expected one (BFS or Kruskal)."""
    result = document["result"]
    problems = []
    if [list(e) for e in result["edges"]] != [list(e) for e in edges]:
        problems.append(f"tree differs from the expected {len(edges)}-edge tree")
    if weight is not None and abs(result["total_weight"] - weight) > 1e-9 * max(1.0, weight):
        problems.append(f"tree weight {result['total_weight']!r}, expected {weight!r}")
    return problems


def check_report(document: dict, expect: dict) -> list[str]:
    kind = expect["kind"]
    if kind == "weave":
        return check_weave(document, expect["n"], expect["k"], expect["step2"], expect["branches"])
    if kind == "fuse":
        return check_fuse(document, expect["n"], expect["merge_steps"], expect["branches"])
    if kind == "connected":
        return check_connected(document)
    if kind == "tree":
        return check_tree(document, expect["edges"], expect.get("weight"))
    raise ValueError(f"unknown check {kind!r}")


def check_schedule(steps: list[dict], n: int, groups) -> list[str]:
    """A merge schedule is valid when it starts from a largest group, each
    step's overlap is the incoming group's intersection with the fused set
    (non-empty, junction its smallest agent, the group not already inside),
    and the fused set ends up covering all n agents."""
    edges = [frozenset(g) for g in groups]
    largest = max(len(e) for e in edges)
    first = next(e for e in edges if len(e) == largest)
    fused = set(first)
    for i, step in enumerate(steps):
        edge = frozenset(step["hyperedge"])
        overlap = edge & fused
        if edge not in edges or not overlap or edge <= fused:
            return [f"step {i} merges {sorted(edge)}, which is not a valid next group"]
        if set(step["overlap"]) != overlap or step["junction"] != min(overlap):
            return [f"step {i} records overlap {step['overlap']} junction {step['junction']}"]
        if step["pre_size"] != len(fused) or step["add_size"] != len(edge):
            return [f"step {i} records sizes {step['pre_size']}+{step['add_size']}"]
        fused |= edge
    if len(fused) != n:
        return [f"schedule covers {len(fused)} of {n} agents"]
    return []
