"""Network topology: EPR graphs, spanning trees, entangled hypergraphs.

Agents are numbered 1..n. An ``EprGraph`` edge means the two endpoint
agents pre-share one EPR pair; an ``EntangledHypergraph`` hyperedge means
its members pre-share one GHZ-class group state. Everything here is pure
bookkeeping over immutable values — no quantum state involved — and every
choice (BFS order, tie-breaks, merge order) is deterministic so that
protocol transcripts are reproducible.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import ConnectivityError

AgentId = int


def _check_agent(v: int, n: int) -> None:
    """Refuse an agent id that is not an integer (as ``operator.index``
    takes it) in 1..n."""
    try:
        i = operator.index(v)
    except TypeError:
        raise ValueError(f"agent {v!r} is not an integer") from None
    if not 1 <= i <= n:
        raise ValueError(f"agent {v} is outside 1..{n}")


def add_edge(weights: dict, n: int, a: int, b: int, weight: float = 1.0) -> None:
    """Check the EPR pair ``a -- b`` on agents 1..n and record it in
    ``weights``, keyed ``(low, high)``; the map doubles as the duplicate
    check. This is the one edge check: ``EprGraph`` and spec parsing both
    use it."""
    if not (type(a) is int and type(b) is int and 1 <= a <= n and 1 <= b <= n):
        _check_agent(a, n)
        _check_agent(b, n)
    if a == b:
        raise ValueError(f"agent {a} cannot pair with itself")
    pair = (a, b) if a < b else (b, a)
    if pair in weights:
        raise ValueError(f"duplicate edge {pair[0]} {pair[1]}")
    weight = float(weight)
    if not 0.0 <= weight < math.inf:  # refuses nan too
        raise ValueError(f"edge weights must be finite and nonnegative, got {weight}")
    weights[pair] = weight


def check_group(n: int, members: Iterable[int]) -> frozenset[int]:
    """Check one group state's members on agents 1..n: at least two,
    all in range, none repeated. This is the one group check:
    ``EntangledHypergraph`` and spec parsing both use it."""
    members = tuple(members)
    if len(members) < 2:
        raise ValueError("a group state needs at least two agents")
    for v in members:
        _check_agent(v, n)
    group = frozenset(members)
    if len(group) != len(members):
        raise ValueError("repeated agent in hyperedge")
    return group


def _adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def bfs_edges(
    roots: Iterable[int], neighbors: Callable[[int], Sequence[int]]
) -> list[tuple[int, int]]:
    """Breadth-first discovery edges ``(v, u)``, ``u`` first reached from
    ``v``. The search starts from every root, in increasing order, and
    takes each vertex's neighbors in the order ``neighbors`` returns them
    (increasing, for the graphs and trees here)."""
    seen = set(roots)
    queue = deque(sorted(seen))
    found = []
    while queue:
        v = queue.popleft()
        for u in neighbors(v):
            if u not in seen:
                seen.add(u)
                found.append((v, u))
                queue.append(u)
    return found


class EprGraph:
    """Undirected graph of pre-shared EPR pairs, with optional edge weights.

    ``edges`` may contain ``(a, b)`` pairs or ``(a, b, weight)`` triples.
    Self-loops, repeated pairs (multi-edges), and negative or non-finite
    weights are rejected; an agent pair either shares one EPR pair or none.
    ``weights`` maps every edge to its weight, 1.0 where none was given.
    """

    __slots__ = ("n", "edges", "weights", "_adj")

    def __init__(self, n: int, edges: Iterable[Sequence]):
        if n < 1:
            raise ValueError("need at least one agent")
        wmap: dict[tuple[int, int], float] = {}
        for item in edges:
            if len(item) not in (2, 3):
                raise ValueError(f"edge {tuple(item)} is not (a, b) or (a, b, weight)")
            add_edge(wmap, n, *item)
        self._fill(n, wmap)

    @classmethod
    def from_checked(cls, n: int, weights: dict[tuple[int, int], float]) -> "EprGraph":
        """The graph of an edge map that ``add_edge`` already built on
        agents 1..n (n >= 1), taken over without checking it again."""
        g = cls.__new__(cls)
        g._fill(n, weights)
        return g

    def _fill(self, n: int, weights: dict[tuple[int, int], float]) -> None:
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(weights))
        self.weights = weights
        self._adj = _adjacency(n, self.edges)

    def weight(self, a: int, b: int) -> float:
        """Edge weight; edges declared without one cost 1."""
        pair = (a, b) if a < b else (b, a)
        try:
            return self.weights[pair]
        except KeyError:
            raise ValueError(f"no edge {pair}") from None

    def neighbors(self, v: int) -> list[int]:
        """Adjacent agents in increasing index order."""
        try:
            return list(self._adj[v])
        except KeyError:  # the map holds exactly the agents 1..n
            _check_agent(v, self.n)
            raise


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree with the weaving endpoints already designated.

    ``root_leaf`` is the lowest-index degree-1 vertex: the agent whose EPR
    half seeds the weave and who ends the protocol holding a GHZ share.
    ``start`` is its unique neighbor, where the first three-party state is
    built. ``leaves`` is the set of all degree-1 vertices.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    root_leaf: AgentId
    start: AgentId
    leaves: frozenset[AgentId]
    _adj: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_adj", _adjacency(self.n, self.edges))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SpanningTree":
        """Build (and validate) a tree from an explicit edge list."""
        if n < 2:
            raise ValueError("a spanning tree needs at least two agents")
        g = EprGraph(n, edges)
        if len(g.edges) != n - 1:
            raise ValueError(f"{len(g.edges)} edges cannot form a tree on {n} agents")
        missing = _unreached_agent(n, bfs_edges([1], g.neighbors))
        if missing is not None:
            raise ValueError(f"edge set is not connected (agent {missing} unreachable)")
        return cls._of(n, g.edges)

    @classmethod
    def _of(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SpanningTree":
        """The tree of ``edges``, taken over without checking them: n - 1
        distinct ``(low, high)`` pairs that join agents 1..n, n >= 2."""
        edges = tuple(sorted(edges))
        degree = [0] * (n + 1)
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        leaves = [v for v in range(1, n + 1) if degree[v] == 1]
        root_leaf = leaves[0]
        start = next(b if a == root_leaf else a for a, b in edges if root_leaf in (a, b))
        return cls(n=n, edges=edges, root_leaf=root_leaf, start=start, leaves=frozenset(leaves))

    def neighbors(self, v: int) -> list[int]:
        """Tree neighbors in increasing index order."""
        return list(self._adj.get(v, ()))

    def total_weight(self, g: EprGraph) -> float:
        return sum(g.weight(a, b) for a, b in self.edges)


class EntangledHypergraph:
    """Agents plus hyperedges, each hyperedge a group of GHZ-sharing agents.

    Hyperedges are stored largest first (ties keep declaration order), the
    order in which the merge schedule consumes them. Sizes below 2 are
    rejected: a one-party "group state" carries no entanglement to merge.
    """

    __slots__ = ("n", "hyperedges")

    def __init__(self, n: int, hyperedges: Iterable[Iterable[int]]):
        if n < 1:
            raise ValueError("need at least one agent")
        self._fill(n, [check_group(n, members) for members in hyperedges])

    @classmethod
    def from_checked(cls, n: int, groups: Iterable[frozenset[int]]) -> "EntangledHypergraph":
        """The hypergraph of groups that ``check_group`` already returned
        on agents 1..n (n >= 1), taken over without checking them again."""
        h = cls.__new__(cls)
        h._fill(n, groups)
        return h

    def _fill(self, n: int, groups: Iterable[frozenset[int]]) -> None:
        self.n = n
        # a reversed sort is still stable: equal sizes keep declaration order
        self.hyperedges: tuple[frozenset[int], ...] = tuple(
            sorted(groups, key=len, reverse=True)
        )


@dataclass(frozen=True)
class MergeStep:
    """One fusion event of the group-merging schedule.

    ``junction`` is the smallest-index agent common to the running fused
    group and the incoming hyperedge; it performs the fusion locally.
    ``pre_size`` and ``add_size`` record how many parties each side had;
    the merged group covers ``pre_size + add_size - len(overlap)`` agents.
    """

    index: int  # position of the hyperedge in EntangledHypergraph.hyperedges
    hyperedge: frozenset[AgentId]
    junction: AgentId
    overlap: frozenset[AgentId]
    pre_size: int
    add_size: int

    def __post_init__(self):
        if not self.overlap:
            raise ValueError("merge step with empty overlap")
        if self.junction != min(self.overlap):
            raise ValueError("junction must be the smallest-index shared agent")


# ---------------------------------------------------------------------------
# connectivity


def is_connected(g: EprGraph) -> bool:
    """True iff every pair of agents is joined by a path of EPR pairs."""
    return _unreached_agent(g.n, bfs_edges([1], g.neighbors)) is None


def _unreached_agent(n: int, found: Iterable[tuple[int, int]]) -> int | None:
    """Lowest-index agent that the discovery edges ``found`` of a search
    from agent 1 do not reach, or None if they reach all of 1..n."""
    reached = {u for _, u in found}
    return next((v for v in range(2, n + 1) if v not in reached), None)


def _no_path(missing: int) -> ConnectivityError:
    """The refusal of an EPR graph in which ``missing`` is the lowest agent
    that agent 1 cannot reach."""
    return ConnectivityError(
        f"EPR graph is disconnected: no path joins agents 1 and {missing}",
        agent_a=1,
        agent_b=missing,
    )


def spanning_tree(g: EprGraph) -> SpanningTree:
    """Deterministic spanning tree: breadth-first from agent 1, visiting
    neighbors in increasing index order."""
    if g.n < 2:
        raise ValueError("a spanning tree needs at least two agents")
    chosen = bfs_edges([1], g.neighbors)
    missing = _unreached_agent(g.n, chosen)
    if missing is not None:
        raise _no_path(missing)
    return SpanningTree._of(g.n, [(v, u) if v < u else (u, v) for v, u in chosen])


def minimum_spanning_tree(g: EprGraph) -> SpanningTree:
    """Kruskal tree of minimal total weight (missing weights count as 1);
    ties broken by lexicographic edge order. The union-find is also the
    connectivity check: a graph it leaves in more than one component is
    refused with the error :func:`spanning_tree` gives."""
    if g.n < 2:
        raise ValueError("a spanning tree needs at least two agents")
    parent = {v: v for v in range(1, g.n + 1)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen = []
    for _, a, b in sorted((w, a, b) for (a, b), w in g.weights.items()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
    if len(chosen) < g.n - 1:
        root = find(1)
        raise _no_path(next(v for v in range(2, g.n + 1) if find(v) != root))
    return SpanningTree._of(g.n, chosen)


def hypergraph_is_connected(h: EntangledHypergraph) -> bool:
    """True iff every pair of agents is joined by a chain of overlapping
    hyperedges. An agent covered by no hyperedge disconnects any n >= 2."""
    return _unchained_agent(h) is None


def _unchained_agent(h: EntangledHypergraph) -> int | None:
    """Lowest-index agent that no chain of overlapping hyperedges joins to
    agent 1, or None if every agent is joined to it."""
    # agent-group incidence graph: group i is vertex n + 1 + i
    adj: dict[int, list[int]] = {v: [] for v in range(1, h.n + 1)}
    for i, group in enumerate(h.hyperedges, start=h.n + 1):
        adj[i] = sorted(group)
        for v in group:
            adj[v].append(i)
    return _unreached_agent(h.n, bfs_edges([1], adj.__getitem__))


def _no_chain(missing: int) -> ConnectivityError:
    """The refusal of a hypergraph in which ``missing`` is the lowest agent
    that agent 1 cannot reach."""
    return ConnectivityError(
        f"entangled hypergraph is disconnected: no chain of groups joins agents 1 and {missing}",
        agent_a=1,
        agent_b=missing,
    )


def merge_schedule(h: EntangledHypergraph) -> list[MergeStep]:
    """Order in which the fused group absorbs the remaining hyperedges.

    Starting from the largest hyperedge, repeatedly pick the first stored
    hyperedge that overlaps the fused set without being contained in it;
    contained hyperedges are silently dropped (their entanglement is
    redundant and never touched). Requires a connected hypergraph: the walk
    is also the connectivity check, and a fused set that misses an agent
    is refused with the error :func:`hypergraph_is_connected`'s search
    gives.
    """
    if not h.hyperedges:
        raise ValueError("no hyperedges to merge")
    incident: dict[int, list[int]] = {}
    for i, group in enumerate(h.hyperedges):
        for v in group:
            incident.setdefault(v, []).append(i)
    # Min-heap of the groups that touch the fused set: the smallest one is
    # the first stored overlapping group, and a contained group stays
    # contained as the fused set grows, so popping it drops it for good.
    touching, queued = [0], {0}
    fused: set[int] = set()
    steps = []
    while touching:
        i = heapq.heappop(touching)
        edge = h.hyperedges[i]
        if edge <= fused:
            continue
        if fused:
            overlap = edge & fused
            steps.append(
                MergeStep(
                    index=i,
                    hyperedge=edge,
                    junction=min(overlap),
                    overlap=frozenset(overlap),
                    pre_size=len(fused),
                    add_size=len(edge),
                )
            )
        for v in edge - fused:
            for j in incident[v]:
                if j not in queued:
                    queued.add(j)
                    heapq.heappush(touching, j)
        fused |= edge
    if len(fused) < h.n:  # the fused set is agent 1's component if it holds agent 1
        if 1 in fused:
            raise _no_chain(next(v for v in range(2, h.n + 1) if v not in fused))
        raise _no_chain(_unchained_agent(h))
    return steps
