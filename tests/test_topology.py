"""Topology tests: connectivity, spanning trees, hypergraphs, merge order.

Oracles are independent of the implementation: a standalone union-find for
graph connectivity, clique expansion + union-find for hypergraph
connectivity, and exhaustive enumeration of every spanning tree for
minimum-weight checks. The merge order is checked against the original
rescan-every-step algorithm, kept here as its reference.
"""

import functools
import heapq
import itertools
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprweave.errors import ConnectivityError
from eprweave.locc import NetworkState
from eprweave.topology import (
    EntangledHypergraph,
    EprGraph,
    SpanningTree,
    bfs_edges,
    check_group,
    hypergraph_is_connected,
    is_connected,
    merge_schedule,
    minimum_spanning_tree,
    spanning_tree,
)


# ---------------------------------------------------------------------------
# oracles


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def connected_oracle(n, pairs):
    uf = UnionFind(range(1, n + 1))
    for a, b in pairs:
        uf.union(a, b)
    return len({uf.find(v) for v in range(1, n + 1)}) == 1


def merge_order_oracle(h):
    """The rescanning merge order: at each step drop every contained
    hyperedge, then take the first stored one that overlaps the fused set."""
    fused = set(h.hyperedges[0])
    remaining = [(i, e) for i, e in enumerate(h.hyperedges) if i > 0]
    order = []
    while True:
        remaining = [(i, e) for i, e in remaining if not e <= fused]
        if not remaining:
            return order
        pos = next(pos for pos, (_, e) in enumerate(remaining) if e & fused)
        i, edge = remaining.pop(pos)
        order.append((i, edge, min(edge & fused), frozenset(edge & fused), len(fused)))
        fused |= edge


def two_pass_minimum_spanning_tree(g):
    """``minimum_spanning_tree`` as first written: a BFS from agent 1 refuses
    a disconnected graph, then Kruskal runs over every edge."""
    if g.n < 2:
        raise ValueError("a spanning tree needs at least two agents")
    reached = {u for _, u in bfs_edges([1], g.neighbors)}
    missing = next((v for v in range(2, g.n + 1) if v not in reached), None)
    if missing is not None:
        raise ConnectivityError(
            f"EPR graph is disconnected: no path joins agents 1 and {missing}",
            agent_a=1,
            agent_b=missing,
        )
    uf = UnionFind(range(1, g.n + 1))
    by_weight = sorted((g.weight(a, b), a, b) for a, b in g.edges)
    chosen = [(a, b) for _, a, b in by_weight if uf.union(a, b)]
    return SpanningTree.from_edges(g.n, chosen)


def two_pass_merge_schedule(h):
    """``merge_schedule`` as first written: a connectivity check of its own,
    then the merge order (the rescanning oracle's rows). The check grows
    agent 1's reach group by group and names the lowest agent outside it."""
    if not h.hyperedges:
        raise ValueError("no hyperedges to merge")
    reached, grew = {1}, True
    while grew:
        grew = False
        for edge in h.hyperedges:
            if edge & reached and not edge <= reached:
                reached |= edge
                grew = True
    missing = next((v for v in range(2, h.n + 1) if v not in reached), None)
    if missing is not None:
        raise ConnectivityError(
            "entangled hypergraph is disconnected: no chain of groups joins agents 1 and "
            f"{missing}",
            agent_a=1,
            agent_b=missing,
        )
    return merge_order_oracle(h)


def outcome(call, *args):
    """What ``call(*args)`` gives: its value, or its error's type, text and
    witness agents."""
    try:
        return call(*args)
    except (ValueError, ConnectivityError) as exc:
        return type(exc), str(exc), getattr(exc, "agent_a", None), getattr(exc, "agent_b", None)


def clique_expansion(hyperedges):
    pairs = set()
    for edge in hyperedges:
        pairs.update(itertools.combinations(sorted(edge), 2))
    return pairs


def all_spanning_trees(g):
    """Every (n-1)-edge acyclic spanning subset, by brute force."""
    for subset in itertools.combinations(g.edges, g.n - 1):
        uf = UnionFind(range(1, g.n + 1))
        if all(uf.union(a, b) for a, b in subset):
            yield subset


def prufer_tree(n, seq):
    """Decode a Pruefer sequence (length n-2) into tree edges on 1..n."""
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    leaves = [v for v in degree if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append(tuple(sorted(leaves)))
    return edges


# ---------------------------------------------------------------------------
# strategies

WEIGHT_CHOICES = [0.5, 1.0, 1.0, 2.0, 3.0, 5.0]  # repeats make ties likely


@st.composite
def connected_graphs(draw, max_n=7, weighted=False):
    n = draw(st.integers(2, max_n))
    seq = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    tree = prufer_tree(n, seq)
    spare = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in set(tree)]
    extra = draw(st.lists(st.sampled_from(spare), unique=True)) if spare else []
    edges = tree + extra
    if weighted:
        edges = [(a, b, draw(st.sampled_from(WEIGHT_CHOICES))) for a, b in edges]
    return EprGraph(n, edges)


@st.composite
def arbitrary_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return EprGraph(n, edges)


@st.composite
def connected_hypergraphs(draw, max_n=8):
    """Built by always anchoring new agents to an already covered one."""
    n = draw(st.integers(2, max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    edges = []
    covered = [perm[0]]
    i = 1
    while i < n:
        take = draw(st.integers(1, min(3, n - i)))
        anchor = draw(st.sampled_from(covered))
        edges.append(set(perm[i : i + take]) | {anchor})
        covered.extend(perm[i : i + take])
        i += take
    extras = draw(
        st.lists(
            st.sets(st.integers(1, n), min_size=2, max_size=min(4, n)), max_size=3
        )
    )
    return EntangledHypergraph(n, edges + extras)


@st.composite
def arbitrary_hypergraphs(draw, max_n=8, max_m=5):
    n = draw(st.integers(2, max_n))
    edges = draw(
        st.lists(
            st.sets(st.integers(1, n), min_size=2, max_size=min(5, n)), max_size=max_m
        )
    )
    return EntangledHypergraph(n, edges)


# ---------------------------------------------------------------------------
# EprGraph construction


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        EprGraph(3, [(2, 2)])


def test_graph_rejects_multi_edges():
    with pytest.raises(ValueError):
        EprGraph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        EprGraph(3, [(1, 2, 4.0), (1, 2)])


def test_graph_rejects_out_of_range_agents():
    with pytest.raises(ValueError):
        EprGraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        EprGraph(3, [(0, 1)])
    # an agent id is an integer: not a float that lies in range, nor a string
    with pytest.raises(ValueError, match=r"^agent 1\.5 is not an integer$"):
        EprGraph(3, [(1.5, 2)])
    with pytest.raises(ValueError, match=r"^agent 2\.0 is not an integer$"):
        EprGraph(3, [(1, 2.0)])
    with pytest.raises(ValueError, match=r"^agent '2' is not an integer$"):
        EprGraph(3, [(1, "2")])
    with pytest.raises(ValueError, match=r"^agent 1\.5 is not an integer$"):
        EprGraph(3, [(1, 2)]).neighbors(1.5)


def test_graph_rejects_bad_weights():
    with pytest.raises(ValueError):
        EprGraph(3, [(1, 2, -1.0)])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            EprGraph(3, [(1, 2, bad)])


def test_graph_normalizes_edge_order_and_defaults_weight_to_one():
    g = EprGraph(4, [(3, 1), (2, 4, 7.5)])
    assert g.edges == ((1, 3), (2, 4))
    assert g.weight(3, 1) == 1.0
    assert g.weight(4, 2) == 7.5
    assert g.neighbors(1) == [3]


# ---------------------------------------------------------------------------
# connectivity


def test_hub_graph_is_connected():
    assert is_connected(EprGraph(3, [(1, 2), (1, 3)]))


def test_two_isolated_agents_are_disconnected():
    assert not is_connected(EprGraph(2, []))


def test_single_agent_is_connected():
    assert is_connected(EprGraph(1, []))


@settings(max_examples=200)
@given(arbitrary_graphs())
def test_is_connected_matches_union_find_oracle(g):
    assert is_connected(g) == connected_oracle(g.n, g.edges)


# ---------------------------------------------------------------------------
# spanning trees


def test_path_graph_spans_itself():
    t = spanning_tree(EprGraph(3, [(1, 2), (2, 3)]))
    assert t.edges == ((1, 2), (2, 3))
    assert t.root_leaf == 1
    assert t.start == 2
    assert t.leaves == frozenset({1, 3})


def test_triangle_spanning_tree_is_bfs_from_agent_one():
    t = spanning_tree(EprGraph(3, [(1, 2), (1, 3), (2, 3)]))
    assert t.edges == ((1, 2), (1, 3))
    assert t.root_leaf == 2
    assert t.start == 1
    assert t.leaves == frozenset({2, 3})


def test_two_agent_tree_designations():
    t = spanning_tree(EprGraph(2, [(1, 2)]))
    assert t.root_leaf == 1
    assert t.start == 2
    assert t.leaves == frozenset({1, 2})


def test_spanning_tree_of_disconnected_graph_names_a_witness_pair():
    with pytest.raises(ConnectivityError) as err:
        spanning_tree(EprGraph(4, [(1, 2), (3, 4)]))
    assert err.value.agent_a == 1
    assert err.value.agent_b == 3
    assert "3" in str(err.value)


def test_spanning_tree_rejects_single_agent():
    with pytest.raises(ValueError):
        spanning_tree(EprGraph(1, []))


@settings(max_examples=150)
@given(connected_graphs())
def test_spanning_tree_shape(g):
    t = spanning_tree(g)
    assert len(t.edges) == g.n - 1
    assert set(t.edges) <= set(g.edges)
    assert connected_oracle(g.n, t.edges)
    degree = {v: len(t.neighbors(v)) for v in range(1, g.n + 1)}
    assert t.leaves == frozenset(v for v, d in degree.items() if d == 1)
    assert t.root_leaf == min(t.leaves)
    assert t.neighbors(t.root_leaf) == [t.start]
    if g.n >= 3:
        assert 2 <= len(t.leaves) <= g.n - 1


def test_leaf_count_extremes():
    star = spanning_tree(EprGraph(5, [(1, v) for v in range(2, 6)]))
    assert len(star.leaves) == 4  # n - 1: every non-hub is a leaf
    path = spanning_tree(EprGraph(5, [(v, v + 1) for v in range(1, 5)]))
    assert len(path.leaves) == 2


def test_from_edges_rejects_non_trees():
    with pytest.raises(ConnectivityError, match=r"no path joins agents 1 and 3$"):
        SpanningTree.from_edges(3, [(1, 2)])
    with pytest.raises(ValueError, match=r"^duplicate edge 1 2$"):
        SpanningTree.from_edges(4, [(1, 2), (1, 2), (3, 4)])
    with pytest.raises(ConnectivityError, match=r"no path joins agents 1 and 4$"):
        SpanningTree.from_edges(4, [(1, 2), (2, 3), (1, 3)])


NO_PATH = "EPR graph is disconnected: no path joins agents 1 and {}"


@pytest.mark.parametrize(
    "n, edges, unreached, message",
    [
        (4, [(1, 2), (2, 3), (1, 3)], 4, NO_PATH.format(4)),
        (5, [(1, 2), (2, 3), (3, 1), (4, 5)], 4, NO_PATH.format(4)),
        (6, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 4)], 4, NO_PATH.format(4)),
        (5, [(1, 2), (2, 3), (3, 4)], 5, NO_PATH.format(5)),
        (3, [(1, 2), (2, 3), (1, 3)], None, "3 edges cannot form a tree on 3 agents"),
        (1, [], None, "a spanning tree needs at least two agents"),
    ],
    ids=["cycle-misses-4", "cycle-plus-edge", "two-parts", "too-few", "too-many", "one-agent"],
)
def test_from_edges_refuses_cyclic_disconnected_and_wrong_size_lists(n, edges, unreached, message):
    """A list that leaves an agent out of agent 1's reach gets
    spanning_tree's ConnectivityError, naming agent 1 and the lowest agent
    it cannot reach, whatever its size; a connected list of the wrong size
    gets a ValueError."""
    error = ValueError if unreached is None else ConnectivityError
    with pytest.raises(error) as refused:
        SpanningTree.from_edges(n, edges)
    assert type(refused.value) is error and str(refused.value) == message
    if unreached is not None:
        assert (refused.value.agent_a, refused.value.agent_b) == (1, unreached)


@settings(max_examples=100)
@given(connected_graphs(max_n=8, weighted=True))
def test_trees_of_a_checked_graph_equal_their_checked_rebuild(g):
    for tree in (spanning_tree(g), minimum_spanning_tree(g)):
        rebuilt = SpanningTree.from_edges(g.n, tree.edges)
        assert tree == rebuilt
        assert all(tree.neighbors(v) == rebuilt.neighbors(v) for v in range(1, g.n + 1))


@settings(max_examples=100)
@given(st.integers(2, 8), st.data())
def test_from_edges_accepts_every_pruefer_tree(n, data):
    seq = data.draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    edges = prufer_tree(n, seq)
    t = SpanningTree.from_edges(n, edges)
    assert sorted(t.edges) == sorted(edges)
    assert t.root_leaf == min(t.leaves)


# ---------------------------------------------------------------------------
# minimum spanning trees


def test_mst_triangle_picks_cheap_edges():
    g = EprGraph(3, [(1, 2, 1.0), (1, 3, 5.0), (2, 3, 2.0)])
    t = minimum_spanning_tree(g)
    assert t.edges == ((1, 2), (2, 3))
    assert t.total_weight(g) == 3.0


def test_total_weight_adds_left_to_right_on_every_python():
    # sum() compensates rounding from Python 3.12 on and gives 1.0 here
    g = EprGraph(11, [(v, v + 1, 0.1) for v in range(1, 11)])
    t = spanning_tree(g)
    weights = [g.weight(a, b) for a, b in t.edges]
    assert t.total_weight(g) == functools.reduce(operator.add, weights, 0.0)
    assert t.total_weight(g) == 0.9999999999999999


def test_mst_tie_break_is_lexicographic():
    g = EprGraph(3, [(1, 2), (1, 3), (2, 3)])
    assert minimum_spanning_tree(g).edges == ((1, 2), (1, 3))


def test_mst_of_path_is_the_path():
    g = EprGraph(4, [(1, 2, 9.0), (2, 3, 0.5), (3, 4, 4.0)])
    assert minimum_spanning_tree(g).edges == ((1, 2), (2, 3), (3, 4))


def test_mst_of_disconnected_graph_raises():
    with pytest.raises(ConnectivityError):
        minimum_spanning_tree(EprGraph(3, [(1, 2)]))


@settings(max_examples=100)
@given(connected_graphs(max_n=6, weighted=True))
def test_mst_matches_exhaustive_enumeration(g):
    t = minimum_spanning_tree(g)
    best = min(sum(g.weight(*e) for e in tree) for tree in all_spanning_trees(g))
    assert t.total_weight(g) == pytest.approx(best, abs=1e-12)
    assert t.total_weight(g) <= spanning_tree(g).total_weight(g) + 1e-12
    assert minimum_spanning_tree(g).edges == t.edges  # deterministic tie-break


# ---------------------------------------------------------------------------
# hypergraphs


def test_hyperedges_stored_largest_first_with_stable_ties():
    h = EntangledHypergraph(6, [{1, 2}, {3, 4, 5}, {5, 6}, {1, 2, 6}])
    assert h.hyperedges == (
        frozenset({3, 4, 5}),
        frozenset({1, 2, 6}),
        frozenset({1, 2}),
        frozenset({5, 6}),
    )


def test_hypergraph_rejects_tiny_or_out_of_range_edges():
    with pytest.raises(ValueError):
        EntangledHypergraph(3, [{1}])
    with pytest.raises(ValueError):
        EntangledHypergraph(3, [{1, 4}])
    with pytest.raises(ValueError, match="repeated agent"):
        EntangledHypergraph(3, [(1, 2, 2), (2, 3)])
    # refused at construction, before connectivity or the merge schedule sees it
    with pytest.raises(ValueError, match=r"^agent 1\.5 is not an integer$"):
        EntangledHypergraph(3, [(1, 2, 3), (1.5, 2)])
    with pytest.raises(ValueError, match=r"^agent None is not an integer$"):
        EntangledHypergraph(3, [(1, None)])


@pytest.mark.parametrize("agent", [True, np.int64(1), np.int32(1)], ids=repr)
def test_an_agent_id_is_an_int_as_the_network_takes_it(agent):
    # each equals the int 1, and a network refuses it as an agent
    with pytest.raises(ValueError, match=rf"^unknown agent {agent}$"):
        NetworkState(3).distribute_epr(agent, 2)
    refused = rf"^agent {re.escape(repr(agent))} is not an integer$"
    with pytest.raises(ValueError, match=refused):
        EprGraph(3, [(agent, 2), (2, 3)])
    with pytest.raises(ValueError, match=refused):
        SpanningTree.from_edges(3, [(2, 3), (2, agent)])
    with pytest.raises(ValueError, match=refused):
        EntangledHypergraph(3, [(agent, 2), (2, 3)])
    with pytest.raises(ValueError, match=refused):
        check_group(3, (2, 3, agent))


def test_hyperpath_example_is_connected():
    h = EntangledHypergraph(5, [{1, 2, 3}, {3, 4}, {4, 5}])
    assert hypergraph_is_connected(h)


def test_disjoint_hyperedges_are_disconnected():
    assert not hypergraph_is_connected(EntangledHypergraph(4, [{1, 2}, {3, 4}]))


def test_single_hyperedge_covering_all_is_connected():
    assert hypergraph_is_connected(EntangledHypergraph(3, [{1, 2, 3}]))


def test_uncovered_agent_disconnects():
    assert not hypergraph_is_connected(EntangledHypergraph(3, [{1, 2}]))


@settings(max_examples=200)
@given(arbitrary_hypergraphs())
def test_hypergraph_connectivity_matches_clique_expansion_oracle(h):
    expanded = clique_expansion(h.hyperedges)
    assert hypergraph_is_connected(h) == connected_oracle(h.n, expanded)


# ---------------------------------------------------------------------------
# merge schedule


def test_merge_schedule_hand_trace():
    h = EntangledHypergraph(5, [{1, 2, 3}, {3, 4}, {4, 5}])
    steps = merge_schedule(h)
    assert [(sorted(s.hyperedge), s.junction) for s in steps] == [
        ([3, 4], 3),
        ([4, 5], 4),
    ]
    assert steps[0].pre_size == 3 and steps[0].add_size == 2
    assert steps[1].pre_size == 4


def test_merge_schedule_single_hyperedge_is_empty():
    assert merge_schedule(EntangledHypergraph(3, [{1, 2, 3}])) == []


def test_contained_hyperedge_is_dropped_without_a_step():
    assert merge_schedule(EntangledHypergraph(3, [{1, 2, 3}, {2, 3}])) == []


def test_merge_schedule_rejects_disconnected_input():
    with pytest.raises(ConnectivityError):
        merge_schedule(EntangledHypergraph(4, [{1, 2}, {3, 4}]))
    with pytest.raises(ValueError):
        merge_schedule(EntangledHypergraph(2, []))


@settings(max_examples=150)
@given(connected_hypergraphs())
def test_merge_schedule_covers_everything_step_by_step(h):
    steps = merge_schedule(h)
    fused = set(h.hyperedges[0])
    for step in steps:
        assert step.overlap == step.hyperedge & fused
        assert step.overlap, "every step must touch the fused group"
        assert step.junction == min(step.overlap)
        assert not step.hyperedge <= fused
        assert step.pre_size == len(fused)
        assert step.add_size == len(step.hyperedge)
        fused |= step.hyperedge
    assert fused == set().union(*h.hyperedges)
    assert fused == set(range(1, h.n + 1))


def _schedule_rows(h):
    return [
        (s.index, s.hyperedge, s.junction, s.overlap, s.pre_size) for s in merge_schedule(h)
    ]


@settings(max_examples=200)
@given(connected_hypergraphs(max_n=12))
def test_merge_schedule_matches_the_rescanning_oracle(h):
    assert _schedule_rows(h) == merge_order_oracle(h)


@pytest.mark.parametrize("seed", range(30))
def test_merge_schedule_matches_the_oracle_on_random_connected_hypergraphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    agents = list(range(1, n + 1))
    rng.shuffle(agents)
    groups, covered = [], [agents[0]]
    for v in agents[1:]:  # a spanning chain of overlaps, then random extras
        if rng.random() < 0.5 or len(groups) == 0:
            groups.append({rng.choice(covered), v})
        else:
            groups[-1].add(v)
        covered.append(v)
    for _ in range(rng.randint(0, 2 * n)):
        groups.append(set(rng.sample(range(1, n + 1), rng.randint(2, min(6, n)))))
    rng.shuffle(groups)
    h = EntangledHypergraph(n, groups)
    assert hypergraph_is_connected(h)
    assert _schedule_rows(h) == merge_order_oracle(h)


# ---------------------------------------------------------------------------
# one walk per graph: the tree and merge walks double as connectivity checks


@settings(max_examples=300)
@given(st.one_of(arbitrary_graphs(max_n=8), connected_graphs(max_n=8, weighted=True)))
def test_mst_gives_the_tree_or_refusal_of_the_two_pass_version(g):
    assert outcome(minimum_spanning_tree, g) == outcome(two_pass_minimum_spanning_tree, g)


@settings(max_examples=300)
@given(st.one_of(arbitrary_hypergraphs(max_n=8), connected_hypergraphs(max_n=8)))
def test_merge_schedule_gives_the_order_or_refusal_of_the_two_pass_version(h):
    assert outcome(_schedule_rows, h) == outcome(two_pass_merge_schedule, h)


def test_single_pass_walks_name_the_lowest_unreached_agent():
    # agents 1-3 and 5 form one component, 4 and 6 the other: agent 4 is named
    g = EprGraph(6, [(1, 2, 5), (2, 3), (3, 5), (4, 6)])
    with pytest.raises(ConnectivityError) as refused:
        minimum_spanning_tree(g)
    assert str(refused.value) == "EPR graph is disconnected: no path joins agents 1 and 4"
    assert (refused.value.agent_a, refused.value.agent_b) == (1, 4)
    # an agent in no group leaves the fused set short, though the groups overlap;
    # when the fused set misses agent 1, the witness is the lowest agent that
    # agent 1 cannot reach, not the lowest one outside the fused set
    cases = [
        (EntangledHypergraph(4, [(1, 2), (2, 3)]), 4),
        (EntangledHypergraph(4, [(2, 3), (3, 4)]), 2),
        (EntangledHypergraph(9, [(6, 7, 8, 9), (1, 2), (3, 4, 5)]), 3),
    ]
    for h, missing in cases:
        with pytest.raises(ConnectivityError) as refused:
            merge_schedule(h)
        assert str(refused.value) == (
            f"entangled hypergraph is disconnected: no chain of groups joins agents 1 and {missing}"
        )
        assert (refused.value.agent_a, refused.value.agent_b) == (1, missing)
