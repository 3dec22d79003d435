"""Command-line front end.

Reads a small network-spec format::

    # comments run to end of line
    agents 5
    edge 1 2          # EPR pair, optional trailing weight
    edge 2 3 0.7
    hyper 1 2 3       # or: pre-shared group states (not mixable with edge)

and drives the weaving protocols over it.  Every run is deterministic:
reports written with ``--report`` are byte-identical for the same spec,
seed, and flags.

Exit codes: 0 on success, 1 on input, usage or protocol errors, 2 when
the spec is rejected because the entanglement network is disconnected (a
spanning GHZ state is reachable by local operations and classical
communication if and only if the network is connected, so a disconnected
spec is refused before any quantum operation).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import ConnectivityError, EprWeaveError, NetworkSpecError
from .topology import (
    EntangledHypergraph,
    EprGraph,
    SpanningTree,
    add_edge,
    check_group,
    hypergraph_is_connected,
    is_connected,
    merge_schedule,
    minimum_spanning_tree,
    spanning_tree,
)

# The protocol commands import eprweave.protocols inside ``run``, so that
# check, tree and mst never load the quantum layers.

CONNECTIVITY_LAW = (
    "a GHZ state spanning every agent is reachable by local operations and "
    "classical communication if and only if the entanglement network is "
    "connected"
)


# ---------------------------------------------------------------------------
# spec files


@dataclass(frozen=True)
class NetworkSpec:
    """Parsed network description: EPR-pair edges xor group hyperedges."""

    n: int
    edges: tuple[tuple, ...] = ()  # (a, b) or (a, b, weight)
    hyperedges: tuple[tuple[int, ...], ...] = ()
    # What parse_spec already checked line by line: the edge-weight map of
    # ``add_edge``, or the groups of ``check_group`` for a hypergraph spec.
    # None for a spec built by hand, which to_graph and to_hypergraph check
    # in full; ``dataclasses.replace`` resets it, so an edited spec does too.
    _checked: dict | list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def mode(self) -> str:
        return "hypergraph" if self.hyperedges else "epr-graph"

    @property
    def weighted(self) -> bool:
        return any(len(e) == 3 for e in self.edges)

    def to_graph(self) -> EprGraph:
        if self._checked is None or self.hyperedges:
            return EprGraph(self.n, self.edges)
        return EprGraph.from_checked(self.n, dict(self._checked))

    def to_hypergraph(self) -> EntangledHypergraph:
        if self._checked is None:
            members = self.hyperedges if self.hyperedges else tuple(e[:2] for e in self.edges)
            return EntangledHypergraph(self.n, members)
        # EPR pairs are just 2-agent groups
        groups = self._checked if self.hyperedges else map(frozenset, self._checked)
        return EntangledHypergraph.from_checked(self.n, groups)

    def serialize(self) -> str:
        """Canonical text form: whitespace- and comment-insensitive."""
        lines = [f"agents {self.n}\n"]
        for e in sorted(self.edges):
            lines.append(("edge %s %s\n" if len(e) == 2 else "edge %s %s %r\n") % e)
        for members in self.hyperedges:  # declaration order matters here
            lines.append("hyper " + " ".join(map(str, members)) + "\n")
        return "".join(lines)

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


def _number(kind, token: str):
    """``kind(token)`` for int or float, refusing what they take beyond
    ASCII: other scripts' digits, and underscores between digits."""
    if token.isascii() and "_" not in token:
        return kind(token)
    raise ValueError(f"{token!r} is not an ASCII number")


def _bad_number(tokens: list[str], agents: int) -> str:
    """The error for the first of ``tokens`` that is not a number: the
    first ``agents`` must be agent numbers, the rest edge weights."""
    for i, token in enumerate(tokens):
        kind, what = (int, "expected an agent number, got") if i < agents else (float, "bad edge weight")
        try:
            _number(kind, token)
        except ValueError:
            return f"{what} {token!r}"
    raise AssertionError(f"every token of {tokens} is a number")


def parse_spec(text: str) -> NetworkSpec:
    """Parse the spec format; errors carry 1-based line numbers.

    Only tokenising happens here: each edge and group goes through the
    topology layer's own checks, whose messages gain the line number. What
    those checks build is kept, so the graph is not checked a second time.
    """
    num, real = int, float
    if not text.isascii() or "_" in text:  # only then can a number need _number's check
        num, real = functools.partial(_number, int), functools.partial(_number, float)
    n = None
    edges: list[tuple] = []
    hyperedges: list[tuple[int, ...]] = []
    weights: dict[tuple[int, int], float] = {}
    groups: list[frozenset[int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        keyword = tokens[0]
        try:
            if n is None:
                if keyword != "agents":
                    raise ValueError(f"first directive must be 'agents N', got {keyword!r}")
                if len(tokens) != 2:
                    raise ValueError("'agents' takes exactly one number")
                try:
                    n = num(tokens[1])
                except ValueError:
                    raise ValueError(f"bad agent count {tokens[1]!r}") from None
                if n < 1:
                    raise ValueError("need at least one agent")
            elif keyword == "edge":
                if hyperedges:
                    raise ValueError("cannot mix 'edge' and 'hyper' lines")
                if not 3 <= len(tokens) <= 4:
                    raise ValueError("'edge' takes two agents and an optional weight")
                try:
                    a, b = num(tokens[1]), num(tokens[2])
                    edge = (a, b) if len(tokens) == 3 else (a, b, real(tokens[3]))
                except ValueError:
                    raise ValueError(_bad_number(tokens[1:], agents=2)) from None
                add_edge(weights, n, *edge)
                edges.append(edge)
            elif keyword == "hyper":
                if edges:
                    raise ValueError("cannot mix 'edge' and 'hyper' lines")
                try:
                    members = list(map(num, tokens[1:]))
                except ValueError:
                    raise ValueError(_bad_number(tokens[1:], agents=len(tokens))) from None
                group = check_group(n, members)
                groups.append(group)
                hyperedges.append(tuple(sorted(group)))
            elif keyword == "agents":
                raise ValueError("'agents' may only appear once, first")
            else:
                raise ValueError(f"unknown directive {keyword!r}")
        except ValueError as exc:
            raise NetworkSpecError(str(exc), lineno) from None
    if n is None:
        raise NetworkSpecError("empty spec: expected an 'agents N' directive")
    spec = NetworkSpec(n, tuple(edges), tuple(hyperedges))
    object.__setattr__(spec, "_checked", groups if hyperedges else weights)
    return spec


def load_spec(path: str) -> NetworkSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise NetworkSpecError(f"cannot read {path}: {exc.strerror or exc}")
    return parse_spec(text)


# ---------------------------------------------------------------------------
# argument plumbing


def _branches(value: str):
    if value == "all":
        return "all"
    kind, _, count = value.partition(":")
    if kind == "sample" and count.isascii() and count.isdigit() and int(count) > 0:
        return int(count)
    raise argparse.ArgumentTypeError(f"{value!r} is not 'all' or 'sample:N' with positive N")


def _seed(value: str) -> int:
    try:  # a sign is taken: the protocols refuse ``--seed -1`` themselves
        return _number(int, value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as input errors do: 2 means a disconnected network."""

    def error(self, message):  # ``run`` writes the exit's text to its ``err``
        raise SystemExit(f"{self.format_usage()}{self.prog}: error: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and then shared."""
    parser = _Parser(
        prog="eprweave",
        description="Weave GHZ states out of pre-shared EPR pairs and group states.",
    )
    parser.add_argument("--version", action="version", version=f"eprweave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, protocol=False):
        p.add_argument("spec", help="network spec file")
        p.add_argument("--report", metavar="PATH", help="write a JSON report here")
        p.add_argument("--verbose", action="store_true", help="print per-branch details")
        if protocol:
            p.add_argument("--seed", type=_seed, default=0, help="sampling seed (default 0)")
            p.add_argument(
                "--branches",
                type=_branches,
                default="all",
                help="'all' (default) or 'sample:N'",
            )

    common(sub.add_parser("check", help="parse the spec and test connectivity"))
    common(sub.add_parser("tree", help="show the spanning tree the weave would use"))
    common(sub.add_parser("mst", help="show the minimum-weight spanning tree"))
    common(sub.add_parser("ghz3", help="three agents, two pairs at a hub"), protocol=True)
    weave = sub.add_parser("weave", help="n-partite GHZ over a spanning tree of pairs")
    common(weave, protocol=True)
    weave.add_argument(
        "--step2",
        choices=("symmetric", "zeilinger"),
        default="symmetric",
        help="circuit used for the first three-party step",
    )
    common(sub.add_parser("fuse", help="merge pre-shared group states"), protocol=True)
    return parser


# ---------------------------------------------------------------------------
# command bodies


def _choose_tree(spec: NetworkSpec, mst: bool) -> tuple[SpanningTree, dict]:
    """The minimum-weight or the BFS spanning tree, and its report summary."""
    g = spec.to_graph()
    tree = minimum_spanning_tree(g) if mst else spanning_tree(g)
    return tree, _tree_summary(tree, g)


def _network_summary(spec: NetworkSpec) -> dict:
    return {
        "agents": spec.n,
        "mode": spec.mode,
        "weighted": spec.weighted,
        "edges": list(map(list, spec.edges)),
        "hyperedges": [list(h) for h in spec.hyperedges],
    }


def _tree_summary(tree: SpanningTree, g: EprGraph) -> dict:
    return {
        "edges": list(map(list, tree.edges)),
        "root_leaf": tree.root_leaf,
        "start": tree.start,
        "leaves": list(tree.leaves),
        "total_weight": tree.total_weight(g),
    }


def _protocol_result(report) -> dict:
    from .protocols import FIDELITY_TOL

    return dict(report.to_dict(), ok=report.worst_fidelity >= 1 - FIDELITY_TOL)


def _print_protocol(report, verbose: bool, out) -> None:
    print(f"branches explored: {len(report.branches)} ({report.branch_mode})", file=out)
    for b in report.branches if verbose else ():
        bits = "".join(map(str, b.outcomes)) or "-"
        print(f"  branch {bits}  p={b.probability!r}  fidelity={b.fidelity:.12f}", file=out)
    print(f"classical cost: {report.cbits} cbits", file=out)
    if report.epr_pairs_consumed is not None:
        print(f"EPR pairs consumed: {report.epr_pairs_consumed}", file=out)
    print(f"worst-branch fidelity: {report.worst_fidelity:.12f}", file=out)


# The C encoder in compact form; it spells every scalar as json.dumps does.
_compact = json.JSONEncoder(separators=(",", ":")).encode
_NUMBERS = {int, float, bool, type(None)}
_ROWS = {list, tuple}


def _json_key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _compact(key)
    return _compact(key)


def _json_indent2(value, indent: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)`` for a value nested at
    ``indent`` (a newline and its spaces), without its pure-Python indent
    path: a flat list of numbers, or a list of number rows such as an edge
    list, goes to the C encoder in compact form and is re-indented with
    ``str.replace`` (numbers hold no comma or bracket)."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, value))
        if kinds <= _NUMBERS:
            return "[" + inner + _compact(value)[1:-1].replace(",", "," + inner) + indent + "]"
        if kinds <= _ROWS:
            text = _compact(value)
            # one bracket per row, no empty row and no string; an object in
            # a row can only be "{}", since its keys would be strings
            if text.count("[") == len(value) + 1 and not ("[]" in text or '"' in text):
                cell = inner + "  "
                body = text[2:-2].replace("],[", "\0").replace(",", "," + cell)
                body = body.replace("\0", inner + "]," + inner + "[" + cell)
                return "[" + inner + "[" + cell + body + inner + "]" + indent + "]"
        items = [_json_indent2(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_json_key(k) + ": " + _json_indent2(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)  # as json spells it; NaN and Infinity go below
    return _compact(value)


def _write_report(document: dict, args, out) -> None:
    if getattr(args, "report", None):
        Path(args.report).write_text(_json_indent2(document) + "\n")
        print(f"report written to {args.report}", file=out)


def run(argv=None, out=None, err=None) -> int:
    out, err = out or sys.stdout, err or sys.stderr  # the streams of the call, not of the import
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if not isinstance(exc.code, str):  # --help and --version
            raise
        print(exc.code, file=err)
        return 1
    try:
        spec = load_spec(args.spec)
        document = {
            "tool": "eprweave",
            "version": __version__,
            "command": args.command,
            "spec_sha256": spec.sha256(),
            "seed": getattr(args, "seed", None),
            "options": {
                "branches": (
                    None
                    if not hasattr(args, "branches")
                    else args.branches if args.branches == "all" else f"sample:{args.branches}"
                ),
                "step2": getattr(args, "step2", None),
            },
            "network": _network_summary(spec),
        }

        if args.command in ("tree", "mst", "ghz3", "weave") and spec.mode != "epr-graph":
            raise EprWeaveError(f"'{args.command}' needs an EPR-pair spec, not groups")

        if args.command == "check":
            if spec.mode == "hypergraph":
                network = spec.to_hypergraph()
                connected, walk = hypergraph_is_connected(network), merge_schedule
            else:
                network = spec.to_graph()
                connected, walk = is_connected(network), spanning_tree
            document["result"] = {"connected": connected, "ok": connected}
            if not connected:
                _write_report(document, args, out)
                # the walk refuses the network, naming agent 1 and the lowest
                # agent it cannot reach, as the protocol commands do
                walk(network)
            print(f"{spec.mode} on {spec.n} agents: connected", file=out)

        elif args.command in ("tree", "mst"):
            tree, summary = _choose_tree(spec, args.command == "mst")
            document["result"] = dict(summary, ok=True)
            kind = "minimum-weight spanning tree" if args.command == "mst" else "spanning tree"
            print(f"{kind} on {spec.n} agents (total weight {summary['total_weight']}):", file=out)
            for a, b in tree.edges:
                print(f"  {a} -- {b}", file=out)
            print(
                f"root leaf {tree.root_leaf}, start {tree.start}, "
                f"leaves {' '.join(map(str, tree.leaves))}",
                file=out,
            )

        elif args.command == "ghz3":
            from .protocols import protocol_one, setup_epr_network

            net = setup_epr_network(spec.n, [e[:2] for e in spec.edges])
            report = protocol_one(net, branches=args.branches, seed=args.seed)
            document["result"] = _protocol_result(report)
            print("three-party weave from two pairs at a hub", file=out)
            _print_protocol(report, args.verbose, out)

        elif args.command == "weave":
            from .protocols import protocol_two, setup_epr_network

            tree, document["tree"] = _choose_tree(spec, spec.weighted)
            document["options"]["tree"] = "mst" if spec.weighted else "bfs"
            net = setup_epr_network(spec.n, tree.edges)
            report = protocol_two(net, step2=args.step2, branches=args.branches, seed=args.seed)
            document["result"] = _protocol_result(report)
            k = len(tree.leaves)
            print(f"weaving a {spec.n}-partite GHZ state over a tree with {k} leaves", file=out)
            _print_protocol(report, args.verbose, out)
            bound = max(1, 3 * spec.n - 5)
            print(f"classical bound: {report.cbits} <= 3n-5 = {bound}", file=out)

        elif args.command == "fuse":
            from .protocols import protocol_three, setup_group_network

            h = spec.to_hypergraph()  # EPR pairs are just 2-agent groups
            report = protocol_three(setup_group_network(h), branches=args.branches, seed=args.seed)
            document["result"] = _protocol_result(report)
            groups = len(h.hyperedges)
            print(f"fusing {groups} group states into a {spec.n}-partite GHZ state", file=out)
            _print_protocol(report, args.verbose, out)
            print(f"merge steps: {len(report.merge_log)}", file=out)

        ok = document["result"].get("ok", False)
        _write_report(document, args, out)
        if not ok:
            print("FAILED: the woven state is not a clean GHZ state", file=err)
            return 1
        print("ok", file=out)
        return 0

    except ConnectivityError as exc:
        print(f"rejected: {exc} ({CONNECTIVITY_LAW})", file=err)
        return 2
    except (EprWeaveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
