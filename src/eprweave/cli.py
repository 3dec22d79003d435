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

Exit codes: 0 on success, 1 on input or protocol errors, 2 when the spec
is rejected because the entanglement network is disconnected (a spanning
GHZ state is reachable by local operations and classical communication if
and only if the network is connected, so a disconnected spec is refused
before any quantum operation).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import (
    ConnectivityError,
    EprWeaveError,
    NetworkSpecError,
)
from .protocols import (
    ProtocolReport,
    protocol_one,
    protocol_three,
    protocol_two,
    setup_epr_network,
    setup_group_network,
)
from .topology import (
    EntangledHypergraph,
    EprGraph,
    SpanningTree,
    hypergraph_is_connected,
    is_connected,
    minimum_spanning_tree,
    spanning_tree,
)

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

    @property
    def mode(self) -> str:
        return "hypergraph" if self.hyperedges else "epr-graph"

    @property
    def weighted(self) -> bool:
        return any(len(e) == 3 for e in self.edges)

    def to_graph(self) -> EprGraph:
        return EprGraph(self.n, self.edges)

    def to_hypergraph(self) -> EntangledHypergraph:
        members = self.hyperedges if self.hyperedges else tuple(e[:2] for e in self.edges)
        return EntangledHypergraph(self.n, members)

    def serialize(self) -> str:
        """Canonical text form: whitespace- and comment-insensitive."""
        lines = [f"agents {self.n}"]
        for e in sorted(self.edges, key=lambda e: e[:2]):
            lines.append("edge " + " ".join(repr(x) if isinstance(x, float) else str(x) for x in e))
        for members in self.hyperedges:  # declaration order matters here
            lines.append("hyper " + " ".join(map(str, members)))
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


def parse_spec(text: str) -> NetworkSpec:
    """Parse the spec format; errors carry 1-based line numbers."""
    n = None
    edges: list[tuple] = []
    hyperedges: list[tuple[int, ...]] = []
    seen_pairs: set[tuple[int, int]] = set()

    def agent(token: str, line: int) -> int:
        try:
            v = int(token)
        except ValueError:
            raise NetworkSpecError(f"expected an agent number, got {token!r}", line)
        if not 1 <= v <= n:
            raise NetworkSpecError(f"agent {v} is outside 1..{n}", line)
        return v

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        keyword, args = tokens[0], tokens[1:]
        if n is None:
            if keyword != "agents":
                raise NetworkSpecError(
                    f"first directive must be 'agents N', got {keyword!r}", lineno
                )
            if len(args) != 1:
                raise NetworkSpecError("'agents' takes exactly one number", lineno)
            try:
                n = int(args[0])
            except ValueError:
                raise NetworkSpecError(f"bad agent count {args[0]!r}", lineno)
            if n < 1:
                raise NetworkSpecError("need at least one agent", lineno)
        elif keyword == "agents":
            raise NetworkSpecError("'agents' may only appear once, first", lineno)
        elif keyword == "edge":
            if hyperedges:
                raise NetworkSpecError("cannot mix 'edge' and 'hyper' lines", lineno)
            if len(args) not in (2, 3):
                raise NetworkSpecError("'edge' takes two agents and an optional weight", lineno)
            a, b = agent(args[0], lineno), agent(args[1], lineno)
            if a == b:
                raise NetworkSpecError(f"agent {a} cannot pair with itself", lineno)
            pair = (min(a, b), max(a, b))
            if pair in seen_pairs:
                raise NetworkSpecError(f"duplicate edge {pair[0]} {pair[1]}", lineno)
            seen_pairs.add(pair)
            if len(args) == 3:
                try:
                    w = float(args[2])
                except ValueError:
                    raise NetworkSpecError(f"bad edge weight {args[2]!r}", lineno)
                if w < 0:
                    raise NetworkSpecError("edge weights must be nonnegative", lineno)
                edges.append((a, b, w))
            else:
                edges.append((a, b))
        elif keyword == "hyper":
            if edges:
                raise NetworkSpecError("cannot mix 'edge' and 'hyper' lines", lineno)
            if len(args) < 2:
                raise NetworkSpecError("'hyper' needs at least two agents", lineno)
            members = tuple(agent(t, lineno) for t in args)
            if len(set(members)) != len(members):
                raise NetworkSpecError("repeated agent in hyperedge", lineno)
            hyperedges.append(tuple(sorted(members)))
        else:
            raise NetworkSpecError(f"unknown directive {keyword!r}", lineno)
    if n is None:
        raise NetworkSpecError("empty spec: expected an 'agents N' directive")
    return NetworkSpec(n, tuple(edges), tuple(hyperedges))


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
    if value.startswith("sample:"):
        count = value.split(":", 1)[1]
        if count.isdigit() and int(count) > 0:
            return int(count)
    raise argparse.ArgumentTypeError(
        f"{value!r} is not 'all' or 'sample:N' with positive N"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
            p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
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


def _choose_tree(spec: NetworkSpec) -> SpanningTree:
    g = spec.to_graph()
    return minimum_spanning_tree(g) if spec.weighted else spanning_tree(g)


def _network_summary(spec: NetworkSpec) -> dict:
    return {
        "agents": spec.n,
        "mode": spec.mode,
        "weighted": spec.weighted,
        "edges": [list(e) for e in spec.edges],
        "hyperedges": [list(h) for h in spec.hyperedges],
    }


def _tree_summary(tree: SpanningTree, g: EprGraph) -> dict:
    return {
        "edges": [list(e) for e in tree.edges],
        "root_leaf": tree.root_leaf,
        "start": tree.start,
        "leaves": list(tree.leaves),
        "total_weight": tree.total_weight(g),
    }


def _protocol_result(report: ProtocolReport) -> dict:
    result = report.to_dict()
    result["ok"] = report.worst_fidelity >= 1 - 1e-10
    return result


def _print_branches(report: ProtocolReport, out) -> None:
    for b in report.branches:
        bits = "".join(map(str, b.outcomes)) or "-"
        print(f"  branch {bits}  p={b.probability:.6f}  fidelity={b.fidelity:.12f}", file=out)


def _print_protocol(report: ProtocolReport, verbose: bool, out) -> None:
    print(
        f"branches explored: {len(report.branches)} ({report.branch_mode})", file=out
    )
    if verbose:
        _print_branches(report, out)
    print(f"classical cost: {report.cbits} cbits", file=out)
    if report.epr_pairs_consumed is not None:
        print(f"EPR pairs consumed: {report.epr_pairs_consumed}", file=out)
    print(f"worst-branch fidelity: {report.worst_fidelity:.12f}", file=out)


def _write_report(document: dict, args, out) -> None:
    if getattr(args, "report", None):
        payload = json.dumps(document, indent=2) + "\n"
        Path(args.report).write_text(payload)
        print(f"report written to {args.report}", file=out)


def run(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    args = build_parser().parse_args(argv)
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

        if args.command == "check":
            if spec.mode == "hypergraph":
                connected = hypergraph_is_connected(spec.to_hypergraph())
            else:
                connected = is_connected(spec.to_graph())
            document["result"] = {"connected": connected, "ok": connected}
            if not connected:
                _write_report(document, args, out)
                raise ConnectivityError("the agents do not form one connected network")
            print(f"{spec.mode} on {spec.n} agents: connected", file=out)

        elif args.command in ("tree", "mst"):
            if spec.mode != "epr-graph":
                raise EprWeaveError(f"'{args.command}' needs an EPR-pair spec, not groups")
            g = spec.to_graph()
            tree = minimum_spanning_tree(g) if args.command == "mst" else spanning_tree(g)
            document["result"] = dict(_tree_summary(tree, g), ok=True)
            kind = "minimum-weight spanning tree" if args.command == "mst" else "spanning tree"
            print(f"{kind} on {spec.n} agents (total weight {tree.total_weight(g)}):", file=out)
            for a, b in tree.edges:
                print(f"  {a} -- {b}", file=out)
            print(
                f"root leaf {tree.root_leaf}, start {tree.start}, "
                f"leaves {' '.join(map(str, tree.leaves))}",
                file=out,
            )

        elif args.command == "ghz3":
            if spec.mode != "epr-graph":
                raise EprWeaveError("'ghz3' needs an EPR-pair spec, not groups")
            net = setup_epr_network(spec.n, [e[:2] for e in spec.edges])
            report = protocol_one(net, branches=args.branches, seed=args.seed)
            document["result"] = _protocol_result(report)
            print("three-party weave from two pairs at a hub", file=out)
            _print_protocol(report, args.verbose, out)

        elif args.command == "weave":
            if spec.mode != "epr-graph":
                raise EprWeaveError("'weave' needs an EPR-pair spec, not groups")
            tree = _choose_tree(spec)
            document["options"]["tree"] = "mst" if spec.weighted else "bfs"
            document["tree"] = _tree_summary(tree, spec.to_graph())
            net = setup_epr_network(spec.n, tree.edges)
            report = protocol_two(
                net, tree, step2=args.step2, branches=args.branches, seed=args.seed
            )
            document["result"] = _protocol_result(report)
            k = len(tree.leaves)
            print(
                f"weaving a {spec.n}-partite GHZ state over a tree with {k} leaves",
                file=out,
            )
            _print_protocol(report, args.verbose, out)
            bound = max(1, 3 * spec.n - 5)
            print(f"classical bound: {report.cbits} <= 3n-5 = {bound}", file=out)

        elif args.command == "fuse":
            h = spec.to_hypergraph()  # EPR pairs are just 2-agent groups
            report = protocol_three(
                setup_group_network(h), h, branches=args.branches, seed=args.seed
            )
            document["result"] = _protocol_result(report)
            print(
                f"fusing {len(h.hyperedges)} group states into a "
                f"{spec.n}-partite GHZ state",
                file=out,
            )
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
