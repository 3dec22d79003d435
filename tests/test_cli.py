"""Tests for the command-line front end and the network-spec format."""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprweave.cli import NetworkSpec, _json_indent2, load_spec, parse_spec, run
from eprweave.errors import NetworkSpecError
from eprweave.topology import EntangledHypergraph, EprGraph

PATH3 = """\
# a path of three agents
agents 3
edge 1 2
edge 2 3
"""

STAR5 = """\
agents 5
edge 1 2
edge 1 3
edge 1 4
edge 1 5
"""

HUB3 = """\
agents 3
edge 1 2
edge 1 3
"""

GROUPS4 = """\
agents 4
hyper 1 2 3
hyper 3 4
"""

DISCONNECTED = """\
agents 4
edge 1 2
edge 3 4
"""


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_spec_reads_edges_comments_and_blanks():
    spec = parse_spec(PATH3)
    assert spec.n == 3
    assert spec.edges == ((1, 2), (2, 3))
    assert spec.hyperedges == ()
    assert spec.mode == "epr-graph"
    assert not spec.weighted


def test_parse_spec_reads_weights_and_hyperedges():
    spec = parse_spec("agents 3\nedge 1 2 0.5\nedge 2 3\n")
    assert spec.weighted
    assert spec.edges == ((1, 2, 0.5), (2, 3))
    spec = parse_spec(GROUPS4)
    assert spec.mode == "hypergraph"
    assert spec.hyperedges == ((1, 2, 3), (3, 4))


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("edge 1 2\n", 1, "first directive"),
        ("agents 3\nagents 4\n", 2, "only appear once"),
        ("agents two\n", 1, "bad agent count"),
        ("agents 0\n", 1, "at least one agent"),
        ("agents 3\nedge 1\n", 2, "optional weight"),
        ("agents 3\nedge 1 5\n", 2, "outside 1..3"),
        ("agents 3\nedge 1 x\n", 2, "expected an agent number"),
        ("agents 3\nedge 2 2\n", 2, "pair with itself"),
        ("agents 3\nedge 1 2\nedge 2 1\n", 3, "duplicate edge"),
        ("agents 3\nedge 1 2 heavy\n", 2, "bad edge weight"),
        ("agents 3\nedge 1 2 -1\n", 2, "nonnegative"),
        ("agents 3\nedge 1 2 nan\n", 2, "finite"),
        ("agents 3\nedge 1 2 inf\n", 2, "finite"),
        ("agents 3\nhyper 1\n", 2, "at least two agents"),
        ("agents 3\nhyper 1 2 2\n", 2, "repeated agent"),
        ("agents 3\nedge 1 2\nhyper 1 2 3\n", 3, "cannot mix"),
        ("agents 3\nhyper 1 2 3\nedge 1 2\n", 3, "cannot mix"),
        ("agents 3\nwire 1 2\n", 2, "unknown directive"),
    ],
)
def test_parse_spec_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(NetworkSpecError, match=fragment) as exc:
        parse_spec(text)
    assert f"line {lineno}:" in str(exc.value)


@pytest.mark.parametrize(
    "text, lineno, build",
    [
        ("agents 3\nedge 2 2\n", 2, lambda: EprGraph(3, [(2, 2)])),
        ("agents 3\nedge 1 2\nedge 2 1\n", 3, lambda: EprGraph(3, [(1, 2), (2, 1)])),
        ("agents 3\nedge 1 5\n", 2, lambda: EprGraph(3, [(1, 5)])),
        ("agents 3\nedge 1 2 -1\n", 2, lambda: EprGraph(3, [(1, 2, -1.0)])),
        ("agents 3\nedge 1 2 nan\n", 2, lambda: EprGraph(3, [(1, 2, float("nan"))])),
        ("agents 3\nedge 1 2 inf\n", 2, lambda: EprGraph(3, [(1, 2, float("inf"))])),
        ("agents 3\nhyper 1 2 2\n", 2, lambda: EntangledHypergraph(3, [(1, 2, 2)])),
        ("agents 3\nhyper 1 4\n", 2, lambda: EntangledHypergraph(3, [(1, 4)])),
        ("agents 3\nhyper 1\n", 2, lambda: EntangledHypergraph(3, [(1,)])),
    ],
    ids=[
        "self-loop", "duplicate", "edge-out-of-range", "negative", "nan", "inf",
        "repeated-member", "group-out-of-range", "lone-member",
    ],
)
def test_spec_and_api_reject_the_same_edges_and_groups(text, lineno, build):
    with pytest.raises(ValueError) as api:
        build()
    with pytest.raises(NetworkSpecError) as spec:
        parse_spec(text)
    assert str(spec.value) == f"line {lineno}: {api.value}"


@pytest.mark.parametrize("edge", [(1,), (1, 2, 3, 4)], ids=["one-agent", "four-numbers"])
def test_spec_and_api_reject_edges_of_the_wrong_length(edge):
    with pytest.raises(ValueError, match=re.escape(f"edge {edge} is not (a, b)")):
        EprGraph(4, [edge])
    with pytest.raises(NetworkSpecError, match="line 2: 'edge' takes two agents"):
        parse_spec("agents 4\nedge " + " ".join(map(str, edge)) + "\n")


def test_hand_built_specs_are_checked_in_full():
    with pytest.raises(ValueError, match="pair with itself"):
        NetworkSpec(3, edges=((1, 1),)).to_graph()
    with pytest.raises(ValueError, match="outside 1..3"):
        NetworkSpec(3, edges=((1, 5),)).to_hypergraph()
    with pytest.raises(ValueError, match="repeated agent"):
        NetworkSpec(3, hyperedges=((1, 2, 2),)).to_hypergraph()
    # an edited parsed spec is a new, unchecked spec
    with pytest.raises(ValueError, match="outside 1..2"):
        dataclasses.replace(parse_spec(PATH3), n=2).to_graph()


@pytest.mark.parametrize("text", [PATH3, STAR5, GROUPS4, "agents 4\nedge 4 2 0.5\nedge 1 2\nedge 3 1 2\n"])
def test_parsed_specs_build_the_same_topology_as_hand_built_ones(text):
    parsed = parse_spec(text)
    hand = NetworkSpec(parsed.n, parsed.edges, parsed.hyperedges)
    assert parsed == hand
    g, h = parsed.to_graph(), hand.to_graph()
    assert (g.n, g.edges, g.weights) == (h.n, h.edges, h.weights)
    assert all(g.neighbors(v) == h.neighbors(v) for v in range(1, g.n + 1))
    assert parsed.to_hypergraph().hyperedges == hand.to_hypergraph().hyperedges
    g.weights.clear()  # a graph owns its map: the spec's next graph is whole
    assert parsed.to_graph().weights == h.weights


def test_parse_spec_rejects_empty_input():
    with pytest.raises(NetworkSpecError, match="empty spec"):
        parse_spec("# nothing but comments\n\n")


def test_spec_serialization_is_comment_and_order_insensitive():
    noisy = "# hi\nagents 3\n\nedge 2 3   # trailing\nedge 1 2\n"
    assert parse_spec(noisy).serialize() == parse_spec(PATH3).serialize()
    assert parse_spec(noisy).sha256() == parse_spec(PATH3).sha256()


def test_spec_serialization_roundtrips():
    for text in (PATH3, STAR5, GROUPS4, "agents 3\nedge 1 2 0.5\nedge 2 3\n"):
        spec = parse_spec(text)
        assert parse_spec(spec.serialize()) == spec


def test_spec_hash_distinguishes_different_networks():
    assert parse_spec(PATH3).sha256() != parse_spec(HUB3).sha256()


def test_load_spec_missing_file():
    with pytest.raises(NetworkSpecError, match="cannot read"):
        load_spec("/nonexistent/net.spec")


# ---------------------------------------------------------------------------
# subcommands


def write(tmp_path, text, name="net.spec"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_accepts_connected_specs(tmp_path):
    code, out, err = invoke(["check", write(tmp_path, PATH3)])
    assert code == 0
    assert "connected" in out
    assert "ok" in out


def test_check_rejects_disconnected_specs_with_exit_2(tmp_path):
    code, out, err = invoke(["check", write(tmp_path, DISCONNECTED)])
    assert code == 2
    assert "rejected" in err
    assert "if and only if" in err


def test_usage_errors_are_returned_in_process_and_exit_1_alike(capsys):
    code, out, err = invoke(["bogus"])
    assert (code, out) == (1, "")
    assert run(["bogus"]) == 1  # the default streams are the ones at call time
    assert capsys.readouterr() == ("", err)
    assert err == (
        "usage: eprweave [-h] [--version] {check,tree,mst,ghz3,weave,fuse} ...\n"
        "eprweave: error: argument command: invalid choice: 'bogus' "
        "(choose from 'check', 'tree', 'mst', 'ghz3', 'weave', 'fuse')\n"
    )
    import eprweave

    src = str(Path(eprweave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "eprweave.cli", "bogus"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", err)


def test_module_entry_point_runs_the_cli(tmp_path):
    import eprweave

    src = str(Path(eprweave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "eprweave.cli", "check", write(tmp_path, DISCONNECTED)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("rejected:")


def test_sampled_reports_are_the_same_in_every_process(tmp_path):
    # one generator per run, seeded by an int: its draws depend neither on
    # the process nor on PYTHONHASHSEED
    import eprweave

    src = str(Path(eprweave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    path13 = "agents 13\n" + "".join(f"edge {v} {v + 1}\n" for v in range(1, 13))
    calls = {
        "sample": ["weave", write(tmp_path, STAR5, "star.spec"), "--branches", "sample:8", "--seed", "5"],
        # 22 measurements: over 2^20 branches, so 1024 sampled ones
        "fallback": ["weave", write(tmp_path, path13), "--branches", "all"],
    }
    script = "from eprweave.cli import run\n" + "".join(
        f"assert run({argv + ['--report', name + '.json']!r}) == 0\n" for name, argv in calls.items()
    )
    for hashseed in ("0", "1"):
        (tmp_path / hashseed).mkdir()
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path / hashseed,
            check=True,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hashseed),
            timeout=120,
        )
    for name in calls:
        assert (tmp_path / "0" / f"{name}.json").read_bytes() == (
            tmp_path / "1" / f"{name}.json"
        ).read_bytes(), name
    sampled = json.loads((tmp_path / "0" / "sample.json").read_bytes())
    assert [b["outcomes"] for b in sampled["result"]["branches"]] == [
        "000000", "001000", "011011", "100001", "100101", "110001", "110011", "111110"
    ]


def test_check_handles_hypergraph_mode(tmp_path):
    code, _, _ = invoke(["check", write(tmp_path, GROUPS4)])
    assert code == 0
    code, _, err = invoke(["check", write(tmp_path, "agents 4\nhyper 1 2\nhyper 3 4\n")])
    assert code == 2
    assert "if and only if" in err


@pytest.mark.parametrize(
    "spec, walk, refusal",
    [
        (
            "agents 5\nedge 1 2\nedge 2 3\nedge 4 5\n",
            "tree",
            "EPR graph is disconnected: no path joins agents 1 and 4",
        ),
        (
            "agents 5\nhyper 1 2 3\nhyper 4 5\n",
            "fuse",
            "entangled hypergraph is disconnected: no chain of groups joins agents 1 and 4",
        ),
        (  # agent 1 is outside the largest group, and agent 3 below all of it
            "agents 9\nhyper 6 7 8 9\nhyper 1 2\nhyper 3 4 5\n",
            "fuse",
            "entangled hypergraph is disconnected: no chain of groups joins agents 1 and 3",
        ),
    ],
)
def test_check_names_the_witness_pair_its_walk_names(tmp_path, spec, walk, refusal):
    path = write(tmp_path, spec)
    code, _, err = invoke(["check", path])
    assert code == 2
    assert err.startswith(f"rejected: {refusal} (")
    assert invoke([walk, path]) == (2, "", err)


def test_tree_prints_the_bfs_tree(tmp_path):
    code, out, _ = invoke(["tree", write(tmp_path, "agents 3\nedge 1 2\nedge 2 3\nedge 1 3\n")])
    assert code == 0
    assert "1 -- 2" in out and "1 -- 3" in out
    assert "root leaf 2" in out


def test_mst_prefers_light_edges(tmp_path):
    spec = "agents 3\nedge 1 2 1\nedge 1 3 5\nedge 2 3 2\n"
    code, out, _ = invoke(["mst", write(tmp_path, spec)])
    assert code == 0
    assert "1 -- 2" in out and "2 -- 3" in out and "1 -- 3" not in out
    assert "total weight 3.0" in out


def test_tree_on_disconnected_spec_exits_2(tmp_path):
    code, _, err = invoke(["tree", write(tmp_path, DISCONNECTED)])
    assert code == 2
    assert "if and only if" in err


def test_ghz3_runs_the_three_party_weave(tmp_path):
    code, out, _ = invoke(["ghz3", write(tmp_path, HUB3), "--verbose"])
    assert code == 0
    assert "branches explored: 4 (all)" in out
    assert "classical cost: 2 cbits" in out
    assert "worst-branch fidelity: 1.0" in out
    assert out.count("  branch ") == 4


def test_verbose_branch_lines_print_exact_probabilities(tmp_path):
    path6 = "agents 6\n" + "".join(f"edge {i} {i + 1}\n" for i in range(1, 6))
    code, out, _ = invoke(["weave", write(tmp_path, path6), "--verbose"])
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("  branch ")]
    assert len(lines) == 2**8  # 2n-4 measurements, each 1/2 either way
    assert all("  p=0.00390625  " in line for line in lines)


def test_ghz3_accepts_any_two_pairs_sharing_an_agent(tmp_path):
    # a path 1-2-3 has both pairs at agent 2, which makes agent 2 the hub
    code, out, _ = invoke(["ghz3", write(tmp_path, PATH3)])
    assert code == 0
    assert "classical cost: 2 cbits" in out


def test_ghz3_rejects_specs_without_a_hub(tmp_path):
    code, _, err = invoke(["ghz3", write(tmp_path, STAR5)])
    assert code == 1
    assert "error" in err
    code, _, err = invoke(["ghz3", write(tmp_path, GROUPS4)])
    assert code == 1
    assert "EPR-pair spec" in err


def test_weave_builds_the_full_ghz_state(tmp_path):
    code, out, _ = invoke(["weave", write(tmp_path, STAR5)])
    assert code == 0
    assert "5-partite GHZ" in out
    assert "classical cost: 10 cbits" in out
    assert "EPR pairs consumed: 4" in out
    assert "3n-5 = 10" in out


def test_weave_uses_mst_when_weights_are_present(tmp_path):
    spec = "agents 3\nedge 1 2 1\nedge 1 3 5\nedge 2 3 2\n"
    path = write(tmp_path, spec)
    report = str(tmp_path / "r.json")
    code, _, _ = invoke(["weave", path, "--report", report])
    assert code == 0
    doc = json.loads(open(report).read())
    assert doc["options"]["tree"] == "mst"
    assert doc["tree"]["edges"] == [[1, 2], [2, 3]]


def test_weave_sampled_branches(tmp_path):
    code, out, _ = invoke(
        ["weave", write(tmp_path, STAR5), "--branches", "sample:16", "--seed", "3"]
    )
    assert code == 0
    assert "(sample:16)" in out


def test_weave_zeilinger_variant_saves_a_cbit(tmp_path):
    code, out, _ = invoke(["weave", write(tmp_path, PATH3), "--step2", "zeilinger"])
    assert code == 0
    assert "classical cost: 3 cbits" in out


def test_weave_rejects_disconnected_specs_with_exit_2(tmp_path):
    code, _, err = invoke(["weave", write(tmp_path, DISCONNECTED)])
    assert code == 2
    assert "if and only if" in err


def test_fuse_merges_group_states(tmp_path):
    code, out, _ = invoke(["fuse", write(tmp_path, GROUPS4)])
    assert code == 0
    assert "fusing 2 group states" in out
    assert "merge steps: 1" in out


def test_fuse_accepts_pair_specs_as_two_agent_groups(tmp_path):
    code, out, _ = invoke(["fuse", write(tmp_path, PATH3)])
    assert code == 0
    assert "3-partite GHZ" in out


def test_fuse_rejects_disconnected_hypergraphs_with_exit_2(tmp_path):
    code, _, err = invoke(["fuse", write(tmp_path, "agents 4\nhyper 1 2\nhyper 3 4\n")])
    assert code == 2
    assert "if and only if" in err


def test_bad_spec_file_exits_1(tmp_path):
    code, _, err = invoke(["check", write(tmp_path, "agents 3\nedge 1 9\n")])
    assert code == 1
    assert "line 2:" in err
    code, _, err = invoke(["check", "/nonexistent/net.spec"])
    assert code == 1
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# reports


def test_report_is_byte_identical_across_runs(tmp_path):
    spec = write(tmp_path, STAR5)
    first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert invoke(["weave", spec, "--seed", "7", "--report", first])[0] == 0
    assert invoke(["weave", spec, "--seed", "7", "--report", second])[0] == 0
    assert open(first, "rb").read() == open(second, "rb").read()


def test_report_structure_and_key_order(tmp_path):
    spec = write(tmp_path, PATH3)
    report = str(tmp_path / "r.json")
    code, _, _ = invoke(["weave", spec, "--seed", "1", "--report", report])
    assert code == 0
    doc = json.loads(open(report).read())
    assert list(doc) == [
        "tool", "version", "command", "spec_sha256", "seed", "options",
        "network", "tree", "result",
    ]
    assert doc["tool"] == "eprweave"
    assert doc["command"] == "weave"
    assert doc["seed"] == 1
    assert doc["spec_sha256"] == NetworkSpec(3, ((1, 2), (2, 3))).sha256()
    assert doc["result"]["ok"] is True
    assert doc["result"]["cbits"] == 4
    assert doc["result"]["worst_fidelity"] >= 1 - 1e-10


NUMBERS = st.one_of(
    st.integers(),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -(2**63)),
    st.floats(),
    st.sampled_from([-0.0, 1e-07, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    st.none(),
)
TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\n\t\u00e9\u2028\ud800\U0001f600[],{}:')),
    max_size=8,
)
KEYS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())
# number rows (edge lists), empty rows and empty lists among them
ROWS = st.one_of(
    st.lists(st.lists(NUMBERS, max_size=4), max_size=4),
    st.lists(st.tuples(NUMBERS, NUMBERS), max_size=4),
    st.lists(NUMBERS, max_size=4),
)
DOCUMENTS = st.recursive(
    st.one_of(NUMBERS, TEXT, ROWS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
@example({"edges": [[1, 2], [2, 3, 0.5]], "leaves": [1, 3], "empty": [[], [[]]]})
@example([[[[1, True], [-0.0, 1e-07]], [[2**64, float("nan")]]], [[1e300, float("inf")]]])
@example({'k"\\\x01\u00e9': ["[1,2]", [False, None]], 1: {}, 2.5: (), None: True})
def test_report_encoder_gives_the_bytes_of_json_dumps(document):
    assert _json_indent2(document) == json.dumps(document, indent=2)


def test_report_encoder_refuses_what_json_dumps_refuses():
    for bad in ({(1, 2): 3}, [[1, {2}]], [object()]):
        with pytest.raises(TypeError) as ours:
            _json_indent2(bad)
        with pytest.raises(TypeError) as oracle:
            json.dumps(bad, indent=2)
        assert str(ours.value) == str(oracle.value)


def test_report_file_is_json_dumps_of_its_own_content(tmp_path):
    spec = write(tmp_path, "agents 4\nedge 4 2 1e-05\nedge 1 2\nedge 3 1 2\nedge 3 4 7\n")
    for command in ("check", "mst", "weave", "fuse"):
        report = tmp_path / f"{command}.json"
        assert invoke([command, spec, "--report", str(report)])[0] == 0
        data = report.read_text()
        assert data == json.dumps(json.loads(data), indent=2) + "\n"


def test_report_written_even_when_check_rejects(tmp_path):
    spec = write(tmp_path, DISCONNECTED)
    report = str(tmp_path / "r.json")
    code, _, _ = invoke(["check", spec, "--report", report])
    assert code == 2
    doc = json.loads(open(report).read())
    assert doc["result"] == {"connected": False, "ok": False}


def test_seed_changes_sampled_reports_but_not_validity(tmp_path):
    spec = write(tmp_path, STAR5)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert invoke(["weave", spec, "--seed", "1", "--branches", "sample:8", "--report", a])[0] == 0
    assert invoke(["weave", spec, "--seed", "2", "--branches", "sample:8", "--report", b])[0] == 0
    da, db = json.loads(open(a).read()), json.loads(open(b).read())
    assert da["result"]["ok"] and db["result"]["ok"]
    assert da["seed"] != db["seed"]


def test_branches_flag_validation(capsys):
    # usage errors exit 1, like every input error: 2 means a disconnected network
    refused_argvs = [
        ["weave", "whatever.spec", "--branches", "sample:-3"],
        ["weave", "whatever.spec", "--branches", "sample:\u0663"],  # Arabic-Indic 3
        ["weave", "whatever.spec", "--branches", "sample:\u00b2"],  # superscript 2
        ["weave", "whatever.spec", "--seed", "abc"],
        ["bogus"],
    ]
    for argv in refused_argvs:
        code, out, err = invoke(argv)  # returned, not raised, and written to err
        assert (code, out) == (1, ""), argv
        assert capsys.readouterr() == ("", "")
        last = err.splitlines()[-1]
        assert err.startswith("usage: eprweave") and last.startswith("eprweave")
        assert ": error: " in last
        if "--branches" in argv:
            assert last.endswith("is not 'all' or 'sample:N' with positive N")


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as done:
        run([flag])
    assert done.value.code == 0
    assert capsys.readouterr().out


def test_too_many_sample_streams_exit_1_before_any_is_built(tmp_path, monkeypatch):
    from eprweave import protocols

    def spy(*args):
        raise AssertionError("a sample generator was built")

    monkeypatch.setattr(protocols, "Random", spy)
    too_many = f"sample:{protocols.SAMPLE_CAP + 1}"
    for command, text in (("ghz3", HUB3), ("weave", STAR5), ("fuse", GROUPS4)):
        code, out, err = invoke([command, write(tmp_path, text), "--branches", too_many])
        assert code == 1 and out == ""
        assert err == (
            f"error: {too_many} asks for 65,537 sampled branches, over the limit of 65,536\n"
        )


@pytest.mark.parametrize("branches", ["all", "sample:2"])
def test_a_negative_seed_exits_1_on_every_network(tmp_path, branches):
    # "all" draws no sample on these networks, a 13-agent path falls back
    # to 1024 sampled branches: the flag is refused alike
    path13 = "agents 13\n" + "".join(f"edge {v} {v + 1}\n" for v in range(1, 13))
    cases = (("ghz3", HUB3), ("weave", STAR5), ("weave", path13), ("fuse", GROUPS4))
    for command, text in cases:
        argv = [command, write(tmp_path, text), "--branches", branches, "--seed", "-1"]
        assert invoke(argv) == (1, "", "error: expected non-negative integer\n")
