"""What each use loads: topology commands load no quantum layer, the
tableau path and its sampled runs load no numpy, the dense path does.

Each check runs in a fresh interpreter, since this one has every layer and
numpy loaded already (the other tests import them).
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import eprweave

SPECS = {
    "tree": "agents 6\nedge 1 2\nedge 2 3\nedge 2 4\nedge 4 5\nedge 4 6\nedge 3 5\n",
    "weighted": "agents 4\nedge 1 2 3\nedge 2 3 1\nedge 3 4 2\nedge 1 4 1\n",
    "hub": "agents 3\nedge 1 2\nedge 1 3\n",
    "groups": "agents 6\nhyper 1 2 3\nhyper 3 4\nhyper 4 5 6\nhyper 2 5\n",
    "split": "agents 5\nedge 1 2\nedge 2 3\nedge 4 5\n",
    "malformed": "agents 3\nedge 1 x\n",
    # over 2^20 branches under either step-2 circuit: "all" falls back to sampling
    "path13": "agents 13\n" + "".join(f"edge {v} {v + 1}\n" for v in range(1, 13)),
}

#: A ``sys.meta_path`` finder, installed before eprweave is imported, that
#: makes every import of numpy fail.
REFUSE_NUMPY = """\
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"importing {name} is refused")

sys.meta_path.insert(0, RefuseNumpy())
"""

#: A ``sys.meta_path`` finder that makes every import of the quantum layers
#: and of numpy fail.
REFUSE_QUANTUM = """\
import sys

REFUSED = ("eprweave.gates", "eprweave.locc", "eprweave.stabilizer", "eprweave.protocols")

class RefuseQuantum:
    def find_spec(self, name, path=None, target=None):
        if name in REFUSED or name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"importing {name} is refused")

sys.meta_path.insert(0, RefuseQuantum())
"""

PRELUDE = """\
import io
import sys

import eprweave
import eprweave.cli

def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = eprweave.cli.run(list(argv), out=out, err=err)
    assert code == 0, (argv, code, err.getvalue())
    return out.getvalue()

assert "numpy" not in sys.modules, "importing eprweave.cli loaded numpy"
"""


def run_fresh(tmp_path, body: str, head: str = "") -> None:
    for name, text in SPECS.items():
        (tmp_path / f"{name}.spec").write_text(text)
    src = str(Path(eprweave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", head + PRELUDE + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_tableau_runs_and_topology_commands_leave_numpy_unloaded(tmp_path):
    run_fresh(
        tmp_path,
        """
        cli("check", "tree.spec")
        cli("check", "groups.spec")
        cli("tree", "tree.spec")
        cli("mst", "weighted.spec")
        assert "branches explored: 4 (all)" in cli("ghz3", "hub.spec")
        for step2 in ("symmetric", "zeilinger"):
            cli("weave", "tree.spec", "--branches", "all", "--step2", step2)
        cli("fuse", "groups.spec", "--branches", "all")
        assert "numpy" not in sys.modules, "a tableau run loaded numpy"
        """,
    )


def test_topology_commands_run_with_the_quantum_layers_refused(tmp_path):
    run_fresh(
        tmp_path,
        """
        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "eprweave")

        TOPOLOGY_ONLY = ["eprweave", "eprweave.cli", "eprweave.errors", "eprweave.topology"]
        assert loaded() == TOPOLOGY_ONLY, loaded()

        def refused(argv, code):
            out, err = io.StringIO(), io.StringIO()
            assert eprweave.cli.run(argv, out=out, err=err) == code, err.getvalue()
            return err.getvalue()

        assert cli("check", "tree.spec").endswith("connected\\nok\\n")
        assert cli("check", "groups.spec").endswith("connected\\nok\\n")
        assert "EPR graph is disconnected: no path joins agents 1 and 4" in refused(
            ["check", "split.spec"], 2
        )
        assert "agents 1 and 4" in refused(["tree", "split.spec"], 2)
        assert "agents 1 and 4" in refused(["mst", "split.spec"], 2)
        cli("tree", "tree.spec", "--report", "tree.json")
        cli("mst", "weighted.spec", "--verbose")
        assert refused(["check", "malformed.spec"], 1).startswith("error: line 2: ")

        from eprweave.topology import EntangledHypergraph, merge_schedule

        h = EntangledHypergraph(6, [(1, 2, 3), (3, 4), (4, 5, 6), (2, 5)])
        # stored largest first: (1 2 3), (4 5 6), (3 4), (2 5)
        assert [step.index for step in merge_schedule(h)] == [2, 1]
        assert loaded() == TOPOLOGY_ONLY, loaded()
        """,
        head=REFUSE_QUANTUM,
    )


def test_protocol_commands_load_the_quantum_layers_on_first_call(tmp_path):
    run_fresh(
        tmp_path,
        """
        QUANTUM = {"eprweave.gates", "eprweave.locc", "eprweave.protocols", "eprweave.stabilizer"}
        assert not QUANTUM & set(sys.modules)
        cli("weave", "tree.spec", "--branches", "all")
        assert QUANTUM <= set(sys.modules)
        """,
    )


def test_the_lazy_namespace_binds_every_public_name(tmp_path):
    run_fresh(
        tmp_path,
        """
        assert "eprweave.locc" not in sys.modules and "locc" not in vars(eprweave)
        assert eprweave.locc is sys.modules["eprweave.locc"]  # imported by the lookup
        assert eprweave.Tableau is sys.modules["eprweave.stabilizer"].Tableau
        assert set(eprweave.__all__) <= set(dir(eprweave))
        assert len(eprweave.__all__) == 41 and "__version__" in eprweave.__all__
        namespace = {}
        exec("from eprweave import *", namespace)
        for name in eprweave.__all__:
            assert namespace[name] is getattr(eprweave, name), name
        try:
            eprweave.no_such_name
        except AttributeError as exc:
            assert str(exc) == "module 'eprweave' has no attribute 'no_such_name'", exc
        else:
            raise AssertionError("an unknown name resolved")
        """,
    )


def test_a_weave_after_a_check_reports_what_a_cold_weave_reports(tmp_path):
    def weave(first=""):
        argv = '"weave", "tree.spec", "--verbose", "--report", "weave.json"'
        run_fresh(tmp_path, f'{first}open("weave.out", "w").write(cli({argv}))\n')
        return [(tmp_path / f"weave.{kind}").read_text() for kind in ("json", "out")]

    assert weave('cli("check", "tree.spec")\n') == weave()


def test_every_public_name_resolves_without_numpy(tmp_path):
    run_fresh(
        tmp_path,
        """
        for name in eprweave.__all__:
            getattr(eprweave, name)
        assert "numpy" not in sys.modules, "a public name loaded numpy"
        """,
    )


def test_every_cli_command_runs_with_numpy_refused(tmp_path):
    run_fresh(
        tmp_path,
        """
        cli("check", "tree.spec")
        cli("check", "groups.spec")
        cli("tree", "tree.spec")
        cli("mst", "weighted.spec")
        for branches in ("all", "sample:3"):
            out = cli("ghz3", "hub.spec", "--branches", branches, "--seed", "5")
            assert f"({branches})" in out, out
        for step2 in ("symmetric", "zeilinger"):
            for branches in ("all", "sample:1", "sample:16"):
                out = cli("weave", "tree.spec", "--branches", branches, "--step2", step2)
                assert f"({branches})" in out, out
            out = cli("weave", "path13.spec", "--branches", "all", "--step2", step2)
            assert "branches explored: " in out and "(sample:1024)" in out, out
        for branches in ("all", "sample:8"):
            seed = str(2**97 + 5)
            out = cli("fuse", "groups.spec", "--branches", branches, "--seed", seed)
            assert f"({branches})" in out, out

        err = io.StringIO()
        argv = ["weave", "tree.spec", "--seed", "-1", "--branches", "sample:2"]
        assert eprweave.cli.run(argv, out=io.StringIO(), err=err) == 1
        assert err.getvalue() == "error: expected non-negative integer\\n", err.getvalue()
        assert "numpy" not in sys.modules
        """,
        head=REFUSE_NUMPY,
    )


def test_every_kind_of_chooser_measures_with_numpy_refused(tmp_path):
    run_fresh(
        tmp_path,
        """
        from eprweave import Fork, NetworkState, replay_transcript
        from random import Random

        choosers = [1, lambda p0, p1: 1, Fork((1,)), Fork(rng=Random(0))]
        for chooser in choosers:
            net = NetworkState(2, chooser)
            qa, qb = net.distribute_epr(1, 2)
            a = net.local_measure(1, qa, label="a")
            b = net.local_measure(2, qb, label="b")
            assert a.probability == 0.5 and (b.bit, b.probability) == (a.bit, 1.0)
            replayed = replay_transcript(2, net.transcript)
            assert replayed.transcript == net.transcript
        assert "numpy" not in sys.modules
        """,
        head=REFUSE_NUMPY,
    )


DENSE_USES = {
    "statevec": """
        from eprweave.statevec import ghz_state
        assert ghz_state((1, 2, 3)).qubits == (1, 2, 3)
        """,
    "to_statevector": """
        from eprweave import Tableau
        amps = Tableau.ghz((1, 2, 3)).to_statevector().amps
        assert abs(abs(amps[0]) ** 2 - 0.5) < 1e-12 and abs(abs(amps[7]) ** 2 - 0.5) < 1e-12
        """,
}


@pytest.mark.parametrize("use", sorted(DENSE_USES))
def test_dense_uses_work_and_load_numpy(tmp_path, use):
    run_fresh(
        tmp_path,
        DENSE_USES[use]
        + """
        assert "numpy" in sys.modules
        """,
    )
