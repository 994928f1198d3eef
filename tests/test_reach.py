"""``scripts/reach.py``: the reachability trace follows each process, and the
report lists what no trace reached."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "reach.py")
ACTIVATIONS = os.path.join(REPO_ROOT, "src", "repro", "nn", "ops", "activations.py")


def _trace(trace_dir, code):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    command = [sys.executable, SCRIPT, "run", "--trace-dir", str(trace_dir), "--"]
    return subprocess.run(command + [sys.executable, "-c", code], env=env, timeout=120)


def _unreached(trace_dir, path):
    report = subprocess.run(
        [sys.executable, SCRIPT, "report", "--trace-dir", str(trace_dir), path],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    rows = report.stdout.splitlines()
    assert rows[-1].endswith("ran in no trace")
    return {row.split()[1] for row in rows[:-1]}


def test_report_lists_functions_the_trace_did_not_reach(tmp_path):
    assert _trace(tmp_path, "from repro.nn import ops; ops.relu([1.0, -1.0])").returncode == 0
    unreached = _unreached(tmp_path, ACTIVATIONS)
    assert "sigmoid" in unreached
    assert "relu" not in unreached


@pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no fork")
def test_forked_child_records_into_its_own_file(tmp_path):
    code = (
        "import os\n"
        "from repro.nn import ops\n"
        "ops.relu([1.0])\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    ops.sigmoid([0.0])\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "raise SystemExit(3)\n"
    )
    assert _trace(tmp_path, code).returncode == 3  # the command's own status
    assert len(list(tmp_path.glob("reach-*.tsv"))) == 2
    unreached = _unreached(tmp_path, ACTIVATIONS)
    assert unreached == {"tanh"}
