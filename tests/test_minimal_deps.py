"""``repro`` runs on numpy alone: networkx and scipy are test oracles only.

The check runs in a fresh interpreter with both modules blocked in
``sys.modules``, so any import of them — at module level or lazily on the
plan/check path — fails the run.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import sys
sys.modules["networkx"] = sys.modules["scipy"] = None

import repro
from repro.circuits import qasm
from repro.cli import main
from repro.library import qft

path = sys.argv[1]
qasm.dump(qft(3), path)
assert main(["plan", path, "--noises", "1"]) == 0
for backend in ("tdd", "einsum"):
    assert main(["check", path, "--noises", "2", "--backend", backend]) == 0
"""


def test_plan_and_check_without_networkx_or_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "qft3.qasm")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "order method     : tree_decomposition" in proc.stdout
    assert "backend   : tdd" in proc.stdout
    assert "backend   : einsum" in proc.stdout
    assert proc.stdout.count("verdict   : EQUIVALENT") == 2
