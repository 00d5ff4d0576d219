"""The benchmark's seed-1 outputs match the digests it has recorded."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys

from conftest import REPO_ROOT
from resdyn.cli import main

PERFBENCH = REPO_ROOT / "perfbench"


def test_seed1_outputs_match_recorded_digests(tmp_path, monkeypatch):
    # workloads.py puts the checkout's src on sys.path when it imports
    # resdyn; loading it writes no bytecode under perfbench/.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    outputs.mkdir()
    workloads.generate(1, inputs)
    digests = {}
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, inputs, outputs):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(cmd.args) == 0, cmd.name
            data = workloads.output_bytes(cmd, stdout.getvalue().encode())
            digests[cmd.name] = hashlib.sha256(data).hexdigest()
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    assert len(digests) == 7
    assert digests == recorded
