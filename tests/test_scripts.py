"""The checked-in files that ``scripts/`` regenerate match what the
scripts regenerate today."""

import importlib.util
import subprocess
import sys

from conftest import NOTIONAL_CSV, REPO_ROOT
from resdyn.core import write_trace_csv

SCRIPTS = REPO_ROOT / "scripts"


def test_faddeeva_table_matches_scipy():
    # Only the diff against scipy's binary proves the table's high-order
    # coefficients: no sample tells a one-ulp change to some of them.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "faddeeva_table.py"), "--check"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("0 of 700 coefficients differ")


def test_notional_fixture_regenerates_byte_for_byte(tmp_path, monkeypatch):
    # The script puts the checkout's src on sys.path when imported.
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = SCRIPTS / "generate_notional_fixture.py"
    spec = importlib.util.spec_from_file_location("generate_notional_fixture",
                                                  path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    trace = script.build_trace()
    script.verify(trace)
    out = tmp_path / "notional.csv"
    write_trace_csv(trace, out)
    assert out.read_bytes() == NOTIONAL_CSV.read_bytes()
