"""End-to-end command-line behavior."""

import copy
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import resdyn
from resdyn import (
    accomplishment,
    auc_resilience,
    effective_impact,
    expectation_recursion,
    read_trace_csv,
    write_trace_csv,
)
from resdyn.cli import main
from resdyn.core import MAX_GRID_POINTS, FunctionalityTrace
from conftest import NOTIONAL_CSV


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def constant_config(m, b, end=50.0, step=0.5):
    return {
        "kind": "constant",
        "f0": 1.0,
        "f_init": 1.0,
        "grid": {"start": 0.0, "end": end, "step": step},
        "params": {"malware_impact": m, "bonware_impact": b},
    }


SDE_PARAMS = {
    "malware_activity": 0.08,
    "bonware_activity": 0.12,
    "malware_effectiveness": 0.34,
    "bonware_effectiveness": 0.71,
}


class TestSolve:
    def test_constant_decay(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", constant_config(0.1, 0.0))
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        trace = read_trace_csv(out)
        assert trace.values == pytest.approx(np.exp(-0.1 * trace.times),
                                             rel=1e-12)

    def test_two_phase_schedule_bottoms_at_switch(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "kind": "piecewise-constant",
            "f0": 1.0,
            "f_init": 1.0,
            "grid": {"start": 0.0, "end": 125.0, "step": 0.5},
            "params": {
                "breakpoints": [0.0, 69.5, 125.0],
                "segments": [
                    {"malware_impact": 0.025, "bonware_impact": 0.005},
                    {"malware_impact": 0.005, "bonware_impact": 0.088},
                ],
            },
        })
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        trace = read_trace_csv(out)
        i = int(np.argmin(trace.values))
        assert trace.values[i] == pytest.approx(0.27, abs=0.01)
        assert trace.times[i] == pytest.approx(69.5, abs=0.5)

    def test_negative_impact_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", constant_config(-0.1, 0.0))
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) != 0
        assert "malware_impact" in capsys.readouterr().err
        assert not out.exists()

    def test_sde_kind_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "sde",
            "grid": {"start": 0.0, "end": 10.0, "step": 1.0},
            "params": dict(SDE_PARAMS, steps=10),
        })
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) != 0
        assert "simulate" in capsys.readouterr().err

    def test_linear_kind(self, tmp_path):
        cfg = write_config(tmp_path, "l.json", {
            "kind": "linear",
            "grid": {"start": 0.0, "end": 40.0, "step": 0.5},
            "params": {
                "bonware_intercept": 0.02, "bonware_slope": 1e-4,
                "malware_intercept": 0.05, "malware_slope": 5e-4,
            },
        })
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert read_trace_csv(out).times.size == 81


def sde_config(n=1, seed=11, steps=125, extra=None):
    params = dict(SDE_PARAMS, steps=steps, dt=1.0, seed=seed, n=n)
    if extra:
        params.update(extra)
    return {"kind": "sde", "f0": 1.0, "f_init": 1.0,
            "grid": {"start": 0.0, "end": float(steps), "step": 1.0},
            "params": params}


class TestSimulate:
    def test_fixed_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", sde_config(seed=77))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", sde_config(seed=77))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2),
                     "--seed", "78"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_no_activity_is_flat(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", sde_config(extra={
            "malware_activity": 0.0, "bonware_activity": 0.0}))
        out = tmp_path / "flat.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        trace = read_trace_csv(out)
        assert np.array_equal(trace.values, np.ones(126))

    def test_ensemble_mean_tracks_expectation(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", sde_config(n=5000, seed=2024))
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# n=5000, master_seed=2024"
        assert lines[1] == "step,mean,stderr"
        means = np.array([float(l.split(",")[1]) for l in lines[2:]])
        m = effective_impact(0.08, 0.34)
        b = effective_impact(0.12, 0.71)
        expected = expectation_recursion(m, b, 1.0, 1.0, steps=125)
        assert np.abs(means - expected.values).max() <= 0.02

    @pytest.mark.parametrize("n", [1, 4])
    def test_negative_steps_rejected(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, "s.json", sde_config(n=n, steps=-3))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "steps must be >= 1, got -3" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def test_notional_fixture(self, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["fit", str(NOTIONAL_CSV), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["switch_time"] == pytest.approx(69.5, abs=0.5)
        assert doc["phase1"]["malware_impact"] == pytest.approx(0.025, abs=0.002)
        assert doc["phase1"]["bonware_impact"] == pytest.approx(0.005, abs=0.002)
        assert doc["phase1"]["malware_effectiveness"] == pytest.approx(
            0.503, abs=0.01
        )

    def test_recovery_only_trace_fails_cleanly(self, tmp_path, capsys):
        times = np.arange(0.0, 60.0)
        trace = FunctionalityTrace(times, 0.3 + 0.01 * times, 1.0)
        csv = tmp_path / "up.csv"
        write_trace_csv(trace, csv)
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv), "--out", str(out)]) != 0
        assert "no switching time" in capsys.readouterr().err
        assert not out.exists()

    def test_mle_flag(self, tmp_path):
        fit_cfg = write_config(tmp_path, "fit.json", {
            "mle_grid": {
                "malware_activity": {"start": 0.05, "stop": 0.15, "step": 0.05},
                "bonware_activity": {"start": 0.05, "stop": 0.15, "step": 0.05},
                "malware_effectiveness": {"start": 0.3, "stop": 0.5, "step": 0.1},
                "bonware_effectiveness": {"start": 0.3, "stop": 0.5, "step": 0.1},
            },
        })
        out = tmp_path / "fit_out.json"
        assert main(["fit", str(NOTIONAL_CSV), "--config", fit_cfg,
                     "--out", str(out), "--mle"]) == 0
        doc = json.loads(out.read_text())
        assert "mle" in doc
        assert doc["mle"]["n_cells"] == 3 * 3 * 3 * 3
        assert "log_likelihood" in doc["mle"]

    def test_mle_without_grid_fails(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", str(NOTIONAL_CSV), "--out", str(out),
                     "--mle"]) != 0
        assert "mle_grid" in capsys.readouterr().err


class TestMetrics:
    def run_metrics(self, tmp_path, capsys, values, f0=1.0):
        times = np.arange(0.0, float(len(values)))
        trace = FunctionalityTrace(times, np.asarray(values, float), f0)
        csv = tmp_path / "m.csv"
        write_trace_csv(trace, csv)
        assert main(["metrics", str(csv)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_flat_at_normal(self, tmp_path, capsys):
        doc = self.run_metrics(tmp_path, capsys, [1.0] * 11)
        assert doc["auc_resilience"] == pytest.approx(1.0)
        assert doc["accomplishment"] == pytest.approx(10.0)

    def test_flat_at_zero(self, tmp_path, capsys):
        doc = self.run_metrics(tmp_path, capsys, [0.0] * 11)
        assert doc["auc_resilience"] == pytest.approx(0.0)

    def test_notional_matches_library(self, capsys, notional_trace):
        assert main(["metrics", str(NOTIONAL_CSV)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accomplishment"] == pytest.approx(
            accomplishment(notional_trace), abs=1e-6
        )
        assert doc["auc_resilience"] == pytest.approx(
            auc_resilience(notional_trace), abs=1e-6
        )

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.csv")]) != 0
        assert capsys.readouterr().err


class TestConfigValidation:
    def test_bad_grid_step(self, tmp_path, capsys):
        cfg = constant_config(0.1, 0.0)
        cfg["grid"]["step"] = -1.0
        path = write_config(tmp_path, "g.json", cfg)
        assert main(["solve", "--config", path,
                     "--out", str(tmp_path / "t.csv")]) != 0
        assert "grid.step" in capsys.readouterr().err

    # Grids of 1e300 points, of one point over the limit, and of an
    # infinite or undefined span are refused before anything is allocated.
    @pytest.mark.parametrize("field, value, message", [
        ("end", 1e300, "grid.end/grid.step: grid of more than"),
        ("end", float(MAX_GRID_POINTS), "grid.end/grid.step: grid of more than"),
        ("end", math.inf, "grid.end/grid.step: grid of more than"),
        ("start", -math.inf, "grid.end/grid.step: grid of more than"),
        ("start", math.nan, "grid.end: must exceed grid.start"),
        ("step", math.nan, "grid.step: must be > 0"),
    ])
    def test_unbounded_grid_rejected(self, tmp_path, capsys, field, value,
                                     message):
        cfg = constant_config(0.1, 0.0, step=1.0)
        cfg["grid"][field] = value
        path = write_config(tmp_path, "g.json", cfg)
        out = tmp_path / "t.csv"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stop", [1e300, float(MAX_GRID_POINTS)])
    def test_unbounded_mle_grid_rejected(self, tmp_path, capsys, stop):
        doc = copy.deepcopy(FIT_MLE_CONFIG)
        doc["mle_grid"]["malware_activity"] = {"start": 0.0, "stop": stop,
                                               "step": 1.0}
        path = write_config(tmp_path, "fit.json", doc)
        out = tmp_path / "fit_out.json"
        assert main(["fit", str(NOTIONAL_CSV), "--config", path,
                     "--out", str(out), "--mle"]) == 2
        assert ("mle_grid.malware_activity: grid of more than "
                f"{MAX_GRID_POINTS} points") in capsys.readouterr().err
        assert not out.exists()

    def test_mle_cell_count_rejected(self, tmp_path, capsys, monkeypatch):
        doc = copy.deepcopy(FIT_MLE_CONFIG)
        for name in ("malware_activity", "bonware_activity"):
            doc["mle_grid"][name] = {"start": 0.0, "stop": 0.99, "step": 0.01}
        for name in ("malware_effectiveness", "bonware_effectiveness"):
            doc["mle_grid"][name] = {"start": 0.005, "stop": 0.995,
                                     "step": 0.01}
        path = write_config(tmp_path, "fit.json", doc)
        out = tmp_path / "fit_out.json"

        def refuse(axis):
            raise AssertionError("axis built before the cell count was checked")

        monkeypatch.setattr(resdyn.GridAxis, "values", refuse)
        assert main(["fit", str(NOTIONAL_CSV), "--config", path,
                     "--out", str(out), "--mle"]) == 2
        assert (f"error: mle_grid: grid of more than {MAX_GRID_POINTS} cells: "
                "100 x 100 x 100 x 100") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_field(self, tmp_path, capsys):
        cfg = constant_config(0.1, 0.0)
        del cfg["params"]["bonware_impact"]
        path = write_config(tmp_path, "g.json", cfg)
        assert main(["solve", "--config", path,
                     "--out", str(tmp_path / "t.csv")]) != 0
        assert "bonware_impact" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, capsys):
        cfg = constant_config(0.1, 0.0)
        cfg["kind"] = "quadratic"
        path = write_config(tmp_path, "g.json", cfg)
        assert main(["solve", "--config", path,
                     "--out", str(tmp_path / "t.csv")]) != 0
        assert "kind" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "t.csv")]) != 0
        assert "JSON" in capsys.readouterr().err


ABSENT = object()


def replaced(doc, path, value):
    """Deep copy of ``doc`` with the field at ``path`` set to ``value``
    (or deleted, for ``ABSENT``)."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is ABSENT:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def field_paths(doc, prefix=()):
    """Paths of every dict key and list element nested in ``doc``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def command_argv(tmp_path, command, doc):
    """Argument list running ``command`` on config ``doc``, out to ``out``."""
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = str(tmp_path / "out")
    if command == "fit":
        return ["fit", str(NOTIONAL_CSV), "--config", cfg, "--mle",
                "--out", out]
    return [command, "--config", cfg, "--out", out]


@pytest.mark.parametrize("command, config, path, error", [
    ("solve", constant_config(0.1, 0.02), ("params", "malware_impact"),
     "params.malware_impact: missing required field"),
    ("solve", constant_config(0.1, 0.02), ("grid", "end"),
     "grid.end: missing required field"),
    ("solve", constant_config(0.1, 0.02), ("f0",), None),
    ("simulate", sde_config(), ("params", "steps"),
     "params.steps: missing required field"),
], ids=["malware_impact", "grid.end", "f0", "steps"])
def test_null_field_counts_as_absent(tmp_path, capsys, command, config, path,
                                     error):
    def run(doc):
        code = main(command_argv(tmp_path, command, doc))
        out, written = tmp_path / "out", None
        if out.exists():
            written = out.read_bytes()
            out.unlink()
        return code, capsys.readouterr().err, written

    with_null = run(replaced(config, path, None))
    assert with_null == run(replaced(config, path, ABSENT))
    if error is None:
        assert with_null[0] == 0
    else:
        assert with_null[0] == 2
        assert error in with_null[1]


FIT_MLE_CONFIG = {
    "decay_asymptote_fraction": 0.6,
    "recovery_level_fraction": 0.9,
    "recovery_asymptote": 0.95,
    "activity_count_end": 100.0,
    "recovery_fit_end": 125.0,
    "min_window_policy": "midpoint",
    "mle_grid": {
        name: {"start": 0.1, "stop": 0.2, "step": 0.1}
        for name in ("malware_activity", "bonware_activity",
                     "malware_effectiveness", "bonware_effectiveness")
    },
}

BOUNDARY_CONFIGS = [
    ("solve", {
        "kind": "piecewise-constant", "f0": 1.0, "f_init": 1.0,
        "grid": {"start": 0.0, "end": 10.0, "step": 1.0},
        "params": {
            "breakpoints": [0.0, 4.0, 10.0],
            "segments": [{"malware_impact": 0.1, "bonware_impact": 0.01},
                         {"malware_impact": 0.01, "bonware_impact": 0.1}],
        },
    }),
    ("simulate", sde_config(n=2, steps=5, extra={
        "malware_onset": 1.0, "bonware_onset": 0.0,
        "interaction_cutoff": 4.0})),
    ("fit", FIT_MLE_CONFIG),
]

BOUNDARY_FIELDS = [
    (command, doc, path)
    for command, doc in BOUNDARY_CONFIGS
    for path in field_paths(doc)
]

# Non-numbers only, so no generated config can ask for a huge grid or
# ensemble.
NON_NUMBERS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=2),
)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(BOUNDARY_FIELDS), value=NON_NUMBERS)
def test_config_boundary_never_raises(tmp_path, target, value):
    command, doc, path = target
    argv = command_argv(tmp_path, command, replaced(doc, path, value))
    assert main(argv) in (0, 2)


@pytest.mark.parametrize("command, config", [
    ("solve", constant_config(0.1, 0.02)),
    ("simulate", sde_config(n=1, steps=10)),
    ("simulate", sde_config(n=3, steps=10)),
    ("fit", FIT_MLE_CONFIG),
], ids=["solve", "simulate", "ensemble", "fit"])
def test_failed_write_leaves_existing_output(tmp_path, monkeypatch, command,
                                             config):
    argv = command_argv(tmp_path, command, config)
    out = tmp_path / "out"
    out.write_bytes(b"previous output\n")
    before = sorted(tmp_path.iterdir())

    def fail(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(os, "replace", fail)
    assert main(argv) == 1
    assert out.read_bytes() == b"previous output\n"
    assert sorted(tmp_path.iterdir()) == before


def test_output_mode_follows_umask(tmp_path):
    argv = command_argv(tmp_path, "solve", constant_config(0.1, 0.02))
    old = os.umask(0o027)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == 0o640


def test_output_through_symlink_keeps_link(tmp_path):
    # Like /dev/stdout, a symlinked output is written through the link,
    # which stays a link.
    argv = command_argv(tmp_path, "solve", constant_config(0.1, 0.02))
    target = tmp_path / "target.csv"
    target.write_bytes(b"previous output\n")
    (tmp_path / "out").symlink_to(target)
    assert main(argv) == 0
    assert (tmp_path / "out").is_symlink()
    assert target.read_bytes().startswith(b"# f0=1\ntime,functionality\n0,1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "out", "target.csv"]


def test_stale_temporary_file_does_not_block_output(tmp_path):
    # A run killed before its clean-up leaves its temporary file behind; a
    # later run with the same process id must still write its output.
    argv = command_argv(tmp_path, "solve", constant_config(0.1, 0.02))
    stale = tmp_path / f"out.{os.getpid()}.tmp"
    stale.write_bytes(b"partial")
    assert main(argv) == 0
    assert (tmp_path / "out").read_bytes().startswith(b"# f0=1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "out", stale.name]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_pipe_is_streamed(tmp_path):
    # A pipe (like /dev/stdout) cannot be replaced by a new file; the
    # output must go through it and leave it in place.
    argv = command_argv(tmp_path, "solve", constant_config(0.1, 0.02))
    pipe = tmp_path / "out"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(pipe.read_bytes()), daemon=True
    )
    reader.start()
    assert main(argv) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received[0].startswith(b"# f0=1\ntime,functionality\n0,1\n")
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]


def test_importing_cli_loads_no_scipy():
    # scipy is needed only by the linear solver, which imports it lazily.
    src = str(Path(resdyn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, resdyn.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
