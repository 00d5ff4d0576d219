"""End-to-end command-line behavior."""

import ast
import copy
import gc
import hashlib
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import resdyn.cli
from resdyn import (
    LinearImpacts,
    PiecewiseLinearSchedule,
    accomplishment,
    auc_resilience,
    effective_impact,
    expectation_recursion,
    read_trace_csv,
    solve_piecewise_linear,
    write_trace_csv,
)
from resdyn.cli import main
from resdyn.config import ConfigError, _build_grid
from resdyn.core import MAX_GRID_POINTS, FunctionalityTrace
from conftest import NOTIONAL_CSV, REPO_ROOT


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


LINEAR_CONFIG = {
    "kind": "linear",
    "grid": {"start": 0.0, "end": 40.0, "step": 0.5},
    "params": {
        "bonware_intercept": 0.02, "bonware_slope": 1e-4,
        "malware_intercept": 0.05, "malware_slope": 5e-4,
    },
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

    def test_recovery_reaches_a_large_f0_exactly(self, tmp_path):
        # Here f0 * b / (m + b), multiplied first, rounds one ulp above f0,
        # which the solver would refuse.
        config = dict(constant_config(0.0, 0.7, end=100.0, step=1.0),
                      f0=1e6, f_init=5e5)
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert read_trace_csv(out).values.max() == 1e6

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

    def test_overflowing_rates_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "big.json", constant_config(1e308, 1e308))
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: params: total_impact = malware_impact + bonware_impact "
            "must be finite, got inf\n")
        assert not out.exists()

    def test_solver_error_keeps_library_text(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.json", {
            "kind": "piecewise-constant",
            "grid": {"start": 0.0, "end": 12.0, "step": 1.0},
            "params": {
                "breakpoints": [0.0, 10.0],
                "segments": [{"malware_impact": 0.1, "bonware_impact": 0.0}],
            },
        })
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: grid [0.0, 12.0] extends outside the schedule window "
            "[0.0, 10.0]\n")
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
        cfg = write_config(tmp_path, "l.json", LINEAR_CONFIG)
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert read_trace_csv(out).times.size == 81

    def test_piecewise_linear_kind_matches_library(self, tmp_path):
        segments = [{**LINEAR_CONFIG["params"]},
                    {"bonware_intercept": 0.08, "bonware_slope": 2e-4,
                     "malware_intercept": 0.01, "malware_slope": 0.0}]
        cfg = write_config(tmp_path, "pl.json", {
            "kind": "piecewise-linear", "f_init": 0.9,
            "grid": {"start": 0.0, "end": 40.0, "step": 0.5},
            "params": {"breakpoints": [0.0, 25.0, 40.0], "segments": segments},
        })
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        schedule = PiecewiseLinearSchedule(
            np.array([0.0, 25.0, 40.0]),
            tuple(LinearImpacts(**seg) for seg in segments))
        expected = solve_piecewise_linear(schedule, 0.9, 1.0,
                                          np.arange(81) * 0.5)
        trace = read_trace_csv(out)
        assert np.array_equal(trace.times, expected.times)
        assert np.array_equal(trace.values, expected.values)


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

    def test_non_sde_kind_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", constant_config(0.1, 0.0))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: kind: simulate requires an 'sde' scenario, "
            "got 'constant'\n")
        assert not out.exists()

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

    def test_ensemble_recovering_to_f0_below_one(self, tmp_path):
        # The mean of 100 realizations recovered to 0.7 sums to above 0.7.
        config = sde_config(n=100, seed=1, steps=200, extra={
            "malware_activity": 0.05, "bonware_activity": 0.5,
            "malware_effectiveness": 0.5, "bonware_effectiveness": 0.9,
            "interaction_cutoff": 50.0})
        config.update(f0=0.7, f_init=0.7)
        cfg = write_config(tmp_path, "e.json", config)
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert max(float(mean) for _, mean, _ in rows) == 0.7
        assert rows[-1][1:] == ["0.69999999999999996", "0"]

    @pytest.mark.parametrize("n", [1, 4])
    def test_negative_steps_rejected(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, "s.json", sde_config(n=n, steps=-3))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: params: steps must be >= 1, got -3\n")
        assert not out.exists()

    def test_ensemble_size_capped(self, tmp_path, capsys):
        # 10**6 realizations of 10**4 steps would need an 80 GB stack, and
        # one realization of 10**22 steps could not be allocated at all.
        # Every refusal names its field in the params section.
        for n, steps, extra, error in [
            (10**6, 10**4, None, f"error: params: n must keep n * (steps + 1) "
                                 f"<= {MAX_GRID_POINTS}, got 1000000 * 10001"),
            (1, 10**22, None, f"error: params: steps must be <= "
                              f"{MAX_GRID_POINTS - 1}, got "
                              "10000000000000000000000"),
            (0, 10, None, "error: params: n must be >= 1, got 0"),
            (1, 0, None, "error: params: steps must be >= 1, got 0"),
            (1, 10, {"dt": -1}, "error: params: dt must be positive and "
                                "finite, got -1.0"),
            (4, 10, {"dt": 0}, "error: params: dt must be positive and "
                               "finite, got 0.0"),
        ]:
            cfg = write_config(tmp_path, "s.json",
                               sde_config(n=n, steps=steps, extra=extra))
            out = tmp_path / "out.csv"
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert capsys.readouterr().err == error + "\n"
            assert peak < 1 << 20
            assert not out.exists()

    def test_overflowing_horizon_names_dt(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json",
                           sde_config(steps=10, extra={"dt": 1e308}))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: params: dt must keep the horizon dt * steps finite, "
            "got 1e+308 * 10\n")
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
        assert main(["fit", str(csv), "--out", str(out)]) == 2
        # The command names the trace it read; the library's text follows.
        assert capsys.readouterr().err == (
            f"error: {csv}: the minimum sits on the trace boundary; "
            "no switching time exists\n")
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

    def test_min_window_policy_key_ignored(self, tmp_path):
        # The key named a choice with one value; configs that still carry
        # it fit exactly as those without it.
        outputs = []
        for doc in (FIT_MLE_CONFIG,
                    {k: v for k, v in FIT_MLE_CONFIG.items()
                     if k != "min_window_policy"}):
            cfg = write_config(tmp_path, "fit.json", doc)
            out = tmp_path / f"fit{len(outputs)}.json"
            assert main(["fit", str(NOTIONAL_CSV), "--config", cfg,
                         "--out", str(out), "--mle"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_infeasible_mle_grid_refused(self, tmp_path, capsys):
        # No cell with a malware effectiveness of 0.01 or 0.02 can make
        # the trace's largest drops, so every cell scores -inf.
        doc = copy.deepcopy(FIT_MLE_CONFIG)
        doc["mle_grid"]["malware_effectiveness"] = {
            "start": 0.01, "stop": 0.02, "step": 0.01}
        cfg = write_config(tmp_path, "fit.json", doc)
        out = tmp_path / "fit_out.json"
        assert main(["fit", str(NOTIONAL_CSV), "--config", cfg,
                     "--out", str(out), "--mle"]) == 2
        assert capsys.readouterr().err == (
            "error: none of the 16 grid cells can produce the trace\n")
        assert not out.exists()

    def test_mle_refuses_uneven_spacing(self, tmp_path, capsys):
        # The notional trace with its sample at t = 30 moved to t = 30.5:
        # the two-phase fit still runs, the likelihood cannot.
        notional = read_trace_csv(NOTIONAL_CSV)
        times = notional.times.copy()
        times[30] += 0.5
        csv = tmp_path / "uneven.csv"
        write_trace_csv(FunctionalityTrace(times, notional.values, 1.0), csv)
        cfg = write_config(tmp_path, "fit.json", FIT_MLE_CONFIG)
        assert main(["fit", str(csv), "--config", cfg,
                     "--out", str(tmp_path / "plain.json")]) == 0
        out = tmp_path / "fit_out.json"
        assert main(["fit", str(csv), "--config", cfg, "--out", str(out),
                     "--mle"]) == 2
        assert capsys.readouterr().err == (
            f"error: {csv}: sample spacing must be uniform, one simulator "
            "step per transition, but it runs from 0.5 to 1.5\n")
        assert not out.exists()

    def test_mle_without_grid_fails(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", str(NOTIONAL_CSV), "--out", str(out),
                     "--mle"]) != 0
        assert "mle_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("mle", [[], ["--mle"]], ids=["plain", "mle"])
    def test_empty_config_path_fails_as_solve_does(self, tmp_path, capsys,
                                                   mle):
        # An empty --config names no file: fit exits 1 with the OS error,
        # as solve does, instead of fitting with the defaults.
        out = tmp_path / "fit.json"
        assert main(["solve", "--config", "", "--out", str(out)]) == 1
        refusal = capsys.readouterr().err
        assert refusal == "error: [Errno 2] No such file or directory: ''\n"
        assert main(["fit", str(NOTIONAL_CSV), "--config", "",
                     "--out", str(out), *mle]) == 1
        assert capsys.readouterr().err == refusal
        assert not out.exists()

    def test_count_end_before_switch_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {"activity_count_end": 12.0})
        out = tmp_path / "fit.json.out"
        assert main(["fit", str(NOTIONAL_CSV), "--config", cfg,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: activity_count_end 12.0 must exceed switch_time 69.5\n")
        assert not out.exists()


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


TRACE_HEAD = b"# f0=1\ntime,functionality\n"


def file_argv(command, path, out):
    """Argument list running ``command`` on input file ``path``: the
    trace of metrics, or the config of solve or fit --mle."""
    if command == "metrics":
        return ["metrics", str(path)]
    if command == "fit":
        return ["fit", str(NOTIONAL_CSV), "--config", str(path), "--mle",
                "--out", str(out)]
    return [command, "--config", str(path), "--out", str(out)]


@pytest.mark.parametrize("command, contents, reason", [
    ("metrics", b"x\x8b", "not UTF-8 text (invalid start byte)"),
    ("solve", b'{"kind": "\x8b"}', "not UTF-8 text (invalid start byte)"),
    ("fit", b'{"mle_grid": "\x8b"}', "not UTF-8 text (invalid start byte)"),
    ("metrics", TRACE_HEAD + b"0,0.5\n1,1.5\n",
     "values must lie in [0, f0], got 1.5"),
    ("metrics", TRACE_HEAD + b"0,0.5\n",
     "times must be one-dimensional with at least two points"),
    ("metrics", b"# f0=1\n\n", "missing 'time,functionality' header"),
    ("metrics", TRACE_HEAD + b"1,0.5\n0,0.5\n",
     "times must be finite and strictly increasing"),
    ("metrics", b"# f0=0\ntime,functionality\n0,0\n1,0\n",
     "f0 must be positive and finite, got 0.0"),
    ("metrics", TRACE_HEAD + b"-1e308,0.5\n1e308,0.5\n",
     "times must be of finite span (last - first)"),
    # A NaN is reported wherever it sits, and before an infinity.
    ("metrics", TRACE_HEAD + b"0,nan\n1,0.5\n2,0.5\n",
     "values must lie in [0, f0], got nan"),
    ("metrics", TRACE_HEAD + b"0,0.5\n1,nan\n2,0.5\n",
     "values must lie in [0, f0], got nan"),
    ("metrics", TRACE_HEAD + b"0,0.5\n1,0.5\n2,nan\n",
     "values must lie in [0, f0], got nan"),
    ("metrics", TRACE_HEAD + b"0,-inf\n1,nan\n2,inf\n",
     "values must lie in [0, f0], got nan"),
    ("metrics", TRACE_HEAD + b"0,0.5\n1,-inf\n2,0.5\n",
     "values must lie in [0, f0], got -inf"),
    ("metrics", TRACE_HEAD + b"0,0.5\n1,inf\n2,0.5\n",
     "values must lie in [0, f0], got inf"),
    ("metrics", TRACE_HEAD + b"0,0.5\n1,0.5\ninf,0.5\n",
     "times must be finite and strictly increasing"),
    ("metrics", TRACE_HEAD + b"-inf,0.5\n1,0.5\n2,0.5\n",
     "times must be finite and strictly increasing"),
    ("metrics", TRACE_HEAD + b"0,0.5\nnan,0.5\n2,0.5\n",
     "times must be finite and strictly increasing"),
    ("metrics", b"# f0=1e300\ntime,functionality\n0,1e300\n1e10,1e300\n",
     "accomplishment must be finite, got inf"),
    ("metrics", b"# f0=0.5\ntime,functionality\n0,0.5\n5e-324,0.5\n",
     "f0 * duration must be positive and finite, got 0.0"),
    ("solve", b"[]", "top level must be a JSON object"),
    ("solve", b'{"kind": ', "not valid JSON (Expecting value: line 1 "
                            "column 10 (char 9))"),
    ("fit", b"[" * 100000, "not valid JSON (maximum recursion depth "
                           "exceeded while decoding a JSON array from a "
                           "unicode string)"),
    ("solve", b'{"f0": 1' + b"0" * 5000 + b"}",
     "not valid JSON (Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5001 digits; use sys.set_int_max_str_digits() "
     "to increase the limit)"),
], ids=["trace-not-utf8", "solve-config-not-utf8", "fit-config-not-utf8",
        "value-above-f0", "one-sample", "no-header", "times-out-of-order", "zero-f0",
        "span-overflows", "nan-first", "nan-inside", "nan-last",
        "nan-among-infinities", "minus-inf-value", "inf-value", "inf-time",
        "minus-inf-time", "nan-time", "accomplishment-overflows", "duration-underflows",
        "config-array", "config-invalid-json", "config-nested-too-deep",
        "config-integer-too-long"])
def test_bad_input_file_names_it_once(tmp_path, capsys, command, contents,
                                      reason):
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_bytes(contents)
    assert main(file_argv(command, path, out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {reason}\n"
    assert captured.out == ""
    assert not out.exists()


class TestConfigValidation:
    def test_bad_grid_step(self, tmp_path, capsys):
        cfg = constant_config(0.1, 0.0)
        cfg["grid"]["step"] = -1.0
        path = write_config(tmp_path, "g.json", cfg)
        assert main(["solve", "--config", path,
                     "--out", str(tmp_path / "t.csv")]) != 0
        assert "grid.step" in capsys.readouterr().err

    # Grids of 1e300 points, of one point over the limit, and of an
    # infinite or undefined span are refused before anything is allocated,
    # as are spans that are not a whole number of steps, or none at all,
    # and ends that are not past the start.
    @pytest.mark.parametrize("field, value, message", [
        ("end", 1e300, "grid.end/grid.step: grid of more than"),
        ("end", float(MAX_GRID_POINTS), "grid.end/grid.step: grid of more than"),
        ("end", math.inf, "grid.end/grid.step: grid of more than"),
        ("start", -math.inf, "grid.start: must be finite, got -inf"),
        ("start", math.nan, "grid.start: must be finite, got nan"),
        ("step", math.nan, "grid.step: must be > 0"),
        ("end", 10.5, "grid.step: span (end - start) must be a whole number "
                      "of steps"),
        ("end", 1e-10, "grid.step: grid needs at least two samples"),
        ("end", 0.0, "grid.end: must exceed grid.start, got 0.0"),
        ("end", -1.0, "grid.end: must exceed grid.start, got -1.0"),
        ("end", math.nan, "grid.end: must exceed grid.start, got nan"),
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

    @given(start=st.floats(-1e12, 1e12), step=st.floats(1e-6, 1e6),
           count=st.integers(1, 3000))
    def test_grid_has_numpy_bits(self, start, step, count):
        # The grid is built without numpy, one sample at a time; every grid
        # the reader accepts has the bits of numpy's start + step * k.
        block = {"start": start, "end": start + count * step, "step": step}
        try:
            grid = _build_grid({"grid": block})
        except ConfigError:
            assume(False)
        want = start + step * np.arange(len(grid))
        assert grid.tobytes() == want.tobytes()

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

    def test_mle_axis_range_names_axis(self, tmp_path, capsys):
        doc = copy.deepcopy(FIT_MLE_CONFIG)
        doc["mle_grid"]["bonware_activity"]["stop"] = 3.0
        path = write_config(tmp_path, "fit.json", doc)
        out = tmp_path / "fit_out.json"
        assert main(["fit", str(NOTIONAL_CSV), "--config", path,
                     "--out", str(out), "--mle"]) == 2
        assert capsys.readouterr().err == (
            "error: mle_grid: bonware_activity must lie in [0, 1], "
            "got 3.0\n")
        assert not out.exists()

    def test_mle_axis_ending_at_range_end_accepted(self, tmp_path):
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, past both the
        # axis stop and the activity range; the axis ends at its stop.
        doc = copy.deepcopy(FIT_MLE_CONFIG)
        doc["mle_grid"]["malware_activity"] = {"start": 0.09, "stop": 1.0,
                                               "step": 0.07}
        path = write_config(tmp_path, "fit.json", doc)
        out = tmp_path / "fit_out.json"
        assert main(["fit", str(NOTIONAL_CSV), "--config", path,
                     "--out", str(out), "--mle"]) == 0
        assert json.loads(out.read_text())["mle"]["n_cells"] == 14 * 2 * 2 * 2

    @pytest.mark.parametrize("breakpoints, message", [
        ([0.0, 4.0, 1.0], "breakpoints must be finite and strictly increasing"),
        ([0.0, 4.0], "expected 1 segments for 2 breakpoints, got 2"),
        ([0.0], "breakpoints must be one-dimensional with at least two points"),
    ])
    def test_schedule_error_names_breakpoints(self, tmp_path, capsys,
                                              breakpoints, message):
        segment = {"malware_impact": 0.1, "bonware_impact": 0.0}
        path = write_config(tmp_path, "p.json", {
            "kind": "piecewise-constant",
            "grid": {"start": 0.0, "end": 4.0, "step": 1.0},
            "params": {"breakpoints": breakpoints,
                       "segments": [segment, segment]},
        })
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: params.breakpoints: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["start", "stop", "step"])
    def test_non_finite_mle_axis_names_field(self, tmp_path, capsys, field):
        doc = copy.deepcopy(FIT_MLE_CONFIG)
        doc["mle_grid"]["bonware_activity"][field] = math.inf
        path = write_config(tmp_path, "fit.json", doc)
        with open(path, encoding="utf-8") as fh:
            assert "Infinity" in fh.read()
        out = tmp_path / "fit_out.json"
        assert main(["fit", str(NOTIONAL_CSV), "--config", path,
                     "--out", str(out), "--mle"]) == 2
        assert (f"error: mle_grid.bonware_activity: {field} must be finite, "
                "got inf") in capsys.readouterr().err
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
        **{name: {"start": 0.1, "stop": 0.2, "step": 0.1}
           for name in ("malware_activity", "bonware_activity")},
        # Effectivenesses of 0.3 reach only some of the trace's steps;
        # 0.4 reaches all of them.
        **{name: {"start": 0.3, "stop": 0.4, "step": 0.1}
           for name in ("malware_effectiveness", "bonware_effectiveness")},
    },
}


# SHA-256 of the `fit --mle` output file on the notional trace: how
# grid_mle searches its grid must not move a byte of the estimate.
@pytest.mark.parametrize("config, digest", [
    (FIT_MLE_CONFIG,
     "d90154eee69828ed60796abaade832b9d8356c1c67ada008bb0ece4b2c2ca1a5"),
    ({"mle_grid": {
        **{name: {"start": 0.05, "stop": 0.15, "step": 0.05}
           for name in ("malware_activity", "bonware_activity")},
        **{name: {"start": 0.3, "stop": 0.5, "step": 0.1}
           for name in ("malware_effectiveness", "bonware_effectiveness")},
    }},
     "5501eb5359935b7acbafd6a30c716972ad57a9975d5e0c4438b1e71831329787"),
], ids=["2x2x2x2", "3x3x3x3"])
def test_fit_mle_output_bytes(tmp_path, config, digest):
    cfg = write_config(tmp_path, "fit.json", config)
    out = tmp_path / "fit_out.json"
    assert main(["fit", str(NOTIONAL_CSV), "--config", cfg,
                 "--out", str(out), "--mle"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


PIECEWISE_CONFIG = {
    "kind": "piecewise-constant", "f0": 1.0, "f_init": 1.0,
    "grid": {"start": 0.0, "end": 10.0, "step": 1.0},
    "params": {
        "breakpoints": [0.0, 4.0, 10.0],
        "segments": [{"malware_impact": 0.1, "bonware_impact": 0.01},
                     {"malware_impact": 0.01, "bonware_impact": 0.1}],
    },
}

BOUNDARY_CONFIGS = [
    ("solve", PIECEWISE_CONFIG),
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

# Non-numbers and integers outside float range (|x| >= 2**1024, fewer than
# json's 4300 digits), so no generated config can ask for a huge grid or
# ensemble: a float field refuses such an integer, and an integer field's
# bounds refuse it as a count.
BOUNDARY_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=2),
    st.integers(2**1024, 2**4000),
    st.integers(-(2**4000), -(2**1024)),
)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(BOUNDARY_FIELDS), value=BOUNDARY_VALUES)
def test_config_boundary_never_raises(tmp_path, target, value):
    command, doc, path = target
    argv = command_argv(tmp_path, command, replaced(doc, path, value))
    assert main(argv) in (0, 2)


# A field of each JSON type a config may ask for, set to a value of
# another type, and the one refusal for it.
@pytest.mark.parametrize("command, config, path, value, error", [
    ("solve", constant_config(0.1, 0.02), ("grid", "start"), True,
     "grid.start: expected a number, got True"),
    ("solve", constant_config(0.1, 0.02), ("params", "malware_impact"), "0.1",
     "params.malware_impact: expected a number, got '0.1'"),
    ("simulate", sde_config(), ("params", "steps"), 12.0,
     "params.steps: expected an integer, got 12.0"),
    ("simulate", sde_config(), ("params", "seed"), False,
     "params.seed: expected an integer, got False"),
    ("solve", constant_config(0.1, 0.02), ("grid",), [0.0, 1.0],
     "grid: expected an object, got [0.0, 1.0]"),
    ("fit", FIT_MLE_CONFIG, ("mle_grid", "malware_activity"), 0.1,
     "mle_grid.malware_activity: expected an object, got 0.1"),
    ("solve", PIECEWISE_CONFIG, ("params", "segments", 0), 1,
     "params.segments: expected a list of objects"),
    ("solve", PIECEWISE_CONFIG, ("params", "breakpoints", 1), True,
     "params.breakpoints: expected a list of numbers"),
    ("solve", constant_config(0.1, 0.02), ("grid", "end"), 10**400,
     "grid.end: number too large for a float"),
    ("solve", PIECEWISE_CONFIG, ("params", "breakpoints", 2), -(2**1024),
     "params.breakpoints: number too large for a float"),
], ids=["number-bool", "number-string", "integer-float", "integer-bool",
        "object-list", "object-number", "segments", "breakpoints",
        "number-overflows", "breakpoint-overflows"])
def test_json_type_refused(tmp_path, capsys, command, config, path, value,
                           error):
    argv = command_argv(tmp_path, command, replaced(config, path, value))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


VALID_FILES = {
    "solve": json.dumps(constant_config(0.1, 0.02)).encode(),
    "fit": json.dumps(FIT_MLE_CONFIG).encode(),
    "metrics": TRACE_HEAD + b"0,1\n1,0.5\n2,0.75\n",
}


@st.composite
def input_files(draw):
    """A command and the bytes of its input file: arbitrary bytes, or a
    valid file with a few bytes replaced."""
    command = draw(st.sampled_from(sorted(VALID_FILES)))
    valid = VALID_FILES[command]
    if draw(st.booleans()):
        return command, draw(st.binary(max_size=64))
    at = draw(st.integers(0, len(valid)))
    cut = draw(st.integers(0, 4))
    return command, valid[:at] + draw(st.binary(max_size=4)) + valid[at + cut:]


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=input_files())
def test_input_file_bytes_never_raise(tmp_path, capsys, case):
    # The byte-level sibling of test_config_boundary_never_raises: a
    # config of solve or fit, or a trace of metrics, holding any bytes
    # either runs or is refused with one error line.
    command, contents = case
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_bytes(contents)
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(file_argv(command, path, out))
    captured = capsys.readouterr()
    if contents == VALID_FILES[command]:
        assert code == 0
    if code == 0:
        assert captured.err == ""
        assert out.exists() or json.loads(captured.out)
    else:
        assert code in (1, 2)
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


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


# Runs ``python -m resdyn ARGS`` in-process, or with ``--import MODULE`` only
# imports MODULE, then writes the resdyn, scipy and numpy.random modules
# loaded, and numpy, dataclasses, inspect and argparse themselves, to stderr.
FOOTPRINT = """
import json, runpy, sys
if sys.argv[1] == "--import":
    __import__(sys.argv[2])
else:
    try:
        runpy.run_module("resdyn", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
print(json.dumps([m for m in sys.modules
                  if m.partition(".")[0] in ("resdyn", "scipy")
                  or m in ("numpy", "dataclasses", "inspect", "argparse")
                  or m.startswith("numpy.random")]),
      file=sys.stderr)
"""

# What every command loads; each adds the layers it runs.
CLI_MODULES = {"resdyn", "resdyn.cli", "resdyn.core"}


def imported_by(log, parent):
    """The modules that the ``-X importtime`` lines ``log`` show first
    imported while the body of ``parent`` ran."""
    names = [line.rpartition("|")[2] for line in log
             if line.startswith("import time:")]
    # A module's line follows those of the modules its body imported,
    # which are indented further.
    at = [name.strip() for name in names].index(parent)
    depth = len(names[at]) - len(names[at].lstrip())
    under = []
    for name in reversed(names[:at]):
        if len(name) - len(name.lstrip()) <= depth:
            break
        under.append(name.strip())
    return under


@pytest.mark.parametrize("argv, config, layers", [
    (["--import", "resdyn"], None, None),
    (["--import", "resdyn.cli"], None, ()),
    (["--help"], None, ()),
    (["metrics", str(NOTIONAL_CSV)], None, ("_trace_read", "metrics")),
    (["metrics", "{trace}"], None, ("_trace_read", "metrics")),
    (["fit", str(NOTIONAL_CSV), "--out", "{out}"], None,
     ("_trace_read", "estimation", "impacts")),
    (["fit", str(NOTIONAL_CSV), "--config", "{cfg}", "--out", "{out}"],
     FIT_MLE_CONFIG, ("_trace_read", "config", "estimation", "impacts")),
    (["solve", "--config", "{cfg}", "--out", "{out}"],
     constant_config(0.1, 0.02), ("config", "impacts", "closed_form")),
    (["solve", "--config", "{cfg}", "--out", "{out}"],
     LINEAR_CONFIG, ("config", "impacts", "closed_form", "_faddeeva")),
    (["simulate", "--config", "{cfg}", "--out", "{out}"],
     sde_config(), ("config", "stochastic", "_philox")),
    (["simulate", "--config", "{cfg}", "--out", "{out}", "--seed", "7"],
     sde_config(), ("config", "stochastic", "_philox")),
    (["simulate", "--config", "{cfg}", "--out", "{out}"],
     sde_config(n=3, steps=5), ("config", "stochastic", "ensemble")),
    (["fit", str(NOTIONAL_CSV), "--config", "{cfg}", "--mle", "--out", "{out}"],
     FIT_MLE_CONFIG, ("_trace_read", "config", "estimation", "impacts",
                      "likelihood", "stochastic")),
], ids=["import", "import-cli", "help", "metrics", "metrics-long", "fit",
        "fit-config", "solve", "solve-linear", "simulate", "simulate-seed",
        "simulate-ensemble", "fit-mle"])
def test_import_footprint(tmp_path, argv, config, layers):
    # Each command loads only the layers it runs (the linear solver's erfcx
    # table only when it solves a linear window, the Philox port only for
    # one realization) and none loads scipy.  The config reader loads only
    # for a command given a config, the impact and schedule records only
    # for the closed forms and the two-phase fit (an ensemble never needs
    # them), and the metrics only for ``metrics``.  Only an ensemble draws
    # from numpy.random, and only the commands that compute on arrays (solve,
    # in its solver, the ensemble and the likelihood grid) load numpy: one
    # realization, seeded or not, runs on Python ints and floats, and the
    # trace reader reads a trace of many blocks ("{trace}") without numpy.
    # The records are not dataclasses, so a command without numpy (which
    # imports inspect itself) loads neither dataclasses nor inspect.  The
    # ensemble engine is compiled only for an ensemble, and argparse is
    # loaded only for help or a usage error: cli reads a well-formed
    # command line itself.
    cfg = write_config(tmp_path, "cfg.json", config) if config else None
    trace = tmp_path / "long.csv"
    trace.write_text("time,functionality\n"
                     + "".join(f"{i},0.5\n" for i in range(20001)))
    argv = [arg.format(cfg=cfg, out=tmp_path / "out", trace=trace)
            for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", FOOTPRINT, *argv],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *log, last = proc.stderr.splitlines()
    loaded = json.loads(last)
    want = {"resdyn"} if layers is None else (
        CLI_MODULES | {f"resdyn.{layer}" for layer in layers})
    assert {m for m in loaded if m.startswith("resdyn")} == want
    # Every module loaded is loaded by an import statement, so
    # ``-X importtime`` shows where a command's import time goes.
    logged = {line.rpartition("|")[2].strip() for line in log
              if line.startswith("import time:")}
    assert {m for m in logged if m.startswith("resdyn")} == want
    command = argv[0]
    ensemble = command == "simulate" and config["params"]["n"] > 1
    assert ("resdyn.config" in loaded) == (
        command in ("solve", "simulate") or "--config" in argv)
    assert ("resdyn.impacts" in loaded) == (command in ("solve", "fit"))
    assert ("resdyn.metrics" in loaded) == (command == "metrics")
    assert not [m for m in loaded if m.partition(".")[0] == "scipy"]
    assert bool([m for m in loaded if m.startswith("numpy.random")]) == ensemble
    arrays = argv[0] == "solve" or ensemble or "--mle" in argv
    assert ("numpy" in loaded) == arrays
    if command == "solve":
        # The config reader builds the grid without numpy, so the solver's
        # own body loads it.
        assert "numpy" in imported_by(log, "resdyn.closed_form")
    if not arrays:
        assert not {"dataclasses", "inspect"} & set(loaded)
    assert ("argparse" in loaded) == (argv == ["--help"])


def numpy_imports(tree):
    """The import statements of ``tree`` that import numpy or a submodule."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(
                alias.name.partition(".")[0] == "numpy" for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").partition(".")[0] == "numpy"]


def source_tree(module):
    return ast.parse((REPO_ROOT / "src" / "resdyn" / f"{module}.py").read_text())


def test_config_reader_imports_no_numpy():
    # ``solve`` and ``simulate`` read their configs first, so a config
    # reader that loaded numpy would load it for every config they read.
    assert numpy_imports(source_tree("config")) == []


def test_closed_forms_use_numpy_only_for_exp():
    # The erfcx replay imports no numpy, and the closed forms import it
    # once, as np, and name it only inside ``_exp``: exp is their one numpy
    # operation, so replacing it is a change to one function.
    assert numpy_imports(source_tree("_faddeeva")) == []
    tree = source_tree("closed_form")
    [imported] = numpy_imports(tree)
    assert imported in tree.body
    assert [(a.name, a.asname) for a in imported.names] == [("numpy", "np")]
    exp = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_exp")
    inside = set(map(id, ast.walk(exp)))
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "np"]
    assert uses
    assert [node.lineno for node in uses if id(node) not in inside] == []


# Runs ``python -m resdyn ARGS`` in-process, as FOOTPRINT does, under an
# audit hook, then writes to stderr each code compile or run whose source
# is not a ``.py`` file: code generated at run time, as
# ``collections.namedtuple`` and ``typing``'s string annotations make it.
GENERATED = """
import json, runpy, sys
generated = []

def hook(event, args):
    if event in ("compile", "exec"):
        source = args[1] if event == "compile" else args[0].co_filename
        if not str(source).endswith(".py"):
            generated.append([event, str(source)])

sys.addaudithook(hook)
try:
    runpy.run_module("resdyn", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
print(json.dumps(generated), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, config", [
    (["metrics", str(NOTIONAL_CSV)], None),
    (["fit", str(NOTIONAL_CSV), "--out", "{out}"], None),
    (["fit", str(NOTIONAL_CSV), "--config", "{cfg}", "--out", "{out}"],
     FIT_MLE_CONFIG),
    (["simulate", "--config", "{cfg}", "--out", "{out}"], sde_config()),
], ids=["metrics", "fit", "fit-config", "simulate"])
def test_numpy_free_commands_run_no_generated_code(tmp_path, argv, config):
    cfg = write_config(tmp_path, "cfg.json", config) if config else None
    argv = [arg.format(cfg=cfg, out=tmp_path / "out") for arg in argv]
    proc = subprocess.run([sys.executable, "-c", GENERATED, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == []


# Runs resdyn to its exit the way ``python -m resdyn ARGS`` does (entry
# "runpy", as FOOTPRINT does) or the console script does ("run"), and at exit,
# after the command's own output, writes gc.get_freeze_count() to the file
# RECORD.  An entry ending in "-no-freeze" first makes gc.freeze a no-op,
# which is the exit as it was before run() froze the collector.
EXIT = """
import atexit, gc, pathlib, runpy, sys
record, entry, *argv = sys.argv[1:]
if entry.endswith("-no-freeze"):
    gc.freeze = lambda: None
atexit.register(
    lambda: pathlib.Path(record).write_text(str(gc.get_freeze_count())))
sys.argv[1:] = argv
if entry.startswith("runpy"):
    runpy.run_module("resdyn", run_name="__main__", alter_sys=True)
else:
    import resdyn.cli
    resdyn.cli.run()
"""


@pytest.mark.parametrize("argv, config, code", [
    (["metrics", str(NOTIONAL_CSV)], None, 0),
    (["solve", "--config", "{cfg}", "--out", "{out}"],
     constant_config(-0.1, 0.02), 2),
    (["metrics", "{out}"], None, 1),
    (["--help"], None, 0),
    ([], None, 2),
], ids=["ok", "resdyn-error", "os-error", "help", "no-command"])
def test_exit_freezes_the_collector(tmp_path, argv, config, code):
    # However the command ends, both entries exit with the collector frozen,
    # and print and return exactly what they did without the freeze.
    cfg = write_config(tmp_path, "cfg.json", config) if config else None
    argv = [arg.format(cfg=cfg, out=tmp_path / "out") for arg in argv]
    runs = {}
    for entry in ("run-no-freeze", "runpy", "run"):
        record = tmp_path / f"{entry}.count"
        proc = subprocess.run(
            [sys.executable, "-c", EXIT, str(record), entry, *argv],
            capture_output=True, text=True)
        runs[entry] = ((proc.returncode, proc.stdout, proc.stderr),
                       int(record.read_text()))
    before, unfrozen = runs.pop("run-no-freeze")
    assert before[0] == code, before
    assert unfrozen == 0
    for entry, (after, frozen) in runs.items():
        assert after == before, entry
        assert frozen > 0, entry


def test_main_leaves_the_collector_alone(tmp_path):
    # Only the process exit freezes: library callers, tests and traced
    # benchmark passes call main() and keep a normal collector.
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            before = gc.get_freeze_count()
            assert main(["metrics", str(NOTIONAL_CSV)]) == 0
            assert main(["metrics", str(tmp_path / "missing.csv")]) == 1
            with pytest.raises(SystemExit):
                main([])
            assert (gc.get_freeze_count(), gc.isenabled()) == (before, enabled)
        finally:
            gc.enable()


def test_cli_binds_traced_entry_points_without_loading_layers():
    # perfbench/traced.py rebinds these names in resdyn.cli to time them.
    traced = ast.parse((REPO_ROOT / "perfbench" / "traced.py").read_text())
    entry_points = next(
        node.value for node in traced.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "ENTRY_POINTS")
    names = [key.value for key in entry_points.keys]
    assert len(names) == 13
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, resdyn.cli; "
         "missing = [n for n in sys.argv[1:] if not hasattr(resdyn.cli, n)]; "
         "print(json.dumps([missing, "
         "[m for m in sys.modules if m.startswith('resdyn')]]))", *names],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    missing, loaded = json.loads(proc.stdout)
    assert missing == []
    assert set(loaded) == CLI_MODULES


@pytest.mark.parametrize("name, command, config", [
    ("grid_mle", "fit", FIT_MLE_CONFIG),
    ("ensemble_average", "simulate", sde_config(n=3, steps=5)),
])
def test_rebound_entry_point_is_called(tmp_path, monkeypatch, name, command,
                                       config):
    calls = []
    original = getattr(resdyn.cli, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(resdyn.cli, name, counting)
    assert main(command_argv(tmp_path, command, config)) == 0
    assert len(calls) == 1


def reference_parser():
    """The argparse parser as it was built by hand, one call per argument,
    before the command table: the reference for the table-built parser and
    for the reader that argparse stands behind."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="resdyn",
        description="Solve, simulate, fit, and score functionality traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="evaluate a closed-form model")
    p_solve.add_argument("--config", required=True, help="scenario JSON")
    p_solve.add_argument("--out", required=True, help="output trace CSV")
    p_solve.set_defaults(func=resdyn.cli.cmd_solve)

    p_sim = sub.add_parser("simulate", help="run the stochastic model")
    p_sim.add_argument("--config", required=True, help="scenario JSON")
    p_sim.add_argument("--out", required=True,
                       help="output trace CSV (n=1) or ensemble CSV (n>1)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_sim.set_defaults(func=resdyn.cli.cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the two-phase model to a trace")
    p_fit.add_argument("trace", help="input trace CSV")
    p_fit.add_argument("--config", default=None, help="fit-config JSON")
    p_fit.add_argument("--out", required=True, help="output result JSON")
    p_fit.add_argument("--mle", action="store_true",
                       help="also run the grid likelihood search "
                            "(needs mle_grid in the fit config)")
    p_fit.set_defaults(func=resdyn.cli.cmd_fit)

    p_metrics = sub.add_parser(
        "metrics", help="print accomplishment and AUC resilience as JSON"
    )
    p_metrics.add_argument("trace", help="input trace CSV")
    p_metrics.set_defaults(func=resdyn.cli.cmd_metrics)

    return parser


# Every option spelling, in full, abbreviated and joined by "=", with help,
# "--", "-", an empty token, a negative number, a grouped and a non-ASCII
# (Arabic-Indic 3) digit string, and plain words.
ARGV_TOKENS = [
    "solve", "simulate", "fit", "metrics", "--config", "--out", "--seed",
    "--mle", "--c", "--con", "--o", "--s", "--se", "--m", "--ml",
    "--config=c.json", "--out=o", "--seed=3", "--mle=1", "-h", "--help",
    "--", "-", "", "-5", "1_0", "\u0663", "7", " 12 ", "x", "t.csv", "o",
]
# Each subcommand's number of positionals, and its options: (flag,
# required), where the --mle flag takes no value.
GRAMMAR = {
    "solve": (0, [("--config", True), ("--out", True)]),
    "simulate": (0, [("--config", True), ("--out", True), ("--seed", False)]),
    "fit": (1, [("--config", False), ("--out", True), ("--mle", False)]),
    "metrics": (1, []),
}


@st.composite
def command_lines(draw):
    """A command line of the grammar, its pieces in any order and its
    words from ARGV_TOKENS, with up to three tokens of ARGV_TOKENS
    inserted, deleted or substituted."""
    name = draw(st.sampled_from(sorted(GRAMMAR)))
    count, options = GRAMMAR[name]
    token = st.sampled_from(ARGV_TOKENS)
    word = st.sampled_from([t for t in ARGV_TOKENS if not t.startswith("-")])
    pieces = [[draw(word)] for _ in range(count)]
    for flag, required in options:
        if required or draw(st.booleans()):
            pieces.append([flag] if flag == "--mle" else [flag, draw(word)])
    argv = [name, *itertools.chain.from_iterable(draw(st.permutations(pieces)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if edit == "insert":
            argv.insert(at, draw(token))
        elif at < len(argv):
            if edit == "delete":
                del argv[at]
            else:
                argv[at] = draw(token)
    return argv


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_reader_agrees_with_argparse(argv):
    # Whatever the reader accepts, the hand-built parser reads to the same
    # namespace.
    args = resdyn.cli._read_args(argv)
    if args is not None:
        assert vars(reference_parser().parse_args(argv)) == vars(args)


@pytest.mark.parametrize("argv", [
    ["metrics", "t.csv"],
    ["fit", "t.csv", "--out", "o"],
    ["fit", "--mle", "--out", "o", "t.csv", "--config", "c"],
    ["fit", "", "--config", "", "--out", ""],
    ["solve", "--out", "o", "--config", "c"],
    ["simulate", "--config", "c", "--out", "o"],
    ["simulate", "--seed", "1_0", "--config", "c", "--out", "o"],
    ["simulate", "--config", "c", "--out", "o", "--seed", "\u0663"],
    ["simulate", "--config", "c", "--out", "o", "--seed", " 12 "],
])
def test_reader_reads_well_formed_argv(argv):
    args = resdyn.cli._read_args(argv)
    assert args is not None
    assert vars(reference_parser().parse_args(argv)) == vars(args)


def outcome(argv, capsys):
    """What ``main(argv)`` returns or exits with, and what it prints."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"exit {exc.code}"
    return code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["fit"], ["fi", "t"], ["bogus"], ["metrics"],
    ["metrics", "a", "b"], ["metrics", "-"], ["metrics", "--", "-x"],
    ["metrics", "t", "-h"], ["solve", "--help"], ["simulate", "-h"],
    ["fit", "--help"], ["metrics", "--help"],
    ["fit", "t", "--conf", "c", "--out", "o"],
    ["fit", "t", "--out=o"], ["fit", "t", "--out"], ["fit", "t", "--mle"],
    ["fit", "t", "--out", "o", "--mle", "--mle"],
    ["fit", "t", "--out", "o", "--out", "p"],
    ["solve", "--config", "c"], ["solve", "--out", "o"],
    ["solve", "--config", "--out", "o"],
    ["simulate", "--config", "c", "--out", "o", "--seed", "x"],
    ["simulate", "--config", "c", "--out", "o", "--seed", ""],
    ["simulate", "--config", "c", "--out", "o", "--seed", "-5"],
    ["simulate", "--config", "c", "--out", "o", "--seed", "1.5"],
])
def test_declined_argv_runs_as_before(argv, tmp_path, monkeypatch, capsys):
    # The reader declines help, usage errors and the spellings it does not
    # read; main then gives the exit status, stdout and stderr that it gave
    # with the hand-built parser.
    monkeypatch.chdir(tmp_path)
    assert resdyn.cli._read_args(argv) is None
    with monkeypatch.context() as mp:
        mp.setattr(resdyn.cli, "_build_parser", reference_parser)
        expected = outcome(argv, capsys)
    assert outcome(argv, capsys) == expected
    assert list(tmp_path.iterdir()) == []
