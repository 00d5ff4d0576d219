"""The package's public surface, whose names load on first access."""

import subprocess
import sys

import pytest

import resdyn

PUBLIC = [
    "ActivityRates", "ConstantImpacts", "DomainError", "EnsembleResult",
    "FitConfig", "FitFailureError", "FitResult", "FunctionalityTrace",
    "GridAxis", "InvalidTraceError", "LinearImpacts", "MleGrid", "MleResult",
    "NoSwitchError", "OMEGA_MIN", "PhaseEstimate",
    "PiecewiseConstantSchedule", "PiecewiseLinearSchedule", "ResdynError",
    "SdeParams", "SteadyState", "UndefinedSteadyStateError",
    "accomplishment", "auc_resilience", "count_activities",
    "detect_switch_time", "effective_impact", "ensemble_average", "erf",
    "expectation_recursion", "fit_phase1", "fit_phase2", "fit_piecewise",
    "fit_result_to_dict", "grid_mle", "integrate_reference",
    "read_trace_csv", "simulate", "solve_constant", "solve_linear",
    "solve_piecewise_constant", "solve_piecewise_linear", "split_seed",
    "steady_state", "step_log_density", "write_ensemble_csv",
    "write_fit_result_json", "write_trace_csv",
]


def test_all_is_unchanged():
    assert resdyn.__all__ == PUBLIC


def test_names_are_their_defining_submodules_objects():
    for name in PUBLIC:
        value = getattr(resdyn, name)
        module = sys.modules[f"resdyn.{resdyn._EXPORTS[name]}"]
        assert getattr(module, name) is value, name
        if name != "OMEGA_MIN":
            assert value.__module__ == module.__name__, name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from resdyn import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert set(PUBLIC) <= set(dir(resdyn))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        resdyn.no_such_name


def test_submodules_reachable_after_plain_import():
    layers = ["closed_form", "core", "ensemble", "estimation", "impacts",
              "likelihood", "metrics", "oracle", "stochastic"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, resdyn; "
         "print(*[getattr(resdyn, m).__name__ for m in sys.argv[1:]])",
         *layers],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"resdyn.{m}" for m in layers]


def test_importing_main_module_does_not_run_the_cli():
    # Tools that import every module (pydoc, package walkers) import
    # resdyn.__main__ too; only running it as __main__ runs the CLI.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import pydoc, resdyn.__main__; "
         "print(pydoc.render_doc('resdyn.__main__').splitlines()[0])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == (
        "Python Library Documentation: module resdyn.__main__ in resdyn\n", "")
