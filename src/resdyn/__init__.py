"""resdyn: degradation/recovery dynamics of system functionality.

A system under attack loses functionality to malware and regains it
through its defenses; this package models that battle as a bounded
first-order balance, solves the constant, piecewise-constant, linear, and
piecewise-linear variants in closed form, simulates the discrete
stochastic counterpart with reproducible seeding, and estimates model
parameters from observed traces.

Public names are imported from their defining submodule on first access
(PEP 562), so ``import resdyn`` loads none of the layers.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "read_trace_csv": "_trace_read",
    **dict.fromkeys((
        "OMEGA_MIN", "SteadyState", "erf", "solve_constant", "solve_linear",
        "solve_piecewise_constant", "solve_piecewise_linear", "steady_state",
    ), "closed_form"),
    **dict.fromkeys(("FunctionalityTrace", "write_trace_csv"), "core"),
    **dict.fromkeys((
        "EnsembleResult", "ensemble_average", "expectation_recursion",
        "split_seed", "write_ensemble_csv",
    ), "ensemble"),
    **dict.fromkeys((
        "DomainError", "FitFailureError", "InvalidTraceError",
        "NoSwitchError", "ResdynError", "UndefinedSteadyStateError",
    ), "errors"),
    **dict.fromkeys((
        "ActivityRates", "FitConfig", "FitResult", "PhaseEstimate",
        "count_activities", "detect_switch_time", "fit_phase1", "fit_phase2",
        "fit_piecewise", "fit_result_to_dict", "write_fit_result_json",
    ), "estimation"),
    **dict.fromkeys((
        "ConstantImpacts", "LinearImpacts", "PiecewiseConstantSchedule",
        "PiecewiseLinearSchedule",
    ), "impacts"),
    **dict.fromkeys((
        "GridAxis", "MleGrid", "MleResult", "grid_mle", "step_log_density",
    ), "likelihood"),
    **dict.fromkeys(("accomplishment", "auc_resilience"), "metrics"),
    "integrate_reference": "oracle",
    **dict.fromkeys(("SdeParams", "effective_impact", "simulate"),
                    "stochastic"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS.values():
        # Importing a submodule binds it here as well.
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
