"""resdyn: degradation/recovery dynamics of system functionality.

A system under attack loses functionality to malware and regains it
through its defenses; this package models that battle as a bounded
first-order balance, solves the constant, piecewise-constant, linear, and
piecewise-linear variants in closed form, simulates the discrete
stochastic counterpart with reproducible seeding, and estimates model
parameters from observed traces.

Public names are imported from their defining submodule on first access
(PEP 562), so ``import resdyn`` loads none of the layers.  The import
goes through the import statement, so ``python -X importtime`` logs it.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "read_trace_csv": "_trace_read",
    **dict.fromkeys((
        "OMEGA_MIN", "SteadyState", "erf", "solve_constant", "solve_linear",
        "solve_piecewise_constant", "solve_piecewise_linear", "steady_state",
    ), "closed_form"),
    **dict.fromkeys((
        "DomainError", "FitFailureError", "FunctionalityTrace",
        "InvalidTraceError", "NoSwitchError", "ResdynError",
        "UndefinedSteadyStateError", "write_trace_csv",
    ), "core"),
    **dict.fromkeys((
        "EnsembleResult", "ensemble_average", "expectation_recursion",
        "split_seed", "write_ensemble_csv",
    ), "ensemble"),
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
    module = _EXPORTS.get(name, name)
    if module not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it here; a public name is bound from it.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
