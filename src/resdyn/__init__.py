"""resdyn: degradation/recovery dynamics of system functionality.

A system under attack loses functionality to malware and regains it
through its defenses; this package models that battle as a bounded
first-order balance, solves the constant, piecewise-constant, linear, and
piecewise-linear variants in closed form, simulates the discrete
stochastic counterpart with reproducible seeding, and estimates model
parameters from observed traces.
"""

from .closed_form import (
    OMEGA_MIN,
    SteadyState,
    erf,
    solve_constant,
    solve_linear,
    solve_piecewise_constant,
    solve_piecewise_linear,
    steady_state,
)
from .core import (
    ConstantImpacts,
    FunctionalityTrace,
    LinearImpacts,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    accomplishment,
    auc_resilience,
    integrate_reference,
    read_trace_csv,
    write_trace_csv,
)
from .errors import (
    DomainError,
    FitFailureError,
    InvalidTraceError,
    NoSwitchError,
    ResdynError,
    UndefinedSteadyStateError,
)
from .estimation import (
    ActivityRates,
    FitConfig,
    FitResult,
    PhaseEstimate,
    count_activities,
    detect_switch_time,
    fit_phase1,
    fit_phase2,
    fit_piecewise,
    fit_result_to_dict,
    write_fit_result_json,
)
from .likelihood import (
    GridAxis,
    MleGrid,
    MleResult,
    grid_mle,
    step_log_density,
)
from .stochastic import (
    EnsembleResult,
    SdeParams,
    effective_impact,
    ensemble_average,
    expectation_recursion,
    simulate,
    split_seed,
    write_ensemble_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityRates",
    "ConstantImpacts",
    "DomainError",
    "EnsembleResult",
    "FitConfig",
    "FitFailureError",
    "FitResult",
    "FunctionalityTrace",
    "GridAxis",
    "InvalidTraceError",
    "LinearImpacts",
    "MleGrid",
    "MleResult",
    "NoSwitchError",
    "OMEGA_MIN",
    "PhaseEstimate",
    "PiecewiseConstantSchedule",
    "PiecewiseLinearSchedule",
    "ResdynError",
    "SdeParams",
    "SteadyState",
    "UndefinedSteadyStateError",
    "accomplishment",
    "auc_resilience",
    "count_activities",
    "detect_switch_time",
    "effective_impact",
    "ensemble_average",
    "erf",
    "expectation_recursion",
    "fit_phase1",
    "fit_phase2",
    "fit_piecewise",
    "fit_result_to_dict",
    "grid_mle",
    "integrate_reference",
    "read_trace_csv",
    "simulate",
    "solve_constant",
    "solve_linear",
    "solve_piecewise_constant",
    "solve_piecewise_linear",
    "split_seed",
    "steady_state",
    "step_log_density",
    "write_ensemble_csv",
    "write_fit_result_json",
    "write_trace_csv",
]
