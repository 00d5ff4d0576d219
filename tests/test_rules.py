"""Model rules that several entry points share: each has one owner, so a
bad input is refused alike, with one error class and one message, at
every site that applies it."""

import json
import math

import numpy as np
import pytest

from resdyn import (
    ConstantImpacts,
    DomainError,
    FunctionalityTrace,
    GridAxis,
    InvalidTraceError,
    LinearImpacts,
    MleGrid,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    SdeParams,
    effective_impact,
    ensemble_average,
    expectation_recursion,
    fit_phase1,
    fit_phase2,
    integrate_reference,
    simulate,
    solve_constant,
    solve_linear,
    solve_piecewise_constant,
    solve_piecewise_linear,
    step_log_density,
    stochastic,
)
from resdyn import core
from resdyn.cli import main

IMPACTS = ConstantImpacts(0.1, 0.2)
SCHEDULE = PiecewiseConstantSchedule(np.array([0.0, 4.0]), (IMPACTS,))
FADING = LinearImpacts(0.02, 1e-4, 0.05, 5e-4)
GRID = np.linspace(0.0, 4.0, 5)
PARAMS = SdeParams(0.3, 0.4, 0.5, 0.5)

AXIS_SITES = {
    "trace times": (lambda x: FunctionalityTrace(x, np.full(np.size(x), 0.5)),
                    InvalidTraceError, "times"),
    "schedule breakpoints": (
        lambda x: PiecewiseConstantSchedule(x, (IMPACTS,) * (np.size(x) - 1)),
        DomainError, "breakpoints"),
    "solve_constant grid": (lambda x: solve_constant(IMPACTS, 0.5, 1.0, x),
                            DomainError, "grid"),
    "solve_linear grid": (lambda x: solve_linear(FADING, 0.5, 1.0, x),
                          DomainError, "grid"),
    "solve_piecewise_constant grid": (
        lambda x: solve_piecewise_constant(SCHEDULE, 0.5, 1.0, x),
        DomainError, "grid"),
    "integrate_reference grid": (
        lambda x: integrate_reference(lambda t: 0.1, lambda t: 0.2, 0.5, 1.0, x),
        DomainError, "grid"),
}


def refusal(site, error, arg):
    """The message of the ``error`` that ``site(arg)`` raises, which must
    be of exactly that class."""
    with pytest.raises(error) as caught:
        site(arg)
    assert type(caught.value) is error
    return str(caught.value)


@pytest.mark.parametrize("site", AXIS_SITES)
@pytest.mark.parametrize("axis, requirement", [
    ([0.0, 2.0, 1.0], "finite and strictly increasing"),
    ([0.0, 1.0, 1.0], "finite and strictly increasing"),
    ([0.0, math.nan, 2.0], "finite and strictly increasing"),
    ([0.0, 1.0, math.inf], "finite and strictly increasing"),
    ([1.0], "one-dimensional with at least two points"),
    ([[0.0, 1.0], [2.0, 3.0]], "one-dimensional with at least two points"),
    ([-1e308, 1e308], "of finite span (last - first)"),
    ([-1e308, 0.0, 1e308], "of finite span (last - first)"),
    ([-math.inf, 1.0, 2.0], "finite and strictly increasing"),
    ([[0.0], [1.0]], "one-dimensional with at least two points"),
    (0.0, "one-dimensional with at least two points"),
])
def test_sample_axis_refused_alike(site, axis, requirement):
    # An array and a Python list are refused alike.
    call, error, name = AXIS_SITES[site]
    assert refusal(call, error, np.array(axis)) == f"{name} must be {requirement}"
    assert refusal(call, error, axis) == f"{name} must be {requirement}"


GRID_SITES = {
    "solve_constant": lambda g: solve_constant(IMPACTS, 0.5, 1.0, g),
    "solve_linear": lambda g: solve_linear(FADING, 0.5, 1.0, g),
    "solve_piecewise_constant": (
        lambda g: solve_piecewise_constant(SCHEDULE, 0.5, 1.0, g)),
    "solve_piecewise_linear": lambda g: solve_piecewise_linear(
        PiecewiseLinearSchedule([0.0, 4.0], (FADING,)), 0.5, 1.0, g),
    "integrate_reference": lambda g: integrate_reference(
        lambda t: 0.1, lambda t: 0.2, 0.5, 1.0, g),
}


@pytest.mark.parametrize("site", GRID_SITES)
@pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
def test_grid_checked_once(site, make, monkeypatch):
    # Each check of a sample axis reads it into floats once; a solver
    # checks its caller's grid once and hands the checked axis on, down to
    # the trace it returns.
    read = core._floats
    grids = []

    def counting(x, *kind):
        samples, shape = read(x, *kind)
        if samples is not None and samples.tolist() == GRID.tolist():
            grids.append(samples)
        return samples, shape

    monkeypatch.setattr(core, "_floats", counting)
    trace = GRID_SITES[site](make(GRID.tolist()))
    assert len(grids) == 1
    assert trace._times is grids[0]


def unit_grid(**axes):
    unit = GridAxis(0.1, 0.2, 0.1)
    return MleGrid(**{**dict.fromkeys(("malware_activity", "bonware_activity",
                                        "malware_effectiveness",
                                        "bonware_effectiveness"), unit),
                      **axes})


RANGE_SITES = {
    "SdeParams malware_activity": (
        lambda v: SdeParams(v, 0.1, 0.5, 0.5), "malware_activity"),
    "SdeParams bonware_activity": (
        lambda v: SdeParams(0.1, v, 0.5, 0.5), "bonware_activity"),
    "SdeParams malware_effectiveness": (
        lambda v: SdeParams(0.1, 0.1, v, 0.5), "malware_effectiveness"),
    "SdeParams bonware_effectiveness": (
        lambda v: SdeParams(0.1, 0.1, 0.5, v), "bonware_effectiveness"),
    "effective_impact activity": (
        lambda v: effective_impact(v, 0.5), "activity"),
    "effective_impact effectiveness": (
        lambda v: effective_impact(0.5, v), "effectiveness"),
    "mle_grid malware_activity": (
        lambda v: unit_grid(malware_activity=GridAxis(v, v, 0.1)),
        "malware_activity"),
    "mle_grid bonware_effectiveness": (
        lambda v: unit_grid(bonware_effectiveness=GridAxis(v, v, 0.1)),
        "bonware_effectiveness"),
}


@pytest.mark.parametrize("site", RANGE_SITES)
@pytest.mark.parametrize("value", [1.5, -0.5, 0.0])
def test_parameter_range_refused_alike(site, value):
    call, name = RANGE_SITES[site]
    interval = "[0, 1]" if name.endswith("activity") else "(0, 1]"
    if value == 0.0 and interval == "[0, 1]":
        call(value)  # an activity of 0 is allowed
        return
    assert refusal(call, DomainError, value) == (
        f"{name} must lie in {interval}, got {value}")


@pytest.mark.parametrize("axis, got", [(GridAxis(-0.5, 0.5, 0.5), -0.5),
                                       (GridAxis(0.5, 1.5, 0.5), 1.5)])
def test_grid_axis_range_names_offending_end(axis, got):
    # An axis is checked at its first and last values; the message gives
    # the one out of range.
    assert refusal(lambda a: unit_grid(bonware_activity=a), DomainError,
                   axis) == (
        f"bonware_activity must lie in [0, 1], got {got}")


LEVEL_SITES = {
    "solve_constant f_init": (
        lambda v: solve_constant(IMPACTS, v, 1.0, GRID), DomainError, "f_init"),
    "solve_linear f_init": (
        lambda v: solve_linear(FADING, v, 1.0, GRID), DomainError, "f_init"),
    "integrate_reference f_init": (
        lambda v: integrate_reference(lambda t: 0.1, lambda t: 0.2, v, 1.0, GRID),
        DomainError, "f_init"),
    "simulate f_init": (
        lambda v: simulate(PARAMS, v, 1.0, 5), DomainError, "f_init"),
    "ensemble_average f_init": (
        lambda v: ensemble_average(PARAMS, v, 1.0, 5, n=2), DomainError, "f_init"),
    "expectation_recursion f_init": (
        lambda v: expectation_recursion(0.1, 0.2, v, 1.0, 5), DomainError,
        "f_init"),
    "step_log_density f_now": (
        lambda v: step_log_density(v, 0.5, PARAMS, 1.0), DomainError, "f_now"),
    "step_log_density f_next": (
        lambda v: step_log_density(0.5, v, PARAMS, 1.0), DomainError, "f_next"),
    "trace values": (
        lambda v: FunctionalityTrace(GRID[:3], np.array([0.5, v, 0.5]), 1.0),
        InvalidTraceError, "values"),
}


@pytest.mark.parametrize("site", LEVEL_SITES)
@pytest.mark.parametrize("level", [1.5, -0.5, math.nan, math.inf])
def test_level_bounds_refused_alike(site, level):
    call, error, name = LEVEL_SITES[site]
    assert refusal(call, error, level) == (
        f"{name} must lie in [0, f0], got {level}")


F0_SITES = {
    "solve_constant": (lambda f0: solve_constant(IMPACTS, 0.5, f0, GRID),
                       DomainError),
    "simulate": (lambda f0: simulate(PARAMS, 0.5, f0, 5), DomainError),
    "expectation_recursion": (
        lambda f0: expectation_recursion(0.1, 0.2, 0.5, f0, 5), DomainError),
    "step_log_density": (lambda f0: step_log_density(0.5, 0.5, PARAMS, f0),
                         DomainError),
    "fit_phase1": (lambda f0: fit_phase1(0.3, 10.0, 0.9, f0), DomainError),
    "fit_phase2": (lambda f0: fit_phase2(0.3, 69.5, f0), DomainError),
    "trace": (lambda f0: FunctionalityTrace(GRID, np.full(5, 0.5), f0),
              InvalidTraceError),
}


@pytest.mark.parametrize("site", F0_SITES)
@pytest.mark.parametrize("f0", [0.0, -1.0, math.nan, math.inf])
def test_normal_level_refused_alike(site, f0):
    # f0 is checked before the levels and rates that are measured against
    # it, so no site reports a bad f0 as some other failure.
    call, error = F0_SITES[site]
    assert refusal(call, error, f0) == (
        f"f0 must be positive and finite, got {f0}")


@pytest.mark.parametrize("dt, malware_onset, bonware_onset, cutoff", [
    (0.1, 0.3, 0.7, 1.2),   # 3 * 0.1 > 0.3 and 12 * 0.1 > 1.2 in floats
    (1.0, 2.0, 0.0, None),
    (0.3, 0.0, 0.9, 0.9),   # bonware starts where malware stops
    (0.7, 5.0, 5.0, 2.0),   # malware never acts
])
def test_agents_act_exactly_while_live(dt, malware_onset, bonware_onset,
                                       cutoff):
    # The rule written out per step, at the clock k * dt of simulate's
    # specification; with one agent's activity at 1 and the other's at 0,
    # the level moves on exactly the steps where that agent is live.
    steps = 30
    rule = [(k * dt >= malware_onset and (cutoff is None or k * dt < cutoff),
             k * dt >= bonware_onset) for k in range(steps)]
    for agent, activities, sign in ((0, (1.0, 0.0), -1.0),
                                    (1, (0.0, 1.0), 1.0)):
        params = SdeParams(*activities, 0.5, 0.5, malware_onset,
                           bonware_onset, cutoff)
        indices = stochastic._live(params, dt * np.arange(steps))[agent]
        live = np.array([k in indices for k in range(steps)])
        assert live.tolist() == [step[agent] for step in rule]
        for trace in (simulate(params, 0.5, 1.0, steps, dt, seed=4),
                      ensemble_average(params, 0.5, 1.0, steps, dt,
                                       n=3).mean_trace):
            assert np.sign(np.diff(trace.values)).tolist() == (
                sign * live).tolist()


# (steps, dt, n) of a run, and the one text every site refuses it with.
RUN_REFUSALS = {
    "steps-zero": (0, 1.0, 1, "steps must be >= 1, got 0"),
    "steps-negative": (-3, 1.0, 4, "steps must be >= 1, got -3"),
    "steps-too-many": (10**22, 1.0, 1, "steps must be <= 9999999, "
                                       "got 10000000000000000000000"),
    "dt-negative": (10, -1.0, 1, "dt must be positive and finite, got -1.0"),
    "dt-zero": (10, 0.0, 4, "dt must be positive and finite, got 0.0"),
    # Ten steps of 1e308 s end past the largest float.
    "dt-horizon": (10, 1e308, 1, "dt must keep the horizon dt * steps "
                                 "finite, got 1e+308 * 10"),
    "n-zero": (10, 1.0, 0, "n must be >= 1, got 0"),
    "n-too-many": (10**4, 1.0, 10**6, "n must keep n * (steps + 1) <= "
                                      "10000000, got 1000000 * 10001"),
}


@pytest.mark.parametrize("steps, dt, n, text", RUN_REFUSALS.values(),
                         ids=RUN_REFUSALS)
def test_run_arguments_refused_alike(tmp_path, capsys, steps, dt, n, text):
    # An f_init out of range shows that the run's arguments are checked
    # first.
    if n == 1:
        assert refusal(lambda _: simulate(PARAMS, 2.0, 1.0, steps, dt),
                       DomainError, None) == text
    if dt == 1.0 and text.startswith("steps"):
        assert refusal(lambda _: expectation_recursion(0.1, 0.2, 2.0, 1.0,
                                                       steps),
                       DomainError, None) == text
    assert refusal(lambda _: ensemble_average(PARAMS, 2.0, 1.0, steps, dt,
                                              n=n), DomainError, None) == text
    config = tmp_path / "sde.json"
    config.write_text(json.dumps({
        "kind": "sde", "f_init": 2.0,
        "params": {"malware_activity": 0.3, "bonware_activity": 0.4,
                   "malware_effectiveness": 0.5, "bonware_effectiveness": 0.5,
                   "steps": steps, "dt": dt, "n": n}}))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: params: {text}\n"
    assert not out.exists()


# (steps, n) that the command line refuses by JSON type, and the one text
# every library site refuses them with.
SIZE_REFUSALS = {
    "steps-float": (2.5, 1, "steps must be an integer, got 2.5"),
    "steps-whole-float": (3.0, 1, "steps must be an integer, got 3.0"),
    "steps-numpy-float": (np.float64(3.0), 1,
                          "steps must be an integer, got np.float64(3.0)"),
    "steps-bool": (True, 1, "steps must be an integer, got True"),
    "steps-str": ("3", 1, "steps must be an integer, got '3'"),
    "n-float": (10, 2.5, "n must be an integer, got 2.5"),
    "n-bool": (10, True, "n must be an integer, got True"),
}


@pytest.mark.parametrize("steps, n, text", SIZE_REFUSALS.values(),
                         ids=SIZE_REFUSALS)
def test_run_sizes_must_be_integers(steps, n, text):
    # As in test_run_arguments_refused_alike, f_init is out of range.
    if text.startswith("steps"):
        assert refusal(lambda _: simulate(PARAMS, 2.0, 1.0, steps),
                       DomainError, None) == text
        assert refusal(lambda _: expectation_recursion(0.1, 0.2, 2.0, 1.0,
                                                       steps),
                       DomainError, None) == text
    assert refusal(lambda _: ensemble_average(PARAMS, 2.0, 1.0, steps, n=n),
                   DomainError, None) == text


def test_numpy_integer_run_sizes_run_as_ints():
    # np.uint8(255) + 1 would wrap to 0; the sizes are used as Python ints.
    steps, n = np.uint8(255), np.int16(3)
    assert (simulate(PARAMS, 0.5, 1.0, steps, seed=2).values.tobytes()
            == simulate(PARAMS, 0.5, 1.0, 255, seed=2).values.tobytes())
    assert (expectation_recursion(0.1, 0.2, 0.5, 1.0, steps).values.tobytes()
            == expectation_recursion(0.1, 0.2, 0.5, 1.0, 255).values.tobytes())
    result = ensemble_average(PARAMS, 0.5, 1.0, steps, n=n)
    assert type(result.n) is int
    assert (result.mean_trace.values.tobytes()
            == ensemble_average(PARAMS, 0.5, 1.0, 255,
                                n=3).mean_trace.values.tobytes())
