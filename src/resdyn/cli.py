"""Batch command-line front end.

Four subcommands cover the library surface:

* ``resdyn solve    --config scenario.json --out trace.csv``
* ``resdyn simulate --config scenario.json --out trace_or_ensemble.csv``
* ``resdyn fit      TRACE.csv [--config fit.json] --out result.json [--mle]``
* ``resdyn metrics  TRACE.csv``

Scenario configs are single JSON documents with a ``kind`` field
(``constant``, ``piecewise-constant``, ``linear``, ``piecewise-linear``,
or ``sde``) and a matching ``params`` block; see the README for the full
schemas.  Every command is deterministic given its inputs, and exit
status 0 means the outputs were fully written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .closed_form import (
    solve_constant,
    solve_linear,
    solve_piecewise_constant,
    solve_piecewise_linear,
)
from .core import (
    MAX_GRID_POINTS,
    ConstantImpacts,
    LinearImpacts,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    accomplishment,
    auc_resilience,
    read_trace_csv,
    write_trace_csv,
)
from .errors import ResdynError
from .estimation import FitConfig, fit_piecewise, write_fit_result_json
from .likelihood import GridAxis, MleGrid, grid_mle
from .stochastic import (
    SdeParams,
    ensemble_average,
    simulate,
    write_ensemble_csv,
)

MODEL_KINDS = (
    "constant",
    "piecewise-constant",
    "linear",
    "piecewise-linear",
    "sde",
)


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


def _get(obj: dict, key: str, path: str, required: bool = True, default=None):
    """The value of ``key``; an absent key and a JSON null are alike."""
    raw = obj.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"{path}{key}: missing required field")
        return default
    return raw


def _number(obj: dict, key: str, path: str, required: bool = True,
            default=None) -> float | None:
    raw = _get(obj, key, path, required, default)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}{key}: expected a number, got {raw!r}")
    return float(raw)


def _integer(obj: dict, key: str, path: str, required: bool = True,
             default=None) -> int | None:
    raw = _get(obj, key, path, required, default)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{path}{key}: expected an integer, got {raw!r}")
    return raw


def _section(obj: dict, key: str, path: str) -> dict:
    raw = _get(obj, key, path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}{key}: expected an object")
    return raw


def _from_json(cls, obj: dict, path: str):
    """Build dataclass ``cls`` from the JSON object ``obj`` at ``path``.

    A field without a default is a required number; a field with a string
    default passes through for ``cls`` to check; any other field is an
    optional number, and an absent one keeps its default.  A ResdynError
    from ``cls`` becomes ``ConfigError("<path>: <message>")``.
    """
    kwargs = {}
    for field in dataclasses.fields(cls):
        if isinstance(field.default, str):
            value = _get(obj, field.name, path, required=False)
        else:
            value = _number(obj, field.name, path,
                            required=field.default is dataclasses.MISSING)
        if value is not None:
            kwargs[field.name] = value
    try:
        return cls(**kwargs)
    except ResdynError as exc:
        where = path.rstrip(".")
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _build_grid(config: dict) -> np.ndarray:
    grid = _section(config, "grid", "")
    start = _number(grid, "start", "grid.")
    end = _number(grid, "end", "grid.")
    step = _number(grid, "step", "grid.")
    if not step > 0.0:
        raise ConfigError(f"grid.step: must be > 0, got {step}")
    if not end > start:
        raise ConfigError(f"grid.end: must exceed grid.start, got {end}")
    span = (end - start) / step
    if not span < MAX_GRID_POINTS - 0.5:
        raise ConfigError(
            f"grid.end/grid.step: grid of more than {MAX_GRID_POINTS} points: "
            f"(end - start) / step = {span:.6g}"
        )
    count = int(round(span))
    if not np.isclose(start + count * step, end, rtol=0.0, atol=1e-9 * max(1.0, abs(end))):
        raise ConfigError(
            "grid.step: span (end - start) must be a whole number of steps"
        )
    if count < 1:
        raise ConfigError("grid.step: grid needs at least two samples")
    return start + step * np.arange(count + 1)


def _schedule(cls, params: dict):
    """A piecewise schedule whose segments are ``cls._segment_type``."""
    segments = _get(params, "segments", "params.")
    if not isinstance(segments, list) or not all(
        isinstance(x, dict) for x in segments
    ):
        raise ConfigError("params.segments: expected a list of objects")
    segments = tuple(
        _from_json(cls._segment_type, seg, f"params.segments[{i}].")
        for i, seg in enumerate(segments)
    )
    breakpoints = _get(params, "breakpoints", "params.")
    if not isinstance(breakpoints, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool)
        for x in breakpoints
    ):
        raise ConfigError("params.breakpoints: expected a list of numbers")
    return cls(breakpoints=np.asarray(breakpoints, dtype=float),
               segments=segments)


def _scenario_common(config: dict) -> tuple[str, float, float]:
    kind = _get(config, "kind", "")
    if kind not in MODEL_KINDS:
        raise ConfigError(
            f"kind: expected one of {', '.join(MODEL_KINDS)}, got {kind!r}"
        )
    f0 = _number(config, "f0", "", required=False, default=1.0)
    f_init = _number(config, "f_init", "", required=False, default=f0)
    return kind, f0, f_init


def _run_solve(config: dict):
    kind, f0, f_init = _scenario_common(config)
    params = _section(config, "params", "")
    grid = _build_grid(config)
    # The solvers are looked up by their module-level names at call time,
    # so rebinding those names (as tracing tools do) takes effect.
    try:
        if kind == "constant":
            return solve_constant(
                _from_json(ConstantImpacts, params, "params."), f_init, f0, grid)
        if kind == "piecewise-constant":
            return solve_piecewise_constant(
                _schedule(PiecewiseConstantSchedule, params), f_init, f0, grid)
        if kind == "linear":
            return solve_linear(
                _from_json(LinearImpacts, params, "params."), f_init, f0, grid)
        if kind == "piecewise-linear":
            return solve_piecewise_linear(
                _schedule(PiecewiseLinearSchedule, params), f_init, f0, grid)
    except ResdynError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError("kind: 'sde' scenarios run under the simulate command")


def _run_simulate(config: dict, seed_override: int | None):
    kind, f0, f_init = _scenario_common(config)
    if kind != "sde":
        raise ConfigError(
            f"kind: simulate requires an 'sde' scenario, got {kind!r}"
        )
    params_obj = _section(config, "params", "")
    params = _from_json(SdeParams, params_obj, "params.")
    steps = _integer(params_obj, "steps", "params.")
    dt = _number(params_obj, "dt", "params.", required=False, default=1.0)
    seed = _integer(params_obj, "seed", "params.", required=False, default=0)
    n = _integer(params_obj, "n", "params.", required=False, default=1)
    if seed_override is not None:
        seed = seed_override
    if n < 1:
        raise ConfigError(f"params.n: must be >= 1, got {n}")
    try:
        if n == 1:
            return simulate(params, f_init, f0, steps, dt, seed=seed)
        return ensemble_average(params, f_init, f0, steps, dt, n=n,
                                master_seed=seed)
    except ResdynError as exc:
        raise ConfigError(str(exc)) from exc


def _mle_grid(doc: dict) -> MleGrid:
    section = _section(doc, "mle_grid", "")
    return MleGrid(**{
        field.name: _from_json(GridAxis,
                               _section(section, field.name, "mle_grid."),
                               f"mle_grid.{field.name}.")
        for field in dataclasses.fields(MleGrid)
    })


def cmd_solve(args) -> int:
    trace = _run_solve(_load_json(args.config))
    write_trace_csv(trace, args.out)
    return 0


def cmd_simulate(args) -> int:
    result = _run_simulate(_load_json(args.config), args.seed)
    if hasattr(result, "mean_trace"):
        write_ensemble_csv(result, args.out)
    else:
        write_trace_csv(result, args.out)
    return 0


def cmd_fit(args) -> int:
    trace = read_trace_csv(args.trace)
    doc = _load_json(args.config) if args.config else {}
    result = fit_piecewise(trace, _from_json(FitConfig, doc, ""))
    mle = grid_mle(trace, _mle_grid(doc)) if args.mle else None
    write_fit_result_json(result, args.out, mle)
    return 0


def cmd_metrics(args) -> int:
    trace = read_trace_csv(args.trace)
    print(json.dumps({
        "accomplishment": accomplishment(trace),
        "auc_resilience": auc_resilience(trace),
    }))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resdyn",
        description="Solve, simulate, fit, and score functionality traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="evaluate a closed-form model")
    p_solve.add_argument("--config", required=True, help="scenario JSON")
    p_solve.add_argument("--out", required=True, help="output trace CSV")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run the stochastic model")
    p_sim.add_argument("--config", required=True, help="scenario JSON")
    p_sim.add_argument("--out", required=True,
                       help="output trace CSV (n=1) or ensemble CSV (n>1)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the two-phase model to a trace")
    p_fit.add_argument("trace", help="input trace CSV")
    p_fit.add_argument("--config", default=None, help="fit-config JSON")
    p_fit.add_argument("--out", required=True, help="output result JSON")
    p_fit.add_argument("--mle", action="store_true",
                       help="also run the grid likelihood search "
                            "(needs mle_grid in the fit config)")
    p_fit.set_defaults(func=cmd_fit)

    p_metrics = sub.add_parser(
        "metrics", help="print accomplishment and AUC resilience as JSON"
    )
    p_metrics.add_argument("trace", help="input trace CSV")
    p_metrics.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ResdynError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
