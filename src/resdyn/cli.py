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

import gc
import json
import math
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import _EXPORTS
from .core import (
    MAX_GRID_POINTS,
    ConstantImpacts,
    LinearImpacts,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    accomplishment,
    auc_resilience,
    write_trace_csv,
)
from .errors import DomainError, InvalidTraceError, ResdynError

if TYPE_CHECKING:
    import argparse

    import numpy as np


def _deferred(name: str):
    """A stand-in for the public ``name`` that imports its module when called.

    The module is the one ``resdyn._EXPORTS`` maps ``name`` to.  Each
    command then loads only the layers it runs.  The stand-in is bound
    under the same name in this module, and the handlers look the name up
    at call time, so rebinding it (as tracing tools do) still takes effect.
    """
    module = f".{_EXPORTS[name]}"

    def stand_in(*args, **kwargs):
        return getattr(import_module(module, __package__), name)(
            *args, **kwargs)

    return stand_in


read_trace_csv = _deferred("read_trace_csv")
solve_constant = _deferred("solve_constant")
solve_linear = _deferred("solve_linear")
solve_piecewise_constant = _deferred("solve_piecewise_constant")
solve_piecewise_linear = _deferred("solve_piecewise_linear")
simulate = _deferred("simulate")
ensemble_average = _deferred("ensemble_average")
write_ensemble_csv = _deferred("write_ensemble_csv")
fit_piecewise = _deferred("fit_piecewise")
write_fit_result_json = _deferred("write_fit_result_json")
grid_mle = _deferred("grid_mle")

class ConfigError(ResdynError, ValueError):
    """Configuration problem; the message names the offending field."""


# The JSON types a config field may be read as, by the Python type it is
# returned as.
_JSON_TYPES = {float: "number", int: "integer", dict: "object"}


def _is_json(raw, kind: type) -> bool:
    """Whether ``raw`` is a JSON value of ``kind``, a key of ``_JSON_TYPES``.

    A bool is neither a number nor an integer, though Python counts it an
    int.
    """
    return (isinstance(raw, (int, float) if kind is float else kind)
            and not isinstance(raw, bool))


def _get(obj: dict, key: str, path: str, kind: type | None = None,
         required: bool = True, default=None):
    """The value of ``key``; an absent key and a JSON null are alike.

    Given a ``kind`` from ``_JSON_TYPES``, the value must be of that JSON
    type, and is returned as that Python type.
    """
    raw = obj.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"{path}{key}: missing required field")
        return default
    if kind is None:
        return raw
    if not _is_json(raw, kind):
        name = _JSON_TYPES[kind]
        article = "an" if name[0] in "aeiou" else "a"
        raise ConfigError(f"{path}{key}: expected {article} {name}, "
                          f"got {raw!r}")
    return _as(kind, raw, path + key)


def _as(kind: type, raw, where: str):
    """``raw``, a JSON value of ``kind``, as that Python type; a JSON integer
    is a number only if a float can hold it."""
    try:
        return kind(raw)
    except OverflowError:
        raise ConfigError(f"{where}: number too large for a float") from None


def _list_of(obj: dict, key: str, path: str, kind: type) -> list:
    """The list at ``key``, each of whose items is of JSON type ``kind``."""
    raw = _get(obj, key, path)
    if not (isinstance(raw, list) and all(_is_json(x, kind) for x in raw)):
        raise ConfigError(
            f"{path}{key}: expected a list of {_JSON_TYPES[kind]}s")
    return [_as(kind, x, path + key) for x in raw]


def _at(path: str, build, /, *args, **kwargs):
    """``build(*args, **kwargs)`` for the config section at ``path``.

    A ResdynError from ``build`` becomes ``ConfigError("<path>: <message>")``,
    or keeps its message at the top level (an empty ``path``).
    """
    try:
        return build(*args, **kwargs)
    except ResdynError as exc:
        where = path.rstrip(".")
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def _from_json(cls, obj: dict, path: str):
    """Build the record ``cls`` from the JSON object ``obj`` at ``path``.

    A field without a default is a required number; any other field is an
    optional number, and an absent one keeps its default.  Errors from
    ``cls`` carry ``path``, as :func:`_at` words them.
    """
    kwargs = {}
    for name in cls._fields:
        value = _get(obj, name, path, float,
                     required=name not in cls._defaults)
        if value is not None:
            kwargs[name] = value
    return _at(path, cls, **kwargs)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except (ValueError, RecursionError) as exc:
        # json raises RecursionError on arrays or objects nested too deep,
        # and a plain ValueError on an integer of more than 4300 digits.
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _build_grid(config: dict) -> np.ndarray:
    import numpy as np

    grid = _get(config, "grid", "", dict)
    start = _get(grid, "start", "grid.", float)
    end = _get(grid, "end", "grid.", float)
    step = _get(grid, "step", "grid.", float)
    if not math.isfinite(start):
        raise ConfigError(f"grid.start: must be finite, got {start}")
    if not 0.0 < step < math.inf:
        raise ConfigError(f"grid.step: must be > 0 and finite, got {step}")
    if not end > start:
        raise ConfigError(f"grid.end: must exceed grid.start, got {end}")
    span = (end - start) / step
    if not span < MAX_GRID_POINTS - 0.5:
        raise ConfigError(
            f"grid.end/grid.step: grid of more than {MAX_GRID_POINTS} points: "
            f"(end - start) / step = {span:.6g}"
        )
    count = int(round(span))
    if not math.isclose(start + count * step, end, rel_tol=0.0,
                        abs_tol=1e-9 * max(1.0, abs(end))):
        raise ConfigError(
            "grid.step: span (end - start) must be a whole number of steps"
        )
    if count < 1:
        raise ConfigError("grid.step: grid needs at least two samples")
    return start + step * np.arange(count + 1)


def _schedule(cls, params: dict):
    """A piecewise schedule whose segments are ``cls._segment_type``."""
    segments = tuple(
        _from_json(cls._segment_type, seg, f"params.segments[{i}].")
        for i, seg in enumerate(_list_of(params, "segments", "params.", dict))
    )
    breakpoints = _list_of(params, "breakpoints", "params.", float)
    # The segments were checked one by one above, so what the schedule
    # still refuses is its breakpoints or their count.
    return _at("params.breakpoints", cls, breakpoints=breakpoints,
               segments=segments)


def _scenario_common(config: dict) -> tuple[str, float, float]:
    kind = _get(config, "kind", "")
    if kind not in MODEL_KINDS:
        raise ConfigError(
            f"kind: expected one of {', '.join(MODEL_KINDS)}, got {kind!r}"
        )
    f0 = _get(config, "f0", "", float, required=False, default=1.0)
    f_init = _get(config, "f_init", "", float, required=False, default=f0)
    return kind, f0, f_init


# The closed-form scenario kinds: kind -> (the reader of its ``params``
# block, its solver).  The solver is looked up in this module when it is
# called, as the handlers look up theirs.
_SOLVABLE = {
    "constant": (lambda p: _from_json(ConstantImpacts, p, "params."),
                 lambda *a: solve_constant(*a)),
    "piecewise-constant": (lambda p: _schedule(PiecewiseConstantSchedule, p),
                           lambda *a: solve_piecewise_constant(*a)),
    "linear": (lambda p: _from_json(LinearImpacts, p, "params."),
               lambda *a: solve_linear(*a)),
    "piecewise-linear": (lambda p: _schedule(PiecewiseLinearSchedule, p),
                         lambda *a: solve_piecewise_linear(*a)),
}

MODEL_KINDS = (*_SOLVABLE, "sde")


def _run_solve(config: dict):
    kind, f0, f_init = _scenario_common(config)
    params = _get(config, "params", "", dict)
    grid = _build_grid(config)
    if kind not in _SOLVABLE:
        raise ConfigError(
            "kind: 'sde' scenarios run under the simulate command")
    read, solve = _SOLVABLE[kind]
    return solve(read(params), f_init, f0, grid)


def _run_simulate(config: dict, seed_override: int | None):
    from . import SdeParams
    from .stochastic import _check_run

    kind, f0, f_init = _scenario_common(config)
    if kind in _SOLVABLE:
        raise ConfigError(
            f"kind: simulate requires an 'sde' scenario, got {kind!r}"
        )
    params_obj = _get(config, "params", "", dict)
    params = _from_json(SdeParams, params_obj, "params.")
    steps = _get(params_obj, "steps", "params.", int)
    dt = _get(params_obj, "dt", "params.", float, required=False, default=1.0)
    seed = _get(params_obj, "seed", "params.", int, required=False, default=0)
    n = _get(params_obj, "n", "params.", int, required=False, default=1)
    _at("params", _check_run, steps, dt, n)
    if seed_override is not None:
        seed = seed_override
    if n == 1:
        return write_trace_csv, simulate(params, f_init, f0, steps, dt,
                                         seed=seed)
    return write_ensemble_csv, ensemble_average(params, f_init, f0, steps, dt,
                                                n=n, master_seed=seed)


def _mle_grid(doc: dict) -> MleGrid:
    from . import GridAxis, MleGrid

    section = _get(doc, "mle_grid", "", dict)
    return _at("mle_grid", MleGrid, **{
        name: _from_json(GridAxis, _get(section, name, "mle_grid.", dict),
                         f"mle_grid.{name}.")
        for name in MleGrid._fields
    })


def cmd_solve(args) -> int:
    trace = _run_solve(_load_json(args.config))
    write_trace_csv(trace, args.out)
    return 0


def cmd_simulate(args) -> int:
    write, result = _run_simulate(_load_json(args.config), args.seed)
    write(result, args.out)
    return 0


def cmd_fit(args) -> int:
    from . import FitConfig

    trace = read_trace_csv(args.trace)
    doc = _load_json(args.config) if args.config else {}
    result = fit_piecewise(trace, _from_json(FitConfig, doc, ""))
    try:
        mle = grid_mle(trace, _mle_grid(doc)) if args.mle else None
    except DomainError as exc:  # the grid's errors are ConfigErrors
        raise InvalidTraceError(f"{args.trace}: {exc}") from exc
    write_fit_result_json(result, args.out, mle)
    return 0


def cmd_metrics(args) -> int:
    trace = read_trace_csv(args.trace)
    try:
        metrics = {
            "accomplishment": accomplishment(trace),
            "auc_resilience": auc_resilience(trace),
        }
    except DomainError as exc:
        raise InvalidTraceError(f"{args.trace}: {exc}") from exc
    print(json.dumps(metrics, allow_nan=False))
    return 0


# The subcommands, in the order ``--help`` lists them: name -> (handler,
# help, positionals, options).  A positional is (name, help).  An option
# is (flag, help, required, kind): ``str`` or ``int``, an option whose
# value is converted by ``kind`` and defaults to None, or ``bool``, a flag
# that is False unless given.
_COMMANDS = {
    "solve": (cmd_solve, "evaluate a closed-form model", (), (
        ("--config", "scenario JSON", True, str),
        ("--out", "output trace CSV", True, str),
    )),
    "simulate": (cmd_simulate, "run the stochastic model", (), (
        ("--config", "scenario JSON", True, str),
        ("--out", "output trace CSV (n=1) or ensemble CSV (n>1)", True, str),
        ("--seed", "override the config seed", False, int),
    )),
    "fit": (cmd_fit, "fit the two-phase model to a trace",
            (("trace", "input trace CSV"),), (
        ("--config", "fit-config JSON", False, str),
        ("--out", "output result JSON", True, str),
        ("--mle", "also run the grid likelihood search "
                  "(needs mle_grid in the fit config)", False, bool),
    )),
    "metrics": (cmd_metrics, "print accomplishment and AUC resilience as JSON",
                (("trace", "input trace CSV"),), ()),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="resdyn",
        description="Solve, simulate, fit, and score functionality traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, positionals, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for dest, about in positionals:
            command.add_argument(dest, help=about)
        for flag, about, required, kind in options:
            if kind is bool:
                command.add_argument(flag, action="store_true", help=about)
            else:
                command.add_argument(flag, required=required, type=kind,
                                     help=about)
        command.set_defaults(func=handler)
    return parser


def _read_args(argv) -> SimpleNamespace | None:
    """For an ``argv`` of the plain form, a namespace with the attributes
    of the one ``_build_parser().parse_args(argv)`` returns; else None,
    and the parser reads it.

    The plain form is a subcommand, then its positionals and its options,
    each option spelled out in full and given at most once, each value the
    token after its option, with every required option present.  No token
    after the subcommand starts with ``-`` unless it is an option, and an
    ``int`` option's value is one that ``int`` takes.  So help, options
    abbreviated, joined by ``=`` or repeated, ``--``, negative numbers and
    every usage error are left to argparse, which words them.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, positionals, options = _COMMANDS[argv[0]]
    kinds = {flag: kind for flag, _, _, kind in options}
    given, words = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        kind = kinds.get(token)
        if kind is None or token in given:
            return None
        if kind is bool:
            given[token] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            given[token] = kind(value)
        except ValueError:
            return None
    if len(words) != len(positionals):
        return None
    args = {dest: word for (dest, _), word in zip(positionals, words)}
    for flag, _, required, kind in options:
        if required and flag not in given:
            return None
        args[flag[2:]] = given.get(flag, False if kind is bool else None)
    return SimpleNamespace(command=argv[0], func=handler, **args)


def main(argv=None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console-script entry point: exits with ``main()``'s status.

    Whatever way the command ends, everything still alive then moves to the
    cycle collector's permanent generation, so the interpreter's shutdown
    does not traverse numpy's and resdyn's module objects to free memory the
    OS reclaims at exit; ``atexit`` handlers and stream flushing run as
    before.  ``main()`` leaves the collector alone.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
