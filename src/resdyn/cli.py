"""Batch command-line front end.

Four subcommands cover the library surface:

* ``resdyn solve    --config scenario.json --out trace.csv``
* ``resdyn simulate --config scenario.json --out trace_or_ensemble.csv``
* ``resdyn fit      TRACE.csv [--config fit.json] --out result.json [--mle]``
* ``resdyn metrics  TRACE.csv``

Scenario configs are single JSON documents with a ``kind`` field
(``constant``, ``piecewise-constant``, ``linear``, ``piecewise-linear``,
or ``sde``) and a matching ``params`` block; see the README for the full
schemas.  :mod:`resdyn.config` reads them, and a command imports it only
when it reads a config.  Every command is deterministic given its inputs,
and exit status 0 means the outputs were fully written.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .core import (DomainError, InvalidTraceError, NoSwitchError, ResdynError,
                   write_trace_csv)

if TYPE_CHECKING:
    import argparse


def _deferred(name: str):
    """A stand-in for the public ``resdyn.<name>``, looked up when called.

    The package imports the name's module on that first lookup, so each
    command loads only the layers it runs.  The stand-in is bound under the
    same name in this module, and the handlers look the name up at call
    time, so rebinding it (as tracing tools do) still takes effect.
    """

    def stand_in(*args, **kwargs):
        return getattr(sys.modules[__package__], name)(*args, **kwargs)

    return stand_in


read_trace_csv = _deferred("read_trace_csv")
accomplishment = _deferred("accomplishment")
auc_resilience = _deferred("auc_resilience")
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


def cmd_solve(args) -> int:
    from .config import load_json, read_closed_form

    solver, scenario = read_closed_form(load_json(args.config))
    # Looked up in this module when called, as the other handlers look up
    # theirs, so that rebinding a solver here takes effect.
    write_trace_csv(globals()[solver](*scenario), args.out)
    return 0


def cmd_simulate(args) -> int:
    from .config import load_json, read_sde

    params, f_init, f0, steps, dt, seed, n = read_sde(load_json(args.config))
    if args.seed is not None:
        seed = args.seed
    if n == 1:
        write_trace_csv(simulate(params, f_init, f0, steps, dt, seed=seed),
                        args.out)
    else:
        write_ensemble_csv(ensemble_average(params, f_init, f0, steps, dt,
                                            n=n, master_seed=seed), args.out)
    return 0


def cmd_fit(args) -> int:
    trace = read_trace_csv(args.trace)
    doc = fit_config = None
    if args.config is not None:
        from .config import load_json, read_fit_config

        doc = load_json(args.config)
        fit_config = read_fit_config(doc)
    try:
        result = fit_piecewise(trace, fit_config)
    except NoSwitchError as exc:
        raise NoSwitchError(f"{args.trace}: {exc}") from exc
    mle = None
    if args.mle:
        from .config import read_mle_grid

        grid = read_mle_grid({} if doc is None else doc)
        try:
            mle = grid_mle(trace, grid)
        except DomainError as exc:  # the grid passed its checks above
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
