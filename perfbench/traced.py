"""Traced in-process run of one workload's commands.

Imports ``resdyn.cli`` once, then calls ``resdyn.cli.main(argv)`` for each
command of the workload in passes: an untraced and a traced pass, each
first in turn, until ``--seconds`` have passed (at least one pair).  In a
traced pass the layer entry points that ``resdyn.cli`` imports are rebound
in its namespace to timing wrappers defined here, so the program is not
edited; calls made inside a layer (such as ``ensemble_average`` calling
``stochastic.simulate``) stay unwrapped.  Spans stay in memory and are
written once, with per-pass layer totals, to the ``--out`` JSON file.

Usage: python perfbench/traced.py --workload W --inputs DIR --outputs DIR
       --seconds S --out FILE
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

perf = time.perf_counter


def _rows(args, result):
    return {"rows": int(result.values.size)}


def _bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _points(args, result):
    return {"points": int(result.values.size)}


def _realization_steps(args, result):
    return {"realization_steps": result.n * (result.mean_trace.values.size - 1)}


def _mle(args, result):
    steps = args[0].values.size - 1
    return {"cells": result.n_cells, "transitions": result.n_cells * steps}


# Name bound in resdyn.cli -> (layer span name, work counter or None).
ENTRY_POINTS = {
    "read_trace_csv": ("core.read_trace", _rows),
    "write_trace_csv": ("core.write_trace", _bytes),
    "accomplishment": ("core.metrics", None),
    "auc_resilience": ("core.metrics", None),
    "solve_constant": ("closed_form.solve", _points),
    "solve_linear": ("closed_form.solve", _points),
    "solve_piecewise_constant": ("closed_form.solve", _points),
    "solve_piecewise_linear": ("closed_form.solve", _points),
    "simulate": ("stochastic.simulate", None),
    "ensemble_average": ("stochastic.ensemble", _realization_steps),
    "write_ensemble_csv": ("stochastic.write_ensemble", None),
    "fit_piecewise": ("estimation.fit", None),
    "grid_mle": ("estimation.mle", _mle),
}


class Tracer:
    """Spans (name, start, end, parent, command id) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int | None] = [None]
        self.cmd = -1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {"name": name, "parent": self.stack[-1], "cmd": self.cmd}
        self.spans.append(record)
        self.stack.append(sid)
        record["start"] = perf()
        try:
            yield record
        finally:
            record["end"] = perf()
            self.stack.pop()

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"] = counter(args, result)
            return result

        return traced


def call_main(cli, cmd: wl.Command) -> tuple[int, bytes]:
    """Run one command in-process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main([*cmd.args])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue().encode()


def layer_totals(spans: list[dict], pass_of: dict[int, int]) -> list[dict]:
    """Seconds per layer and work counts, per pass of commands.

    ``pass_of`` maps a command id to its pass; spans of other commands are
    skipped.  ``cli.self`` is the ``cli.main`` span minus the time its child
    spans cover.
    """
    totals = [{"seconds": {"cli.self": 0.0}, "counts": {}}
              for _ in range(max(pass_of.values()) + 1)]
    for s in spans:
        if s["cmd"] not in pass_of:
            continue
        total = totals[pass_of[s["cmd"]]]
        dur = s["end"] - s["start"]
        seconds = total["seconds"]
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + dur
        if s["name"] == "cli.main":
            seconds["cli.self"] += dur
        elif s["parent"] is not None and spans[s["parent"]]["name"] == "cli.main":
            seconds["cli.self"] -= dur
        for key, n in s.get("counts", {}).items():
            name = f"{s['name']}.{key}"
            total["counts"][name] = total["counts"].get(name, 0) + n
    return totals


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--outputs", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    wl.import_resdyn()
    import resdyn.cli as cli

    tracer = Tracer()
    original = {name: getattr(cli, name) for name in ENTRY_POINTS if hasattr(cli, name)}
    traced = {name: tracer.wrap(ENTRY_POINTS[name][0], fn, ENTRY_POINTS[name][1])
              for name, fn in original.items()}
    cmds = wl.commands(args.workload, args.inputs, args.outputs)
    calls: list[dict] = []

    def record_call(cmd: wl.Command, code: int, stdout: bytes) -> None:
        digest = hashlib.sha256(wl.output_bytes(cmd, stdout)).hexdigest() if code == 0 else ""
        calls.append({"name": cmd.name, "code": code, "digest": digest})

    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    pass_of: dict[int, int] = {}
    t_start = perf()
    modes = ["untraced", "traced"]
    while not walls["traced"] or perf() - t_start < args.seconds:
        modes.reverse()  # alternate which mode runs first in each pair
        for mode in modes:
            bindings = traced if mode == "traced" else original
            for name, fn in bindings.items():
                setattr(cli, name, fn)
            t0 = perf()
            for cmd in cmds:
                tracer.cmd += 1
                if mode == "traced":
                    pass_of[tracer.cmd] = len(walls["traced"])
                    with tracer.span("cli.main") as record:
                        code, stdout = call_main(cli, cmd)
                    record["command"] = cmd.name
                else:
                    code, stdout = call_main(cli, cmd)
                # Outputs are hashed outside the spans and the pass time.
                t_hash = perf()
                record_call(cmd, code, stdout)
                t0 += perf() - t_hash
            walls[mode].append(perf() - t0)
    for name, fn in original.items():
        setattr(cli, name, fn)

    passes = layer_totals(tracer.spans, pass_of)
    main_s = {}
    for s in tracer.spans:
        if s["name"] == "cli.main":
            main_s.setdefault(s["command"], []).append(s["end"] - s["start"])
    summary = {
        "passes": passes,
        "walls": walls,
        "main_s": {k: statistics.median(v) for k, v in main_s.items()},
        "calls": calls,
    }

    if args.workload == "ensemble":
        # tracemalloc slows allocation, so the peak gets a pass of its own.
        peaks = []
        ensemble = original["ensemble_average"]

        def probe(*a, **kw):
            tracemalloc.reset_peak()
            result = ensemble(*a, **kw)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return result

        cli.ensemble_average = probe
        tracemalloc.start()
        try:
            code, stdout = call_main(cli, cmds[0])
        finally:
            tracemalloc.stop()
            cli.ensemble_average = ensemble
        record_call(cmds[0], code, stdout)
        summary["ensemble_peak_bytes"] = max(peaks)

    if args.workload == "cli-short":
        # The RK4 oracle is reached by no CLI path; time it as the solve
        # check runs it, on the solve commands' own grids.
        import resdyn

        checker = wl.Checker(args.inputs)
        oracle = resdyn.integrate_reference
        resdyn.integrate_reference = tracer.wrap("core.integrate_reference", oracle, None)
        tracer.cmd += 1
        try:
            for cmd in cmds:
                if cmd.name in wl.SOLVE_TOL:
                    checker.check(cmd, b"")
        finally:
            resdyn.integrate_reference = oracle
        summary["oracle"] = layer_totals(tracer.spans, {tracer.cmd: 0})[0]["seconds"]

    summary["spans"] = tracer.spans
    args.out.write_text(json.dumps(summary))


if __name__ == "__main__":
    main()
