"""Closed-loop benchmark of the resdyn command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-short,ensemble,mle} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` one client runs the workload's ``python -m resdyn``
commands round-robin, each starting only after the previous one exited,
until ``S`` seconds have passed at a round boundary, and reports the
end-to-end metrics.  With ``--trace 1`` it reports the per-layer metrics:
import timings from fresh interpreters, then one fresh traced process per
workload (``traced.py``) and one cold run of every command for the time
accounting.  Every output is checked (see ``workloads.Checker``); the last
line of standard output is the JSON result.  See NOTES.md.

``--record-digests`` writes ``digests.json``: the SHA-256 of every
command's output on the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT_DIR = wl.ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUPS = 3          # set-up repeats per run; setup_s is their median
DEADLINE_S = 160.0  # no command may run past this point of the run
# A cold command whose code no change to resdyn can touch, run before every
# timed command and around every set-up.  The host this was written on is
# shared and its speed drifts by a third over minutes; end-to-end times are
# reported scaled by REFERENCE_S / (median reference time of their phase).
# There this cut the spread of run medians on cli-short and ensemble about
# threefold; on mle no reference tried tracked the drift (see NOTES.md).
REFERENCE = "import numpy"
REFERENCE_S = 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
perf = time.perf_counter

# Per-layer metric -> (workload whose traced process measures it, layer
# span or span counter, unit).  Times are per pass over the workload's
# command list, the median over traced passes.
LAYER_METRICS = {
    "cli.self_s": ("cli-short", "cli.self", "s"),
    "core.read_trace_s": ("mle", "core.read_trace", "s"),
    "core.read_rows": ("mle", "core.read_trace.rows", "count"),
    "core.write_trace_s": ("cli-short", "core.write_trace", "s"),
    "core.write_bytes": ("cli-short", "core.write_trace.bytes", "B"),
    "core.metrics_s": ("cli-short", "core.metrics", "s"),
    "closed_form.solve_s": ("cli-short", "closed_form.solve", "s"),
    "closed_form.points": ("cli-short", "closed_form.solve.points", "count"),
    "stochastic.simulate_s": ("cli-short", "stochastic.simulate", "s"),
    "stochastic.ensemble_s": ("ensemble", "stochastic.ensemble", "s"),
    "stochastic.realization_steps": ("ensemble", "stochastic.ensemble.realization_steps",
                                     "count"),
    "stochastic.write_ensemble_s": ("ensemble", "stochastic.write_ensemble", "s"),
    "estimation.fit_s": ("cli-short", "estimation.fit", "s"),
    "estimation.mle_s": ("mle", "estimation.mle", "s"),
    "estimation.mle_cells": ("mle", "estimation.mle.cells", "count"),
    "estimation.mle_transitions": ("mle", "estimation.mle.transitions", "count"),
}


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Sample:
    """One finished child process."""

    def __init__(self, name, wall, code, cpu=0.0, rss_mib=0.0, stdout=b""):
        self.name = name
        self.wall = wall
        self.code = code
        self.cpu = cpu
        self.rss_mib = rss_mib
        self.stdout = stdout
        self.digest = ""
        self.error = None


def spawn(name: str, argv: list[str], log: Path, deadline: float) -> Sample:
    """Run ``argv`` to completion; wall time is from spawn to reaped exit.

    A child still running at ``deadline`` is killed and reported with exit
    code -1, so the run ends in time.
    """
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    env = child_env()
    t0 = perf()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped = False
    try:
        signal.setitimer(signal.ITIMER_REAL, max(deadline - t0, 0.01))
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    except Timeout:
        return Sample(name, perf() - t0, -1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    sample = Sample(name, perf() - t0, os.waitstatus_to_exitcode(status),
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    out.read_bytes())
    if sample.code != 0:
        sys.stderr.write(f"{name} exited {sample.code}: {err.read_text()[-2000:]}\n")
    return sample


class Run:
    """One benchmark run: its work directory, deadline and every command."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = perf() + DEADLINE_S
        self.work = OUT_DIR / f"work-{os.getpid()}"
        self.inputs = self.work / "in0"
        self.outputs = self.work / "out"
        self.samples: list[Sample] = []
        self.first: dict[str, bytes] = {}
        self.first_digest: dict[str, str] = {}
        self.outputs.mkdir(parents=True, exist_ok=True)

    def spawn(self, name: str, argv: list[str]) -> Sample:
        return spawn(name, [sys.executable, *argv], self.work / "log", self.deadline)

    def command(self, cmd: wl.Command) -> Sample:
        sample = self.spawn(cmd.name, ["-m", "resdyn", *cmd.args])
        if sample.code == 0:
            data = wl.output_bytes(cmd, sample.stdout)
            self.record(cmd, sample, hashlib.sha256(data).hexdigest())
        self.samples.append(sample)
        return sample

    def record(self, cmd: wl.Command, sample: Sample, digest: str) -> None:
        """Note an output's digest; keep a copy of each command's first one."""
        sample.digest = digest
        if cmd.name in self.first_digest:
            return
        self.first_digest[cmd.name] = digest
        keep = self.work / "first"
        keep.mkdir(exist_ok=True)
        if cmd.out is not None:
            shutil.copy(cmd.out, keep / Path(cmd.out).name)
        self.first[cmd.name] = sample.stdout

    def generate(self, inputs: Path) -> None:
        gen = self.spawn("generate", [str(HERE / "workloads.py"), str(self.seed),
                                      str(inputs)])
        if gen.code != 0:
            raise SystemExit(f"input generation failed (exit {gen.code})")

    def reference(self) -> float:
        ref = self.spawn("reference", ["-c", REFERENCE])
        if ref.code != 0:
            raise SystemExit("the reference command failed")
        return ref.wall

    def setup(self, k: int) -> float:
        """Generate inputs into ``in<k>`` and run one untimed warm-up command."""
        t0 = perf()
        self.generate(self.work / f"in{k}")
        self.command(wl.commands(self.workload, self.work / f"in{k}", self.outputs)[0])
        return perf() - t0

    def verdicts(self, recorded: dict) -> int:
        """Check every command's output; return how many commands failed.

        A command fails on a non-zero exit, on output that differs from the
        first output of the same command in this run, on a failed check of
        that first output, or on a digest other than ``recorded``.
        """
        checker = wl.Checker(self.inputs)
        problems = {}
        for workload in wl.WORKLOADS:
            for cmd in wl.commands(workload, self.inputs, self.work / "first"):
                if cmd.name in self.first:
                    try:
                        problems[cmd.name] = checker.check(cmd, self.first[cmd.name])
                    except Exception as exc:  # malformed output fails its check
                        problems[cmd.name] = f"check raised {exc!r}"
        failed = 0
        for s in self.samples:
            if s.code != 0:
                s.error = f"exit code {s.code}"
            elif s.digest != self.first_digest[s.name]:
                s.error = "output differs from the first run of this command"
            elif problems.get(s.name):
                s.error = problems[s.name]
            elif recorded and s.digest != recorded.get(s.name):
                s.error = "output differs from the digest recorded for the default seed"
            if s.error:
                failed += 1
                sys.stderr.write(f"FAILED {s.name}: {s.error}\n")
        return failed


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setups, setup_refs = [], []
    for k in range(SETUPS):
        setup_refs.append(run.reference())
        setups.append(run.setup(k))
        setup_refs.append(run.reference())
    inputs = {p.name: p.read_bytes() for p in run.inputs.iterdir()}
    for k in range(1, SETUPS):
        if {p.name: p.read_bytes() for p in (run.work / f"in{k}").iterdir()} != inputs:
            raise SystemExit("input generation is not deterministic for this seed")

    cmds = wl.commands(run.workload, run.inputs, run.outputs)
    timed: list[Sample] = []
    refs: list[float] = []
    t_loop = perf()
    while not timed or (perf() - t_loop < seconds and perf() < run.deadline):
        for cmd in cmds:
            refs.append(run.reference())
            timed.append(run.command(cmd))
    walls = [s.wall for s in timed]
    raw = {
        "cmd_p50_s": statistics.median(walls),
        "cmd_cpu_s": statistics.median(s.cpu for s in timed),
        "cmds_per_s": len(timed) / sum(walls),
        "setup_s": statistics.median(setups),
    }
    # Times are scaled to a host on which the reference takes REFERENCE_S,
    # each phase by the references taken during it.
    scale = REFERENCE_S / statistics.median(refs)
    setup_scale = REFERENCE_S / statistics.median(setup_refs)
    metrics = {
        "cmd_p50_s": (raw["cmd_p50_s"] * scale, "s"),
        "cmd_cpu_s": (raw["cmd_cpu_s"] * scale, "s"),
        "cmds_per_s": (raw["cmds_per_s"] / scale, "1/s"),
        "peak_rss_mib": (max(s.rss_mib for s in timed), "MiB"),
        "setup_s": (raw["setup_s"] * setup_scale, "s"),
    }
    extra = {"timed_commands": len(timed), "reference_p50_s": statistics.median(refs),
             "setup_reference_p50_s": statistics.median(setup_refs),
             "unscaled": raw, "setup_runs_s": setups}
    # The median is the highest percentile with ten samples beyond it until
    # a run holds 100 commands.
    if len(timed) >= 100:
        extra["cmd_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    return metrics, extra


MODULE_COUNT = (
    "import sys, json; before = set(sys.modules); import resdyn.cli; "
    "new = set(sys.modules) - before; print(json.dumps([len(new), "
    "sum(m == 'scipy' or m.startswith('scipy.') for m in new)]))")


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    run.setup(0)
    # One cold run of every command, each right after a fresh interpreter and
    # a bare import of resdyn.cli, so the accounting below compares timings
    # taken moments apart on this shared host.
    interp, imports, cold = [], [], {}
    for workload in wl.WORKLOADS:
        for cmd in wl.commands(workload, run.inputs, run.outputs):
            interp.append(run.spawn("interp", ["-c", "pass"]).wall)
            imports.append(run.spawn("import", ["-c", "import resdyn.cli"]).wall)
            cold[cmd.name] = (workload, imports[-1], run.command(cmd).wall)
    counted = run.spawn("modules", ["-c", MODULE_COUNT])
    if counted.code != 0:
        raise SystemExit("importing resdyn.cli failed")
    modules, scipy_modules = json.loads(counted.stdout)

    traces = {}
    for workload in wl.WORKLOADS:
        out = run.work / f"trace-{workload}.json"
        proc = run.spawn(f"trace {workload}", [
            str(HERE / "traced.py"), "--workload", workload,
            "--inputs", str(run.inputs), "--outputs", str(run.outputs),
            "--seconds", str(seconds / len(wl.WORKLOADS)), "--out", str(out)])
        if proc.code != 0:
            raise SystemExit(f"traced run of {workload} failed")
        traces[workload] = json.loads(out.read_text())
        for call in traces[workload]["calls"]:
            sample = Sample(call["name"], 0.0, call["code"])
            if call["code"] == 0:
                run.record(wl.Command(call["name"], [], None), sample, call["digest"])
            run.samples.append(sample)

    metrics = {}
    for name, (workload, key, unit) in LAYER_METRICS.items():
        passes = traces[workload]["passes"]
        if unit == "s":
            value = statistics.median(p["seconds"].get(key, 0.0) for p in passes)
        else:
            values = {p["counts"].get(key, 0) for p in passes}
            if len(values) != 1:
                sys.stderr.write(f"{name} differs between passes: {sorted(values)}\n")
            value = max(values)
        metrics[name] = (value, unit)
    ens, mle = metrics["stochastic.ensemble_s"][0], metrics["estimation.mle_s"][0]
    walls = {mode: sum(statistics.median(t["walls"][mode]) for t in traces.values())
             for mode in ("untraced", "traced")}
    metrics.update({
        "import.interp_s": (statistics.median(interp), "s"),
        "import.resdyn_s": (statistics.median(imports), "s"),
        "import.modules": (modules, "count"),
        "import.scipy_modules": (scipy_modules, "count"),
        "core.integrate_reference_s": (
            traces["cli-short"]["oracle"]["core.integrate_reference"], "s"),
        "stochastic.ensemble_ns_per_step": (
            ens / metrics["stochastic.realization_steps"][0] * 1e9, "ns"),
        "stochastic.ensemble_peak_mib": (
            traces["ensemble"]["ensemble_peak_bytes"] / 2**20, "MiB"),
        "estimation.mle_ns_per_cell_step": (
            mle / metrics["estimation.mle_transitions"][0] * 1e9, "ns"),
        "trace.overhead_frac": (
            (walls["traced"] - walls["untraced"]) / walls["untraced"], "ratio"),
    })

    # cold command = interpreter + import + cli.main + residue (spawn, exit).
    accounting = {}
    for name, (workload, import_s, wall) in cold.items():
        main_s = traces[workload]["main_s"][name]
        accounting[name] = {"cold_s": wall, "import_s": import_s, "main_s": main_s,
                            "residue_s": wall - import_s - main_s}
        print(f"accounting {name}: cold {wall:.4f} s = import {import_s:.4f} s "
              f"+ cli.main {main_s:.4f} s + residue "
              f"{wall - import_s - main_s:.4f} s")
    for trace in traces.values():
        trace.pop("calls")
    return metrics, {"accounting": accounting, "traces": traces}


def loadavg() -> list[str]:
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:3]


def machine_record() -> dict:
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    sha = None
    if (wl.ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
    # The benchmark checkout is usually not a git repository, so the source
    # tree is identified by its own digest as well.
    src = hashlib.sha256()
    for path in sorted((wl.SRC / "resdyn").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_sha": sha, "src_sha256": src.hexdigest(),
            "loadavg_start": loadavg()}


def record_digests() -> None:
    run = Run("all", DEFAULT_SEED)
    try:
        run.generate(run.inputs)
        for workload in wl.WORKLOADS:
            for cmd in wl.commands(workload, run.inputs, run.outputs):
                run.command(cmd)
        if run.verdicts({}):
            raise SystemExit("outputs fail their checks; no digests written")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(run.first_digest, indent=1, sort_keys=True) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, default="cli-short")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (wl.SRC / "resdyn" / "cli.py").is_file() or not wl.NOTIONAL.is_file():
        raise SystemExit(f"the benchmark needs src/resdyn and data/notional.csv "
                         f"under {wl.ROOT}")
    if args.record_digests:
        return record_digests()

    machine = machine_record()
    recorded = json.loads(DIGESTS.read_text()) if args.seed == DEFAULT_SEED else {}
    run = Run(args.workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(run, args.seconds)
        failed = run.verdicts(recorded)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    machine["loadavg_end"] = loadavg()
    attempted = len(run.samples)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} commands, {failed} failed, fail_frac "
          f"{failed / attempted:.4g} ratio")
    for key, value in extra.items():
        if key not in ("accounting", "traces"):
            print(f"  {key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print("machine " + json.dumps(machine))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "metrics": metrics, "extra": extra,
              "commands": [vars(s) | {"stdout": None} for s in run.samples]}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
