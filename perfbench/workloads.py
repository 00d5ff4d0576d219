"""Seeded inputs, command lists and output checks of the resdyn benchmark.

Shared by ``run.py`` (closed-loop CLI timing) and ``traced.py`` (the traced
in-process run).  Input generation runs in its own process
(``python perfbench/workloads.py SEED OUT_DIR``) so that set-up time counts
the import it needs.  Everything here uses resdyn's public API only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NOTIONAL = ROOT / "data" / "notional.csv"

# Generating parameters of the `mle` trace and the `ensemble` scenario: the
# acceptance-suite reference (malware/bonware activity, effectiveness).
TRUTH = (0.08, 0.12, 0.34, 0.71)
# The acceptance-suite grid (ROADMAP item 4): 5 x 5 x 7 x 7 = 1225 cells.
MLE_GRID = {
    "malware_activity": {"start": 0.04, "stop": 0.12, "step": 0.02},
    "bonware_activity": {"start": 0.08, "stop": 0.16, "step": 0.02},
    "malware_effectiveness": {"start": 0.28, "stop": 0.40, "step": 0.02},
    "bonware_effectiveness": {"start": 0.65, "stop": 0.77, "step": 0.02},
}
MLE_STEPS = 20000
MLE_CUTOFF = 18000.0
ENSEMBLE_N = 10000
ENSEMBLE_STEPS = 250
ENSEMBLE_ONSET = 5.0
ENSEMBLE_CUTOFF = 200.0

# Criterion-1 tolerances of the acceptance suite (sup norm against RK4).
SOLVE_TOL = {"solve-notional-pc": 1e-8, "solve-linear": 1e-6}
# Ensemble means must lie within this many standard errors of the exact
# expectation at every step.
ENSEMBLE_SIGMAS = 6.0


def import_resdyn():
    """Import resdyn from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import resdyn

    if Path(resdyn.__file__).resolve().parent != SRC / "resdyn":
        raise RuntimeError(f"resdyn imported from {resdyn.__file__}, not {SRC}")
    return resdyn


def _sde(steps: int, n: int, seed: int, **extra) -> dict:
    params = dict(zip(("malware_activity", "bonware_activity",
                       "malware_effectiveness", "bonware_effectiveness"), TRUTH))
    params.update(extra, steps=steps, dt=1.0, n=n, seed=seed)
    return {"kind": "sde", "f0": 1.0, "f_init": 1.0, "params": params}


def generate(seed: int, out: Path) -> None:
    """Write every workload's inputs for ``seed`` into ``out``."""
    rd = import_resdyn()
    import numpy as np

    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)

    def dump(name: str, doc: dict) -> None:
        (out / name).write_text(json.dumps(doc, indent=1) + "\n")

    fit = rd.fit_piecewise(rd.read_trace_csv(NOTIONAL))
    dump("notional_pc.json", {
        "kind": "piecewise-constant", "f0": 1.0, "f_init": 1.0,
        "grid": {"start": 0.0, "end": 125.0, "step": 0.5},
        "params": {
            "breakpoints": [float(t) for t in fit.schedule.breakpoints],
            "segments": [{"malware_impact": s.malware_impact,
                          "bonware_impact": s.bonware_impact}
                         for s in fit.schedule.segments],
        },
    })
    # Same draw as the criterion-1 linear cases: slopes keep both rates
    # non-negative past the 200 s window.
    alpha, nu = rng.uniform(0.01, 0.1, 2)
    dump("linear.json", {
        "kind": "linear", "f0": 1.0, "f_init": 1.0,
        "grid": {"start": 0.0, "end": 200.0, "step": 0.1},
        "params": {"bonware_intercept": float(alpha),
                   "bonware_slope": float(rng.uniform(0.0, alpha / 210.0)),
                   "malware_intercept": float(nu),
                   "malware_slope": float(rng.uniform(0.0, nu / 210.0))},
    })
    dump("sim1.json", _sde(125, 1, rd.split_seed(seed, 1)))
    dump("ensemble.json", _sde(ENSEMBLE_STEPS, ENSEMBLE_N, rd.split_seed(seed, 2),
                               malware_onset=ENSEMBLE_ONSET,
                               interaction_cutoff=ENSEMBLE_CUTOFF))
    params = rd.SdeParams(*TRUTH, interaction_cutoff=MLE_CUTOFF)
    trace = rd.simulate(params, 1.0, 1.0, MLE_STEPS, seed=rd.split_seed(seed, 3))
    rd.write_trace_csv(trace, out / "trace.csv")
    # The default FitConfig endpoints (100 s, 125 s) raise DomainError on a
    # trace whose switch lies past 100 s, before the MLE runs; see NOTES.md.
    dump("fit.json", {"activity_count_end": float(MLE_STEPS),
                      "recovery_fit_end": float(MLE_STEPS),
                      "mle_grid": MLE_GRID})


class Command:
    """One CLI invocation: ``python -m resdyn ARGS``, with its output file."""

    def __init__(self, name: str, args: list[str], out: str | None):
        self.name = name
        self.args = args
        self.out = out


def commands(workload: str, inputs: Path, outputs: Path) -> list[Command]:
    """The command list of ``workload``, run round-robin by the benchmark."""
    i, o = str(inputs) + "/", str(outputs) + "/"
    table = {
        "cli-short": [
            Command("metrics-notional", ["metrics", str(NOTIONAL)], None),
            Command("fit-notional", ["fit", str(NOTIONAL), "--out",
                                     o + "fit_notional.json"], o + "fit_notional.json"),
            Command("solve-notional-pc", ["solve", "--config", i + "notional_pc.json",
                                          "--out", o + "pc.csv"], o + "pc.csv"),
            Command("solve-linear", ["solve", "--config", i + "linear.json",
                                     "--out", o + "linear.csv"], o + "linear.csv"),
            Command("simulate-n1", ["simulate", "--config", i + "sim1.json",
                                    "--out", o + "sim1.csv"], o + "sim1.csv"),
        ],
        "ensemble": [
            Command("simulate-ensemble", ["simulate", "--config", i + "ensemble.json",
                                          "--out", o + "ensemble.csv"],
                    o + "ensemble.csv"),
        ],
        "mle": [
            Command("fit-mle", ["fit", i + "trace.csv", "--config", i + "fit.json",
                                "--mle", "--out", o + "mle.json"], o + "mle.json"),
        ],
    }
    return table[workload]


WORKLOADS = ("cli-short", "ensemble", "mle")


def output_bytes(cmd: Command, stdout: bytes) -> bytes:
    """What a command produced: its stdout followed by its output file."""
    if cmd.out is None:
        return stdout
    with open(cmd.out, "rb") as fh:
        return stdout + fh.read()


class Checker:
    """Checks one output of each command against the library and oracles."""

    def __init__(self, inputs: Path):
        self.rd = import_resdyn()
        self.inputs = inputs

    def _config(self, name: str) -> dict:
        return json.loads((self.inputs / name).read_text())

    def _trace(self, cmd: Command):
        return self.rd.read_trace_csv(cmd.out)

    def check(self, cmd: Command, stdout: bytes) -> str | None:
        """``None`` when the output is right, else the reason it is not."""
        return getattr(self, "_" + cmd.name.replace("-", "_"))(cmd, stdout)

    def _metrics_notional(self, cmd, stdout):
        trace = self.rd.read_trace_csv(NOTIONAL)
        want = {"accomplishment": self.rd.accomplishment(trace),
                "auc_resilience": self.rd.auc_resilience(trace)}
        got = json.loads(stdout)
        return None if got == want else f"metrics {got} != {want}"

    def _fit_notional(self, cmd, stdout):
        want = self.rd.fit_result_to_dict(
            self.rd.fit_piecewise(self.rd.read_trace_csv(NOTIONAL)))
        got = json.loads(Path(cmd.out).read_text())
        return None if got == want else "fit JSON differs from fit_piecewise"

    def _solve_notional_pc(self, cmd, stdout):
        import numpy as np

        trace = self._trace(cmd)
        cfg = self._config("notional_pc.json")
        points = cfg["params"]["breakpoints"]
        want = np.empty(trace.values.size)
        f = cfg["f_init"]
        # Window by window, so the fixed-step oracle never straddles a rate
        # jump; the 0.5 s grid holds every breakpoint.
        for j, seg in enumerate(cfg["params"]["segments"]):
            lo, hi = np.searchsorted(trace.times, points[j:j + 2])
            piece = self.rd.integrate_reference(
                lambda t, s=seg: s["bonware_impact"],
                lambda t, s=seg: s["malware_impact"],
                f, cfg["f0"], trace.times[lo:hi + 1])
            want[lo:hi + 1] = piece.values
            f = float(piece.values[-1])
        return self._close(cmd, trace, want, 251)

    def _solve_linear(self, cmd, stdout):
        trace = self._trace(cmd)
        cfg = self._config("linear.json")
        p = self.rd.LinearImpacts(**cfg["params"])
        want = self.rd.integrate_reference(p.bonware_at, p.malware_at,
                                           cfg["f_init"], cfg["f0"], trace.times)
        return self._close(cmd, trace, want.values, 2001)

    def _close(self, cmd, trace, want, points):
        if trace.values.size != points:
            return f"{trace.values.size} points, expected {points}"
        err = float(abs(trace.values - want).max())
        tol = SOLVE_TOL[cmd.name]
        return None if err <= tol else f"sup error {err:.3e} above {tol}"

    def _simulate_n1(self, cmd, stdout):
        import numpy as np

        p = self._config("sim1.json")["params"]
        params = self.rd.SdeParams(*TRUTH)
        want = self.rd.simulate(params, 1.0, 1.0, p["steps"], seed=p["seed"])
        ok = np.array_equal(self._trace(cmd).values, want.values)
        return None if ok else "trace differs from simulate()"

    def _simulate_ensemble(self, cmd, stdout):
        import numpy as np

        p = self._config("ensemble.json")["params"]
        with open(cmd.out, encoding="utf-8") as fh:
            header = fh.readline().strip()
        if header != f"# n={p['n']}, master_seed={p['seed']}":
            return f"bad ensemble header {header!r}"
        rows = np.loadtxt(cmd.out, delimiter=",", skiprows=2)
        if rows.shape != (p["steps"] + 1, 3):
            return f"ensemble CSV has shape {rows.shape}"
        # Exact mean: the step update is linear in F and its draws are
        # independent of F, so E[F] follows the same recursion with each
        # agent's expected impact activity * effectiveness / 2.
        m = self.rd.effective_impact(p["malware_activity"], p["malware_effectiveness"])
        b = self.rd.effective_impact(p["bonware_activity"], p["bonware_effectiveness"])
        expect = np.empty(p["steps"] + 1)
        expect[0] = f = 1.0
        for k in range(p["steps"]):
            on = p["malware_onset"] <= k < p["interaction_cutoff"]
            f = f - (m * f if on else 0.0) + b * (1.0 - f)
            expect[k + 1] = f
        z = abs(rows[:, 1] - expect) - ENSEMBLE_SIGMAS * rows[:, 2]
        worst = float(z.max())
        return None if worst <= 1e-12 else (
            f"mean leaves the exact expectation by {worst:.3e} beyond "
            f"{ENSEMBLE_SIGMAS} standard errors")

    def _fit_mle(self, cmd, stdout):
        mle = json.loads(Path(cmd.out).read_text())["mle"]
        got = tuple(mle[k] for k in MLE_GRID)
        if mle["n_cells"] != 1225:
            return f"n_cells {mle['n_cells']}"
        off = max(abs(g - t) for g, t in zip(got, TRUTH))
        return None if off <= 0.02 + 1e-12 else f"estimate {got} off truth {TRUTH}"


if __name__ == "__main__":
    generate(int(sys.argv[1]), Path(sys.argv[2]))
