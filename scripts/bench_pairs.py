#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change, and whether a gain holds.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds A-B [--seconds S]

Both directories are checkouts of this repository.  For each seed from A
to B the script runs ``perfbench/run.py --workload W --seed N --seconds S``
in both, one after the other, the parent first for the first seed and the
change first for the next, alternating, and reads each run's result from
the last line of its standard output.  A run that reports ``correct:
false`` or any failed command stops the script: its timings are of
outputs that were wrong.

For each end-to-end metric of ``BENCHMARK.json`` it then prints both
sides' medians and quartiles, how many pairs the change won, whether the
change regressed, and whether a claim of a gain on that metric holds.

- No regression: the change's median is worse than the parent's by at
  most the metric's relative ``bound`` ("within"), else "worse".  When the
  parent's interquartile range over its median is wider than the bound,
  the runs cannot tell, and the metric reads "unresolved" unless every
  run of the change beats every run of the parent.
- A gain: the change wins at least nine of every ten pairs (a tie counts
  for neither side), and its median is better than the parent's by more
  than the parent's interquartile range.

Which way is better, and each bound, come from ``BENCHMARK.json``, which
this script only reads.

Last it prints, for each command of the workload, both sides' median wall
time, so a ``cmd_p50_s`` result shows which commands moved.  A side's
median is the median over its runs of each run's own median, read from
the record the run writes, ``.bench_out/<workload>-seed<N>-trace0.json``
in its checkout.  These are raw seconds, not scaled by the reference
command as the end-to-end metrics are.  A record lists its set-up
warm-ups of the workload's first command before the timed commands, and
counts the timed ones in ``extra.timed_commands``, so only those last
commands count here, as they do in ``cmd_p50_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> range:
    """The seeds of ``A-B`` (both included) or of a single ``A``."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def check_correct(result: dict, side: str) -> None:
    """Raise ValueError if the run ``result`` of ``side`` reports
    ``correct: false`` or a failed command."""
    if not result.get("correct") or result.get("failed"):
        raise ValueError(
            f"a {side} run is not correct ({result.get('failed')} of "
            f"{result.get('attempted')} commands failed); its timings are "
            "not summarized")


def regression(parent: list[float], change: list[float], sign: float,
               bound: float) -> str:
    """Whether the ``change`` runs regressed against the ``parent`` runs on
    a metric that is better lower (``sign`` 1) or higher (-1): "within" or
    "worse" the relative ``bound`` in the median, or "unresolved" when the
    parent's IQR exceeds ``bound`` of its median and some change run does
    not beat every parent run."""
    p_q1, p_med, p_q3 = quartiles(parent)
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    if p_q3 - p_q1 > bound * abs(p_med) and not beats_all:
        return "unresolved"
    worse_by = sign * (statistics.median(change) - p_med)
    return "within" if worse_by <= bound * abs(p_med) else "worse"


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per metric of ``end_to_end`` (``BENCHMARK.json``'s entries)
    over ``pairs`` of (parent, change) run results, each the JSON object a
    ``perfbench/run.py`` run prints last.  Raises ValueError if any run is
    not correct (see :func:`check_correct`)."""
    for pair in pairs:
        for side, result in zip(("parent", "change"), pair):
            check_correct(result, side)
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        parent, change = ([run["metrics"][name]["value"] for run in side]
                          for side in zip(*pairs))
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        gap = sign * (p_med - c_med)  # positive when the change is better
        rows.append({
            "metric": name, "better": spec["better"],
            "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "pairs": len(pairs), "wins": wins, "gap": gap,
            "parent_iqr": p_q3 - p_q1, "bound": spec["bound"],
            "regression": regression(parent, change, sign, spec["bound"]),
            "claim_holds": 10 * wins >= 9 * len(pairs) and gap > p_q3 - p_q1,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    """``rows`` as a table: medians [q1, q3], wins, the median gap
    (positive when the change is better) against the parent's IQR, the
    bound and whether the change stayed within it, and the claim."""
    lines = [f"{'metric':<13} {'better':<6} {'parent median [q1, q3]':<29} "
             f"{'change median [q1, q3]':<29} {'wins':>5} {'gap':>10} "
             f"{'IQR':>10} {'bound':>5}  {'regression':<10}  claim"]
    for row in rows:
        parent, change = ("{1:.5g} [{0:.5g}, {2:.5g}]".format(*row[side])
                          for side in ("parent", "change"))
        lines.append(
            f"{row['metric']:<13} {row['better']:<6} {parent:<29} "
            f"{change:<29} {row['wins']:>2}/{row['pairs']:<2} "
            f"{row['gap']:>+10.4g} {row['parent_iqr']:>10.4g} "
            f"{row['bound']:>5.0%}  {row['regression']:<10}  "
            f"{'holds' if row['claim_holds'] else 'fails'}")
    return "\n".join(lines)


def command_medians(record: dict) -> dict[str, float]:
    """Each command name's median wall time over the timed commands of the
    run ``record``, the JSON object ``perfbench/run.py`` writes to its
    ``.bench_out`` directory: its last ``extra.timed_commands`` commands,
    after the set-up warm-ups."""
    walls: dict[str, list[float]] = {}
    for command in record["commands"][-record["extra"]["timed_commands"]:]:
        walls.setdefault(command["name"], []).append(command["wall"])
    return {name: statistics.median(w) for name, w in walls.items()}


def summarize_commands(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per command name, in the order the first parent record
    lists them, over ``pairs`` of (parent, change) run records: each side's
    median of its runs' :func:`command_medians`, and how many pairs the
    change won."""
    medians = [tuple(map(command_medians, pair)) for pair in pairs]
    rows = []
    for name in medians[0][0]:
        parent, change = ([run[name] for run in side] for side in zip(*medians))
        rows.append({
            "command": name, "parent": statistics.median(parent),
            "change": statistics.median(change), "pairs": len(pairs),
            "wins": sum(c < p for p, c in zip(parent, change)),
        })
    return rows


def format_commands(rows: list[dict]) -> str:
    """``rows`` of :func:`summarize_commands` as a table, in milliseconds,
    with the change's median relative to the parent's."""
    width = max(len("command"), *(len(row["command"]) for row in rows))
    lines = [f"{'command':<{width}} {'parent ms':>10} {'change ms':>10} "
             f"{'change':>8} {'wins':>5}"]
    for row in rows:
        lines.append(
            f"{row['command']:<{width}} {1e3 * row['parent']:>10.2f} "
            f"{1e3 * row['change']:>10.2f} "
            f"{row['change'] / row['parent'] - 1.0:>+8.1%} "
            f"{row['wins']:>2}/{row['pairs']:<2}")
    return "\n".join(lines)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its last output line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="seeds A-B, both included")
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    pairs, records = [], []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result, record = {}, {}
        for side in order:
            checkout = getattr(args, side)
            result[side] = run_bench(checkout, args.workload, seed,
                                     args.seconds)
            record[side] = json.loads(
                (checkout / ".bench_out"
                 / f"{args.workload}-seed{seed}-trace0.json").read_text())
            print(f"seed {seed} {side}: " + json.dumps(
                {name: m["value"] for name, m in result[side]["metrics"].items()}),
                file=sys.stderr, flush=True)
            try:
                check_correct(result[side], side)
            except ValueError as exc:
                print(f"error: seed {seed}: {exc}", file=sys.stderr)
                return 2
        pairs.append((result["parent"], result["change"]))
        records.append((record["parent"], record["change"]))
    rows = summarize(pairs, spec["end_to_end"])
    print(f"workload {args.workload}, seeds {args.seeds.start}-"
          f"{args.seeds.stop - 1}, {len(pairs)} pairs")
    print(format_rows(rows))
    print(format_commands(summarize_commands(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
