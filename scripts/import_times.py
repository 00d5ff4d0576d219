#!/usr/bin/env python3
"""Import self time of each resdyn module in a parent and a change.

    python scripts/import_times.py PARENT_DIR CHANGE_DIR -- ARGS...

Both directories are checkouts of this repository.  The script runs
``python -X importtime -m resdyn ARGS`` 11 times in each, alternating
which runs first, from the current directory (so relative paths in ARGS
name the same files for both), with ``PYTHONPATH`` set to the checkout's
``src`` and ``PYTHONDONTWRITEBYTECODE=1``.  A run that exits non-zero
stops the script.  It then prints, for each resdyn module either side
logs, both sides' median self time in milliseconds, and last the median
of each run's total over those modules.

With bytecode writes off, a module's self time includes compiling it,
unless its checkout already holds a ``__pycache__`` for it; run the
script on fresh checkouts, as ``perfbench`` does, to compare cold starts.

``-X importtime`` logs only what the import statement loads.  A parent
that loads its layers through ``importlib.import_module`` (as resdyn did
until its package ``__getattr__`` switched to the import statement)
under-reports: the layers a command loads lazily, and their self time,
are missing from its column.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 11


def self_times(stderr: str) -> dict[str, int]:
    """Self time in microseconds of each ``resdyn`` module that
    ``stderr`` of a ``-X importtime`` run logs; other lines are skipped."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name.partition(".")[0] == "resdyn":
            times[name] = int(self_us)
    return times


def run_once(checkout: Path, args: list[str]) -> dict[str, int]:
    """:func:`self_times` of one ``python -X importtime -m resdyn ARGS``
    against ``checkout``'s source."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "resdyn", *args],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: resdyn {' '.join(args)} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return self_times(proc.stderr)


def median_ms(values: list[int]) -> str:
    """The median of ``values`` (microseconds) in milliseconds, or ``-``
    for none, right-aligned in a column of 10."""
    return f"{statistics.median(values) / 1e3:>10.2f}" if values else (
        f"{'-':>10}")


def summarize(runs: dict[str, list[dict[str, int]]]) -> str:
    """A table of each module's median self time per side, ``runs`` being
    each side's :func:`self_times` results: the modules in the order they
    are first logged, parent runs first, then the median of each run's
    total."""
    names = dict.fromkeys(
        name for side in runs.values() for run in side for name in run)
    width = max(len("module"), *map(len, names))
    lines = [f"{'module':<{width}} {'parent ms':>10} {'change ms':>10}"]
    for name in names:
        lines.append(f"{name:<{width}} " + " ".join(
            median_ms([run[name] for run in side if name in run])
            for side in runs.values()))
    lines.append(f"{'total':<{width}} " + " ".join(
        median_ms([sum(run.values()) for run in side])
        for side in runs.values()))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 4 or argv[2] != "--":
        print("usage: import_times.py PARENT_DIR CHANGE_DIR -- ARGS...",
              file=sys.stderr)
        return 2
    checkouts = {"parent": Path(argv[0]), "change": Path(argv[1])}
    runs = {"parent": [], "change": []}
    for i in range(RUNS):
        for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
            runs[side].append(run_once(checkouts[side], argv[3:]))
    print(summarize(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
