"""The checked-in files that ``scripts/`` regenerate match what the
scripts regenerate today, the paired-bench summary applies its rule, and
the import-time comparison reads ``-X importtime`` logs."""

import importlib.util
import statistics
import subprocess
import sys

import numpy as np
import pytest

from conftest import NOTIONAL_CSV, REPO_ROOT
from resdyn._faddeeva import _Y100
from resdyn.core import write_trace_csv

SCRIPTS = REPO_ROOT / "scripts"


def load_script(name):
    """The module ``scripts/<name>.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_faddeeva_table_matches_scipy():
    # Only the diff against scipy's binary proves the table's high-order
    # coefficients: no sample tells a one-ulp change to some of them.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "faddeeva_table.py"), "--check"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("0 of 700 coefficients differ")


def test_faddeeva_table_text_reads_back_bit_for_bit():
    # The table is checked in as the text the script prints, so a table
    # read out of scipy is pasted in whole; that text parses back to the
    # same doubles.  Needs no scipy.
    text = load_script("faddeeva_table").source(_Y100)
    assert text in (REPO_ROOT / "src" / "resdyn" / "_faddeeva.py").read_text()
    namespace = {}
    exec(text, namespace)
    assert np.array(namespace["_Y100"]).shape == (100, 7)
    assert np.array(namespace["_Y100"]).tobytes() == np.array(_Y100).tobytes()


def test_notional_fixture_regenerates_byte_for_byte(tmp_path, monkeypatch):
    # The script puts the checkout's src on sys.path when imported.
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = load_script("generate_notional_fixture")
    trace = script.build_trace()
    script.verify(trace)
    out = tmp_path / "notional.csv"
    write_trace_csv(trace, out)
    assert out.read_bytes() == NOTIONAL_CSV.read_bytes()


def bench_result(p50, rate, correct=True, failed=0):
    """The last output line of a ``perfbench/run.py`` run, as parsed."""
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"cmd_p50_s": {"value": p50, "unit": "s"},
                        "cmds_per_s": {"value": rate, "unit": "1/s"}}}


END_TO_END = [{"name": "cmd_p50_s", "better": "lower", "bound": 0.25},
              {"name": "cmds_per_s", "better": "higher", "bound": 0.05}]


def test_bench_pairs_claim_rule():
    bench_pairs = load_script("bench_pairs")
    # Ten pairs: the change is faster by 0.02 s in nine and tied in one;
    # its rate is higher in eight and lower in two.
    parent = [0.50 + 0.001 * i for i in range(10)]
    change = [p - 0.02 for p in parent[:9]] + [parent[9]]
    rates = [5.0 + 0.01 * i for i in range(10)]
    new_rates = [r + (0.5 if i < 8 else -0.1) for i, r in enumerate(rates)]
    pairs = [(bench_result(p, r), bench_result(c, n))
             for p, c, r, n in zip(parent, change, rates, new_rates)]
    p50, rate = bench_pairs.summarize(pairs, END_TO_END)
    assert (p50["metric"], p50["wins"], p50["pairs"]) == ("cmd_p50_s", 9, 10)
    q1, median, q3 = p50["parent"]
    assert (q1, median, q3) == pytest.approx((0.50175, 0.5045, 0.50725))
    assert p50["parent_iqr"] == pytest.approx(0.0055)
    assert p50["gap"] == pytest.approx(0.02)
    assert p50["claim_holds"]
    assert (rate["wins"], rate["claim_holds"]) == (8, False)
    assert rate["gap"] == pytest.approx(-(statistics.median(rates)
                                          - statistics.median(new_rates)))
    # A gap inside the parent's IQR does not hold, however many pairs win.
    close = [(bench_result(p, 5.0), bench_result(p - 0.001, 5.0))
             for p in parent]
    p50, rate = bench_pairs.summarize(close, END_TO_END)
    assert (p50["wins"], p50["claim_holds"]) == (10, False)
    assert (rate["wins"], rate["claim_holds"]) == (0, False)
    table = bench_pairs.format_rows(bench_pairs.summarize(pairs, END_TO_END))
    assert [line.split()[-1] for line in table.splitlines()] == [
        "claim", "holds", "fails"]


def test_bench_pairs_regression_rule():
    regression = load_script("bench_pairs").regression
    parent = [1.00, 1.01, 1.02, 1.03, 1.04]  # median 1.02, IQR 0.03
    for sign in (1.0, -1.0):  # lower, then higher, is better
        def shifted(by):
            return [p + sign * by for p in parent]

        # Worse by 3.9% and by 5.9% of the parent's median, bound 5%.
        assert regression(parent, shifted(0.04), sign, 0.05) == "within"
        assert regression(parent, shifted(0.06), sign, 0.05) == "worse"
        assert regression(parent, shifted(-0.5), sign, 0.05) == "within"
    # A parent IQR wider than the bound cannot tell, even for equal runs,
    # unless every change run beats every parent run.
    wide = [0.8, 0.9, 1.0, 1.1, 1.2]  # IQR 0.3
    assert regression(wide, wide, 1.0, 0.05) == "unresolved"
    assert regression(wide, [0.7] * 4 + [0.85], 1.0, 0.05) == "unresolved"
    assert regression(wide, [0.7] * 5, 1.0, 0.05) == "within"
    assert regression(wide, [1.3] * 5, -1.0, 0.05) == "within"
    assert regression(wide, [0.7] * 5, -1.0, 0.05) == "unresolved"
    # Summarized per metric with its own bound: 10% slower is within
    # cmd_p50_s's 25%, and 10% fewer commands is past cmds_per_s's 5%.
    bench_pairs = load_script("bench_pairs")
    pairs = [(bench_result(p, 5.0 * p), bench_result(1.1 * p, 4.5 * p))
             for p in parent]
    rows = bench_pairs.summarize(pairs, END_TO_END)
    assert [(row["bound"], row["regression"]) for row in rows] == [
        (0.25, "within"), (0.05, "worse")]
    table = bench_pairs.format_rows(rows)
    assert [line.split()[-3:-1] for line in table.splitlines()] == [
        ["bound", "regression"], ["25%", "within"], ["5%", "worse"]]


@pytest.mark.parametrize("bad", [bench_result(0.4, 5.0, correct=False),
                                 bench_result(0.4, 5.0, failed=1)],
                         ids=["incorrect", "failed-command"])
def test_bench_pairs_refuses_failed_runs(bad):
    bench_pairs = load_script("bench_pairs")
    pairs = [(bench_result(0.5, 5.0), bench_result(0.4, 5.0))] * 9
    with pytest.raises(ValueError, match="not correct"):
        bench_pairs.summarize(pairs + [(bench_result(0.5, 5.0), bad)],
                              END_TO_END)
    with pytest.raises(ValueError, match="a parent run is not correct"):
        bench_pairs.summarize([(bad, bench_result(0.4, 5.0))], END_TO_END)


def test_bench_pairs_seed_ranges():
    bench_pairs = load_script("bench_pairs")
    assert bench_pairs.parse_seeds("3201-3210") == range(3201, 3211)
    assert bench_pairs.parse_seeds("7") == range(7, 8)


def bench_record(walls, warmups=(), reference=0.2):
    """A ``perfbench/run.py`` run record whose timed commands took
    ``walls``, after set-up warm-ups that took ``warmups``, each a list of
    (name, seconds), (name, seconds, peak RSS in MiB) or (name, seconds,
    peak RSS, CPU seconds); the RSS is 15 MiB and the CPU time the wall
    time where none is given.  Its reference command took ``reference``
    seconds in the median."""
    return {"workload": "cli-short", "seed": 1, "trace": 0,
            "extra": {"timed_commands": len(walls),
                      "reference_p50_s": reference},
            "commands": [{"name": name, "wall": wall, "code": 0,
                          "cpu": (*more[1:], wall)[0],
                          "rss_mib": (*more, 15.0)[0], "stdout": None,
                          "digest": "", "error": None}
                         for name, wall, *more in [*warmups, *walls]]}


def test_bench_pairs_command_medians():
    bench_pairs = load_script("bench_pairs")
    record = bench_record([("fit", 0.040, 15.2, 0.039),
                           ("metrics", 0.030, 14.8, 0.028),
                           ("fit", 0.036, 15.0, 0.035),
                           ("metrics", 0.034, 14.9, 0.031),
                           ("fit", 0.038, 15.1, 0.030)])
    assert bench_pairs.command_medians(record) == {
        "fit": (0.038, 0.035, 15.1),
        "metrics": (0.032, pytest.approx(0.0295), pytest.approx(14.85))}
    # Set-up warm-ups come first in a record and are not timed commands.
    record = bench_record([("fit", 0.040), ("metrics", 0.030)],
                          warmups=[("fit", 0.090, 40.0, 0.080)] * 3)
    assert bench_pairs.command_medians(record) == {
        "fit": (0.040, 0.040, 15.0), "metrics": (0.030, 0.030, 15.0)}
    # Times are scaled to the host on which the reference takes 0.2 s, as
    # the end-to-end metrics are: on a host where it took 0.4 s, a command
    # reads half its raw time.  Peak RSS is not scaled.
    record = bench_record([("fit", 0.040, 15.2, 0.030)], reference=0.4)
    assert bench_pairs.command_medians(record) == {
        "fit": (0.020, 0.015, 15.2)}
    # Three pairs: fit is faster in the change in two, metrics in none; a
    # side's median is the median of its runs' medians, for the wall time,
    # the CPU time and the RSS alike.
    pairs = [(bench_record([("fit", p, 15.0 + d, p - 0.002),
                            ("metrics", 0.030)]),
              bench_record([("fit", c, 15.5 - d, c - 2 * d / 100),
                            ("metrics", 0.031, 14.5)]))
             for p, c, d in ((0.040, 0.035, 0.0), (0.036, 0.037, 0.25),
                             (0.038, 0.033, 0.5))]
    rows = bench_pairs.summarize_commands(pairs)
    assert [row["command"] for row in rows] == ["fit", "metrics"]
    fit, metrics = rows
    assert (fit["parent"], fit["change"], fit["wins"], fit["pairs"]) == (
        0.038, 0.035, 2, 3)
    # The change's CPU median is its second run's, its wall median its
    # first run's.
    assert (fit["parent_cpu"], fit["change_cpu"]) == pytest.approx(
        (0.036, 0.032))
    assert (fit["parent_rss_mib"], fit["change_rss_mib"]) == (15.25, 15.25)
    assert (metrics["parent"], metrics["change"], metrics["wins"]) == (
        0.030, 0.031, 0)
    assert (metrics["parent_cpu"], metrics["change_cpu"]) == (0.030, 0.031)
    assert (metrics["parent_rss_mib"], metrics["change_rss_mib"]) == (
        15.0, 14.5)
    table = bench_pairs.format_commands(rows).splitlines()
    assert table[0].split() == ["command", "parent", "scaled", "ms",
                                "change", "scaled", "ms", "change", "wins",
                                "parent", "scaled", "CPU", "ms", "change",
                                "scaled", "CPU", "ms", "parent", "MiB",
                                "change", "MiB"]
    assert table[1].split() == ["fit", "38.00", "35.00", "-7.9%", "2/3",
                                "36.00", "32.00", "15.25", "15.25"]
    assert table[2].split() == ["metrics", "30.00", "31.00", "+3.3%", "0/3",
                                "30.00", "31.00", "15.00", "14.50"]


def test_bench_pairs_reads_the_reference_time(tmp_path, monkeypatch):
    bench_pairs = load_script("bench_pairs")
    # The benchmark runner's own REFERENCE_S, read from its source.
    run_py = (REPO_ROOT / "perfbench" / "run.py").read_text()
    assert f"\nREFERENCE_S = {bench_pairs.REFERENCE_S!r}\n" in run_py
    # Only the module-level assignment counts, wherever it sits.
    runner = tmp_path / "run.py"
    runner.write_text("def f():\n    REFERENCE_S = 9.0\n\n"
                      "REFERENCE = 'import numpy'\nREFERENCE_S = 0.35\n")
    assert bench_pairs.reference_seconds(runner) == 0.35
    runner.write_text("REFERENCE = 'import numpy'\n")
    with pytest.raises(ValueError, match="no module-level REFERENCE_S"):
        bench_pairs.reference_seconds(runner)
    # The per-command table scales by it: on a host where the reference
    # took REFERENCE_S, a command reads its raw time.
    monkeypatch.setattr(bench_pairs, "REFERENCE_S", 0.35)
    record = bench_record([("fit", 0.040, 15.2, 0.030)], reference=0.35)
    assert bench_pairs.command_medians(record) == {
        "fit": (0.040, 0.030, 15.2)}


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       615 |        615 | resdyn
import time:       238 |        238 |   __future__
import time:       380 |        380 |     array
import time:      3319 |       3699 |   resdyn.core
import time:      2148 |       6085 | resdyn.cli
error: trace.csv: values must lie in [0, f0], got 1.5
import time:      1650 |       1650 | resdyn._trace_read
"""


def test_import_times_reads_resdyn_self_times():
    import_times = load_script("import_times")
    # Only resdyn's modules count; the command's own stderr is skipped.
    assert import_times.self_times(IMPORTTIME) == {
        "resdyn": 615, "resdyn.core": 3319, "resdyn.cli": 2148,
        "resdyn._trace_read": 1650}
    assert import_times.self_times("import time: self [us] | cumulative | "
                                   "imported package\n") == {}
    # Minimums and medians per side, a module one side never logs shown as
    # "-", and the minimum and median of each run's total.
    parent = [{"resdyn": 600, "resdyn.errors": 500, "resdyn.core": c}
              for c in (4400, 4000, 4200)]
    change = [import_times.self_times(IMPORTTIME)] * 2
    table = import_times.summarize({"parent": parent, "change": change})
    assert [line.split() for line in table.splitlines()] == [
        ["module", "parent", "min", "parent", "median", "change", "min",
         "change", "median"],
        ["resdyn", "0.60", "0.60", "0.61", "0.61"],
        ["resdyn.errors", "0.50", "0.50", "-", "-"],
        ["resdyn.core", "4.00", "4.20", "3.32", "3.32"],
        ["resdyn.cli", "-", "-", "2.15", "2.15"],
        ["resdyn._trace_read", "-", "-", "1.65", "1.65"],
        ["total", "5.10", "5.30", "7.73", "7.73"]]
    # The two checkouts and the command line are all it takes.
    assert import_times.main(["parent", "change", "metrics"]) == 2
