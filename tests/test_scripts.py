"""The checked-in files that ``scripts/`` regenerate match what the
scripts regenerate today, and the paired-bench summary applies its rule."""

import importlib.util
import statistics
import subprocess
import sys

import pytest

from conftest import NOTIONAL_CSV, REPO_ROOT
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


def bench_record(walls, warmups=()):
    """A ``perfbench/run.py`` run record whose timed commands took
    ``walls``, after set-up warm-ups that took ``warmups``, each a list of
    (name, seconds)."""
    return {"workload": "cli-short", "seed": 1, "trace": 0,
            "extra": {"timed_commands": len(walls)},
            "commands": [{"name": name, "wall": wall, "code": 0, "cpu": wall,
                          "rss_mib": 15.0, "stdout": None, "digest": "",
                          "error": None}
                         for name, wall in [*warmups, *walls]]}


def test_bench_pairs_command_medians():
    bench_pairs = load_script("bench_pairs")
    record = bench_record([("fit", 0.040), ("metrics", 0.030), ("fit", 0.036),
                           ("metrics", 0.034), ("fit", 0.038)])
    assert bench_pairs.command_medians(record) == {"fit": 0.038,
                                                   "metrics": 0.032}
    # Set-up warm-ups come first in a record and are not timed commands.
    record = bench_record([("fit", 0.040), ("metrics", 0.030)],
                          warmups=[("fit", 0.090)] * 3)
    assert bench_pairs.command_medians(record) == {"fit": 0.040,
                                                   "metrics": 0.030}
    # Three pairs: fit is faster in the change in two, metrics in none; a
    # side's median is the median of its runs' medians.
    pairs = [(bench_record([("fit", p), ("metrics", 0.030)]),
              bench_record([("fit", c), ("metrics", 0.031)]))
             for p, c in ((0.040, 0.035), (0.036, 0.037), (0.038, 0.033))]
    rows = bench_pairs.summarize_commands(pairs)
    assert [row["command"] for row in rows] == ["fit", "metrics"]
    fit, metrics = rows
    assert (fit["parent"], fit["change"], fit["wins"], fit["pairs"]) == (
        0.038, 0.035, 2, 3)
    assert (metrics["parent"], metrics["change"], metrics["wins"]) == (
        0.030, 0.031, 0)
    table = bench_pairs.format_commands(rows).splitlines()
    assert table[0].split() == ["command", "parent", "ms", "change", "ms",
                                "change", "wins"]
    assert table[1].split() == ["fit", "38.00", "35.00", "-7.9%", "2/3"]
    assert table[2].split() == ["metrics", "30.00", "31.00", "+3.3%", "0/3"]
