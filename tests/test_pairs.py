"""The claim rule of ``tools/pairs.py`` on made-up runs, with no benchmark run.

A change claims a gain only when it is better in at least 9 of 10 pairs
of runs and its median beats the parent's by more than the parent's
spread between quartiles, every run was correct, every pair's output
digests were equal, and at least ten pairs ran.  These tests build the
run dicts that ``run_once`` returns and check ``parse_seeds``,
``summarize`` and ``verdict`` on them.  The tool is loaded from its file,
writing no bytecode next to it.  One test runs it on two stand-in trees,
whose ``perfbench/run.py`` only sleeps, and stops it with SIGTERM.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"

# A parent whose quartiles are 0.995 and 1.01 around a median of 1.0: a spread of 1.5%.
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.fixture(scope="module")
def pairs():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("tools_pairs", PAIRS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def run(value=None, *, status=0, correct=True, digest="d", metric="wall_s"):
    """A run as ``run_once`` returns it; ``value`` None is a run that reported no metrics."""
    return {"status": status, "correct": correct, "failed": 0, "digest": digest,
            "metrics": {} if value is None else {metric: value}}


def judge(pairs, parent, change, better="lower", metric="wall_s"):
    summary = pairs.summarize([(run(p, metric=metric), run(c, metric=metric)) for p, c in zip(parent, change)],
                              {metric: better})
    return summary, pairs.verdict(summary, metric)


def test_parse_seeds_keeps_the_order_given(pairs):
    assert pairs.parse_seeds("1-10") == list(range(1, 11))
    assert pairs.parse_seeds("11,12") == [11, 12]
    assert pairs.parse_seeds("7,1-3") == [7, 1, 2, 3]


@pytest.mark.parametrize("text", ["10-1", "1,10-1"])
def test_parse_seeds_refuses_a_reversed_range(pairs, text):
    with pytest.raises(argparse.ArgumentTypeError, match="no seeds in '10-1'"):
        pairs.parse_seeds(text)


def test_nine_of_ten_better_beyond_the_spread_is_met(pairs):
    change = [0.9 * p for p in PARENT[:9]] + [1.05]
    summary, got = judge(pairs, PARENT, change)
    m = summary["metrics"]["wall_s"]
    assert m["pairs_better"] == 9
    assert m["parent_spread_pct"] == pytest.approx(1.5)
    assert m["median_change_pct"] < -m["parent_spread_pct"]
    assert got["verdict"] == "met", got["why"]
    assert all(why.startswith("ok: ") for why in got["why"])


def test_eight_of_ten_better_is_not_met(pairs):
    change = [0.9 * p for p in PARENT[:8]] + [1.05, 1.05]
    summary, got = judge(pairs, PARENT, change)
    assert summary["metrics"]["wall_s"]["pairs_better"] == 8
    assert got["verdict"] == "not met"
    assert "fails: better in 8 of 10 pairs (needs 9 in 10)" in got["why"]


def test_nine_of_ten_better_inside_the_spread_is_not_met(pairs):
    parent = [0.5, 0.7, 0.9, 1.0, 1.0, 1.0, 1.1, 1.3, 1.5, 1.0]
    change = [p - 0.01 for p in parent[:9]] + [1.2]
    summary, got = judge(pairs, parent, change)
    m = summary["metrics"]["wall_s"]
    assert m["pairs_better"] == 9
    assert -m["median_change_pct"] < m["parent_spread_pct"]
    assert got["verdict"] == "not met"
    assert [why for why in got["why"] if why.startswith("fails: ")] == [
        f"fails: median {m['median_change_pct']:+.2f}% against a parent spread of {m['parent_spread_pct']:.2f}%"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ties_count_for_neither_side(pairs, better):
    summary, got = judge(pairs, PARENT, PARENT, better)
    assert summary["metrics"]["wall_s"]["pairs_better"] == 0
    assert summary["metrics"]["wall_s"]["median_change_pct"] == 0
    assert got["verdict"] == "not met"
    # Nine better and one tie is still nine.
    change = [0.9 * p if better == "lower" else 1.1 * p for p in PARENT[:9]] + PARENT[9:]
    summary, got = judge(pairs, PARENT, change, better)
    assert summary["metrics"]["wall_s"]["pairs_better"] == 9
    assert got["verdict"] == "met", got["why"]


def test_a_higher_is_better_metric_is_judged_the_other_way(pairs):
    change = [1.1 * p for p in PARENT]
    summary, got = judge(pairs, PARENT, change, "higher", "terms_per_s")
    m = summary["metrics"]["terms_per_s"]
    assert (m["better"], m["pairs_better"]) == ("higher", 10)
    assert m["median_change_pct"] == pytest.approx(10)
    assert got["verdict"] == "met", got["why"]
    summary, got = judge(pairs, PARENT, change, "lower", "terms_per_s")
    assert summary["metrics"]["terms_per_s"]["pairs_better"] == 0
    assert got["verdict"] == "not met"


@pytest.mark.parametrize("spoil, fails", [
    ({"correct": False}, "every run correct"),
    ({"status": 1}, "every run correct"),
    ({"digest": "other"}, "every digest equal"),
    ({"digest": None}, "every digest equal"),
])
def test_a_bad_run_or_unequal_digests_is_not_met(pairs, spoil, fails):
    runs = [(run(p), run(0.9 * p)) for p in PARENT]
    runs[4] = (runs[4][0], run(0.9 * PARENT[4], **spoil))
    summary = pairs.summarize(runs, {"wall_s": "lower"})
    got = pairs.verdict(summary, "wall_s")
    assert summary["metrics"]["wall_s"]["pairs_better"] == 10
    assert got["verdict"] == "not met"
    assert [why for why in got["why"] if why.startswith("fails: ")] == [f"fails: {fails}"]


def test_a_missing_metric_is_not_met(pairs):
    summary, _ = judge(pairs, PARENT, [0.9 * p for p in PARENT])
    assert pairs.verdict(summary, "peak_rss_mb") == {
        "verdict": "not met", "why": ["fails: no metric 'peak_rss_mb' in the runs"]}


def test_a_crashed_first_run_hides_no_metric(pairs):
    runs = [(run(p), run(0.9 * p)) for p in PARENT]
    runs[0] = (run(status=1, correct=False, digest=None), runs[0][1])
    summary = pairs.summarize(runs, {"wall_s": "lower"})
    m = summary["metrics"]["wall_s"]
    assert math.isnan(m["parent"][0]) and m["parent"][1:] == PARENT[1:]
    assert m["change"] == [0.9 * p for p in PARENT]
    assert m["pairs_better"] == 9  # the crashed pair counts for neither side
    assert not summary["all_correct"] and not summary["digests_equal"]
    assert pairs.verdict(summary, "wall_s")["verdict"] == "not met"


def test_fewer_than_ten_pairs_are_not_met(pairs):
    summary, got = judge(pairs, [1.0], [0.99])
    m = summary["metrics"]["wall_s"]
    assert (m["pairs_better"], m["parent_spread_pct"]) == (1, 0)
    assert got["verdict"] == "not met"
    assert "fails: 1 pairs (needs at least 10)" in got["why"]
    # Nine pairs, all better by 10%, are still too few.
    _, got = judge(pairs, PARENT[:9], [0.9 * p for p in PARENT[:9]])
    assert [why for why in got["why"] if why.startswith("fails: ")] == ["fails: 9 pairs (needs at least 10)"]


# Nine finite runs whose quartiles are 0.995, 1.0 and 1.005.
NINE = [1.0, 0.98, 1.01, 0.995, 1.0, 1.02, 0.99, 1.005, 1.0]


@pytest.mark.parametrize("at", [0, 3, 9])
def test_a_crashed_run_is_left_out_of_the_quartiles(pairs, at):
    values = NINE[:at] + [math.nan] + NINE[at:]
    assert pairs.quartiles(NINE) == pytest.approx([0.995, 1.0, 1.005])
    assert pairs.quartiles(values) == pytest.approx([0.995, 1.0, 1.005])
    runs = [(run(None if math.isnan(p) else p, status=int(math.isnan(p))), run(p)) for p in values]
    runs[at] = (runs[at][0], run(1.0))  # the change ran; the parent crashed
    m = pairs.summarize(runs, {"wall_s": "lower"})["metrics"]["wall_s"]
    assert m["parent_q"] == pytest.approx([0.995, 1.0, 1.005])
    assert m["parent_spread_pct"] == pytest.approx(1.0)


def test_a_side_with_no_finite_run_reads_nan_quartiles(pairs):
    runs = [(run(status=1, correct=False, digest=None), run(0.9 * p)) for p in PARENT]
    summary = pairs.summarize(runs, {"wall_s": "lower"})
    m = summary["metrics"]["wall_s"]
    assert all(math.isnan(q) for q in m["parent_q"])
    assert math.isnan(m["median_change_pct"]) and math.isnan(m["parent_spread_pct"])
    assert m["pairs_better"] == 0
    assert pairs.verdict(summary, "wall_s")["verdict"] == "not met"
    assert all(math.isnan(q) for q in pairs.quartiles([math.nan]))
    # One finite run among crashed ones is that side's every quartile.
    assert pairs.quartiles([math.nan] * 9 + [1.0]) == [1.0, 1.0, 1.0]


# A stand-in for perfbench/run.py: it names its process in the file $PAIRS_PID_FILE, then sleeps.
SLEEPER = """\
import os, time
tmp = os.environ["PAIRS_PID_FILE"] + ".tmp"
with open(tmp, "w") as f:
    f.write(str(os.getpid()))
os.replace(tmp, os.environ["PAIRS_PID_FILE"])
time.sleep(60)
"""


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_removes_the_copies_and_kills_the_run_in_flight(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(SLEEPER)
    (tmp_path / "tmp").mkdir()
    pid_file = tmp_path / "run.pid"
    env = dict(os.environ, TMPDIR=str(tmp_path / "tmp"), PAIRS_PID_FILE=str(pid_file))
    cmd = [sys.executable, str(PAIRS), str(tmp_path / "parent"), str(tmp_path / "change"),
           "--workload", "w", "--seeds", "1", "-o", str(tmp_path / "out.json")]
    pid = None
    with subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as proc:
        try:
            deadline = time.monotonic() + 10
            while not pid_file.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pid_file.exists(), proc.stderr.read() if proc.poll() is not None else "no run started in 10 s"
            pid = int(pid_file.read_text())
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=10)
            assert proc.returncode == 128 + signal.SIGTERM, err
            assert list((tmp_path / "tmp").glob("pairs-*")) == []
            assert not alive(pid)
        finally:
            proc.kill()
            if pid is not None and alive(pid):
                os.kill(pid, signal.SIGKILL)
