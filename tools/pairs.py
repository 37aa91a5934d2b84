#!/usr/bin/env python3
"""Paired benchmark runs of two aakit trees, and the claim rule's verdict.

Run from anywhere, with the two checkouts to compare::

    python3 tools/pairs.py PARENT CHANGE --workload select-mix --seeds 1-10 --seconds 25 \\
        --claim select-mix:wall_s -o BENCH_<n>.json

Both trees are copied to a temporary directory, so runs write nothing into
them.  The copies go when the tool ends, also when SIGTERM stops it: that
kills the run in flight, and the exit status is 143.  For each workload
and seed, ``perfbench/run.py`` runs once in each copy, untraced and at
full size, one after the other; the parent runs first on odd seeds and
the change first on even ones, so a slow phase of the machine falls on
both sides alike.  From
each run the last line of standard output (a JSON object) gives
``correct``, ``failed`` and the metrics, and the ``first_round_sha256``
report line gives the output digest.

The JSON written has fixed keys.  Per workload: the seeds, each pair's
``failed`` counts and digests, whether every run was correct and every
pair's digests equal; and per metric each side's values and quartiles
(``statistics.quantiles(n=4, method="inclusive")`` over the runs that
reported the metric; a crashed run's NaN is left out), the pairs where the
change is better, the median change and the parent's spread between
quartiles, both in percent of the parent's median.

``--claim W:METRIC`` adds the verdict of the claim rule: "met" when at
least 10 pairs ran, the change is better in at least 9 of 10 pairs (the
same share of a larger count), its median is better than the parent's by
more than the parent's spread, every run was correct and every pair's
digests were equal.  Which way is better comes from the change's
``BENCHMARK.json``.  The tool reports a verdict; it does not choose what
is claimed.  The exit status is 0 when every run completed, correct and
with equal digests, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work",
                                ".benchmarks", "*.egg-info", "build")
MIN_PAIRS = 10  # the claim rule runs at least ten pairs: better in 1 of 1 shows nothing
RUN_OPTIONS = ["--trace", "0", "--size", "full"]  # every run untraced, at full size


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"11,12"`` or a mix of both, as a list of ints in the order given."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"no seeds in {part!r} of {text!r}")
        seeds.extend(span)
    return seeds


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the tree to compare against")
    p.add_argument("change", type=Path, help="the tree with the change")
    p.add_argument("--workload", action="append", required=True, help="a perfbench workload; may repeat")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"), help="e.g. 1-10 or 11,12")
    p.add_argument("--seconds", type=float, default=25.0, help="run.py --seconds (default 25)")
    p.add_argument("--claim", action="append", default=[], metavar="W:METRIC", help="claim to judge; may repeat")
    p.add_argument("-o", "--output", type=Path, required=True, help="where to write the JSON")
    return p.parse_args(argv)


def run_once(tree: Path, workload: str, seed: int, args: argparse.Namespace) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its exit status, last JSON line and digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{args.seconds:g}", *RUN_OPTIONS]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"correct": False, "failed": None, "metrics": {}}
    digest = next((line.split()[1] for line in lines if line.split()[:1] == ["first_round_sha256"]), None)
    if proc.returncode:
        print(f"pairs: {tree.name} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
    return {"status": proc.returncode, "correct": report["correct"], "failed": report["failed"],
            "digest": digest, "metrics": {k: m["value"] for k, m in report["metrics"].items()}}


def describe(tree: Path) -> dict:
    """The tree's git commit and whether its files differ from it; None for a tree outside git."""
    def git(*cmd):
        proc = subprocess.run(["git", "-C", str(tree), *cmd], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "--short", "HEAD")
    return {"commit": commit, "uncommitted_changes": bool(git("status", "--porcelain")) if commit else None}


def quartiles(values: list[float]) -> list[float]:
    """The quartiles of the finite values: a crashed run's NaN is left out, and a side with none reads NaN."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.quantiles(finite, n=4, method="inclusive") if len(finite) > 1 else (finite or [math.nan]) * 3


def summarize(runs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """The fixed keys for one workload's pairs of (parent, change) runs."""
    metrics = {}
    for name in dict.fromkeys(name for pair in runs for r in pair for name in r["metrics"]):
        parent = [p["metrics"].get(name, math.nan) for p, _ in runs]
        change = [c["metrics"].get(name, math.nan) for _, c in runs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        pq, cq = quartiles(parent), quartiles(change)
        metrics[name] = {
            "better": better.get(name, "lower"),
            "parent": parent, "change": change, "parent_q": pq, "change_q": cq,
            "pairs_better": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "median_change_pct": 100 * (cq[1] - pq[1]) / pq[1] if pq[1] else math.nan,
            "parent_spread_pct": 100 * (pq[2] - pq[0]) / pq[1] if pq[1] else math.nan,
        }
    return {
        "pairs": len(runs),
        "failed": [[p["failed"], c["failed"]] for p, c in runs],
        "first_round_sha256": [[p["digest"], c["digest"]] for p, c in runs],
        "all_correct": all(r["status"] == 0 and r["correct"] for pair in runs for r in pair),
        "digests_equal": all(p["digest"] is not None and p["digest"] == c["digest"] for p, c in runs),
        "metrics": metrics,
    }


def verdict(summary: dict, metric: str) -> dict:
    """The claim rule on one workload's metric: 10 pairs or more, better in 9 of 10 and beyond the spread."""
    m = summary["metrics"].get(metric)
    if m is None:
        return {"verdict": "not met", "why": [f"fails: no metric {metric!r} in the runs"]}
    change = m["median_change_pct"] * (-1 if m["better"] == "higher" else 1)
    checks = {
        f"{summary['pairs']} pairs (needs at least {MIN_PAIRS})": summary["pairs"] >= MIN_PAIRS,
        f"better in {m['pairs_better']} of {summary['pairs']} pairs (needs 9 in 10)":
            10 * m["pairs_better"] >= 9 * summary["pairs"],
        f"median {m['median_change_pct']:+.2f}% against a parent spread of {m['parent_spread_pct']:.2f}%":
            -change > m["parent_spread_pct"],
        "every run correct": summary["all_correct"],
        "every digest equal": summary["digests_equal"],
    }
    return {"verdict": "met" if all(checks.values()) else "not met",
            "why": [f"{'ok' if ok else 'fails'}: {text}" for text, ok in checks.items()]}


def main(argv=None) -> int:
    args = parse_args(argv)
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    if any(len(c) != 2 or c[0] not in args.workload for c in claims):
        print("pairs: each --claim is W:METRIC for a W given with --workload", file=sys.stderr)
        return 2
    bench = args.change / "BENCHMARK.json"
    spec = json.loads(bench.read_text(encoding="utf-8")) if bench.is_file() else {}
    better = {m["name"]: m["better"] for kind in ("end_to_end", "per_layer") for m in spec.get(kind, [])}
    # As SystemExit, SIGTERM kills the run in flight and removes the copies on its way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            shutil.copytree(getattr(args, side), tree, ignore=IGNORE)
        workloads = {}
        for workload in args.workload:
            runs = []
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                got = {side: run_once(trees[side], workload, seed, args) for side in order}
                runs.append((got["parent"], got["change"]))
                print(f"pairs: {workload} seed {seed} done", file=sys.stderr)
            workloads[workload] = {"seeds": args.seeds, **summarize(runs, better)}
    out = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   + " ".join(RUN_OPTIONS),
        "protocol": "one pair per seed, the parent first on odd seeds; quartiles by "
                    "statistics.quantiles(n=4, method='inclusive'); percentages of the parent's median",
        "trees": {"parent": describe(args.parent), "change": describe(args.change)},
        "machine": f"{platform.system()} {platform.machine()}, Python {platform.python_version()}",
        "workloads": workloads,
        "claims": [{"workload": w, "metric": m, **verdict(workloads[w], m)} for w, m in claims],
    }
    args.output.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for claim in out["claims"]:
        print(f"pairs: claim {claim['workload']}:{claim['metric']} {claim['verdict']}")
    ok = all(w["all_correct"] and w["digests_equal"] for w in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
