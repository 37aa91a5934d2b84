"""aakit benchmark: one workload, one seed, one run.

Run from the root of a checkout (the directory holding ``src/aakit``)::

    python3 perfbench/run.py --workload correlate-pipeline --seed 1 --seconds 25 --trace 0

It generates the workload's inputs from the seed, calls aakit only through
its public functions, checks every result against an independent oracle,
and prints one report line per metric, then one JSON object as the last
line of standard output::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run wraps aakit's entry points, and the metrics are the per-layer ones.
The exit status is 0 when every output matched its oracle, 1 when one did
not, and 2 when there is no aakit source tree to benchmark.  Workload
parameters, and what each workload is for, are in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_SEMIRINGS = ("arith", "maxplus", "minplus", "maxmin", "lattice")
PER_LAYER = {
    **{f"layer.{layer}.self_s": "s" for layer in ("cli", "io", "core", "algebra", "graph", "store", "patterns")},
    "cli.run.self_s": "s",
    "io.read_triples.self_s": "s",
    "io.write_triples.self_s": "s",
    "io.export_dot.self_s": "s",
    "io.read_table.self_s": "s",
    "io.parse_record_lines.self_s": "s",
    "io.parse_record_lines.in_open.self_s": "s",
    "io.bytes_out": "bytes",
    "core.from_triples.self_s": "s",
    "core.AssociativeArray.transpose.self_s": "s",
    "core.AssociativeArray.logical.self_s": "s",
    "core.AssociativeArray.subarray.KeySet.self_s": "s",
    "core.AssociativeArray.subarray.KeyRange.self_s": "s",
    "core.AssociativeArray.subarray.KeyPrefix.self_s": "s",
    "algebra.arrayprod.self_s": "s",
    "algebra.arrayprod.terms": "count",
    "algebra.arrayprod.terms_per_s": "1/s",
    "algebra.perm_select.self_s": "s",
    **{f"algebra.{op}.{sr}.self_s": "s" for op in ("eladd", "elmult") for sr in _SEMIRINGS},
    "graph.correlate.self_s": "s",
    "graph.bfs.self_s": "s",
    "graph.symmetrize.self_s": "s",
    "graph.degree.self_s": "s",
    "store.open.self_s": "s",
    "store.open.segments": "count",
    "store.open.records_parsed": "count",
    "store.select.self_s": "s",
    "store.insert.self_s": "s",
    "store.delete.self_s": "s",
    "store.compact.self_s": "s",
    "store.fsync.calls": "count",
    "store.fsync.s": "s",
    "store.read_amp": "ratio",
    "store.write_amp": "ratio",
    "store.space_amp": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_share": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes from workloads.json; tiny is for the smoke run")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "aakit" / "__init__.py").is_file():
        print("perfbench: run from the root of an aakit checkout; src/aakit is missing here",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(HERE))

    import aakit
    from harness import Run
    from workloads import WORKLOADS

    if not Path(aakit.__file__).resolve().is_relative_to(root / "src"):
        print(f"perfbench: imported aakit from {aakit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    work = root / ".perfbench_work"
    workdir = work / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    params = spec["workloads"][args.workload]["sizes"][args.size]
    run = Run(args.seed, args.seconds, bool(args.trace), params, root, workdir)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.tracer is not None:
        run.tracer.dump(work / f"trace-{args.workload}-s{args.seed}.jsonl")

    if args.trace:
        metrics = {name: {"value": float(run.layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": run.e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    correct = run.failed == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"size={args.size}")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    for name, value, unit, note in run.report:
        print(f"  {name:<46} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'error_rate':<46} {run.failed / max(1, run.attempted):.6g} ratio  "
          f"({run.failed} of {run.attempted} ops failed or mismatched)")
    digest = hashlib.sha256("".join(run.digests).encode("ascii")).hexdigest()
    print(f"  {'first_round_sha256':<46} {digest}  ({len(run.digests)} op outputs)")
    for problem, times in Counter(run.problems).items():
        print(f"  problem: {problem}" + (f" (x{times})" if times > 1 else ""))
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} is not finite: {m['value']!r}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
