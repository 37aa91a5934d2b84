"""Smoke run of the benchmark itself, at tiny input sizes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --size tiny`` once
untraced and twice traced with one seed, and checks that:

- each run exits 0 and reports ``correct`` with no failed op;
- the JSON carries exactly the end-to-end (untraced) or per-layer (traced)
  metrics that BENCHMARK.json names, each with its unit, and the report
  lines print each of them with the same unit;
- the exact counts and the first round's output digest repeat across runs
  of the seed.

It exits 1 and names the failures when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = (
    "algebra.arrayprod.terms",
    "io.bytes_out",
    "store.open.segments",
    "store.open.records_parsed",
    "store.fsync.calls",
    "store.read_amp",
    "store.write_amp",
    "store.space_amp",
)


def bench(workload: str, seed: int, trace: int):
    """One tiny run: (JSON result, {printed name: unit}, first-round digest), or an error text."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        text = [line for line in (out.stdout + out.stderr).splitlines() if not line.startswith("{")]
        return f"exited {out.returncode}: " + " | ".join(line.strip() for line in text[-4:])
    lines = out.stdout.strip().splitlines()
    printed = {}
    digest = ""
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and line.startswith("  "):
            printed[fields[0]] = fields[2]
        if fields and fields[0] == "first_round_sha256":
            digest = fields[1]
    return json.loads(lines[-1]), printed, digest


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(failures)
        runs = []
        for trace in (0, 1, 1):
            outcome = bench(workload, 7, trace)
            if isinstance(outcome, str):
                failures.append(f"{workload} trace={trace}: {outcome}")
            else:
                runs.append((trace, *outcome))
        for trace, result, printed, _ in runs:
            where = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{where}: metrics or units differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}, "
                                f"units {[n for n in got if n in wanted[trace] and got[n] != wanted[trace][n]]}")
            unprinted = [n for n, u in wanted[trace].items() if printed.get(n) != u]
            if unprinted:
                failures.append(f"{where}: report lines lack {unprinted}")
        traced = [r for t, r, _, _ in runs if t == 1]
        for name in EXACT:
            values = {r["metrics"][name]["value"] for r in traced if name in r["metrics"]}
            if len(values) > 1:
                failures.append(f"{workload}: exact count {name} differs between runs: {sorted(values)}")
        if len({d for _, _, _, d in runs}) > 1:
            failures.append(f"{workload}: first-round output digests differ between runs of one seed")
        print(f"smoke {workload}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
