"""The benchmark's client: times calls into aakit, checks results, keeps the samples.

A run is one closed-loop client with no threads: each call starts after
the previous one has returned.  Only the call itself is timed; generating
inputs, rendering results and comparing them with the oracle happen
between calls, outside the timed region.

The gated times are scaled to a reference machine speed.  On a shared
virtual machine the same Python code runs up to 1.7 times slower in phases
that last from milliseconds to minutes, so raw times of the same code move
by more than any useful bound from one run to the next.  After every timed
call the client therefore runs a fixed, aakit-free probe (``probe``) for at
least ``PROBE_SHARE`` of the call's time, and a round's time is scaled by
``PROBE_REF_S`` over the mean probe time in that round.  Set-up times are
scaled likewise, by the probes run after each set-up step and import, for
as long as each took.  The raw times are kept and reported beside the
scaled ones.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from oracle import sha256
from spans import Tracer, summarize

TAIL_LADDER = (0.999, 0.99, 0.98, 0.95, 0.9, 0.8, 0.75, 0.5)

# The reference speed: the machine speed at which one probe takes this long.
PROBE_REF_S = 0.005
# After each timed call, probe for at least this share of the call's time;
# set-up steps are few and short, so they get as much probing as they took.
PROBE_SHARE = 0.1
SETUP_PROBE_SHARE = 1.0
_PROBE_KEYS = [f"k{(i * 7919) % 10007:05d}" for i in range(3000)]


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work like aakit's own:
    dict inserts under tuple keys, a sort, number formatting and parsing.

    The collector is off meanwhile, so that the probe measures the machine
    and not how many objects aakit left for the collector to scan.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        cells = {}
        for i, key in enumerate(_PROBE_KEYS):
            cells[(key, _PROBE_KEYS[i - 1])] = float(i % 97)
        lines = [f"{r}\t{c}\t{v:g}" for (r, c), v in sorted(cells.items())]
        for line in lines:
            r, c, v = line.split("\t")
            cells[(c, r)] = float(v)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def tail(values: list) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_LADDER:
        rank = math.ceil(q * n)
        if rank >= 1 and n - rank >= 10:
            return q * 100, xs[rank - 1]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """State of one benchmark run: samples, checks, counts and the optional tracer."""

    def __init__(self, seed: int, seconds: float, trace: bool, params: dict, root: Path, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.params = params
        self.root = root
        self.workdir = workdir
        self.tracer = Tracer() if trace else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.setup_samples: list[float] = []  # raw; see setup_scale()
        self.round_s: list[float] = []  # scaled to the reference speed
        self.round_raw: list[float] = []
        self._round_probe = [0.0, 0]  # probe seconds and samples since the last round_scale()
        self._setup_probe = [0.0, 0]  # probe seconds and samples of all set-up measurements
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # one entry per failed op
        self.digests: list[str] = []  # per-op output SHA-256 of the first round
        self.report: list[tuple[str, float, str, str]] = []  # extra lines: name, value, unit, note
        self.layers: dict[str, float] = {}  # per-layer times and exact counts
        self.e2e: dict[str, float] = {}

    def path(self, name: str) -> Path:
        return self.workdir / name

    # -- machine speed ---------------------------------------------------------------

    @staticmethod
    def _calibrate(into: list, dt: float, share: float) -> None:
        """Probe the machine's speed right after a measurement of ``dt`` seconds."""
        spent, n = 0.0, 0
        while n == 0 or spent < share * dt:
            spent += probe()
            n += 1
        into[0] += spent
        into[1] += n

    def round_scale(self) -> float:
        """Factor from the speed probed since this was last called to the reference speed."""
        spent, n = self._round_probe
        self._round_probe = [0.0, 0]
        return PROBE_REF_S * n / spent if n else 1.0

    def setup_scale(self) -> float:
        """Factor from the speed probed during set-up measurements to the reference speed."""
        spent, n = self._setup_probe
        return PROBE_REF_S * n / spent if n else 1.0

    def import_seconds(self, modules: str, reps: int) -> list[float]:
        """Raw times of ``import <modules>`` in fresh interpreters, after one
        untimed warm-up import; each is followed by set-up probing."""
        code = (
            "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            f"import {modules}; print(repr(time.perf_counter() - t))"
        )
        times = []
        for i in range(reps + 1):
            out = subprocess.run(
                [sys.executable, "-I", "-c", code],
                cwd=self.root, capture_output=True, text=True, timeout=60, check=True,
            )
            if i:
                times.append(float(out.stdout.strip().splitlines()[-1]))
                self._calibrate(self._setup_probe, times[-1], SETUP_PROBE_SHARE)
        return times

    # -- calls and checks --------------------------------------------------------

    def call(self, fn, *args):
        """Time one call, then probe; an exception counts as a failed op and returns None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the op failed; count it and keep the client running
            dt = time.perf_counter() - t0
            self._calibrate(self._round_probe, dt, PROBE_SHARE)
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            return None, dt, False
        dt = time.perf_counter() - t0
        self._calibrate(self._round_probe, dt, PROBE_SHARE)
        return result, dt, True

    def expect(self, what: str, ok: bool, got: bytes | None, want: str | None, first_round: bool) -> None:
        """Record an op's check.  ``got`` is its output bytes, ``want`` the oracle digest."""
        digest = sha256(got) if got is not None else None
        if first_round and digest is not None:
            self.digests.append(digest)
        if ok and (want is None or digest == want):
            return
        self.failed += 1
        self.problems.append(f"{what}: output does not match the oracle")

    # -- the timed phase -----------------------------------------------------------

    def measure(self, one_round) -> None:
        """The timed phase: rounds until the run's seconds have passed.

        A traced run alternates untraced and traced rounds, so both kinds see
        the same machine conditions; ``wall_s`` comes from the untraced ones.
        Round times are scaled to the reference speed; the raw ones are kept.
        """
        plain: list[float] = []
        traced: list[float] = []
        raw: list[float] = []
        first = self.tracer.mark() if self.tracer is not None else 0
        end = time.perf_counter() + self.seconds
        while True:
            # Long-lived state (oracle tables, loaded arrays) is frozen out of the
            # collector, so a round's collections scan only what the round allocates.
            gc.collect()
            gc.freeze()
            self.round_scale()
            if self.tracer is not None and len(traced) < len(plain):
                self.tracer.install()
                try:
                    traced.append(one_round() * self.round_scale())
                finally:
                    self.tracer.uninstall()
            else:
                t = one_round()
                raw.append(t)
                plain.append(t * self.round_scale())
            if time.perf_counter() >= end and (self.tracer is None or traced):
                break
        self.round_s = plain
        self.round_raw = raw
        if self.tracer is not None:
            self.summarize_trace(first, traced, plain)

    def summarize_trace(self, first: int, traced: list[float], plain: list[float]) -> None:
        s = summarize(self.tracer.spans, first, self.tracer.mark())
        n = len(traced)
        self.layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        self.layers["trace.uncovered_share"] = max(0.0, 1 - s["root_ns"] / 1e9 / sum(traced))
        for layer, ns in s["layer_ns"].items():
            self.layers[f"layer.{layer}.self_s"] = ns / 1e9 / n
        for name, ns in s["self_ns"].items():
            self.layers[f"{name}.self_s"] = ns / 1e9 / n
        self.layers["io.parse_record_lines.in_open.self_s"] = s["parse_in_open_ns"] / 1e9 / n
        self.layers["store.fsync.calls"] = s["calls"].get("store.fsync", 0) / n
        self.layers["store.fsync.s"] = s["self_ns"].get("store.fsync", 0) / 1e9 / n

    def setup_step(self, fn):
        """Time one set-up step, under the tracer when the run is traced."""
        gc.collect()
        gc.freeze()
        if self.tracer is not None:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.setup_samples.append(dt)
        self._calibrate(self._setup_probe, dt, SETUP_PROBE_SHARE)
        return result

    # -- results ---------------------------------------------------------------------

    def note(self, name: str, value: float, unit: str, text: str = "") -> None:
        self.report.append((name, value, unit, text))

    def latency_lines(self, label: str, samples: list[float]) -> None:
        """Median and tail of a latency sample, in ms, as report lines."""
        if not samples:
            return
        self.note(f"{label}_p50_ms", statistics.median(samples) * 1e3, "ms", f"n={len(samples)}")
        t = tail(samples)
        if t is None:
            self.note(f"{label}_tail_ms", float("nan"), "ms", f"too few samples for a tail (n={len(samples)})")
        else:
            self.note(f"{label}_tail_ms", t[1] * 1e3, "ms", f"p{t[0]:g}, n={len(samples)}")
