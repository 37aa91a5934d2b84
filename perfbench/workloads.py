"""The three workloads.  Each takes a ``harness.Run`` and fills in its results.

Every workload builds its inputs from the run's seed, computes the
expected outputs with ``oracle`` before the timed phase, runs one untimed
warm-up round (checked like the rest, and the source of the exact counts),
then repeats rounds for the run's seconds.  ``wall_s`` is the median round
time: the sum of the timed calls in a round, scaled to the reference speed
(see ``harness``).
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import statistics
import time

import gen
import oracle
from harness import peak_rss_mb
from spans import summarize

IMPORT_REPS = 30


def _common_results(run, modules: str) -> None:
    """setup_s (median import in a fresh interpreter plus median set-up step), wall_s, RSS.

    The gated times are scaled to the reference speed; the raw ones are report lines.
    """
    imports = run.import_seconds(modules, IMPORT_REPS)
    setup = statistics.median(run.setup_samples) if run.setup_samples else 0.0
    raw_setup = statistics.median(imports) + setup
    run.e2e = {
        "setup_s": raw_setup * run.setup_scale(),
        "wall_s": statistics.median(run.round_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    run.note("raw.setup_s", raw_setup, "s", "not scaled")
    run.note("raw.wall_s", statistics.median(run.round_raw), "s", "not scaled")
    run.note("speed", statistics.median(run.round_raw) / run.e2e["wall_s"], "ratio",
             "raw over scaled median round time; above 1 is slower than the reference")
    run.note("import_s", statistics.median(imports), "s", f"not scaled, median of {len(imports)} fresh interpreters")
    if run.setup_samples:
        run.note("setup_step_s", setup, "s", f"not scaled, median of {len(run.setup_samples)}")
    run.note("rounds", len(run.round_s), "count", "timed rounds, after one warm-up round")


# -- correlate-pipeline ----------------------------------------------------------------


def correlate_pipeline(run) -> None:
    p = run.params
    records = gen.incidence(random.Random(run.seed), p)
    source = run.path("input.aat")
    source.write_text(gen.triples_text(records), encoding="utf-8")
    ingested = oracle.canonical(oracle.max_fold(records))
    logical = [(r, c, 1.0) for r, c, _ in ingested]
    correlated = oracle.canonical(oracle.column_pair_counts(logical))
    want = {
        "ingest": oracle.sha256(oracle.triples_bytes(ingested)),
        "correlate": oracle.sha256(oracle.triples_bytes(correlated)),
        "export-dot": oracle.sha256(oracle.dot_bytes(correlated)),
    }
    terms = oracle.product_terms(ingested)
    if sum(v for _, _, v in correlated) != terms:
        raise AssertionError("oracle disagrees with itself on the product's term count")

    from aakit import cli

    a, c, dot = run.path("ingested.aat"), run.path("correlated.aat"), run.path("correlated.dot")
    stages = (
        ("ingest", ["ingest", "--format", "triples", str(source), "-o", str(a)], a),
        ("correlate", ["correlate", "--logical", str(a), "-o", str(c)], c),
        ("export-dot", ["export-dot", str(c), "-o", str(dot)], dot),
    )

    def one_round(first=False):
        total = 0.0
        for stage, argv, out in stages:
            rc, dt, ok = run.call(cli.run, argv)
            total += dt
            run.samples[stage].append(dt)
            got = out.read_bytes() if ok and rc == 0 else None
            run.expect(stage, ok and rc == 0, got, want[stage], first)
        return total

    one_round(first=True)
    bytes_out = sum(out.stat().st_size for _, _, out in stages)
    run.samples.clear()
    run.measure(one_round)

    run.layers["algebra.arrayprod.terms"] = terms
    run.layers["io.bytes_out"] = bytes_out
    if run.tracer is not None:
        self_s = run.layers.get("algebra.arrayprod.self_s", 0.0)
        run.layers["algebra.arrayprod.terms_per_s"] = terms / self_s if self_s else 0.0
        return
    _common_results(run, "aakit, aakit.cli")
    for stage, _, _ in stages:
        run.note(f"{stage}_s", statistics.median(run.samples[stage]), "s", "median per round")
    run.note("input_nnz", len(ingested), "count")
    run.note("output_nnz", len(correlated), "count")
    run.note("algebra.arrayprod.terms", terms, "count")
    _scipy_ceiling(run, logical, len(correlated), terms)


def _scipy_ceiling(run, cells, nnz: int, terms: int) -> None:
    """A @ A.T on the same data with scipy.sparse: a ceiling line, never gated."""
    try:
        import numpy as np
        import scipy.sparse as sp
    except ImportError:
        run.note("ceiling.scipy_correlate_s", float("nan"), "s", "skipped: scipy is not importable")
        return
    rows = {k: i for i, k in enumerate(sorted({r for r, _, _ in cells}))}
    cols = {k: i for i, k in enumerate(sorted({c for _, c, _ in cells}))}
    m = sp.csr_matrix(
        (np.ones(len(cells)), ([rows[r] for r, _, _ in cells], [cols[c] for _, c, _ in cells])),
        shape=(len(rows), len(cols)),
    )
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        product = m @ m.T
        times.append(time.perf_counter() - t0)
    same = product.nnz == nnz and int(product.sum()) == terms
    run.note("ceiling.scipy_correlate_s", statistics.median(times), "s",
             f"scipy.sparse A @ A.T, median of 5; nnz and sum {'match' if same else 'DIFFER'}")


# -- select-mix --------------------------------------------------------------------------


def select_mix(run) -> None:
    p = run.params
    rng = random.Random(run.seed)
    g_table = gen.graph(rng, p)
    csv_text, s_table = gen.song_table(rng, p)
    graph_file, table_file = run.path("graph.aat"), run.path("songs.csv")
    graph_file.write_text(gen.triples_text(list(
        (r, c, v) for (r, c), v in g_table.items())), encoding="utf-8")
    table_file.write_bytes(csv_text.encode("utf-8"))
    tables = {"G": g_table, "S": s_table}
    g_rows = sorted({r for r, _ in g_table})
    g_cols = sorted({c for _, c in g_table})
    s_rows = sorted({r for r, _ in s_table})

    import aakit

    def load():
        with open(table_file, "rb") as f:
            s = aakit.read_table(f)
        with open(graph_file, "rb") as f:
            g = aakit.read_triples(f)
        return {"G": g, "S": s}

    first_span = run.tracer.mark() if run.tracer else 0
    for _ in range(p["setup_loads"]):
        arrays = run.setup_step(load)
    if run.tracer is not None:
        s = summarize(run.tracer.spans, first_span, run.tracer.mark())
        run.layers["io.read_table.self_s"] = s["self_ns"].get("io.read_table", 0) / 1e9 / p["setup_loads"]
    for name in ("G", "S"):
        run.attempted += 1
        run.expect(f"load {name}", True, oracle.triples_bytes(arrays[name]),
                   oracle.sha256(oracle.triples_bytes(oracle.canonical(tables[name]))), True)

    spec = {"all": lambda: aakit.ALL, "set": aakit.KeySet, "range": aakit.KeyRange, "prefix": aakit.KeyPrefix}
    axes = {"row": aakit.Axis.ROW, "col": aakit.Axis.COLUMN}

    def make(kind, args, got, want):
        """The timed call for one op, and the oracle's table for it."""
        if kind == "subarray":
            target, rows, cols = args
            arr = got[target]
            return (lambda: arr.subarray(spec[rows[0]](*rows[1:]), spec[cols[0]](*cols[1:])),
                    lambda: oracle.select(tables[target], rows, cols))
        if kind == "perm_select":
            target, keys, axis = args
            sel = ("set", keys)
            rows, cols = (sel, ("all",)) if axis == "row" else (("all",), sel)
            return (lambda: aakit.perm_select(got[target], keys, axes[axis]),
                    lambda: oracle.select(tables[target], rows, cols))
        if kind in ("eladd", "elmult"):
            x, y, sr = args
            fn, ref = getattr(aakit, kind), getattr(oracle, kind)
            return (lambda: fn(got[x], got[y], aakit.SEMIRINGS[sr]),
                    lambda: ref(want[x], want[y], sr))
        if kind == "bfs":
            target, sources, steps = args
            return (lambda: aakit.bfs(got[target], sources, steps),
                    lambda: oracle.bfs(tables[target], sources, steps))
        if kind == "transpose":
            return (lambda: got[args[0]].transpose(), lambda: oracle.transpose(want[args[0]]))
        if kind == "symmetrize":
            return (lambda: aakit.symmetrize(got[args[0]]), lambda: oracle.symmetrize(want[args[0]]))
        if kind == "degree":
            target, axis = args
            return (lambda: aakit.degree(got[target], axes[axis]),
                    lambda: oracle.degree(tables[target], axis))
        raise ValueError(f"unknown op kind {kind!r}")

    def one_round(first=False):
        ops = gen.select_round(rng, p, g_rows, g_cols, s_rows)
        got, want = dict(arrays), {}
        total = 0.0
        for name, kind, args in ops:
            timed, reference = make(kind, args, got, want)
            result, dt, ok = run.call(timed)
            total += dt
            run.samples["read"].append(dt)
            run.samples[name].append(dt)
            expected = reference()
            if name in ("X", "Y"):
                got[name], want[name] = result, expected
            run.expect(name, ok, oracle.triples_bytes(result) if ok else None,
                       oracle.sha256(oracle.triples_bytes(oracle.canonical(expected))), first)
        return total

    one_round(first=True)
    run.samples.clear()
    run.measure(one_round)
    if run.tracer is not None:
        return
    _common_results(run, "aakit")
    run.latency_lines("read", run.samples["read"])
    run.note("graph_nnz", len(g_table), "count")
    run.note("table_nnz", len(s_table), "count")
    for name in sorted(run.samples):
        if name != "read":
            run.note(f"read.{name}_p50_ms", statistics.median(run.samples[name]) * 1e3, "ms",
                     f"n={len(run.samples[name])}")


# -- store-churn -------------------------------------------------------------------------


def _spec_text(spec) -> str:
    kind = spec[0]
    if kind == "all":
        return "all"
    if kind == "set":
        return "set:" + ",".join(spec[1])
    if kind == "range":
        return f"range:{spec[1]}..{spec[2]}"
    return f"prefix:{spec[1]}"


def _store_files(directory) -> dict:
    """Size of every file in the store directory."""
    return {f.name: f.stat().st_size for f in directory.iterdir()}


def _listed_segments(directory) -> list:
    text = (directory / "MANIFEST").read_text(encoding="ascii")
    return text.split("\n")[1:-1]


def store_churn(run) -> None:
    p = run.params
    script = gen.store_script(random.Random(run.seed), p)
    fold = oracle.StoreFold()
    segments = 0
    # (class, argv tail, expected stdout, expected output digest,
    #  canonical bytes of the live table before a compaction, batch or mask file)
    ops = []
    out_file = run.path("select.aat")
    for i, op in enumerate(script):
        if op[0] == "insert":
            path = run.path(f"batch{i}.aat")
            path.write_bytes(oracle.triples_bytes(oracle.canonical(op[1])))
            fold.insert(op[1])
            segments += 1
            ops.append(("write", ["insert", path], f"records {len(op[1])}\n", None, None, path))
        elif op[0] == "delete":
            path = run.path(f"mask{i}.aat")
            path.write_bytes(oracle.triples_bytes((r, c, 1.0) for r, c in sorted(op[1])))
            fold.delete(op[1])
            segments += 1
            ops.append(("write", ["delete", path], f"tombstones {len(op[1])}\n", None, None, path))
        elif op[0] == "compact":
            live_bytes = len(oracle.triples_bytes(oracle.canonical(fold.live)))
            after = 1 if fold.live else 0
            ops.append(("compact", ["compact"], f"segments {segments} -> {after}\n", None, live_bytes, None))
            segments = after
        else:
            _, rows, cols = op
            want = oracle.sha256(oracle.triples_bytes(oracle.canonical(oracle.select(fold.live, rows, cols))))
            argv = ["select", "--rows", _spec_text(rows), "--cols", _spec_text(cols), "-o", out_file]
            ops.append(("read", argv, "", want, None, None))

    from aakit import cli

    def run_cli(argv):
        """cli.run with standard output captured; returns (exit status, output text)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        return rc, buf.getvalue()

    def argv_for(directory, tail):
        return ["store", tail[0], str(directory), *[str(x) for x in tail[1:]]]

    def init(directory):
        result, dt, ok = run.call(run_cli, ["store", "init", str(directory)])
        run.expect("store init", ok and result == (0, ""), None, None, False)
        return dt

    for i in range(p["setup_inits"]):
        directory = run.path(f"setup{i}")
        result = run.setup_step(lambda: run_cli(["store", "init", str(directory)]))
        run.attempted += 1
        run.expect("store init", result == (0, ""), None, None, False)
        shutil.rmtree(directory)

    counter = iter(range(10 ** 9))

    def one_round(first=False):
        directory = run.path(f"store{next(counter)}")
        total = init(directory)
        counts = dict.fromkeys(("segments", "records_parsed", "records_returned", "parsed_for_reads",
                                "store_bytes", "user_bytes", "bytes_out"), 0)
        space_amp = 0.0
        for cls, tail, want_text, want_digest, live_bytes, user_file in ops:
            if first:
                listed = _listed_segments(directory)
                before = _store_files(directory)
                parsed = sum((directory / s).read_bytes().count(b"\n") - 1 for s in listed)
                counts["segments"] += len(listed)
                counts["records_parsed"] += parsed
                if live_bytes is not None:
                    on_disk = sum(before.values())
                    space_amp = max(space_amp, on_disk / live_bytes)
            result, dt, ok = run.call(run_cli, argv_for(directory, tail))
            total += dt
            run.samples[cls].append(dt)
            rc, text = result if ok else (None, None)
            good = ok and rc == 0 and text == want_text
            got = out_file.read_bytes() if good and cls == "read" else None
            run.expect(f"store {tail[0]}", good, got, want_digest, first)
            if first and good:
                if cls == "read":
                    counts["records_returned"] += got.count(b"\n") - 1
                    counts["parsed_for_reads"] += parsed
                    counts["bytes_out"] += len(got)
                else:
                    after = _store_files(directory)
                    new = [s for s in _listed_segments(directory) if s not in listed]
                    counts["store_bytes"] += after["MANIFEST"] + sum(after[s] for s in new)
                    if user_file is not None:
                        counts["user_bytes"] += user_file.stat().st_size
        shutil.rmtree(directory)
        if first:
            run.layers["store.open.segments"] = counts["segments"]
            run.layers["store.open.records_parsed"] = counts["records_parsed"]
            run.layers["store.read_amp"] = counts["parsed_for_reads"] / max(1, counts["records_returned"])
            run.layers["store.write_amp"] = counts["store_bytes"] / counts["user_bytes"]
            run.layers["store.space_amp"] = space_amp
            run.layers["io.bytes_out"] = counts["bytes_out"]
        return total

    one_round(first=True)
    run.samples.clear()
    run.measure(one_round)
    if run.tracer is not None:
        return
    _common_results(run, "aakit, aakit.cli")
    run.latency_lines("read", run.samples["read"])
    run.latency_lines("write", run.samples["write"])
    run.note("compact_s", statistics.median(run.samples["compact"]), "s",
             f"median, n={len(run.samples['compact'])}")
    run.note("space_amp", run.layers["store.space_amp"], "ratio",
             "bytes on disk / canonical bytes of the live table, peak before a compaction")


WORKLOADS = {
    "correlate-pipeline": correlate_pipeline,
    "select-mix": select_mix,
    "store-churn": store_churn,
}
