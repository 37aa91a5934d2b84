"""Layer spans recorded from outside aakit, for the traced run.

The tracer replaces aakit's public entry points with wrappers that record
a span (name, parent span, start, end) around each call.  It patches every
module attribute that refers to an entry point, so the by-name imports the
modules make of each other (``aakit.graph.arrayprod``,
``aakit.store.parse_record_lines``, ``aakit.io.from_triples``, ...) and the
package re-exports are traced as well; ``aakit.cli`` reaches the io layer
through its ``aio`` module alias, whose attributes are the io module's own.
``os.fsync`` is wrapped too, as the span ``store.fsync``.

Per-element helpers (``check_key``, ``format_number``, ``parse_cell`` and
the like) are not wrapped: they run once per key or value, and a span per
call would cost more than the work it measures.  Their time counts as the
self time of the entry point that called them.

Spans are kept in memory; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (module, attribute path, span name).  Span names are "<layer>.<entry>".
ENTRY_POINTS = (
    ("cli", "run", "cli.run"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "parse_keyspec", "cli.parse_keyspec"),
    ("io", "read_table", "io.read_table"),
    ("io", "read_triples", "io.read_triples"),
    ("io", "parse_record_lines", "io.parse_record_lines"),
    ("io", "write_triples", "io.write_triples"),
    ("io", "export_dot", "io.export_dot"),
    ("core", "from_triples", "core.from_triples"),
    ("core", "AssociativeArray.subarray", "core.AssociativeArray.subarray"),
    ("core", "AssociativeArray.transpose", "core.AssociativeArray.transpose"),
    ("core", "AssociativeArray.logical", "core.AssociativeArray.logical"),
    ("algebra", "eladd", "algebra.eladd"),
    ("algebra", "elmult", "algebra.elmult"),
    ("algebra", "arrayprod", "algebra.arrayprod"),
    ("algebra", "mask_select", "algebra.mask_select"),
    ("algebra", "delete_entries", "algebra.delete_entries"),
    ("algebra", "perm_select", "algebra.perm_select"),
    ("graph", "correlate", "graph.correlate"),
    ("graph", "bfs", "graph.bfs"),
    ("graph", "symmetrize", "graph.symmetrize"),
    ("graph", "degree", "graph.degree"),
    ("patterns", "identity_from_keys", "patterns.identity_from_keys"),
    ("patterns", "perm_from_pairs", "patterns.perm_from_pairs"),
    ("patterns", "is_permutation", "patterns.is_permutation"),
    ("patterns", "is_clique", "patterns.is_clique"),
    ("analysis", "to_dense", "analysis.to_dense"),
    ("analysis", "rank", "analysis.rank"),
    ("analysis", "null_space", "analysis.null_space"),
    ("analysis", "dominant_eigenpair", "analysis.dominant_eigenpair"),
    ("store", "open_store", "store.open_store"),
    ("store", "TableStore.open", "store.open"),
    ("store", "TableStore.select", "store.select"),
    ("store", "TableStore.insert", "store.insert"),
    ("store", "TableStore.delete", "store.delete"),
    ("store", "TableStore.compact", "store.compact"),
)

LAYERS = ("cli", "io", "core", "algebra", "graph", "store", "patterns", "analysis")


def _subarray_name(name, args, kwargs):
    """Split subarray spans by the kind of the key spec that selects."""
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    cols = args[2] if len(args) > 2 else kwargs.get("cols")
    kinds = [type(s).__name__ for s in (rows, cols) if s is not None and type(s).__name__ != "AllKeys"]
    return f"{name}.{'+'.join(kinds) or 'AllKeys'}"


def _semiring_name(name, args, kwargs):
    sr = args[2] if len(args) > 2 else kwargs["sr"]
    return f"{name}.{sr.name}"


NAMERS = {
    "core.AssociativeArray.subarray": _subarray_name,
    "algebra.eladd": _semiring_name,
    "algebra.elmult": _semiring_name,
}


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` patch aakit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start_ns, end_ns]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, namer = self.spans, self._stack, NAMERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(name, args, kwargs) if namer else name, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patches:
            return
        package = importlib.import_module("aakit")
        modules = {layer: importlib.import_module(f"aakit.{layer}") for layer in LAYERS}
        by_id = {}
        for layer, path, name in ENTRY_POINTS:
            owner = modules[layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, raw))
            else:
                by_id[id(raw)] = self._wrap(name, raw)
        # Replace every reference to a module-level entry point, wherever imported.
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        self._patch(os, "fsync", self._wrap("store.fsync", os.fsync))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, to cut the span list into phases."""
        return len(self.spans)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, parent, start, end in self.spans:
                f.write(json.dumps({"name": name, "parent": parent, "start_ns": start, "end_ns": end}))
                f.write("\n")


def summarize(spans: list, first: int, last: int) -> dict:
    """Totals over spans[first:last]: per-name and per-layer self time, calls, root time.

    A span's self time is its duration minus the durations of its direct
    children; spans nest within one thread, so children never overlap.
    """
    child_ns = defaultdict(int)
    for i in range(first, last):
        parent = spans[i][1]
        if parent >= first:
            child_ns[parent] += spans[i][3] - spans[i][2]
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    layer_ns = defaultdict(int)
    root_ns = 0
    parse_in_open_ns = 0
    for i in range(first, last):
        name, parent, start, end = spans[i]
        own = end - start - child_ns[i]
        self_ns[name] += own
        calls[name] += 1
        layer_ns[name.split(".", 1)[0]] += own
        if parent < first:
            root_ns += end - start
        elif name == "io.parse_record_lines" and spans[parent][0] == "store.open":
            parse_in_open_ns += own
    return {
        "self_ns": dict(self_ns),
        "calls": dict(calls),
        "layer_ns": dict(layer_ns),
        "root_ns": root_ns,
        "parse_in_open_ns": parse_in_open_ns,
    }
