"""The benchmark's tracer patches aakit entry points by name; keep them patchable.

``perfbench/spans.py`` looks up every entry point it traces by module and
attribute name, so renaming or dropping one breaks the traced benchmark
run.  This loads the tracer from its file (writing no bytecode next to
it), installs it and uninstalls it again.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_entry_point_and_restores_them(monkeypatch):
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    try:
        tracer.install()  # a missing entry point raises KeyError or AttributeError here
        patched = list(tracer._patches)
        assert len(patched) >= len(spans.ENTRY_POINTS) + 1  # + os.fsync
        assert any(owner is os and attr == "fsync" for owner, attr, _ in patched)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
