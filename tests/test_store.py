import errno
import fcntl
import json
import linecache
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aakit.io
import aakit.store
from aakit import ALL, MAXPLUS, AssociativeArray, DomainError, KeyPrefix, KeyRange, KeySet, KeySpec, cli, eladd
from aakit.io import FormatError, parse_record_lines, record_span, write_triples
from aakit.store import (
    MANIFEST_NAME,
    ReadOnlyError,
    StoreError,
    TableStore,
    open_store,
)

from helpers import INTERVAL_EDGE_CASES, KEY_POOL, check_invariants, child_env
from oracles import store_fold_oracle


def aa(d):
    return AssociativeArray(d)


def _assert_next_open_writes(root):
    """LOCK outlives its writer but not its flock: the next open writes, and LOCK holds its PID."""
    with open_store(root) as st:
        assert not st.read_only
        assert (root / "LOCK").read_text() == f"{os.getpid()}\n"


def test_open_creates_layout(tmp_path):
    with TableStore.open(tmp_path / "t") as st:
        assert not st.read_only
        assert (tmp_path / "t" / MANIFEST_NAME).read_bytes() == b"%aa-manifest 1\n"
        assert (tmp_path / "t" / "LOCK").exists()
        assert (tmp_path / "t" / "LOCK").stat().st_mode & 0o111 == 0  # not executable
        assert st.select() == AssociativeArray()
    _assert_next_open_writes(tmp_path / "t")


def test_direct_construction_refused(tmp_path):
    with pytest.raises(TypeError):
        TableStore(tmp_path / "t")


def test_insert_select_round_trip(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "y"): "hi"}))
        assert st.select() == aa({("a", "x"): 1.0, ("b", "y"): "hi"})
        assert st.select(rows=KeySet(["a"])) == aa({("a", "x"): 1.0})
        assert st.select(cols=KeyPrefix("y")) == aa({("b", "y"): "hi"})
    with open_store(tmp_path / "t") as st:
        assert st.select() == aa({("a", "x"): 1.0, ("b", "y"): "hi"})


def test_later_batches_supersede(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0}))
        st.insert(aa({("a", "x"): 2.0}))
        assert st.select().get("a", "x") == 2.0
        assert len(st.segments) == 2


def test_delete_writes_tombstones(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "y"): 2.0}))
        assert st.delete(aa({("a", "x"): 99.0})) == 1
        assert st.select() == aa({("b", "y"): 2.0})
    # tombstone survives reopen
    with open_store(tmp_path / "t") as st:
        assert st.select() == aa({("b", "y"): 2.0})
        # and resurrects on a fresh insert
        st.insert(aa({("a", "x"): 3.0}))
        assert st.select().get("a", "x") == 3.0


def test_empty_batches_write_no_segment(tmp_path):
    with open_store(tmp_path / "t") as st:
        assert st.insert(AssociativeArray()) == 0
        assert st.delete(AssociativeArray()) == 0
        assert st.segments == ()


def test_second_writer_degrades_to_read_only(tmp_path):
    with open_store(tmp_path / "t") as first:
        first.insert(aa({("a", "x"): 1.0}))
        second = open_store(tmp_path / "t")
        assert second.read_only
        assert second.select() == aa({("a", "x"): 1.0})
        with pytest.raises(ReadOnlyError):
            second.insert(aa({("b", "y"): 2.0}))
        second.close()
        # closing the read-only handle must not release the writer's lock
        with open_store(tmp_path / "t") as third:
            assert third.read_only
    _assert_next_open_writes(tmp_path / "t")


def test_repr_names_path_mode_and_segments(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0}))
        assert repr(st) == f"TableStore({str(root)!r}, writer, 1 segments)"
        with open_store(root, read_only=True) as ro:
            assert repr(ro) == f"TableStore({str(root)!r}, read-only, 1 segments)"


# The child opens the table, reports whether it is the writer over its stdout
# pipe, and holds the table until it is killed or its stdin closes.
_HOLDER_CHILD = """
import sys
from aakit import open_store

st = open_store(sys.argv[1])
print("read-only" if st.read_only else "writer", flush=True)
sys.stdin.read()
"""


def test_degraded_writer_names_the_lock_holder(tmp_path):
    root = tmp_path / "t"
    lock = root / "LOCK"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0}))
    with subprocess.Popen([sys.executable, "-c", _HOLDER_CHILD, str(root)], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=child_env()) as holder:
        try:
            assert holder.stdout.readline() == "writer\n"
            with open_store(root) as st:
                assert st.read_only
                assert st.select() == aa({("a", "x"): 1.0})
                held = f"table {str(root)!r} is open read-only: {str(lock)!r} is held by PID {holder.pid}"
                for write in (lambda: st.insert(aa({("b", "y"): 2.0})),
                              lambda: st.delete(aa({("a", "x"): 1.0})), st.compact):
                    with pytest.raises(ReadOnlyError) as info:
                        write()
                    assert str(info.value) == held
            # a handle opened read-only on purpose has no lock holder to name
            with open_store(root, read_only=True) as st, pytest.raises(ReadOnlyError) as info:
                st.compact()
            assert "LOCK" not in str(info.value)
        finally:
            holder.kill()  # SIGKILL: the holder closes nothing
    assert holder.returncode == -signal.SIGKILL
    assert lock.read_text() == f"{holder.pid}\n"  # the dead writer's LOCK stays
    with open_store(root) as st:  # but its flock went with the process
        assert not st.read_only
        assert lock.read_text() == f"{os.getpid()}\n"
        st.insert(aa({("b", "y"): 2.0}))
    _assert_next_open_writes(root)
    with open_store(root, read_only=True) as st:
        assert st.select() == aa({("a", "x"): 1.0, ("b", "y"): 2.0})


@pytest.mark.parametrize("dead", ["empty", "reaped-pid", "killed"])
def test_a_lock_a_dead_writer_left_blocks_no_writer(tmp_path, monkeypatch, capsys, dead):
    root = tmp_path / "t"
    lock = root / "LOCK"
    batch = tmp_path / "b.aat"
    with open(batch, "wb") as f:
        write_triples(aa({("a", "x"): 1.0}), f)
    if dead == "killed":  # the writer that made the table is killed with SIGKILL and closes nothing
        kill = "import os, signal, sys, aakit; aakit.open_store(sys.argv[1]); os.kill(os.getpid(), signal.SIGKILL)"
        child = subprocess.Popen([sys.executable, "-c", kill, str(root)], env=child_env())
    else:
        open_store(root).close()
        child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)  # reaped: no process has its PID now
    text = "" if dead == "empty" else f"{child.pid}\n"  # empty: killed between creating LOCK and writing its PID
    if dead == "killed":
        assert child.returncode == -signal.SIGKILL
        assert lock.read_text() == text
    truncations = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: truncations.append(n) or ftruncate(fd, n))
    lock.write_text(text)
    with open_store(root) as st:
        assert not st.read_only
        assert lock.read_text() == f"{os.getpid()}\n"
    assert truncations == [0]  # whatever LOCK held goes before the PID is written
    lock.write_text(text)
    for _ in range(2):  # after the dead writer, and after the first insert's clean close
        assert cli.run(["store", "insert", str(root), str(batch)]) == 0
        assert capsys.readouterr().out == "records 1\n"
        assert lock.read_text() == f"{os.getpid()}\n"  # the insert's writer


@pytest.mark.parametrize("lock_text", [None, "not-a-pid\n"], ids=["unreadable", "non-digits"])
def test_a_lock_without_a_readable_pid_names_an_unknown_holder(tmp_path, monkeypatch, lock_text):
    root = tmp_path / "t"
    lock = root / "LOCK"
    with open_store(root) as writer:
        if lock_text is None:
            read_text = Path.read_text

            def refuse_lock(path, *args, **kwargs):
                if path == lock:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                return read_text(path, *args, **kwargs)

            monkeypatch.setattr(Path, "read_text", refuse_lock)
        else:
            lock.write_text(lock_text)  # the flock, not the text, holds the table
        with open_store(root) as st, pytest.raises(ReadOnlyError) as info:
            st.insert(aa({("a", "x"): 1.0}))
        assert str(info.value) == f"table {str(root)!r} is open read-only: {str(lock)!r} is held by an unknown PID"
        assert not writer.read_only


@pytest.mark.parametrize("new_writer", [False, True], ids=["lock-gone", "lock-renewed"])
def test_a_writer_closing_as_another_opens_leaves_one_writer(tmp_path, monkeypatch, new_writer):
    root = tmp_path / "t"
    lock = root / "LOCK"
    holder = open_store(root)
    flock, between = fcntl.flock, []

    def holder_closes_first(fd, operation):
        # The second opener has opened LOCK and not yet locked it.
        if not between:
            between.append(holder.close())
            if new_writer:  # a third opener takes the flock the holder released
                between.append(open_store(root))
        return flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", holder_closes_first)
    second = open_store(root)
    writer, other = (between.pop(), second) if new_writer else (second, open_store(root))
    assert between == [None]
    assert not writer.read_only and other.read_only  # the only writer, and the opener after it degrades
    with pytest.raises(ReadOnlyError, match=f"is held by PID {os.getpid()}\\Z"):
        other.insert(aa({("a", "x"): 1.0}))
    assert open_store(root).read_only  # writer holds the table
    writer.insert(aa({("b", "y"): 2.0}))
    assert lock.read_text() == f"{os.getpid()}\n"
    other.close()
    assert open_store(root).read_only  # a degraded handle releases nothing
    writer.close()
    with open_store(root) as st:
        assert not st.read_only
        assert st.select() == aa({("b", "y"): 2.0})


def test_a_lock_that_cannot_be_opened_is_an_error_naming_it(tmp_path, capsys):
    root = tmp_path / "t"
    open_store(root).close()
    (root / "LOCK").unlink()
    (root / "LOCK").mkdir()
    with pytest.raises(OSError, match="LOCK"):
        open_store(root)
    assert cli.run(["store", "compact", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and str(root / "LOCK") in captured.err
    (root / "LOCK").rmdir()
    assert cli.run(["store", "compact", str(root)]) == 0


def _next_descriptor():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


@pytest.mark.parametrize("owner,name", [
    ("fcntl", "flock"),  # e.g. ENOLCK, or a file system without flock
    ("os", "ftruncate"),
    ("os", "write"),
    ("store", "_read_manifest"),  # the lock is taken
])
def test_a_failed_open_holds_no_descriptor_and_no_lock(tmp_path, monkeypatch, owner, name):
    root = tmp_path / "t"
    open_store(root).close()
    (root / "LOCK").write_text("4242\n")
    module = {"fcntl": fcntl, "os": os, "store": aakit.store}[owner]

    def fail(*args):
        raise OSError(errno.EIO, f"{name} failed")

    monkeypatch.setattr(module, name, fail)
    before = _next_descriptor()
    with pytest.raises(OSError, match=f"{name} failed"):
        open_store(root)
    monkeypatch.undo()
    assert _next_descriptor() == before
    with open_store(root) as st:
        assert not st.read_only


def test_read_only_flag_skips_lock(tmp_path):
    with open_store(tmp_path / "t") as writer:
        writer.insert(aa({("a", "x"): 1.0}))
        ro = open_store(tmp_path / "t", read_only=True)
        assert ro.read_only
        ro.close()
    # read_only open never creates the lock in the first place
    (tmp_path / "t" / "LOCK").unlink()
    ro = open_store(tmp_path / "t", read_only=True)
    assert not (tmp_path / "t" / "LOCK").exists()
    ro.close()


def test_read_only_open_of_missing_table_is_an_error(tmp_path):
    missing = tmp_path / "typo"
    with pytest.raises(StoreError, match="typo"):
        open_store(missing, read_only=True)
    assert not missing.exists()
    # a writer open still creates the table
    open_store(missing).close()
    assert (missing / MANIFEST_NAME).exists()


@pytest.mark.parametrize("where", ["typo", "typo/deep", "afile", "afile/deep"])
def test_read_only_open_of_no_directory_names_the_missing_manifest(tmp_path, where):
    # The writes' error, never a bare OSError, also where the path is a file.
    (tmp_path / "afile").write_bytes(b"")
    path = tmp_path / where
    with pytest.raises(StoreError) as exc:
        open_store(path, read_only=True)
    assert str(exc.value) == f"no table at {str(path)!r}: MANIFEST is missing"
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "afile"]


@pytest.mark.parametrize("where", ["afile", "afile/deep"])
def test_writer_open_of_a_file_path_is_not_a_directory(tmp_path, where):
    # A file, or a path under one, is no table for a writer either: a StoreError, no bare errno.
    (tmp_path / "afile").write_bytes(b"")
    path = tmp_path / where
    with pytest.raises(StoreError) as exc:
        open_store(path)
    assert str(exc.value) == f"no table at {str(path)!r}: not a directory"
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "afile"]


def test_read_only_open_of_directory_without_manifest_is_an_error(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    with pytest.raises(StoreError, match=r"bare.*MANIFEST is missing"):
        open_store(bare, read_only=True)
    assert list(bare.iterdir()) == []
    # the state a `store init` leaves when it dies between mkdir and the
    # MANIFEST write: a writer open repairs it
    open_store(bare).close()
    assert (bare / MANIFEST_NAME).exists()
    with open_store(bare, read_only=True) as ro:
        assert ro.select() == AssociativeArray()


def test_degraded_writer_open_without_manifest_is_an_error(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    # held by a writer that has not written MANIFEST yet
    fd = os.open(bare / "LOCK", os.O_CREAT | os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(StoreError, match="MANIFEST is missing"):
            open_store(bare)
        assert sorted(p.name for p in bare.iterdir()) == ["LOCK"]
    finally:
        os.close(fd)


def test_compact_merges_and_drops_tombstones(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "y"): 2.0}))
        st.insert(aa({("a", "x"): 5.0}))
        st.delete(aa({("b", "y"): 1.0}))
        before, after = st.compact()
        assert (before, after) == (3, 1)
        assert st.select() == aa({("a", "x"): 5.0})
    with open_store(tmp_path / "t") as st:
        assert st.select() == aa({("a", "x"): 5.0})
        assert len(st.segments) == 1


def test_compact_empty_table_to_zero_segments(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0}))
        st.delete(aa({("a", "x"): 1.0}))
        assert st.compact() == (2, 0)
        assert st.segments == ()
        assert st.select() == AssociativeArray()
        # the highest-numbered old segment stays on disk, unlisted, so that the
        # next segment does not take its name; a compaction that lists one deletes it
        assert sorted(p.name for p in (tmp_path / "t").glob("seg-*")) == ["seg-00000002.aat"]
        st.insert(aa({("b", "y"): 2.0}))
        assert st.segments == ("seg-00000003.aat",)
        assert st.compact() == (1, 1)
        assert sorted(p.name for p in (tmp_path / "t").glob("seg-*")) == ["seg-00000004.aat"]


def test_compact_removes_stale_segment_files(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0}))
        st.insert(aa({("b", "y"): 2.0}))
        old = set(st.segments)
        st.compact()
        on_disk = {p.name for p in (tmp_path / "t").iterdir()}
        assert not (old & on_disk)


def test_snapshot_isolation_across_compaction(tmp_path):
    with open_store(tmp_path / "t") as writer:
        writer.insert(aa({("a", "x"): 1.0}))
        writer.insert(aa({("b", "y"): 2.0}))
        reader = open_store(tmp_path / "t", read_only=True)
        snapshot = reader.select()
        writer.delete(aa({("a", "x"): 1.0}))
        writer.compact()
        # reader keeps the view it opened with, even though the segment
        # files it saw are gone from disk
        assert reader.select() == snapshot
        reader.close()
    with open_store(tmp_path / "t") as st:
        assert st.select() == aa({("b", "y"): 2.0})


def test_a_reader_never_pairs_an_old_segment_with_a_new_one_of_the_same_name(tmp_path, monkeypatch):
    root = tmp_path / "t"
    writer = open_store(root)
    writer.insert(aa({("a", "x"): 1.0}))
    writer.delete(aa({("a", "x"): 1.0}))
    first, second = writer.segments
    read_bytes, reads = Path.read_bytes, []

    def writer_runs_after_first_segment_read(path):
        data = read_bytes(path)
        if path.name == first and not reads:
            # The reader holds the MANIFEST [first, second] and first's bytes.
            reads.append(writer.compact())
            writer.insert(aa({("b", "y"): 2.0}))
            writer.insert(aa({("c", "z"): 3.0}))
        return data

    monkeypatch.setattr(Path, "read_bytes", writer_runs_after_first_segment_read)
    with open_store(root, read_only=True) as reader:
        assert reads == [(2, 0)]
        assert reader.segments == (first, second)
        assert reader.select() == AssociativeArray()  # the table held nothing at that MANIFEST
    monkeypatch.undo()
    assert not {first, second} & set(writer.segments)  # no name listed twice
    writer.close()
    with open_store(root, read_only=True) as reader:
        assert reader.select() == aa({("b", "y"): 2.0, ("c", "z"): 3.0})


def test_truncated_newest_segment_recovers_with_warning(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0}))
        st.insert(aa({("b", "y"): 2.0, ("c", "z"): 3.0}))
        newest = tmp_path / "t" / st.segments[-1]
    # crash mid-write: drop the final LF and a few bytes of the last record
    data = newest.read_bytes()
    newest.write_bytes(data[:-5])
    with pytest.warns(RuntimeWarning, match="truncated"):
        with open_store(tmp_path / "t") as st:
            got = st.select()
    assert got.get("a", "x") == 1.0
    assert got.get("b", "y") == 2.0  # earlier record in the same segment held
    assert got.get("c", "z") is None


def test_truncated_older_segment_is_an_error(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0}))
        first = st.segments[0]
        st.insert(aa({("b", "y"): 2.0}))
    seg = tmp_path / "t" / first
    seg.write_bytes(seg.read_bytes()[:-3])
    with pytest.raises(StoreError):
        open_store(tmp_path / "t")


def test_missing_segment_is_an_error(tmp_path):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0}))
        name = st.segments[0]
    data = (tmp_path / "t" / name).read_bytes()
    (tmp_path / "t" / name).unlink()
    with pytest.raises(StoreError):
        open_store(tmp_path / "t")
    # the failed open must not keep the writer's flock
    (tmp_path / "t" / name).write_bytes(data)
    _assert_next_open_writes(tmp_path / "t")


def test_open_reports_each_segment_as_it_reads_it(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0}))
        st.insert(aa({("b", "y"): 2.0}))
        first, second = st.segments
    data = (root / first).read_bytes()
    (root / first).write_bytes(data[:-1])  # torn, but not the newest
    (root / second).unlink()
    for read_only in (True, False):
        with pytest.raises(StoreError, match=rf"^segment {first}: "):
            open_store(root, read_only=read_only)
    (root / first).write_bytes(data)
    with pytest.raises(StoreError, match=rf"^manifest names missing segment '{second}'$"):
        open_store(root, read_only=True)


def test_corrupt_manifest_is_an_error(tmp_path):
    with open_store(tmp_path / "t"):
        pass
    (tmp_path / "t" / MANIFEST_NAME).write_bytes(b"what is this\n")
    with pytest.raises(StoreError):
        open_store(tmp_path / "t")
    (tmp_path / "t" / MANIFEST_NAME).write_bytes(b"%aa-manifest 1\n../evil\n")
    with pytest.raises(StoreError):
        open_store(tmp_path / "t")
    # a segment name with non-ASCII digits
    (tmp_path / "t" / MANIFEST_NAME).write_bytes(
        "%aa-manifest 1\nseg-\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668.aat\n".encode()
    )
    with pytest.raises(StoreError, match="manifest"):
        open_store(tmp_path / "t")


def test_manifest_that_lists_a_segment_twice_is_an_error(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0}))
        st.insert(aa({("a", "x"): 2.0}))
        first, second = st.segments
    (root / MANIFEST_NAME).write_bytes(f"%aa-manifest 1\n{first}\n{second}\n{first}\n".encode())
    manifest = (root / MANIFEST_NAME).read_bytes()
    for read_only in (True, False):
        with pytest.raises(StoreError, match=rf"^MANIFEST lists segment '{first}' twice$"):
            open_store(root, read_only=read_only)
    # no open rewrote the damaged MANIFEST, and the failed writer open kept no flock
    assert (root / MANIFEST_NAME).read_bytes() == manifest
    with open(root / "LOCK", "rb") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)


def test_closed_handle_refuses_everything(tmp_path):
    st = open_store(tmp_path / "t")
    st.close()
    with pytest.raises(StoreError):
        st.select()
    with pytest.raises(StoreError):
        st.insert(aa({("a", "x"): 1.0}))
    st.close()  # second close is a no-op


def test_a_select_is_marked_text_free_until_a_text_cell_is_live(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "u"): 2.0}))
        st.insert(aa({("c", "y"): 3.0}))
        assert st.select()._numeric
        assert st.select(KeySet(["a", "c"]), KeySet(["x", "y"]))._numeric
        st.insert(aa({("b", "z"): "word"}))
        for spec in (ALL, KeyPrefix("b")):
            picked = st.select(spec)
            assert not picked._numeric
            with pytest.raises(DomainError, match=re.escape("holds text at ('b', 'z')")):
                eladd(picked, picked, MAXPLUS)
        assert st.select(KeySet(["a", "c"]))._numeric  # no span of rows a and c holds text
        assert st.select(ALL, KeySet(["x", "y"]))._numeric  # the text of column z is not kept
    with open_store(root, read_only=True) as st:
        assert not st.select()._numeric
        picked = st.select(ALL, KeySet(["x", "y"]))
        assert picked == aa({("a", "x"): 1.0, ("c", "y"): 3.0}) and picked._numeric


def test_random_batches_match_fold_oracle(tmp_path):
    rng = random.Random(31)
    for case in range(25):
        root = tmp_path / f"t{case}"
        ops = []
        with open_store(root) as st:
            for _ in range(rng.randint(1, 12)):
                cells = {
                    (rng.choice(KEY_POOL), rng.choice(KEY_POOL)):
                        float(rng.randint(1, 9))
                    for _ in range(rng.randint(1, 5))
                }
                if rng.random() < 0.3:
                    mask = aa(dict.fromkeys(cells, 1.0))
                    ops.append(("delete", mask))
                    st.delete(mask)
                else:
                    batch = aa(cells)
                    ops.append(("insert", batch))
                    st.insert(batch)
                if rng.random() < 0.15:
                    st.compact()
            want = store_fold_oracle(ops)
            assert dict(st.select().items()) == want
        with open_store(root) as st:
            assert dict(st.select().items()) == want


def test_write_after_torn_tail_recovery_keeps_table_readable(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0}))
        st.insert(aa({("b", "y"): 2.0, ("c", "z"): 3.0}))
        newest = root / st.segments[-1]
    newest.write_bytes(newest.read_bytes()[:-5])
    with pytest.warns(RuntimeWarning, match="truncated"):
        with open_store(root) as st:
            st.insert(aa({("d", "w"): 4.0}))
    # the writer cut the torn line from the file, so no later open warns
    assert newest.read_bytes().endswith(b"\n")
    want = aa({("a", "x"): 1.0, ("b", "y"): 2.0, ("d", "w"): 4.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with open_store(root, read_only=True) as st:
            assert st.select() == want
        with open_store(root) as st:
            assert st.select() == want


def test_torn_tail_warning_names_the_caller_of_open(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0}))
        newest = root / st.segments[-1]
    torn = newest.read_bytes()[:-2]
    for opener in (TableStore.open, open_store):  # open_store is the README's spelling
        newest.write_bytes(torn)
        for read_only in (True, False):  # the reader leaves the torn line for the writer to cut
            with pytest.warns(RuntimeWarning, match="truncated") as record:
                opener(root, read_only=read_only).close()
            assert record[0].filename == __file__
            assert linecache.getline(__file__, record[0].lineno).strip() == (
                "opener(root, read_only=read_only).close()")


def test_read_only_open_leaves_torn_tail_on_disk(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "y"): 2.0}))
        newest = root / st.segments[-1]
    torn = newest.read_bytes()[:-5]
    newest.write_bytes(torn)
    with pytest.warns(RuntimeWarning, match="truncated"):
        with open_store(root, read_only=True) as st:
            assert st.select() == aa({("a", "x"): 1.0})
    assert newest.read_bytes() == torn


def test_writer_repairs_segment_torn_inside_its_magic_line(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0}))
        st.insert(aa({("b", "y"): 2.0}))
        newest = root / st.segments[-1]
    newest.write_bytes(b"%aa-s")
    with pytest.warns(RuntimeWarning, match="truncated"):
        open_store(root).close()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with open_store(root, read_only=True) as st:
            assert st.select() == aa({("a", "x"): 1.0})


# -- open racing a compaction, orphan files ------------------------------------


def test_open_racing_a_compaction_reads_the_new_manifest(tmp_path, monkeypatch):
    root = tmp_path / "t"
    writer = open_store(root)
    writer.insert(aa({("a", "x"): 1.0}))
    writer.insert(aa({("b", "y"): 2.0}))
    read_manifest = aakit.store._read_manifest
    calls = []

    def compact_after_first_read(path):
        names = read_manifest(path)
        calls.append(names)
        if len(calls) == 1:
            writer.compact()  # unlinks the segments just listed
        return names

    monkeypatch.setattr(aakit.store, "_read_manifest", compact_after_first_read)
    with open_store(root, read_only=True) as reader:
        assert reader.select() == aa({("a", "x"): 1.0, ("b", "y"): 2.0})
        assert reader.segments == writer.segments
    assert len(calls) == 2 and calls[0] != calls[1]
    writer.close()


def test_open_gives_up_when_the_manifest_keeps_changing(tmp_path, monkeypatch):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0}))
    counter = iter(range(1, 1000))
    monkeypatch.setattr(
        aakit.store, "_read_manifest", lambda path: [f"seg-{next(counter) + 10:08d}.aat"]
    )
    with pytest.raises(StoreError, match="MANIFEST changed"):
        open_store(root, read_only=True)
    assert next(counter) <= 10  # a small fixed number of attempts


def test_compact_deletes_orphan_segments_and_temp_files(tmp_path):
    root = tmp_path / "t"
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "y"): 2.0}))
        st.delete(aa({("b", "y"): 1.0}))
    # what crashes between a file write and its MANIFEST swap leave behind
    (root / "seg-00000007.aat").write_bytes(b"%aa-seg 1\nz\tz\tn\t9\n")
    (root / "seg-00000008.aat.tmp").write_bytes(b"%aa-seg 1\nz\tz")
    (root / "MANIFEST.tmp").write_bytes(b"%aa-manifest 1\nseg-0")
    # Arabic-Indic digits 1-8: int() reads them, but no segment name holds them
    stray = "seg-\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668.aat"
    (root / stray).write_bytes(b"%aa-seg 1\n")
    with open_store(root) as st:
        assert st.compact() == (2, 1)
        listed = st.segments
        assert listed == ("seg-00000008.aat",)  # numbering continues from the segments
        assert st.select() == aa({("a", "x"): 1.0})
    assert sorted(p.name for p in root.iterdir()) == sorted([MANIFEST_NAME, "LOCK", stray, *listed])
    with open_store(root, read_only=True) as st:
        assert st.select() == aa({("a", "x"): 1.0})


# -- the order of durable operations ------------------------------------------


def test_every_write_is_durable_before_the_manifest_names_it(tmp_path, monkeypatch):
    # Records the store's file-system calls in order, in the manner of ALICE
    # (Pillai et al., OSDI 2014), and checks them without replaying crashes.
    root = tmp_path / "t"
    calls, names = [], {}
    real_open, real_os_open, real_fsync, real_replace, real_unlink = (
        open, os.open, os.fsync, os.replace, Path.unlink)

    def record_open(path, mode="r", *args):
        f = real_open(path, mode, *args)
        names[f.fileno()] = Path(path).name
        calls.append(("open", Path(path).name, mode))
        return f

    def record_os_open(path, *args):
        fd = real_os_open(path, *args)
        names[fd] = "<dir>" if Path(path) == root else Path(path).name
        return fd

    monkeypatch.setattr(aakit.store, "open", record_open, raising=False)
    monkeypatch.setattr(os, "open", record_os_open)
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(("fsync", names[fd])), real_fsync(fd))[1])
    monkeypatch.setattr(os, "replace", lambda src, dst: (
        calls.append(("replace", Path(src).name, Path(dst).name)), real_replace(src, dst))[1])
    monkeypatch.setattr(Path, "unlink", lambda p, missing_ok=False: (
        calls.append(("unlink", p.name)), real_unlink(p, missing_ok))[1])

    def written(*files):
        return [call for name in files for call in (
            ("open", f"{name}.tmp", "wb"), ("fsync", f"{name}.tmp"),
            ("replace", f"{name}.tmp", name), ("fsync", "<dir>"))]

    def done(want):
        assert calls == want
        calls.clear()

    st = open_store(root)
    done(written(MANIFEST_NAME))
    st.insert(aa({("a", "x"): 1.0, ("b", "y"): 2.0}))
    done(written("seg-00000001.aat", MANIFEST_NAME))
    st.delete(aa({("b", "y"): 1.0}))
    done(written("seg-00000002.aat", MANIFEST_NAME))
    st.compact()
    calls[8:] = sorted(calls[8:])  # the directory lists the old segments in any order
    done(written("seg-00000003.aat", MANIFEST_NAME) + [("unlink", "seg-00000001.aat"), ("unlink", "seg-00000002.aat")])
    st.close()
    open_store(root, read_only=True).close()
    open_store(root).close()
    done([])


# -- a write step that fails -----------------------------------------------------


def _fail_once(monkeypatch, owner, name, n):
    """Make the n-th call of ``owner.name`` raise EIO, once; returns the list of calls, failed one included."""
    real, calls = getattr(owner, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) == n:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real(*args)

    monkeypatch.setattr(owner, name, failing)
    return calls


def _live(root):
    with open_store(root, read_only=True) as reader:
        return dict(reader.select().items())


def _listed(root):
    return (root / MANIFEST_NAME).read_text().split("\n")[1:-1]


def test_a_failed_write_after_its_manifest_is_in_place_loses_no_later_batch(tmp_path, monkeypatch):
    # The second directory fsync of an insert is the one after the MANIFEST
    # rename: readers already see the batch when it fails.
    root = tmp_path / "t"
    st = open_store(root)
    _fail_once(monkeypatch, aakit.store, "_fsync_dir", 2)
    with pytest.raises(StoreError, match=f"directory fsync of {str(root)!r} failed: Input/output error"):
        st.insert(aa({("a", "x"): 1.0}))
    assert _live(root) == {("a", "x"): 1.0}
    with pytest.raises(StoreError, match="reopen"):
        st.insert(aa({("b", "y"): 2.0}))
    assert _live(root) == {("a", "x"): 1.0}
    assert st.select() == aa({})  # the handle's snapshot, a prefix fold
    st.close()
    with open_store(root) as st:
        st.insert(aa({("b", "y"): 2.0}))
    assert _live(root) == {("a", "x"): 1.0, ("b", "y"): 2.0}


# Each write below makes 4 os.fsync calls (a file and its directory, twice: the
# segment, then the MANIFEST), 2 os.replace calls and 2 _fsync_dir calls.
_WRITES = {
    "insert": lambda st: st.insert(aa({("a", "x"): 5.0, ("c", "z"): 3.0})),
    "delete": lambda st: st.delete(aa({("a", "x"): 1.0})),
    "compact": TableStore.compact,
}
_STEPS = [("fsync", n) for n in range(1, 5)] + [("replace", 1), ("replace", 2), ("_fsync_dir", 1), ("_fsync_dir", 2)]
_FAILED_STEP = r"^(?:write|fsync|rename|directory fsync) of '([^']+)' failed: Input/output error$"


def _table_of_two_segments(root):
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "y"): 2.0, ("c", "y"): 4.0}))
        st.delete(aa({("b", "y"): 1.0}))


def _check_the_table_recovers(root, seen):
    """A fresh writer keeps all a reader saw, and its compaction leaves no orphan."""
    with open_store(root) as st:
        st.insert(aa({("d", "w"): 4.0}))
        assert _live(root) == {**seen, ("d", "w"): 4.0}
        st.compact()
    assert _live(root) == {**seen, ("d", "w"): 4.0}
    assert sorted(p.name for p in root.iterdir()) == sorted([MANIFEST_NAME, "LOCK", *_listed(root)])


@pytest.mark.parametrize("target,n", _STEPS, ids=[f"{t}-{n}" for t, n in _STEPS])
@pytest.mark.parametrize("write", list(_WRITES))
def test_a_write_that_fails_at_any_step_names_its_file_and_stops_the_handle(tmp_path, monkeypatch, write, target, n):
    clean, root = tmp_path / "clean", tmp_path / "t"
    for table in (clean, root):
        _table_of_two_segments(table)
    before = _live(clean)
    with open_store(clean) as st:
        _WRITES[write](st)
    after = _live(clean)
    st = open_store(root)
    with monkeypatch.context() as m:
        calls = _fail_once(m, aakit.store if target == "_fsync_dir" else os, target, n)
        with pytest.raises(StoreError, match=_FAILED_STEP) as failed:
            _WRITES[write](st)
        assert len(calls) == n  # the write stopped at the failed call: nothing was retried
        named = Path(re.match(_FAILED_STEP, str(failed.value))[1])
        assert root in (named, named.parent)  # the table directory, or a file in it
        seen = _live(root)
        assert seen in (before, after)
        with pytest.raises(StoreError, match=f"^table {str(root)!r} refuses writes after a failed one; reopen"):
            _WRITES[write](st)
        assert len(calls) == n
    assert dict(st.select().items()) == before
    st.close()
    _check_the_table_recovers(root, seen)


@pytest.mark.parametrize("target,n", [("fsync", 1), ("fsync", 2), ("replace", 1), ("_fsync_dir", 1)])
def test_a_writer_open_that_fails_to_cut_a_torn_tail_names_its_file(tmp_path, monkeypatch, target, n):
    root = tmp_path / "t"
    _table_of_two_segments(root)
    newest = root / _listed(root)[-1]
    newest.write_bytes(newest.read_bytes() + b"e\tv\tn\t9")
    with pytest.warns(RuntimeWarning, match="ignoring truncated"):
        seen = _live(root)
    with monkeypatch.context() as m:
        calls = _fail_once(m, aakit.store if target == "_fsync_dir" else os, target, n)
        with pytest.raises(StoreError, match=_FAILED_STEP) as failed:
            open_store(root)
        assert len(calls) == n
        assert re.match(_FAILED_STEP, str(failed.value))[1] in (str(root), str(newest) + ".tmp")
    with warnings.catch_warnings():  # the cut warns unless the failed open's rename already made it
        warnings.filterwarnings("ignore", "segment .*: cut truncated final line", RuntimeWarning)
        _check_the_table_recovers(root, seen)


# -- a writer killed at each step of a write -----------------------------------


# The child opens the table as its writer, then makes the n-th call of one
# file-system function exit the process at once, before the call runs.
_KILL_CHILD = """
import json, os, sys
from pathlib import Path
from aakit import AssociativeArray, open_store

root, target, n, op, cells = sys.argv[1:]
st = open_store(root)
assert not st.read_only
owner = {"fsync": os, "replace": os, "unlink": Path}[target]
real, calls = getattr(owner, target), []

def killer(*args, **kwargs):
    calls.append(None)
    if len(calls) == int(n):
        os._exit(77)
    return real(*args, **kwargs)

setattr(owner, target, killer)
if op == "compact":
    st.compact()
else:
    batch = AssociativeArray({(r, c): v for r, c, v in json.loads(cells)})
    st.insert(batch) if op == "insert" else st.delete(batch)
"""


@pytest.mark.parametrize("target,n,op", [
    ("fsync", 1, "insert"),  # segment written, not yet synced
    ("replace", 1, "insert"),  # segment synced, not yet renamed
    ("replace", 1, "delete"),
    ("replace", 2, "insert"),  # segment renamed, MANIFEST not yet swapped
    ("replace", 2, "delete"),
    ("unlink", 1, "compact"),  # MANIFEST swapped, orphans not yet deleted
])
def test_writer_killed_mid_write_leaves_the_fold_intact(tmp_path, target, n, op):
    root = tmp_path / "t"
    rng = random.Random(f"{target}{n}{op}")
    ops = []
    with open_store(root) as st:
        for kind in ("insert", "insert", "delete", "insert"):
            cells = {(rng.choice(KEY_POOL), rng.choice(KEY_POOL)): float(rng.randint(1, 9))
                     for _ in range(6)}
            batch = aa(cells)
            ops.append((kind, batch))
            st.insert(batch) if kind == "insert" else st.delete(batch)
    # Every kill point lies before the MANIFEST swap that would publish the
    # batch, and a compaction leaves the content as it was.
    want = store_fold_oracle(ops)
    cells = []
    if op != "compact":
        batch = aa({cell: 5.5 for cell in [("a", "x"), ("b", "y"), *want][:6]})
        assert store_fold_oracle([*ops, (op, batch)]) != want  # a landed batch would show
        cells = batch.triples()
    with subprocess.Popen(
        [sys.executable, "-c", _KILL_CHILD, str(root), target, str(n), op, json.dumps(cells)],
        stderr=subprocess.PIPE, env=child_env(),
    ) as child:
        _, err = child.communicate(timeout=60)
    assert child.returncode == 77, err  # the kill point was reached
    assert (root / "LOCK").read_text() == f"{child.pid}\n"  # the dead writer's LOCK stays
    with open_store(root, read_only=True) as st:
        assert dict(st.select().items()) == want
    with open_store(root) as st:
        assert not st.read_only
        st.compact()
        listed = st.segments
        assert dict(st.select().items()) == want
    assert sorted(p.name for p in root.iterdir()) == sorted([MANIFEST_NAME, "LOCK", *listed])


# One child of the kill-anywhere schedule.  A writer or compaction that finds
# the table held exits with 3.  Every other child prints which prefixes of the
# planned steps the table holds, by the fold of each prefix; a writer then
# commits the next steps, one batch each, printing a line before each, and a
# compaction compacts.
_SCHEDULE_CHILD = """
import json, sys
from aakit import AssociativeArray, open_store

root, role, plan, count = sys.argv[1:]
with open(plan) as f:
    steps, folds = json.load(f)
with open_store(root, read_only=role == "read") as st:
    if st.read_only and role != "read":
        sys.exit(3)
    seen = [list(t) for t in st.select().triples()]
    done = [k for k, fold in enumerate(folds) if fold == seen]
    print(json.dumps(done), flush=True)
    if role == "compact":
        st.compact()
    elif role == "write":
        for kind, cells in steps[done[-1]:done[-1] + int(count)]:
            print(kind, flush=True)
            batch = AssociativeArray({(r, c): v for r, c, v in cells})
            st.insert(batch) if kind == "insert" else st.delete(batch)
"""

_SCHEDULE_SPECS = [ALL, KeyRange("k03", "k08"), KeyPrefix("k1"), KeySet(["k00", "édge", "~"])]


def test_kill_anywhere_schedule_leaves_a_prefix_fold_and_a_free_lock(tmp_path):
    rng = random.Random(17)
    root = tmp_path / "t"
    # Each insert adds a cell of its own to row "~", which no delete masks, so
    # no two prefixes of the plan fold to the same content.
    ops, fold = [], {}
    for i in range(60):
        if fold and rng.random() < 0.3:
            cells = dict.fromkeys(rng.sample(sorted(c for c in fold if c[0] != "~"), 2), 1.0)
            ops.append(("delete", aa(cells)))
        else:
            cells = {(rng.choice(KEY_POOL), rng.choice(KEY_POOL)): float(rng.randint(1, 9)) for _ in range(4)}
            cells[("~", f"{i:02d}")] = 1.0
            ops.append(("insert", aa(cells)))
        fold = store_fold_oracle(ops)
    steps = [[kind, arr.triples()] for kind, arr in ops]
    folds = [[[r, c, v] for (r, c), v in sorted(store_fold_oracle(ops[:k]).items())]
             for k in range(len(ops) + 1)]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([steps, folds]))
    open_store(root).close()

    def finish(child, role, out=""):
        more, err = child.communicate(timeout=60)
        out += more
        if child.returncode == -signal.SIGKILL:
            return
        assert child.returncode == 0 or (child.returncode == 3 and role != "read"), err
        assert child.returncode == 3 or json.loads(out.split("\n")[0]), (role, out)  # some prefix

    committed, kills, stale = 0, 0, 0
    running = []
    for _ in range(48):
        role = rng.choice(["write", "write", "write", "read", "compact"])
        count = rng.randint(1, 3) if role == "write" else 0
        if len(running) == 4:
            finish(*running.pop(0))
        child = subprocess.Popen(
            [sys.executable, "-c", _SCHEDULE_CHILD, str(root), role, str(plan), str(count)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env())
        if role == "read" or rng.random() < 0.5:
            running.append((child, role))
            continue
        # Kill a writer or compaction at a random point after its open: after
        # it reports its open and a random number of its steps.
        out = "".join(child.stdout.readline() for _ in range(1 + rng.randint(0, count)))
        time.sleep(rng.uniform(0, 0.003))
        child.kill()
        for other in running:
            finish(*other)
        finish(child, role, out)
        running = []
        kills += 1
        stale += (root / "LOCK").read_text() == f"{child.pid}\n"  # the last writer was killed
        with open_store(root, read_only=True) as st:
            seen = [list(t) for t in st.select().triples()]
            done = [k for k, fold in enumerate(folds) if fold == seen]
            assert done and done[0] >= committed  # a prefix, and nothing committed lost
            committed = done[0]
            want = store_fold_oracle(ops[:committed])
            for rows in _SCHEDULE_SPECS:
                for cols in _SCHEDULE_SPECS:
                    assert dict(st.select(rows, cols).items()) == _fold_select(want, rows, cols)
        with open_store(root) as st:
            assert not st.read_only
    for other in running:
        finish(*other)
    assert kills >= 8 and stale >= 4, (kills, stale)  # writers died holding the table
    with open_store(root) as st:
        assert not st.read_only
        st.compact()
        assert dict(st.select().items()) in [store_fold_oracle(ops[:k]) for k in range(committed, len(ops) + 1)]
        listed = st.segments
    assert sorted(p.name for p in root.iterdir()) == sorted([MANIFEST_NAME, "LOCK", *listed])


# -- corruption found by the command that reads it ----------------------------


def _table_with_corrupt_older_segment(root):
    with open_store(root) as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "x"): 2.0, ("c", "x"): 3.0, ("d", "x"): 4.0}))
        older = root / st.segments[0]
        st.insert(aa({("e", "x"): 5.0}))
    return older


def test_corrupt_interior_line_is_reported_by_the_command_that_reads_it(tmp_path):
    root = tmp_path / "t"
    older = _table_with_corrupt_older_segment(root)
    older.write_bytes(older.read_bytes().replace(b"c\tx\tn\t3", b"c\tx\tq\t3"))
    message = rf"segment {older.name}: line 4: unknown type tag 'q'"
    with open_store(root) as st:  # open checks framing only
        assert st.select(rows=KeySet(["a", "e"])) == aa({("a", "x"): 1.0, ("e", "x"): 5.0})
        assert st.select(rows=KeyPrefix("d")) == aa({("d", "x"): 4.0})
        for rows in (KeySet(["c"]), KeyRange("b", "d"), KeyPrefix("c"), ALL):
            with pytest.raises(StoreError, match=message):
                st.select(rows=rows)
            with pytest.raises(StoreError, match=message):  # its column is selected
                st.select(rows, KeySet(["x", "y"]))
            assert st.select(rows, KeyPrefix("y")) == aa({})  # a dropped line is not checked
        with pytest.raises(StoreError, match=message):
            st.compact()
        assert len(st.segments) == 2  # the failed compaction changed nothing


def test_corrupt_undecodable_line_names_its_absolute_line(tmp_path):
    root = tmp_path / "t"
    older = _table_with_corrupt_older_segment(root)
    older.write_bytes(older.read_bytes().replace(b"d\tx\tn\t4", b"d\tx\tt\t\xff"))
    with open_store(root) as st:
        with pytest.raises(StoreError, match=rf"segment {older.name}: line 5: not valid UTF-8"):
            st.select(rows=KeyRange("c", "d"))


@pytest.mark.parametrize("body,lineno", [
    (b"a\tx\tn\t1\nc\tx\tn\t3\nb\tx\tn\t2\n", 4),  # rows out of order
    (b"a\tx\tn\t1\na\tx\tn\t2\nb\tx\tn\t2\n", 3),  # a cell twice
    (b"a\ty\tn\t1\na\tx\tn\t2\nb\tx\tn\t2\n", 3),  # columns out of order
])
def test_out_of_order_records_in_a_read_slice_are_an_error(tmp_path, body, lineno):
    root = tmp_path / "t"
    open_store(root).close()
    (root / "seg-00000001.aat").write_bytes(b"%aa-seg 1\n" + body)
    (root / MANIFEST_NAME).write_bytes(b"%aa-manifest 1\nseg-00000001.aat\n")
    message = rf"segment seg-00000001.aat: line {lineno}: record out of \(row, col\) order"
    with open_store(root) as st:
        for rows in (KeyRange("a", "c"), ALL):
            with pytest.raises(StoreError, match=message):
                st.select(rows=rows)
        with pytest.raises(StoreError, match=message):
            st.compact()


def test_stored_empty_values_stay_hidden(tmp_path):
    root = tmp_path / "t"
    open_store(root).close()
    (root / "seg-00000001.aat").write_bytes(b"%aa-seg 1\na\tx\tn\t0\nb\tx\tt\t\nc\tx\tn\t1\n")
    (root / MANIFEST_NAME).write_bytes(b"%aa-manifest 1\nseg-00000001.aat\n")
    with open_store(root) as st:
        for rows in (ALL, KeyRange("a", "c")):
            assert st.select(rows=rows) == aa({("c", "x"): 1.0})
        st.compact()
        assert st.select() == aa({("c", "x"): 1.0})


# -- bisecting selects against a fold oracle -----------------------------------


# "a\x01" sorts after "a" but its line sorts before "a<TAB>..."; "a" is a
# prefix of several keys; "a b" holds a space; the rest are non-ASCII and astral.
SELECT_KEYS = ["a", "a\x01", "a b", "ab", "abc", "aé", "b", "é", "éa", "中", "中key", "\U0001d49c", "\U0001d49cz"]
# Bounds and prefixes that are no key of the table.
PROBE_KEYS = SELECT_KEYS + ["0", "a\x00", "aa", "ac", "c", "ê", "\U0001f600", "\x7f"]


def test_every_edge_key_spec_matches_fold_oracle(tmp_path):
    root = tmp_path / "t"
    rng = random.Random(5)
    ops = []
    with open_store(root) as st:
        for _ in range(3):
            batch = aa({(r, c): float(rng.randint(1, 9)) for r in SELECT_KEYS for c in ("x", "y")
                        if rng.random() < 0.7})
            st.insert(batch)
            ops.append(("insert", batch))
        gone = aa(dict.fromkeys(rng.sample(sorted(store_fold_oracle(ops)), 6), 1.0))
        st.delete(gone)
        ops.append(("delete", gone))
        fold = store_fold_oracle(ops)
        prefixes = {k[:n] for k in SELECT_KEYS for n in (1, 2)} | set(PROBE_KEYS)
        specs = [KeySet([k]) for k in PROBE_KEYS] + [KeyPrefix(p) for p in sorted(prefixes)]
        specs += [KeyRange(lo, hi) for lo in PROBE_KEYS for hi in PROBE_KEYS if lo <= hi]
        specs += [KeySet(SELECT_KEYS), KeySet(PROBE_KEYS)]
        specs += [KeySet(SELECT_KEYS[i:i + 2]) for i in range(0, len(SELECT_KEYS), 2)]
        for _ in range(2):  # several segments, then one compacted segment
            for rows in specs:
                got = st.select(rows=rows)
                check_invariants(got)
                assert dict(got.items()) == _fold_select(fold, rows, ALL), rows
            st.compact()


@pytest.mark.parametrize("spec,keys,want", INTERVAL_EDGE_CASES)
def test_interval_edge_cases_select_through_the_store(tmp_path, spec, keys, want):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({(k, "x"): 1.0 for k in keys}))
        for _ in range(2):  # an appended segment, then a compacted one
            assert st.select(rows=spec).row_keys == tuple(want)
            st.compact()


# Column keys that are prefixes of one another; values whose text holds a
# TAB-framed column key, as the start of a record line of that column would.
COLUMN_KEYS = ["c0", "c01", "c011", "c02", "c1", "d"]
COLUMN_TEXTS = ["t", "x\tc01\ty", "\tc0\t", "c0\tc01\t"]


class EndsInOne(KeySpec):
    """A user spec that defines only ``matches``."""

    def matches(self, key):
        return key.endswith("1")


@pytest.mark.parametrize("rows,keep_row", [
    pytest.param(ALL, lambda r: True, id="rows-all"),
    pytest.param(KeyRange("r1", "r3"), lambda r: "r1" <= r <= "r3", id="rows-range"),
    pytest.param(EndsInOne(), lambda r: r[-1:] == "1", id="rows-custom"),
])
@pytest.mark.parametrize("cols,keep_col", [
    pytest.param(ALL, lambda c: True, id="all"),
    pytest.param(KeySet(["c01"]), lambda c: c == "c01", id="set-one"),
    pytest.param(KeySet(["c0", "c011", "d"]), lambda c: c in ("c0", "c011", "d"), id="set-three"),
    pytest.param(KeyRange("c01", "c02"), lambda c: "c01" <= c <= "c02", id="range"),
    pytest.param(KeyPrefix("c01"), lambda c: c[:3] == "c01", id="prefix"),
    pytest.param(KeyPrefix("c0"), lambda c: c[:2] == "c0", id="prefix-short"),
    pytest.param(EndsInOne(), lambda c: c[-1:] == "1", id="custom"),
])
def test_column_selects_match_fold_oracle(tmp_path, rows, keep_row, cols, keep_col):
    rng = random.Random(14)
    root = tmp_path / "t"
    row_keys = [f"r{i}" for i in range(5)]
    ops = []
    with open_store(root) as live:
        # Each batch supersedes or deletes cells of the ones before it, in every column.
        for kind in ("insert", "insert", "delete", "insert", "delete", "insert"):
            cells = {(rng.choice(row_keys), rng.choice(COLUMN_KEYS)):
                     rng.choice([float(rng.randint(1, 9)), rng.choice(COLUMN_TEXTS)])
                     for _ in range(12)}
            if len(ops) == 5:  # each column's newest value in row r0 or r1 holds a TAB: every row spec sees one
                cells.update({(row_keys[i % 2], c): COLUMN_TEXTS[1 + i % 3] for i, c in enumerate(COLUMN_KEYS)})
            batch = aa(cells)
            ops.append((kind, batch))
            live.insert(batch) if kind == "insert" else live.delete(batch)
        assert len(live.segments) == 6
        fold = store_fold_oracle(ops)
        want = {(r, c): v for (r, c), v in fold.items() if keep_row(r) and keep_col(c)}
        assert want and any("\t" in v for v in want.values() if isinstance(v, str))
        with open_store(root, read_only=True) as reopened:
            for handle in (live, reopened):
                got = handle.select(rows, cols)
                check_invariants(got)
                assert dict(got.items()) == want
        live.compact()
        assert dict(live.select(rows, cols).items()) == want


def test_a_select_parses_every_segment_in_one_call(tmp_path, monkeypatch):
    with open_store(tmp_path / "t") as st:
        for n in (1.0, 2.0, 3.0):
            st.insert(aa({(r, "x"): n for r in "abcde"}))
        calls = []
        parse = aakit.store.parse_record_lines

        def spy(sources, cols=None):
            sources = [(name, data, list(spans)) for name, data, spans in sources]
            calls.append(sources)
            return parse(sources, cols)

        monkeypatch.setattr(aakit.store, "parse_record_lines", spy)
        # Rows a, c and e are three spans in every segment, with a row between each two.
        assert st.select(KeySet(["a", "c", "e"])) == aa({(r, "x"): 3.0 for r in "ace"})
        assert len(calls) == 1
        assert [(name, data) for name, data, _ in calls[0]] == [
            (name, (tmp_path / "t" / name).read_bytes()) for name in st.segments]
        assert [len(spans) for _, _, spans in calls[0]] == [3, 3, 3]


def test_a_select_wraps_one_tombstone_free_segment_as_read(tmp_path, cleans):
    with open_store(tmp_path / "t") as st:
        st.insert(aa({("a", "x"): 1.0, ("b", "x"): 2.0}))
        st.insert(aa({("c", "x"): 3.0, ("c", "y"): "w", ("d", "x"): 4.0}))
        st.insert(aa({("a", "x"): 5.0, ("e", "x"): 6.0}))
        st.delete(aa({("g", "x"): 1.0}))  # a tombstone for a cell no segment holds
        cleans.clear()
        for rows, cols, want in (
            (KeySet(["c", "d"]), ALL, {("c", "x"): 3.0, ("c", "y"): "w", ("d", "x"): 4.0}),
            (KeyRange("c", "d"), KeySet(["y"]), {("c", "y"): "w"}),
            (KeyPrefix("b"), ALL, {("b", "x"): 2.0}),
        ):
            got = st.select(rows, cols)
            check_invariants(got)
            assert dict(got.items()) == want
        assert cleans == []
        # Rows from two segments, or from one that holds a tombstone, are sorted and screened.
        assert dict(st.select(KeySet(["a", "b"])).items()) == {("a", "x"): 5.0, ("b", "x"): 2.0}
        assert cleans == [{"a": {"x": 5.0}, "b": {"x": 2.0}}]
        assert st.select(KeySet(["g"])).nnz == 0
        assert cleans[1:] == [{"g": {"x": None}}]


def test_a_select_converts_each_distinct_number_once(tmp_path, monkeypatch):
    calls = []

    class CountedPattern:
        def match(self, text):
            calls.append(text)
            return number_re.match(text)

    number_re = aakit.io._NUMBER_RE
    with open_store(tmp_path / "t") as st:
        for rows in ("abc", "bcd", "cde"):
            st.insert(aa({(r, c): n for r in rows for c, n in (("x", 1.0), ("y", 2.5), ("z", 1.0))}))
        monkeypatch.setattr(aakit.io, "_NUMBER_RE", CountedPattern())
        got = st.select()
        assert got == aa({(r, c): n for r in "abcde" for c, n in (("x", 1.0), ("y", 2.5), ("z", 1.0))})
        assert sorted(calls) == ["1", "2.5"]


@pytest.mark.parametrize("faulty", [(1,), (0, 1)], ids=["second", "first-and-second"])
def test_a_fault_in_a_later_segment_names_it_and_an_earlier_one_wins(tmp_path, faulty):
    root = tmp_path / "t"
    with open_store(root) as st:
        for n in (1.0, 2.0, 3.0):
            st.insert(aa({(r, "x"): n for r in "abc"}))
        names = st.segments
    for i in faulty:  # line 3 of the segment, row b, gets a bad number
        path = root / names[i]
        path.write_bytes(path.read_bytes().replace(b"b\tx\tn\t", b"b\tx\tn\tnope"))
    message = f"segment {names[faulty[0]]}: line 3: unparseable number 'nope{faulty[0] + 1}'"
    with open_store(root) as st:
        for rows in (ALL, KeySet(["b"]), KeyRange("a", "c")):
            with pytest.raises(StoreError) as exc:
                st.select(rows)
            assert str(exc.value) == message
    # io names the segment, and the store passes its text on as it is.
    sources = [(name, data, [record_span(data, "%aa-seg 1")[:2]])
               for name, data in ((name, (root / name).read_bytes()) for name in names)]
    with pytest.raises(FormatError) as exc:
        parse_record_lines(sources)
    assert str(exc.value) == message


class Vowel(KeySpec):
    """A user spec that defines only ``matches``."""

    def matches(self, key):
        return key[0] in "aeiouéê"


def _specs(keys):
    probes = st.sampled_from(PROBE_KEYS)
    return st.one_of(
        st.just(ALL),
        st.just(Vowel()),
        st.sets(probes, max_size=6).map(KeySet),
        st.tuples(probes, probes).map(lambda b: KeyRange(*sorted(b))),
        probes.map(lambda k: KeyRange(k, k)),
        st.one_of(probes, st.sampled_from([k[:2] for k in keys])).map(KeyPrefix),
    )


_cells = st.tuples(st.sampled_from(SELECT_KEYS), st.sampled_from(["x", "y", "a\x01", "é"]))
_values = st.one_of(st.integers(1, 9).map(float), st.sampled_from(["t", "x y", "中"]))
_ops = st.lists(
    st.one_of(
        st.dictionaries(_cells, _values, min_size=1, max_size=12).map(lambda d: ("insert", aa(d))),
        st.sets(_cells, min_size=1, max_size=6).map(lambda c: ("delete", aa(dict.fromkeys(c, 1.0)))),
        st.just(("compact",)),
    ),
    min_size=1,
    max_size=7,
)


def _fold_select(fold, rows, cols):
    return {
        (r, c): v for (r, c), v in fold.items() if rows.matches(r) and cols.matches(c)
    }


@settings(max_examples=60, deadline=None)
@given(ops=_ops, data=st.data())
def test_bisecting_select_matches_fold_oracle(ops, data):
    specs = _specs(SELECT_KEYS)
    queries = data.draw(st.lists(st.tuples(specs, specs), min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "t"
        with open_store(root) as live:
            for kind, *batch in ops:
                getattr(live, kind)(*batch)
            fold = store_fold_oracle([op for op in ops if op[0] != "compact"])
            with open_store(root, read_only=True) as reopened:
                for rows, cols in queries:
                    want = _fold_select(fold, rows, cols)
                    for handle in (live, reopened):
                        got = handle.select(rows, cols)
                        check_invariants(got)
                        assert dict(got.items()) == want, (rows, cols)
