import errno
import fcntl
import json
import os
import random
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

import aakit.store
from aakit import ALL, AssociativeArray, KeyPrefix, KeyRange, KeySet, KeySpec, cli
from aakit.io import write_triples
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


def test_open_creates_layout(tmp_path):
    with TableStore.open(tmp_path / "t") as st:
        assert not st.read_only
        assert (tmp_path / "t" / MANIFEST_NAME).read_bytes() == b"%aa-manifest 1\n"
        assert (tmp_path / "t" / "LOCK").exists()
        assert (tmp_path / "t" / "LOCK").stat().st_mode & 0o111 == 0  # not executable
        assert st.select() == AssociativeArray()
    assert not (tmp_path / "t" / "LOCK").exists()


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
        assert (tmp_path / "t" / "LOCK").exists()
    assert not (tmp_path / "t" / "LOCK").exists()


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
    assert not lock.exists()
    with open_store(root, read_only=True) as st:
        assert st.select() == aa({("a", "x"): 1.0, ("b", "y"): 2.0})


@pytest.mark.parametrize("dead", ["empty", "reaped-pid"])
def test_a_lock_a_dead_writer_left_blocks_no_writer(tmp_path, monkeypatch, capsys, dead):
    root = tmp_path / "t"
    lock = root / "LOCK"
    batch = tmp_path / "b.aat"
    with open(batch, "wb") as f:
        write_triples(aa({("a", "x"): 1.0}), f)
    open_store(root).close()
    if dead == "empty":  # a writer killed between creating LOCK and writing its PID
        text = ""
    else:
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: no process has its PID now
        text = f"{child.pid}\n"
    truncations = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: truncations.append(n) or ftruncate(fd, n))
    lock.write_text(text)
    with open_store(root) as st:
        assert not st.read_only
        assert lock.read_text() == f"{os.getpid()}\n"
    assert truncations == ([0] if text else [])  # only a LOCK holding bytes is truncated
    assert not lock.exists()
    lock.write_text(text)
    assert cli.run(["store", "insert", str(root), str(batch)]) == 0
    assert capsys.readouterr().out == "records 1\n"
    assert not lock.exists()


@pytest.mark.parametrize("new_writer", [False, True], ids=["lock-gone", "lock-renewed"])
def test_a_writer_closing_as_another_opens_leaves_one_writer(tmp_path, monkeypatch, new_writer):
    root = tmp_path / "t"
    lock = root / "LOCK"
    holder = open_store(root)
    flock, between = fcntl.flock, []

    def holder_closes_first(fd, operation):
        # The second opener has opened the holder's LOCK and not yet locked it.
        if not between:
            between.append(holder.close())
            if new_writer:  # a third opener creates and takes a new LOCK
                between.append(open_store(root))
        return flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", holder_closes_first)
    second = open_store(root)
    third = between.pop() if new_writer else open_store(root)
    assert between == [None]
    assert second.read_only and not third.read_only
    holder_pid = f"PID {os.getpid()}" if new_writer else "an unknown PID"
    with pytest.raises(ReadOnlyError, match=f"is held by {holder_pid}\\Z"):
        second.insert(aa({("a", "x"): 1.0}))
    assert open_store(root).read_only  # third holds the table
    third.insert(aa({("b", "y"): 2.0}))
    assert lock.read_text() == f"{os.getpid()}\n"
    second.close()
    assert lock.exists()
    third.close()
    assert not lock.exists()
    with open_store(root) as st:
        assert not st.read_only
        assert st.select() == aa({("b", "y"): 2.0})


def test_a_lock_that_cannot_be_opened_is_an_error_naming_it(tmp_path, capsys):
    root = tmp_path / "t"
    open_store(root).close()
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
    ("os", "fstat"),
    ("os", "ftruncate"),  # LOCK holds a dead writer's PID
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
    (tmp_path / "t" / name).unlink()
    with pytest.raises(StoreError):
        open_store(tmp_path / "t")
    # the failed open must not leave a stale lock behind
    assert not (tmp_path / "t" / "LOCK").exists()


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


def test_closed_handle_refuses_everything(tmp_path):
    st = open_store(tmp_path / "t")
    st.close()
    with pytest.raises(StoreError):
        st.select()
    with pytest.raises(StoreError):
        st.insert(aa({("a", "x"): 1.0}))
    st.close()  # second close is a no-op


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
    assert sorted(p.name for p in root.iterdir()) == sorted([MANIFEST_NAME, stray, *listed])
    with open_store(root, read_only=True) as st:
        assert st.select() == aa({("a", "x"): 1.0})


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
    child = subprocess.run(
        [sys.executable, "-c", _KILL_CHILD, str(root), target, str(n), op, json.dumps(cells)],
        capture_output=True, env=child_env(), timeout=60,
    )
    assert child.returncode == 77, child.stderr  # the kill point was reached
    assert (root / "LOCK").exists()
    with open_store(root, read_only=True) as st:
        assert dict(st.select().items()) == want
    with open_store(root) as st:
        assert not st.read_only
        st.compact()
        listed = st.segments
        assert dict(st.select().items()) == want
    assert sorted(p.name for p in root.iterdir()) == sorted([MANIFEST_NAME, *listed])


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
        stale += (root / "LOCK").exists()
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
    assert sorted(p.name for p in root.iterdir()) == sorted([MANIFEST_NAME, *listed])


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
    fold = {}
    with open_store(root) as st:
        for _ in range(3):
            batch = {(r, c): float(rng.randint(1, 9)) for r in SELECT_KEYS for c in ("x", "y")
                     if rng.random() < 0.7}
            st.insert(aa(batch))
            fold.update(batch)
        gone = rng.sample(sorted(fold), 6)
        st.delete(aa(dict.fromkeys(gone, 1.0)))
        for cell in gone:
            del fold[cell]
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
            if len(ops) == 5:  # every column's newest value in one row holds a TAB
                cells.update({(row_keys[i % 5], c): COLUMN_TEXTS[1 + i % 3] for i, c in enumerate(COLUMN_KEYS)})
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
        st.dictionaries(_cells, _values, min_size=1, max_size=12).map(lambda d: ("insert", d)),
        st.sets(_cells, min_size=1, max_size=6).map(lambda c: ("delete", c)),
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
    fold = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "t"
        with open_store(root) as live:
            for op in ops:
                if op[0] == "insert":
                    live.insert(aa(op[1]))
                    fold.update(op[1])
                elif op[0] == "delete":
                    live.delete(aa(dict.fromkeys(op[1], 1.0)))
                    for cell in op[1]:
                        fold.pop(cell, None)
                else:
                    live.compact()
            fold = {cell: float(v) if isinstance(v, int) else v for cell, v in fold.items()}
            with open_store(root, read_only=True) as reopened:
                for rows, cols in queries:
                    want = _fold_select(fold, rows, cols)
                    for handle in (live, reopened):
                        got = handle.select(rows, cols)
                        check_invariants(got)
                        assert dict(got.items()) == want, (rows, cols)
