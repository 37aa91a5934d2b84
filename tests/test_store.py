import random

import pytest

from aakit import AssociativeArray, KeyPrefix, KeySet
from aakit.store import (
    MANIFEST_NAME,
    ReadOnlyError,
    StoreError,
    TableStore,
    open_store,
)

from helpers import KEY_POOL
from oracles import store_fold_oracle


def aa(d):
    return AssociativeArray(d)


def test_open_creates_layout(tmp_path):
    with TableStore.open(tmp_path / "t") as st:
        assert not st.read_only
        assert (tmp_path / "t" / MANIFEST_NAME).read_bytes() == b"%aa-manifest 1\n"
        assert (tmp_path / "t" / "LOCK").exists()
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
    (bare / "LOCK").write_text("12345\n")  # held by a writer that never wrote MANIFEST
    with pytest.raises(StoreError, match="MANIFEST is missing"):
        open_store(bare)
    assert sorted(p.name for p in bare.iterdir()) == ["LOCK"]


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
