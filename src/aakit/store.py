"""Embedded persistent table: immutable sorted segments under a manifest.

On-disk layout inside the table directory::

    MANIFEST            %aa-manifest 1, then segment names, oldest first
    seg-00000001.aat    %aa-seg 1, then sorted records (tag x = tombstone)
    LOCK                the writer's flock and PID; kept after its writer closes

Content is the oldest-to-newest fold of the listed segments: the latest
record for a cell (value or tombstone) supersedes earlier ones.  Each
insert or delete batch becomes one new immutable segment; the MANIFEST
is replaced atomically (write-temp, fsync, rename), so a reader sees
either the old or the new segment list, never a mix.

The writer lock is an exclusive ``flock(2)`` of LOCK, which the kernel
releases when its holder closes it, exits or dies; the store thus needs a
file system with ``flock``.  LOCK stays for as long as the table does, so
whether it exists says nothing: only the flock decides who writes, and a
LOCK that an earlier writer left, empty or not, blocks no later writer.

This module owns the files, the LOCK, the MANIFEST's list of segment
names and each handle's snapshot.  ``io`` owns the bytes and the fold: it
frames and writes every file here, parses segment record lines, checks
their rules and folds them, and finds the lines of a row interval.

A handle reads the bytes of every listed segment at open and keeps them
as its snapshot: each segment's name, oldest first, mapped to its bytes
up to the last complete line.  That gives readers snapshot isolation at
manifest granularity even across a concurrent compaction.  Open checks
only each segment's framing; records are parsed by the command that
uses them.  A select parses every segment in one ``io`` call over the
spans of its row spec's key intervals, which drops the lines of columns
the column spec refuses, checks and folds the rest by the segment rules
and returns the array.  Those spans hold exactly the spec's rows; for a
spec without intervals every line is read, and ``subarray`` picks the rows.
"""

from __future__ import annotations

import os
import re
import warnings
from pathlib import Path

from .core import ALL, AllKeys, AssociativeArray, KeySpec, Value
from .io import (MANIFEST_MAGIC, SEGMENT_MAGIC, FormatError, encode_lines, encode_records, parse_record_lines,
                 record_span, row_spans)

MANIFEST_NAME = "MANIFEST"
LOCK_NAME = "LOCK"

_SEGMENT_RE = re.compile(r"seg-(\d{8})\.aat\Z", re.ASCII)

# How often an open starts over when a compaction replaced the segments it
# was reading; each retry means the MANIFEST changed in between.
_OPEN_ATTEMPTS = 5


class StoreError(RuntimeError):
    """Table directory is unusable: bad manifest, missing segment, etc."""


class ReadOnlyError(StoreError):
    """Write attempted through a read-only handle."""


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_file_atomic(path: Path, payload: bytes) -> None:
    """Write ``path`` through a temp file; an OSError becomes a StoreError naming the step and its file."""
    tmp = path.with_name(path.name + ".tmp")
    step, where = "write", tmp
    try:
        with open(tmp, "wb") as f:
            f.write(payload)
            f.flush()
            step = "fsync"
            os.fsync(f.fileno())
        step = "rename"
        os.replace(tmp, path)
        step, where = "directory fsync", path.parent
        _fsync_dir(path.parent)
    except OSError as exc:  # never retried: a failed fsync may have dropped the dirty pages
        raise StoreError(f"{step} of {str(where)!r} failed: {exc.strerror or exc}") from None


class TableStore:
    """Handle to one on-disk table.

    At most one writer holds a table at a time (via an flock of the LOCK
    file, which outlives its writer); an open that finds the flock taken
    comes back with ``read_only`` set.
    A handle's view of the table is fixed at open time plus its own
    writes; other processes' later writes need a fresh handle.  After a
    write fails (a StoreError naming its step and file), it refuses writes.
    """

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use TableStore.open(path)")

    @classmethod
    def open(cls, path: str | Path, read_only: bool = False) -> "TableStore":
        """Open the table directory at ``path``, creating it for a writer.

        Pass ``read_only=True`` to skip taking the writer lock; such an
        open creates nothing.  When the lock is already held elsewhere, the
        handle silently degrades to read-only; check the ``read_only``
        attribute.  Its writes then raise ReadOnlyError naming the LOCK
        file and the PID written in it.
        Only the lock holder writes a missing MANIFEST; any other open
        that finds none, be the directory missing or without a MANIFEST,
        raises StoreError, as does any open of a file or a path under one.
        """
        path = Path(path)
        self = cls.__new__(cls)
        self.path = path
        self.read_only = True
        self._holder = ""
        self._closed = self._failed = False
        if not read_only:
            import fcntl  # POSIX only: imported here, so that importing the package does not need it

            try:
                path.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError):  # a file, or a path under one
                raise StoreError(f"no table at {str(path)!r}: not a directory") from None
            lock = path / LOCK_NAME
            fd = os.open(lock, os.O_CREAT | os.O_WRONLY, 0o666)  # the mode open() gives
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                os.ftruncate(fd, 0)  # drop the PID an earlier writer left
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                self.read_only, self._lock_fd = False, fd
            except BlockingIOError:  # another writer holds the table
                self._holder = _lock_holder(lock)
            finally:
                if self.read_only:
                    os.close(fd)
        try:
            self._snapshot = self._read_snapshot()
        except BaseException:
            self.close()
            raise
        return self

    def _read_snapshot(self) -> dict[str, bytes]:
        """Map each listed segment's name, oldest first, to its framed bytes.

        The first MANIFEST read is the one test of whether a table is
        there.  A segment can vanish between the MANIFEST read and its own
        read when a compaction swaps the MANIFEST in between; the open then
        starts over from the new MANIFEST.
        """
        manifest = self.path / MANIFEST_NAME
        try:
            names = _read_manifest(manifest)
        except (FileNotFoundError, NotADirectoryError):  # no MANIFEST, no directory, or a file for one
            if self.read_only:
                raise StoreError(f"no table at {str(self.path)!r}: {MANIFEST_NAME} is missing") from None
            self._commit({})
            return self._snapshot
        for _ in range(_OPEN_ATTEMPTS):
            snapshot: dict[str, bytes] = {}
            for name in names:
                try:
                    data = (self.path / name).read_bytes()
                except FileNotFoundError:
                    break
                snapshot[name] = self._frame(name, data, name == names[-1])
            else:
                return snapshot
            current = _read_manifest(manifest)
            if current == names:
                raise StoreError(f"manifest names missing segment {name!r}")
            names = current
        raise StoreError(f"MANIFEST changed {_OPEN_ATTEMPTS} times during open; try again")

    def _frame(self, name: str, data: bytes, newest: bool) -> bytes:
        """Check one segment's framing and return its bytes up to the last complete line.

        Only the newest segment may end in a torn line.  A writer cuts it
        from the file (atomically) so the segment ends in LF again before
        anything is appended after it; a reader only skips it.  A segment
        torn inside its magic line reads as the magic line alone.
        """
        try:
            _, end, truncated = record_span(data, SEGMENT_MAGIC, lenient_tail=newest)
        except FormatError as exc:
            raise StoreError(f"segment {name}: {exc}") from None
        if truncated:
            data = data[:end] or encode_lines([SEGMENT_MAGIC])
            if not self.read_only:
                _write_file_atomic(self.path / name, data)
                action = "cut truncated final line from the file"
            else:
                action = "ignoring truncated final line"
            # Four frames up (_frame, _read_snapshot, open) is open's caller; before Python 3.12 a
            # comprehension is a frame of its own, so _read_snapshot calls this from a plain loop.
            warnings.warn(f"segment {name}: {action}", RuntimeWarning, stacklevel=4)
        return data

    # -- queries -----------------------------------------------------------

    def select(self, rows: KeySpec = ALL, cols: KeySpec = ALL) -> AssociativeArray:
        """Materialize live content filtered by the key specs: the stored table's subarray.

        One parse call reads every segment, oldest first, on the row spec's key
        intervals, which hold exactly its rows; a spec without intervals reads
        whole segments, and the array's ``subarray`` picks the rows.  Only the
        records of the selected columns are checked and folded.
        """
        self._require_open()
        intervals = rows.intervals()
        read = ALL.intervals() if intervals is None else intervals
        keep_col = None if isinstance(cols, AllKeys) else cols.matches
        try:
            table = parse_record_lines(((n, d, row_spans(d, read)) for n, d in self._snapshot.items()), keep_col)
        except FormatError as exc:
            raise StoreError(str(exc)) from None
        return table if intervals is not None else table.subarray(rows, ALL)

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self._snapshot)

    # -- writes ------------------------------------------------------------

    def insert(self, batch: AssociativeArray) -> int:
        """Write one batch as a new segment; later values supersede earlier.

        Returns the number of records written; an empty batch writes
        nothing at all.
        """
        self._require_writer()
        if batch.nnz == 0:
            return 0
        self._commit(self._snapshot, batch._rows)
        return batch.nnz

    def delete(self, mask: AssociativeArray) -> int:
        """Write tombstones for every cell in the mask's support."""
        self._require_writer()
        if mask.nnz == 0:
            return 0
        self._commit(self._snapshot, {r: dict.fromkeys(row) for r, row in mask._rows.items()})
        return mask.nnz

    def compact(self) -> tuple[int, int]:
        """Merge everything into at most one live-record segment.

        Tombstones and superseded records disappear, and so does every
        segment or temp file the new MANIFEST does not list: old segments,
        and orphans a crash left between a file write and its MANIFEST
        swap.  Returns the segment counts (before, after); an empty table
        compacts to zero segments, but keeps its highest-numbered segment
        file unlisted, so that no later segment reuses a name that a
        reader's MANIFEST may still list.
        """
        self._require_writer()
        before = len(self._snapshot)
        self._commit({}, self.select()._rows)
        keep = set(self._snapshot) or {f"seg-{self._highest_segment():08d}.aat"}
        for entry in self.path.iterdir():
            if entry.name not in keep and (_SEGMENT_RE.match(entry.name) or entry.name.endswith(".tmp")):
                entry.unlink(missing_ok=True)
        return before, len(self._snapshot)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self.read_only:
            os.close(self._lock_fd)  # releases the flock

    def __enter__(self) -> "TableStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self):
        state = "read-only" if self.read_only else "writer"
        return f"TableStore({str(self.path)!r}, {state}, {len(self._snapshot)} segments)"

    # -- internals -----------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise StoreError("handle is closed")

    def _require_writer(self) -> None:
        self._require_open()
        if self.read_only:
            raise ReadOnlyError(f"table {str(self.path)!r} is open read-only{self._holder}")
        if self._failed:  # its snapshot may be behind the MANIFEST: a write from it could drop a batch
            raise StoreError(f"table {str(self.path)!r} refuses writes after a failed one; reopen the table")

    def _highest_segment(self) -> int:
        """The highest number of a segment file in the directory, listed or not; 0 if none."""
        return max((int(m.group(1)) for e in self.path.iterdir() if (m := _SEGMENT_RE.match(e.name))), default=0)

    def _commit(self, snapshot: dict[str, bytes], rows: dict[str, dict[str, Value | None]] | None = None) -> None:
        """Write ``rows`` (None: tombstone), if any, as a segment after ``snapshot``'s, then their MANIFEST.

        ``rows`` ascend by (row, col); the handle takes the new snapshot once the MANIFEST is durable,
        and a failure stops its writes.
        """
        self._failed = True
        if rows:
            name = f"seg-{self._highest_segment() + 1:08d}.aat"
            snapshot = {**snapshot, name: encode_records(SEGMENT_MAGIC, rows)}
            _write_file_atomic(self.path / name, snapshot[name])
        _write_file_atomic(self.path / MANIFEST_NAME, encode_lines([MANIFEST_MAGIC, *snapshot]))
        self._snapshot, self._failed = snapshot, False


def _lock_holder(lock: Path) -> str:
    """``lock`` and the PID its writer wrote into it, as read now: an error suffix."""
    try:
        pid = lock.read_text("ascii", "replace").strip()
    except OSError:  # unreadable, or deleted by hand: the store never removes it
        pid = ""
    return f": {str(lock)!r} is held by {f'PID {pid}' if pid.isdigit() else 'an unknown PID'}"


def _read_manifest(manifest: Path) -> list[str]:
    data = manifest.read_bytes()
    try:
        start, end, _ = record_span(data, MANIFEST_MAGIC)
    except FormatError as exc:
        raise StoreError(f"{MANIFEST_NAME}: {exc}") from None
    # A non-ASCII byte decodes to U+FFFD, which no segment name holds.
    names = str(data[start:end], "ascii", "replace").split("\n")[:-1]
    seen: set[str] = set()
    for name in names:
        if not _SEGMENT_RE.match(name):
            raise StoreError(f"manifest lists invalid segment name {name!r}")
        if name in seen:  # the store never lists a name twice, so only damage does
            raise StoreError(f"{MANIFEST_NAME} lists segment {name!r} twice")
        seen.add(name)
    return names


# An alias, not a wrapper: a frame between would take the torn-tail warning's stacklevel from the caller.
open_store = TableStore.open
