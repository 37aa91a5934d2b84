"""Embedded persistent table: immutable sorted segments under a manifest.

On-disk layout inside the table directory::

    MANIFEST            %aa-manifest 1, then segment names, oldest first
    seg-00000001.aat    %aa-seg 1, then sorted records (tag x = tombstone)
    LOCK                present while a writer holds the table: its flock and PID

Content is the oldest-to-newest fold of the listed segments: the latest
record for a cell (value or tombstone) supersedes earlier ones.  Each
insert or delete batch becomes one new immutable segment; the MANIFEST
is replaced atomically (write-temp, fsync, rename), so a reader sees
either the old or the new segment list, never a mix.

The writer lock is an exclusive ``flock(2)`` of LOCK, which the kernel
releases when its holder closes it, exits or dies, so a LOCK that a dead
writer left blocks no later writer; the store thus needs a file system
with ``flock``.  A writer unlinks LOCK before it releases the flock, and
an opener whose flock lands on a file the path no longer names degrades.

This module owns the files, the LOCK, the MANIFEST's list of segment
names, each handle's snapshot and the fold.  ``io`` owns the bytes: it
frames and writes every file here, parses segment record lines and checks
their rules, and finds the lines of a row interval.

A handle reads the bytes of every listed segment at open and keeps them
as its snapshot: each segment's name, oldest first, mapped to its bytes
up to the last complete line.  That gives readers snapshot isolation at
manifest granularity even across a concurrent compaction.  Open checks
only each segment's framing; records are parsed by the command that
uses them.  A select has ``io`` find the lines of its row spec's key
intervals in each segment, drop those of columns the column spec refuses,
and check and fold the rest by the segment rules into one set of row
dicts.  Only the rows of a spec without intervals then pass ``matches``.
"""

from __future__ import annotations

import os
import re
import warnings
from pathlib import Path

from .core import ALL, AllKeys, AssociativeArray, KeySpec, Value
from .io import (MANIFEST_MAGIC, SEGMENT_MAGIC, FormatError, encode_lines, encode_records,
                 parse_record_lines, record_span, row_spans)

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
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


class TableStore:
    """Handle to one on-disk table.

    At most one writer holds a table at a time (via an flock of the LOCK
    file); an open that finds the lock taken comes back with ``read_only`` set.
    A handle's view of the table is fixed at open time plus its own
    writes; other processes' later writes need a fresh handle.
    """

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use TableStore.open(path)")

    @classmethod
    def open(cls, path: str | Path, read_only: bool = False) -> "TableStore":
        """Open the table directory at ``path``, creating it for a writer.

        Pass ``read_only=True`` to skip taking the writer lock; such an
        open creates nothing and raises StoreError when the directory is
        missing.  When the lock is already held elsewhere, the handle
        silently degrades to read-only; check the ``read_only`` attribute.
        Its writes then raise ReadOnlyError naming the LOCK file and the
        PID written in it.
        Only the lock holder writes a missing MANIFEST; any other open of
        a directory without one raises StoreError.
        """
        path = Path(path)
        if not read_only:
            path.mkdir(parents=True, exist_ok=True)
        elif not path.is_dir():
            raise StoreError(f"no table directory at {str(path)!r}")

        self = cls.__new__(cls)
        self.path = path
        self.read_only = True
        self._holder = ""
        self._closed = False
        if not read_only:
            import fcntl  # POSIX only: imported here, so that importing the package does not need it

            lock = path / LOCK_NAME
            fd = os.open(lock, os.O_CREAT | os.O_WRONLY, 0o666)  # the mode open() gives
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                taken = os.fstat(fd)
                # A holder unlinks LOCK before it releases the flock, so a flock of a
                # file the path no longer names was just released by a closing holder.
                if os.path.samestat(taken, os.stat(lock)):
                    if taken.st_size:  # the PID of a writer that died
                        os.ftruncate(fd, 0)
                    os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                    self.read_only, self._lock_fd = False, fd
            except (BlockingIOError, FileNotFoundError):  # another writer holds the table
                pass
            finally:
                if self.read_only:
                    os.close(fd)
            if self.read_only:
                self._holder = _lock_holder(lock)
        try:
            if not (path / MANIFEST_NAME).exists():
                if self.read_only:
                    raise StoreError(f"no table at {str(path)!r}: {MANIFEST_NAME} is missing")
                self._commit({})
            else:
                self._snapshot = self._read_snapshot()
        except BaseException:
            self.close()
            raise
        return self

    def _read_snapshot(self) -> dict[str, bytes]:
        """Map each listed segment's name, oldest first, to its framed bytes.

        A segment can vanish between the MANIFEST read and its own read
        when a compaction swaps the MANIFEST in between; the open then
        starts over from the new MANIFEST.
        """
        manifest = self.path / MANIFEST_NAME
        names = _read_manifest(manifest)
        for _ in range(_OPEN_ATTEMPTS):
            blobs: list[bytes] = []
            for name in names:
                try:
                    blobs.append((self.path / name).read_bytes())
                except FileNotFoundError:
                    break
            else:
                last = len(names) - 1
                return {
                    name: self._frame(name, data, i == last)
                    for i, (name, data) in enumerate(zip(names, blobs))
                }
            current = _read_manifest(manifest)
            if current == names:
                raise StoreError(f"manifest names missing segment {names[len(blobs)]!r}")
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
            warnings.warn(f"segment {name}: {action}", RuntimeWarning, stacklevel=4)
        return data

    # -- queries -----------------------------------------------------------

    def select(self, rows: KeySpec = ALL, cols: KeySpec = ALL) -> AssociativeArray:
        """Materialize live content filtered by the key specs: the stored table's subarray.

        Each segment is read only on the row spec's key intervals; a row
        spec without intervals reads every line and filters by ``matches``.
        Only the records of the selected columns are checked and folded.
        """
        self._require_open()
        intervals = rows.intervals()
        read = ALL.intervals() if intervals is None else intervals
        keep_col = None if isinstance(cols, AllKeys) else cols.matches
        fold: dict[str, dict[str, Value | None]] = {}
        for name, data in self._snapshot.items():
            try:
                for start, end in row_spans(data, read):
                    parse_record_lines(data, start, end, fold, keep_col)
            except FormatError as exc:
                raise StoreError(f"segment {name}: {exc}") from None
        if intervals is None:
            keep_row = rows.matches
            fold = {r: row for r, row in fold.items() if keep_row(r)}
        # The builder drops the tombstones (None) with the empties.
        return AssociativeArray._from_clean(fold)

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
        compacts to zero segments.
        """
        self._require_writer()
        before = len(self._snapshot)
        self._commit({}, self.select()._rows)
        for entry in self.path.iterdir():
            if entry.name not in self._snapshot and (_SEGMENT_RE.match(entry.name) or entry.name.endswith(".tmp")):
                entry.unlink(missing_ok=True)
        return before, len(self._snapshot)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if getattr(self, "_closed", True):
            return
        self._closed = True
        if not self.read_only:
            try:
                (self.path / LOCK_NAME).unlink(missing_ok=True)
            finally:
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

    def _next_segment_name(self) -> str:
        highest = 0
        for entry in self.path.iterdir():
            m = _SEGMENT_RE.match(entry.name)
            if m:
                highest = max(highest, int(m.group(1)))
        return f"seg-{highest + 1:08d}.aat"

    def _commit(self, snapshot: dict[str, bytes], rows: dict[str, dict[str, Value | None]] | None = None) -> None:
        """Write ``rows`` (None: tombstone), if any, as a segment after ``snapshot``'s, then their MANIFEST.

        ``rows`` ascend by (row, col); the handle takes the new snapshot once the MANIFEST is durable.
        """
        if rows:
            name = self._next_segment_name()
            snapshot = {**snapshot, name: encode_records(SEGMENT_MAGIC, rows)}
            _write_file_atomic(self.path / name, snapshot[name])
        _write_file_atomic(self.path / MANIFEST_NAME, encode_lines([MANIFEST_MAGIC, *snapshot]))
        self._snapshot = snapshot


def _lock_holder(lock: Path) -> str:
    """``lock`` and the PID its writer wrote into it, as read now: an error suffix."""
    try:
        pid = lock.read_text("ascii", "replace").strip()
    except OSError:  # gone (the holder closed since) or unreadable
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
    for name in names:
        if not _SEGMENT_RE.match(name):
            raise StoreError(f"manifest lists invalid segment name {name!r}")
    return names


def open_store(path: str | Path, read_only: bool = False) -> TableStore:
    """Module-level convenience alias for TableStore.open."""
    return TableStore.open(path, read_only=read_only)
