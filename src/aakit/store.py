"""Embedded persistent table: immutable sorted segments under a manifest.

On-disk layout inside the table directory::

    MANIFEST            %aa-manifest 1, then segment names, oldest first
    seg-00000001.aat    %aa-seg 1, then sorted records (tag x = tombstone)
    LOCK                present while a writer holds the table

Content is the oldest-to-newest fold of the listed segments: the latest
record for a cell (value or tombstone) supersedes earlier ones.  Each
insert or delete batch becomes one new immutable segment; the MANIFEST
is replaced atomically (write-temp, fsync, rename), so a reader sees
either the old or the new segment list, never a mix.

A handle reads the bytes of every listed segment at open and keeps them
as its snapshot: each segment's name, oldest first, mapped to its bytes
up to the last complete line.  That gives readers snapshot isolation at
manifest granularity even across a concurrent compaction.  Open checks
only each segment's framing, through the same ``record_span`` that frames
triple files and the MANIFEST; records are parsed by the command that
uses them.  A select bisects each segment on the row field of its lines
for every key interval of its row spec (segments are sorted, and UTF-8
byte order is key order) and parses only the matching lines; a row spec
without intervals is filtered by ``matches`` over whole segments.
"""

from __future__ import annotations

import operator
import os
import re
import warnings
from itertools import islice
from pathlib import Path

from .core import ALL, AllKeys, AssociativeArray, KeySpec, Value
from .io import FormatError, encode_records, line_number, parse_record_lines, record_span

MANIFEST_MAGIC = "%aa-manifest 1"
SEGMENT_MAGIC = "%aa-seg 1"
MANIFEST_NAME = "MANIFEST"
LOCK_NAME = "LOCK"

_SEGMENT_RE = re.compile(r"seg-(\d{8})\.aat\Z", re.ASCII)

# Where a framed segment's record lines start: right after its magic line.
_RECORDS_START = len(SEGMENT_MAGIC) + 1

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

    At most one writer holds a table at a time (via the LOCK file); an
    open that finds the lock taken comes back with ``read_only`` set.
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

        holds_lock, holder = False, ""
        if not read_only:
            try:
                fd = os.open(path / LOCK_NAME, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.close(fd)
                holds_lock = True
            except FileExistsError:  # another writer; degrade to read-only
                holder = _lock_holder(path / LOCK_NAME)

        self = cls.__new__(cls)
        self.path = path
        self.read_only = not holds_lock
        self._holds_lock = holds_lock
        self._holder = holder
        self._closed = False
        try:
            manifest = path / MANIFEST_NAME
            if not manifest.exists():
                if not holds_lock:
                    raise StoreError(f"no table at {str(path)!r}: {MANIFEST_NAME} is missing")
                _write_file_atomic(manifest, f"{MANIFEST_MAGIC}\n".encode("ascii"))
                self._snapshot: dict[str, bytes] = {}
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
            data = data[:end] or f"{SEGMENT_MAGIC}\n".encode("ascii")
            if self._holds_lock:
                _write_file_atomic(self.path / name, data)
                action = "cut truncated final line from the file"
            else:
                action = "ignoring truncated final line"
            warnings.warn(f"segment {name}: {action}", RuntimeWarning, stacklevel=4)
        return data

    def _records(
        self, name: str, data: bytes, span: tuple[int, int]
    ) -> list[tuple[str, str, Value | None]]:
        """Parse ``data[span[0]:span[1]]`` of segment ``name``; its cells must strictly ascend."""
        try:
            records = parse_record_lines(data, *span, allow_tombstones=True)
        except FormatError as exc:
            raise StoreError(f"segment {name}: {exc}") from None
        cells = [record[:2] for record in records]
        if not all(map(operator.lt, cells, islice(cells, 1, None))):
            i = next(i for i in range(1, len(cells)) if cells[i - 1] >= cells[i])
            lineno = line_number(data, span[0]) + i
            raise StoreError(f"segment {name}: line {lineno}: record out of (row, col) order")
        return records

    # -- queries -----------------------------------------------------------

    def select(self, rows: KeySpec = ALL, cols: KeySpec = ALL) -> AssociativeArray:
        """Materialize live content filtered by the key specs: the stored table's subarray.

        Each segment is read only on the row spec's key intervals; a row
        spec without intervals reads every line, and ``subarray`` filters.
        """
        self._require_open()
        intervals = rows.intervals()
        if intervals is None:
            intervals = ALL.intervals()
        # hi is None (unbounded) or a non-empty key.
        bounds = [(lo.encode("utf-8"), hi and hi.encode("utf-8")) for lo, hi in intervals]
        fold: dict[str, dict[str, Value | None]] = {}
        for name, data in self._snapshot.items():
            for span in _row_spans(data, bounds):
                for r, c, v in self._records(name, data, span):
                    fold.setdefault(r, {})[c] = v
        if not isinstance(cols, AllKeys):
            keep = cols.matches
            fold = {r: {c: v for c, v in row.items() if keep(c)} for r, row in fold.items()}
        # The builder drops the tombstones (None) with the empties.
        return AssociativeArray._from_clean(fold).subarray(rows)

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
        self._append_segment(batch.triples())
        return batch.nnz

    def delete(self, mask: AssociativeArray) -> int:
        """Write tombstones for every cell in the mask's support."""
        self._require_writer()
        if mask.nnz == 0:
            return 0
        self._append_segment([(r, c, None) for r, c in mask.support()])
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
        live = self.select()
        snapshot: dict[str, bytes] = {}
        if live.nnz:
            name = self._next_segment_name()
            snapshot[name] = encode_records(SEGMENT_MAGIC, live)
            _write_file_atomic(self.path / name, snapshot[name])
        _write_file_atomic(self.path / MANIFEST_NAME, _manifest_payload(list(snapshot)))
        for entry in self.path.iterdir():
            if entry.name not in snapshot and (_SEGMENT_RE.match(entry.name) or entry.name.endswith(".tmp")):
                entry.unlink(missing_ok=True)
        self._snapshot = snapshot
        return before, len(snapshot)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if getattr(self, "_closed", True):
            return
        self._closed = True
        if self._holds_lock:
            (self.path / LOCK_NAME).unlink(missing_ok=True)
            self._holds_lock = False

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

    def _append_segment(self, records: list[tuple[str, str, Value | None]]) -> None:
        """Write ``records``, already in ascending (row, col) order, as the newest segment."""
        name = self._next_segment_name()
        payload = encode_records(SEGMENT_MAGIC, records)
        _write_file_atomic(self.path / name, payload)
        _write_file_atomic(
            self.path / MANIFEST_NAME, _manifest_payload([*self.segments, name])
        )
        self._snapshot[name] = payload


def _row_spans(data: bytes, bounds: list[tuple[bytes, bytes | None]]) -> list[tuple[int, int]]:
    """Byte spans of framed segment ``data``'s lines whose rows lie in ``bounds``.

    ``bounds`` are ascending ``[lo, hi)`` intervals; ``hi`` None is unbounded
    above; touching spans merge.
    """
    spans: list[tuple[int, int]] = []
    pos, end = _RECORDS_START, len(data)
    for lo, hi in bounds:
        first = _bisect_rows(data, pos, end, lo)
        pos = end if hi is None else _bisect_rows(data, first, end, hi)
        if first < pos:
            if spans and spans[-1][1] == first:
                first = spans.pop()[0]
            spans.append((first, pos))
    return spans


def _bisect_rows(data: bytes, lo: int, hi: int, key: bytes) -> int:
    """The first line start in ``data[lo:hi]`` whose row is >= ``key``.

    ``lo`` and ``hi`` are line starts, and the lines between them ascend by
    row.  A line's row is its bytes before the first TAB; whole lines are
    not compared, because a row like "a\x01" sorts after "a" though its
    line sorts before "a<TAB>...".
    """
    while lo < hi:
        mid = (lo + hi) // 2
        start = data.rfind(b"\n", lo, mid) + 1 or lo
        stop = data.index(b"\n", start)
        tab = data.find(b"\t", start, stop)
        row = data[start : stop if tab < 0 else tab]
        if row < key:
            lo = stop + 1
        else:
            hi = start
    return lo


def _lock_holder(lock: Path) -> str:
    """``lock`` and the PID its writer wrote into it, as read now: a suffix for errors."""
    try:
        pid = lock.read_text("ascii", "replace").strip()
    except FileNotFoundError:  # the holder closed since
        pid = ""
    return f": {str(lock)!r} is held by " + (f"PID {pid}" if pid.isdigit() else "an unknown PID")


def _manifest_payload(names: list[str]) -> bytes:
    return ("\n".join([MANIFEST_MAGIC, *names]) + "\n").encode("ascii")


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
