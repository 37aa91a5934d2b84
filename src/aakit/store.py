"""Embedded persistent table: immutable sorted segments under a manifest.

On-disk layout inside the table directory::

    MANIFEST            %aa-manifest 1, then segment names, oldest first
    seg-00000001.aat    %aa-seg 1, then sorted records (tag x = tombstone)
    LOCK                present while a writer holds the table

Content is the oldest-to-newest fold of the listed segments: the latest
record for a cell (value or tombstone) supersedes earlier ones.  Each
insert or delete batch becomes one new immutable segment; the MANIFEST
is replaced atomically (write-temp, fsync, rename), so a reader sees
either the old or the new segment list, never a mix.  Handles load
segment contents at open, which is what gives readers snapshot isolation
at manifest granularity even across a concurrent compaction.
"""

from __future__ import annotations

import os
import re
import warnings
from pathlib import Path

from .core import ALL, AssociativeArray, KeySpec, Value
from .io import FormatError, parse_record_lines, _record_line

MANIFEST_MAGIC = "%aa-manifest 1"
SEGMENT_MAGIC = "%aa-seg 1"
MANIFEST_NAME = "MANIFEST"
LOCK_NAME = "LOCK"

_SEGMENT_RE = re.compile(r"seg-(\d{8})\.aat\Z")


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
        Only the lock holder writes a missing MANIFEST; any other open of
        a directory without one raises StoreError.
        """
        path = Path(path)
        if not read_only:
            path.mkdir(parents=True, exist_ok=True)
        elif not path.is_dir():
            raise StoreError(f"no table directory at {str(path)!r}")

        holds_lock = False
        if not read_only:
            try:
                fd = os.open(path / LOCK_NAME, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.close(fd)
                holds_lock = True
            except FileExistsError:
                pass  # another writer; degrade to read-only

        self = cls.__new__(cls)
        self.path = path
        self.read_only = not holds_lock
        self._holds_lock = holds_lock
        self._closed = False
        try:
            manifest = path / MANIFEST_NAME
            if not manifest.exists():
                if not holds_lock:
                    raise StoreError(f"no table at {str(path)!r}: {MANIFEST_NAME} is missing")
                _write_file_atomic(manifest, f"{MANIFEST_MAGIC}\n".encode("ascii"))
                self._segments: list[str] = []
            else:
                self._segments = _read_manifest(manifest)
            self._fold: dict[tuple[str, str], Value | None] = {}
            for idx, name in enumerate(self._segments):
                seg = path / name
                if not seg.exists():
                    raise StoreError(f"manifest names missing segment {name!r}")
                self._load_segment(seg, newest=idx == len(self._segments) - 1)
        except BaseException:
            self.close()
            raise
        return self

    def _load_segment(self, seg: Path, newest: bool) -> None:
        try:
            records, truncated = parse_record_lines(
                seg.read_bytes(),
                SEGMENT_MAGIC,
                allow_tombstones=True,
                lenient_tail=newest,
            )
        except FormatError as exc:
            raise StoreError(f"segment {seg.name}: {exc}") from None
        if truncated:
            warnings.warn(
                f"segment {seg.name}: ignoring truncated final line",
                RuntimeWarning,
                stacklevel=3,
            )
        for r, c, v in records:
            self._fold[(r, c)] = v

    # -- queries -----------------------------------------------------------

    def select(self, rows: KeySpec = ALL, cols: KeySpec = ALL) -> AssociativeArray:
        """Materialize live content filtered by the key specs."""
        self._require_open()
        live = {
            cell: v
            for cell, v in self._fold.items()
            if v is not None and rows.matches(cell[0]) and cols.matches(cell[1])
        }
        return AssociativeArray._from_clean(live)

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self._segments)

    # -- writes ------------------------------------------------------------

    def insert(self, batch: AssociativeArray) -> int:
        """Write one batch as a new segment; later values supersede earlier.

        Returns the number of records written; an empty batch writes
        nothing at all.
        """
        self._require_writer()
        if batch.nnz == 0:
            return 0
        self._append_segment([(r, c, v) for r, c, v in batch])
        for r, c, v in batch:
            self._fold[(r, c)] = v
        return batch.nnz

    def delete(self, mask: AssociativeArray) -> int:
        """Write tombstones for every cell in the mask's support."""
        self._require_writer()
        if mask.nnz == 0:
            return 0
        cells = list(mask.support())
        self._append_segment([(r, c, None) for r, c in cells])
        for cell in cells:
            self._fold[cell] = None
        return mask.nnz

    def compact(self) -> tuple[int, int]:
        """Merge everything into at most one live-record segment.

        Tombstones and superseded records disappear.  Returns the segment
        counts (before, after); an empty table compacts to zero segments.
        """
        self._require_writer()
        before = len(self._segments)
        live = {cell: v for cell, v in self._fold.items() if v is not None}
        old = list(self._segments)
        new_names: list[str] = []
        if live:
            name = self._next_segment_name()
            payload = _segment_payload(
                [(r, c, v) for (r, c), v in sorted(live.items())]
            )
            _write_file_atomic(self.path / name, payload)
            new_names = [name]
        _write_file_atomic(
            self.path / MANIFEST_NAME, _manifest_payload(new_names)
        )
        for name in old:
            if name not in new_names:
                (self.path / name).unlink(missing_ok=True)
        self._segments = new_names
        self._fold = dict(live)
        return before, len(new_names)

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
        return f"TableStore({str(self.path)!r}, {state}, {len(self._segments)} segments)"

    # -- internals -----------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise StoreError("handle is closed")

    def _require_writer(self) -> None:
        self._require_open()
        if self.read_only:
            raise ReadOnlyError(f"table {str(self.path)!r} is open read-only")

    def _next_segment_name(self) -> str:
        highest = 0
        for entry in self.path.iterdir():
            m = _SEGMENT_RE.match(entry.name)
            if m:
                highest = max(highest, int(m.group(1)))
        return f"seg-{highest + 1:08d}.aat"

    def _append_segment(self, records: list[tuple[str, str, Value | None]]) -> None:
        name = self._next_segment_name()
        _write_file_atomic(self.path / name, _segment_payload(sorted(records)))
        _write_file_atomic(
            self.path / MANIFEST_NAME, _manifest_payload(self._segments + [name])
        )
        self._segments.append(name)


def _segment_payload(records: list[tuple[str, str, Value | None]]) -> bytes:
    lines = [SEGMENT_MAGIC]
    lines.extend(_record_line(r, c, v) for r, c, v in records)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _manifest_payload(names: list[str]) -> bytes:
    return ("\n".join([MANIFEST_MAGIC, *names]) + "\n").encode("ascii")


def _read_manifest(manifest: Path) -> list[str]:
    try:
        text = manifest.read_bytes().decode("ascii")
    except UnicodeDecodeError:
        raise StoreError("manifest is not ASCII") from None
    lines = text.split("\n")
    if not text.endswith("\n"):
        raise StoreError("manifest does not end with a newline")
    lines.pop()  # trailing empty piece
    if not lines or lines[0] != MANIFEST_MAGIC:
        raise StoreError(f"bad manifest magic, expected {MANIFEST_MAGIC!r}")
    names = lines[1:]
    for name in names:
        if not _SEGMENT_RE.match(name):
            raise StoreError(f"manifest lists invalid segment name {name!r}")
    return names


def open_store(path: str | Path, read_only: bool = False) -> TableStore:
    """Module-level convenience alias for TableStore.open."""
    return TableStore.open(path, read_only=read_only)
