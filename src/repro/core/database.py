"""High-level facade: a video database that manages its own summaries.

:class:`VideoDatabase` is the surface a downstream application uses: add
videos as raw frame matrices, query with raw frame matrices, and let the
database handle summarisation, index construction and dynamic insertion.

    db = VideoDatabase(epsilon=0.3)
    for frames in videos:
        db.add(frames)
    result = db.query(query_frames, k=10)

The index is built lazily: videos added before the first query are
batched into one bulk build (packed pages, freshly fitted reference
point); videos added afterwards use dynamic B+-tree insertion.
:meth:`VideoDatabase.drift_angle` reports the Section 6.3.3 rebuild
signal; the rebuild itself is the online cutover
(:mod:`repro.ingest.cutover`).

Durable databases
-----------------
Pass ``path=`` to persist the database in a directory::

    db = VideoDatabase(epsilon=0.3, path="videos.db")
    db.add(frames)
    db.checkpoint()          # atomically commit everything added so far
    db.close()               # final checkpoint + release files

    db = VideoDatabase(path="videos.db")   # reopens at last checkpoint

The directory holds the B+-tree file (``index.btree``), whose leaves
are the only copy of every ViTri record, a JSON metadata blob
(``db.json``) and a write-ahead log (``db.wal``).  The tree's pages and
the metadata commit as one atomic unit through the WAL, so a crash at
*any* point — mid-insert, mid-commit, mid-recovery — leaves a directory
that reopens at its last completed checkpoint (see
:mod:`repro.storage.wal`).  A directory written in the older two-file
layout (format 1, which also kept an ``index.heap`` copy of every
record) is refused with :class:`DatabaseFormatError`.

Generations
-----------
An online reference-point rebuild (:mod:`repro.ingest.cutover`) must
construct a whole new file set while the old one keeps serving, then
switch atomically.  The directory therefore supports a *generational*
layout: an ``epoch.json`` pointer at the root names the active
generation sub-directory (``gen-0001``, ``gen-0002``, ...), each of
which is an ordinary flat database file set.  Without the pointer the
root itself is the (epoch-0) file set, so every pre-existing directory
keeps working unchanged.  The pointer is replaced with one atomic
``os.replace`` — the cutover's single commit point — and opening the
directory sweeps away any generation the pointer does not name
(a crashed side-build, or the previous epoch after a cutover).
"""

from __future__ import annotations

import json
import os
import shutil

from repro.core.index import KNNResult, VitriIndex
from repro.core.summarize import summarize_video
from repro.core.vitri import VideoSummary
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.wal import WriteAheadLog
from repro.utils.validation import check_matrix, check_positive

__all__ = [
    "DatabaseFormatError",
    "EMPTY_TOKEN",
    "VideoDatabase",
    "database_token",
    "generation_name",
    "publish_file",
    "read_epoch_pointer",
    "write_epoch_pointer",
]

_BTREE_FILE = "index.btree"
_META_FILE = "db.json"
_WAL_FILE = "db.wal"
_BTREE_FILE_ID = 0
#: Format 2 keeps each record once, in the B+-tree leaves; format 1 also
#: kept a flat copy in ``index.heap``.
_META_FORMAT = 2
_FORMAT_1_HEAP_FILE = "index.heap"

_EPOCH_FILE = "epoch.json"
_EPOCH_FORMAT = 1
_GENERATION_PREFIX = "gen-"
#: The flat (epoch-0) data artefacts an old generation leaves behind
#: after the first cutover; swept by the next open.
_DATA_FILES = (_BTREE_FILE, _META_FILE, _WAL_FILE)

#: Content token of a database with no built index (tokens are 32-char
#: blake2b-16 hex digests; the zero digest is unreachable in practice).
EMPTY_TOKEN = "0" * 32


class DatabaseFormatError(ValueError):
    """A database directory written in a layout this version cannot read."""


def database_token(db: "VideoDatabase") -> str:
    """The database's current index content token.

    ``EMPTY_TOKEN`` when no index has been built yet — the fingerprint
    of the "nothing indexed" state, so even a copy of an empty database
    has a token to check.
    """
    index = db.index
    return index.content_token() if index is not None else EMPTY_TOKEN


def _check_format(data_dir: str, meta: dict | None) -> None:
    """Refuse a directory that is not format :data:`_META_FORMAT`.

    A format-1 directory is known by its ``db.json`` or, before its
    first checkpoint was applied, by the ``index.heap`` file it opened.
    """
    if meta is not None:
        found = meta.get("format")
    elif os.path.exists(os.path.join(data_dir, _FORMAT_1_HEAP_FILE)):
        found = 1
    else:
        return  # never checkpointed, never opened by format 1
    if found != _META_FORMAT:
        raise DatabaseFormatError(
            f"{data_dir} has unsupported format {found!r}: this version "
            f"reads format {_META_FORMAT}, which keeps each record once, in "
            f"index.btree (format 1 also kept {_FORMAT_1_HEAP_FILE})"
        )


def generation_name(epoch: int) -> str:
    """Deterministic directory name of a generation (``gen-0001`` ...)."""
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 1:
        raise ValueError(f"epoch must be a positive int, got {epoch}")
    return f"{_GENERATION_PREFIX}{epoch:04d}"


def read_epoch_pointer(path: str) -> tuple[str | None, int]:
    """``(generation, epoch)`` named by ``epoch.json``; ``(None, 0)``
    when the directory uses the flat (pointer-less) layout."""
    pointer_path = os.path.join(path, _EPOCH_FILE)
    if not os.path.exists(pointer_path):
        return None, 0
    with open(pointer_path, "r", encoding="utf-8") as handle:
        pointer = json.load(handle)
    if pointer.get("format") != _EPOCH_FORMAT:
        raise ValueError(
            f"{pointer_path} has unsupported format {pointer.get('format')!r}"
        )
    generation = str(pointer["generation"])
    epoch = int(pointer["epoch"])
    if (
        not generation.startswith(_GENERATION_PREFIX)
        or os.path.basename(generation) != generation
    ):
        raise ValueError(
            f"{pointer_path} names an invalid generation {generation!r}"
        )
    if epoch < 1:
        raise ValueError(f"{pointer_path} has invalid epoch {epoch}")
    return generation, epoch


def write_epoch_pointer(
    path: str, generation: str, epoch: int, *, fault_injector=None
) -> None:
    """Atomically point the directory at ``generation``.

    Published with :func:`publish_file`: the replace is the online
    cutover's *commit point*, so a crash-point sweep must be able to
    land exactly on it.
    """
    if generation != generation_name(epoch):
        raise ValueError(
            f"generation {generation!r} does not match epoch {epoch}"
        )
    blob = json.dumps(
        {"format": _EPOCH_FORMAT, "generation": generation, "epoch": epoch}
    ).encode("utf-8")
    publish_file(
        os.path.join(path, _EPOCH_FILE), blob, fault_injector=fault_injector
    )


def publish_file(path: str, blob: bytes, *, fault_injector=None) -> None:
    """Atomically replace ``path`` with ``blob``: write and fsync a temp
    file, then ``os.replace`` it over ``path``.

    With a fault injector the temp write is one ``write`` and the
    replace one ``op``, so a crash-point sweep lands on either side of
    the replace, the commit point.
    """
    tmp_path = path + ".tmp"

    def write_blob(data: bytes) -> None:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    if fault_injector is not None:
        fault_injector.write(write_blob, blob)
        fault_injector.op(lambda: os.replace(tmp_path, path))
    else:
        write_blob(blob)
        os.replace(tmp_path, path)


def _read_meta(meta_path: str) -> dict | None:
    """The parsed ``db.json``; ``None`` for a directory never checkpointed."""
    if not os.path.exists(meta_path):
        return None
    with open(meta_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class VideoDatabase:
    """Self-managing ViTri video database.

    Parameters
    ----------
    epsilon:
        Frame similarity threshold used for every summary.
    reference:
        Reference-point strategy for the 1-D transform.
    summarize_seed:
        Base seed for the summarisation k-means (summaries are
        deterministic given the same frames and seed).
    path:
        Directory to persist the database in (created if missing).  When
        the directory already holds a database, its stored configuration
        (epsilon, reference, seed, id counter) wins over the constructor
        arguments and the index reopens at its last checkpoint.
    buffer_capacity:
        LRU buffer-pool capacity (pages) for each durable page store.
    fault_injector:
        Optional :class:`~repro.storage.faults.FaultInjector` routed to
        every disk operation of a durable database; testing only.
    """

    def __init__(
        self,
        epsilon: float = 0.3,
        *,
        reference: str = "optimal",
        summarize_seed: int = 0,
        path: str | os.PathLike | None = None,
        buffer_capacity: int = 256,
        fault_injector=None,
    ) -> None:
        self._epsilon = check_positive(epsilon, "epsilon")
        self._reference = reference
        self._seed = summarize_seed
        # Insertion-ordered, keyed by video id: the id-free probe of
        # every insert must not scan the batch still waiting for a build.
        self._pending: dict[int, VideoSummary] = {}
        self._index: VitriIndex | None = None
        self._next_video_id = 0
        self._buffer_capacity = buffer_capacity

        self._path = os.fspath(path) if path is not None else None
        self._data_dir: str | None = self._path
        self._generation: str | None = None
        self._epoch = 0
        self._faults = fault_injector
        self._wal: WriteAheadLog | None = None
        self._btree_pool: BufferPool | None = None
        self._closed = False
        if self._path is None:
            if fault_injector is not None:
                raise ValueError(
                    "fault_injector requires a durable database (path=...)"
                )
            return
        if not isinstance(reference, str):
            raise ValueError(
                "durable databases need a named reference strategy "
                "(it is stored in the directory's metadata)"
            )
        self._open_directory(buffer_capacity)

    def _open_directory(self, buffer_capacity: int) -> None:
        """Attach to (or initialise) the database directory, recovering
        any committed-but-unapplied work from the write-ahead log."""
        os.makedirs(self._path, exist_ok=True)
        self._generation, self._epoch = read_epoch_pointer(self._path)
        if self._generation is not None:
            self._data_dir = os.path.join(self._path, self._generation)
            if not os.path.isdir(self._data_dir):
                raise ValueError(
                    f"epoch pointer names missing generation "
                    f"{self._generation!r} in {self._path}"
                )
        else:
            self._data_dir = self._path
        self._sweep_stale_generations()
        meta_path = os.path.join(self._data_dir, _META_FILE)
        # Before the log opens: a format-1 log also holds heap pages.
        _check_format(self._data_dir, _read_meta(meta_path))
        self._wal = WriteAheadLog(
            os.path.join(self._data_dir, _WAL_FILE),
            meta_path=meta_path,
            fault_injector=self._faults,
        )
        self._btree_pool = BufferPool(
            Pager(
                os.path.join(self._data_dir, _BTREE_FILE),
                wal=self._wal,
                wal_file_id=_BTREE_FILE_ID,
                fault_injector=self._faults,
            ),
            capacity=buffer_capacity,
        )
        try:
            self._wal.recover()
            self._load_meta()
        except BaseException:
            # A directory that cannot be opened (a corrupt page, say)
            # must not keep its files open: no caller owns them yet.
            self.crash()
            raise

    def _load_meta(self) -> None:
        """Adopt the configuration in ``db.json`` and re-attach the index
        it describes; a directory never checkpointed has none."""
        meta = _read_meta(os.path.join(self._data_dir, _META_FILE))
        if meta is None:
            return
        _check_format(self._data_dir, meta)
        self._epsilon = float(meta["epsilon"])
        self._reference = str(meta["reference"])
        self._seed = int(meta["summarize_seed"])
        self._next_video_id = int(meta["next_video_id"])
        if meta["index"] is not None:
            self._index = VitriIndex.from_storage(
                self._btree_pool,
                meta["index"],
                reference=self._reference,
            )

    def _sweep_stale_generations(self) -> None:
        """Remove every generation the epoch pointer does not name.

        Covers both halves of a cutover's aftermath: a crashed
        side-build (an un-pointed ``gen-*`` sibling) and, once a
        generation *is* active, the previous epoch's files — the old
        generation directory, or the original flat file set at the
        root.  Removals are routed through the fault injector so the
        crash sweep also exercises "crashed while deleting the old
        epoch"; for a flat layout with no strays this is a no-op, which
        keeps existing crash-sweep op counts unchanged.
        """
        stale: list[str] = []
        for entry in sorted(os.listdir(self._path)):
            if not entry.startswith(_GENERATION_PREFIX):
                continue
            full = os.path.join(self._path, entry)
            if os.path.isdir(full) and entry != self._generation:
                stale.append(full)
        flat_leftovers: list[str] = []
        if self._generation is not None:
            for name in _DATA_FILES:
                full = os.path.join(self._path, name)
                if os.path.exists(full):
                    flat_leftovers.append(full)
        for directory in stale:
            if self._faults is not None:
                self._faults.op(lambda d=directory: shutil.rmtree(d))
            else:
                shutil.rmtree(directory)
        for file_path in flat_leftovers:
            if self._faults is not None:
                self._faults.op(lambda f=file_path: os.remove(f))
            else:
                os.remove(file_path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Frame similarity threshold."""
        return self._epsilon

    @property
    def index(self) -> VitriIndex | None:
        """The underlying index (``None`` until the first query/build)."""
        return self._index

    @property
    def path(self) -> str | None:
        """The backing directory; ``None`` for an in-memory database."""
        return self._path

    @property
    def data_dir(self) -> str | None:
        """Directory holding the active generation's files.

        Equals :attr:`path` for the flat (epoch-0) layout; a
        ``gen-NNNN`` sub-directory once an online rebuild has cut over.
        Snapshots must read from here, not from :attr:`path`.
        """
        return self._data_dir

    @property
    def epoch(self) -> int:
        """Cutover epoch (0 = original flat layout, never cut over)."""
        return self._epoch

    @property
    def generation(self) -> str | None:
        """Active generation directory name (``None`` for flat layout)."""
        return self._generation

    @property
    def reference(self) -> str:
        """Reference-point strategy name."""
        return self._reference

    @property
    def summarize_seed(self) -> int:
        """Base seed for the summarisation k-means."""
        return self._seed

    @property
    def next_video_id(self) -> int:
        """Next auto-assigned video id."""
        return self._next_video_id

    @property
    def buffer_capacity(self) -> int:
        """LRU buffer-pool capacity (pages) per page store."""
        return self._buffer_capacity

    @property
    def fault_injector(self):
        """The injector routed to disk operations (``None`` if absent)."""
        return self._faults

    def __len__(self) -> int:
        pending = len(self._pending)
        indexed = self._index.num_videos if self._index is not None else 0
        return pending + indexed

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("database is closed")

    def add(self, frames, video_id: int | None = None) -> int:
        """Add one video; returns its id (auto-assigned if not given).

        For a durable database the addition becomes crash-durable at the
        next :meth:`checkpoint` (or :meth:`close`)."""
        self._check_open()
        frames = check_matrix(frames, "frames", min_rows=1)
        if video_id is None:
            video_id = self._next_video_id
        if not isinstance(video_id, int) or isinstance(video_id, bool):
            raise TypeError("video_id must be an int")
        self._check_id_free(video_id)
        summary = summarize_video(
            video_id, frames, self._epsilon, seed=self._seed + video_id
        )
        return self.add_summary(summary)

    def add_summary(self, summary: VideoSummary) -> int:
        """Add a pre-built summary (its ``video_id`` must be unused).

        The summary must have been produced with this database's epsilon
        (checked at index time via the radius bound).  This is the
        ingestion seam the sharded router uses: it summarises once and
        routes the summary to the owning shard, so a sharded and an
        unsharded database store bit-identical summaries for the same
        frames.
        """
        self._check_open()
        if not isinstance(summary, VideoSummary):
            raise TypeError("summary must be a VideoSummary")
        self._check_id_free(summary.video_id)
        self._next_video_id = max(self._next_video_id, summary.video_id + 1)
        if self._index is None:
            self._pending[summary.video_id] = summary
        else:
            self._index.insert_video(summary)
        return summary.video_id

    def add_summaries(self, summaries) -> list[int]:
        """Add a batch of pre-built summaries, all-or-nothing.

        Every summary is type- and id-checked (against the database and
        against the rest of the batch) before the first one is admitted,
        so a bad element cannot leave a half-applied batch behind.  The
        ``build`` command and ``examples/persistent_index.py`` load a
        corpus this way.  (The ingest pipeline does not: it adds one
        summary at a time and then checkpoints once per batch.)
        """
        self._check_open()
        batch = list(summaries)
        seen: set[int] = set()
        for summary in batch:
            if not isinstance(summary, VideoSummary):
                raise TypeError("summaries must be VideoSummary instances")
            if summary.video_id in seen:
                raise ValueError(
                    f"video id {summary.video_id} repeated in batch"
                )
            self._check_id_free(summary.video_id)
            seen.add(summary.video_id)
        return [self.add_summary(summary) for summary in batch]

    def reserve_video_ids(self, next_id: int) -> None:
        """Raise the auto-assign counter to at least ``next_id``.

        A side-build copies summaries from a live database and must not
        recycle ids the source has already promised to future inserts.
        """
        self._check_open()
        if not isinstance(next_id, int) or isinstance(next_id, bool):
            raise TypeError("next_id must be an int")
        self._next_video_id = max(self._next_video_id, next_id)

    def _has_video(self, video_id: int) -> bool:
        """Constant-time membership (pending ids + the index's frame
        table): every insert probes it, so it must not materialise
        :meth:`video_ids`."""
        return video_id in self._pending or (
            self._index is not None and self._index.has_video(video_id)
        )

    def _check_id_free(self, video_id: int) -> None:
        if self._has_video(video_id):
            raise ValueError(f"video id {video_id} already present")

    def video_ids(self) -> set[int]:
        """Ids of every stored video (pending and indexed)."""
        known = set(self._pending)
        if self._index is not None:
            known |= set(self._index.video_frames)
        return known

    def summaries(self) -> list[VideoSummary]:
        """Every stored video's summary (pending first, then indexed).

        Indexed summaries are reconstructed from the leaf chain — a full
        walk, meant for rebuilds, re-growing a fleet and migration, not the query
        path.
        """
        self._check_open()
        stored = list(self._pending.values())
        if self._index is not None:
            stored.extend(self._index.summaries())
        return stored

    def add_many(self, videos) -> list[int]:
        """Add an iterable of frame matrices; returns their ids."""
        return [self.add(frames) for frames in videos]

    def remove(self, video_id: int) -> None:
        """Remove a video (pending or indexed)."""
        self._check_open()
        if self._pending.pop(video_id, None) is not None:
            return
        if self._index is None or not self._index.has_video(video_id):
            raise ValueError(f"video id {video_id} is not in the database")
        self._index.remove_video(video_id)

    def build(self) -> None:
        """Force-build the index over everything added so far."""
        self._check_open()
        if self._index is None:
            if not self._pending:
                raise ValueError("cannot build an empty database")
            # A durable database's pool writes through the directory's
            # WAL; None means a fresh in-memory pager.
            self._index = VitriIndex.build(
                list(self._pending.values()),
                self._epsilon,
                reference=self._reference,
                btree_pool=self._btree_pool,
            )
            self._pending = {}
            return
        if self._pending:  # pragma: no cover - pending only pre-index
            raise AssertionError("pending summaries with a live index")

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Atomically commit every change made since the last checkpoint.

        Builds the index if only pending summaries exist, pushes all
        dirty pages into the shared write-ahead log and commits them
        together with the database metadata as one transaction: after a
        crash, the directory reopens at the most recent completed
        checkpoint — never a partial state.
        """
        self._check_open()
        if self._path is None:
            raise RuntimeError("checkpoint() requires a durable database")
        if self._index is None and self._pending:
            self.build()
        if self._index is not None:
            self._index.flush_pages()
        blob = json.dumps(self._meta_blob()).encode("utf-8")
        self._wal.commit(meta=blob)

    def _meta_blob(self) -> dict:
        return {
            "format": _META_FORMAT,
            "epsilon": self._epsilon,
            "reference": self._reference,
            "summarize_seed": self._seed,
            "next_video_id": self._next_video_id,
            "index": self._index.meta_dict() if self._index is not None else None,
        }

    def close(self) -> None:
        """Checkpoint (unless crashed), then release the directory's
        files.  Idempotent; in-memory databases only flip the closed
        flag."""
        if self._closed:
            return
        if self._path is not None:
            crashed = self._faults is not None and self._faults.crashed
            if not crashed and not self._wal.closed:
                self.checkpoint()
            self._closed = True
            if not self._wal.closed:
                self._wal.close()
            self._btree_pool.pager.close()
        self._closed = True

    def crash(self) -> None:
        """Testing seam: drop every file handle without checkpointing,
        leaving the directory exactly as the last disk operation left
        it (as an abrupt process kill would)."""
        if self._path is None:
            raise RuntimeError("crash() requires a durable database")
        self._closed = True
        self._wal.crash()
        self._btree_pool.pager.crash()

    def detach(self) -> None:
        """Release file handles without checkpointing.

        The cutover path: once the epoch pointer has moved, the old
        generation's object must step aside *without* writing — a final
        checkpoint would resurrect files the stale-generation sweep is
        about to delete.  Mechanically identical to :meth:`crash`, but
        named for its legitimate (non-testing) use.
        """
        self.crash()

    def __enter__(self) -> "VideoDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, frames, k: int) -> KNNResult:
        """Top-``k`` most similar stored videos for a raw frame matrix."""
        self._check_open()
        frames = check_matrix(frames, "frames", min_rows=1)
        if self._index is None:
            self.build()
        summary = summarize_video(
            # A negative-free throwaway id: query summaries are never stored.
            0, frames, self._epsilon, seed=self._seed
        )
        return self._index.knn(summary, k)

    def drift_angle(self) -> float:
        """Current principal-component drift (radians)."""
        if self._index is None:
            self.build()
        return self._index.drift_angle()

    def __repr__(self) -> str:
        state = "built" if self._index is not None else "pending"
        return (
            f"VideoDatabase(videos={len(self)}, epsilon={self._epsilon}, "
            f"{state})"
        )
