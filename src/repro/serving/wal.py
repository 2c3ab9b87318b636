"""Per-shard write-ahead logging and checkpoint replay.

The sharded serving tier keeps two copies of every shard: the parent's
authoritative copy (routing boxes, ownership, mutation source of
truth) and the worker's serving copy.  When a worker process dies, the
pool respawns it — but the replacement must hold a shard whose epoch
and bucket statistics are **bit-identical** to the pre-crash state.
Re-partitioning the raw data cannot deliver that: bucket statistics
drift incrementally under inserts and deletes, so a fresh build is an
epoch-0 summary, not the drifted one the crashed worker served.

:class:`ShardWAL` makes recovery exact instead.  The parent's shard
records every applied mutation as one atomic checksummed envelope
(:func:`repro.storage.persist.write_artifact` — a SIGKILL mid-write
leaves either the previous log or the new record, never a torn one),
and periodically folds the log into a checkpoint capturing the full
mutable state of the shard (bucket rows, raw data rows, epoch,
drift counters).  Recovery restores the last checkpoint and replays
the log tail through the ordinary mutation entry points, so every
derived decision (bucket targeting, drift-triggered refreshes) is
re-made deterministically and the recovered shard digests equal to
the parent's copy.

A checkpoint is two files in ``<directory>/s<shard_id>/``:

* ``rows-<digest>.f64`` — the histogram's raw data rows as a
  little-endian float64 ``(n, 4)`` block, named by the first 16 hex
  digits of its SHA-256 and written atomically (tmp + fsync +
  replace) *first*;
* ``checkpoint.json`` — the checksummed ``shard-checkpoint`` envelope
  (sequence number, epochs, drift counters, bucket rows), whose
  ``hist.rows`` entry pins the rows file by ``file``, ``shape`` and
  ``sha256``.  It replaces the previous envelope only after the rows
  file is durable, so a crash in between leaves the previous
  checkpoint and its rows file intact.

Recovery refuses a rows file whose SHA-256 or size disagrees with the
envelope (:class:`~repro.errors.ArtifactCorruptError`).  Envelopes
written before the rows moved out of the JSON, with ``hist.rows`` an
inline list of 4-element lists, still restore.

Only the parent writes the log: worker copies drop their WAL handle at
the pickle boundary (``HistogramShard.__getstate__``), so a mutation is
journaled exactly once no matter how many processes replay it.

Counters: ``serving.wal.records``, ``serving.wal.checkpoints``,
``serving.wal.recoveries``, ``serving.wal.replayed``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, \
    Union

import numpy as np
import numpy.typing as npt

from ..errors import ArtifactCorruptError
from ..geometry import Rect
from ..obs import OBS
from ..resilience.faults import fire
from ..storage.persist import atomic_write_bytes, read_artifact, \
    write_artifact

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .shard import HistogramShard, ShardedHistogram

__all__ = ["ShardWAL", "attach_wals", "wal_recovery"]

PathLike = Union[str, Path]

_CHECKPOINT_KIND = "shard-checkpoint"
_RECORD_KIND = "shard-wal"

#: On-disk layout of a checkpoint's rows file (fixed byte order, so a
#: log directory reads the same on any host).
_ROWS_DTYPE = np.dtype(np.float64).newbyteorder("<")

#: Default mutation count between checkpoints.  Small enough that a
#: replay is cheap, large enough that checkpointing does not dominate
#: the mutation path.
DEFAULT_CHECKPOINT_EVERY = 32


class ShardWAL:
    """Write-ahead log + checkpoint store for one shard.

    Parameters
    ----------
    directory:
        Root directory of the tier's logs; this shard's files live in
        ``<directory>/s<shard_id>/``.
    shard_id:
        The shard the log belongs to.
    checkpoint_every:
        Mutations between automatic checkpoints
        (:meth:`maybe_checkpoint`).
    """

    def __init__(
        self,
        directory: PathLike,
        shard_id: int,
        *,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        self.shard_id = shard_id
        self.directory = Path(directory) / f"s{shard_id}"
        self.checkpoint_every = checkpoint_every
        self._seq = 0
        self._since_checkpoint = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        # Resume a pre-existing log: the next record follows the
        # highest sequence number on disk (checkpoint or record).
        # Records the checkpoint already covers are left over from a
        # crash between its replace and their unlink; they are not
        # part of the tail, so they go now instead of counting
        # toward the next checkpoint.
        checkpoint = self._read_checkpoint()
        if checkpoint is not None:
            self._seq = int(checkpoint["seq"])
        base = self._seq
        for seq, path in self._record_files():
            if seq <= base:
                path.unlink(missing_ok=True)
                continue
            self._seq = max(self._seq, seq)
            self._since_checkpoint += 1

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        return self.directory / "checkpoint.json"

    def _record_path(self, seq: int) -> Path:
        return self.directory / f"op-{seq:08d}.json"

    def _write_rows(
        self, rows: "npt.NDArray[np.float64]"
    ) -> Dict[str, Any]:
        """Durably write a rows file; returns the envelope's reference
        to it (``file``, ``shape``, ``sha256``)."""
        block = np.ascontiguousarray(rows, dtype=_ROWS_DTYPE)
        data = block.tobytes()
        digest = hashlib.sha256(data).hexdigest()
        name = f"rows-{digest[:16]}.f64"
        atomic_write_bytes(self.directory / name, data)
        return {
            "file": name,
            "shape": [int(n) for n in block.shape],
            "sha256": digest,
        }

    def _read_rows(self, ref: Dict[str, Any]) -> "npt.NDArray[Any]":
        """Load and verify the rows file an envelope refers to (a
        read-only little-endian view; ``from_state`` copies it)."""
        fire("storage.read")
        path = self.directory / str(ref["file"])

        def corrupt(reason: str) -> ArtifactCorruptError:
            OBS.add("storage.corrupt_artifacts")
            return ArtifactCorruptError(
                f"corrupt shard checkpoint rows {path}: {reason}",
                hint="delete the shard's WAL directory and "
                     "re-checkpoint from the live shard",
            )

        try:
            data = path.read_bytes()
        except OSError as exc:
            raise corrupt(f"unreadable ({exc})") from exc
        if hashlib.sha256(data).hexdigest() != ref["sha256"]:
            raise corrupt("checksum mismatch")
        shape = tuple(int(n) for n in ref["shape"])
        if len(shape) != 2 or shape[1] != 4 \
                or len(data) != shape[0] * 4 * _ROWS_DTYPE.itemsize:
            raise corrupt(f"size does not match shape {list(shape)}")
        return np.frombuffer(data, dtype=_ROWS_DTYPE).reshape(shape)

    def _record_files(self) -> List[Any]:
        files = []
        for path in sorted(self.directory.glob("op-*.json")):
            try:
                seq = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            files.append((seq, path))
        files.sort()
        return files

    def _read_checkpoint(self) -> Optional[Dict[str, Any]]:
        if not self.checkpoint_path.exists():
            return None
        payload = read_artifact(
            self.checkpoint_path, kind=_CHECKPOINT_KIND
        )
        if not isinstance(payload, dict) or "seq" not in payload:
            raise ArtifactCorruptError(
                f"malformed shard checkpoint {self.checkpoint_path}",
                hint="delete the shard's WAL directory and "
                     "re-checkpoint from the live shard",
            )
        return payload

    # ------------------------------------------------------------------
    # the write path (parent-side only)
    # ------------------------------------------------------------------
    def record(self, kind: str, rect: Rect) -> int:
        """Journal one applied mutation; returns its sequence number.

        Must be called *after* the shard applied the mutation (the log
        holds accepted operations only, so replay never has to guess
        whether a delete hit).
        """
        self._seq += 1
        write_artifact(
            self._record_path(self._seq),
            {
                "seq": self._seq,
                "op": kind,
                "rect": [rect.x1, rect.y1, rect.x2, rect.y2],
            },
            kind=_RECORD_KIND,
        )
        self._since_checkpoint += 1
        OBS.add("serving.wal.records")
        return self._seq

    def maybe_checkpoint(self, shard: "HistogramShard") -> bool:
        """Checkpoint when the log tail reached ``checkpoint_every``."""
        if self._since_checkpoint < self.checkpoint_every:
            return False
        self.checkpoint(shard)
        return True

    def checkpoint(self, shard: "HistogramShard") -> None:
        """Fold the shard's current state into the checkpoint files and
        truncate the journaled records it covers.

        The rows file is durable before the envelope that names it
        replaces the previous one; only then do the previous rows
        file and the covered records go.
        """
        state = shard.snapshot_state()
        state["seq"] = self._seq
        keep = None
        if state["hist"] is not None:
            ref = self._write_rows(state["hist"]["rows"])
            state["hist"] = dict(state["hist"], rows=ref)
            keep = ref["file"]
        write_artifact(
            self.checkpoint_path, state, kind=_CHECKPOINT_KIND
        )
        for path in self.directory.glob("rows-*.f64"):
            if path.name != keep:
                path.unlink(missing_ok=True)
        for seq, path in self._record_files():
            if seq <= self._seq:
                path.unlink(missing_ok=True)
        self._since_checkpoint = 0
        OBS.add("serving.wal.checkpoints")

    # ------------------------------------------------------------------
    # the recovery path
    # ------------------------------------------------------------------
    def replayable_ops(self) -> int:
        """Journal records past the last checkpoint (replay length)."""
        checkpoint = self._read_checkpoint()
        base = int(checkpoint["seq"]) if checkpoint is not None else 0
        return sum(1 for seq, _ in self._record_files() if seq > base)

    def recover(self, shard: "HistogramShard") -> int:
        """Rebuild ``shard`` from the last checkpoint plus the log.

        Restores the checkpointed state verbatim, then replays the log
        tail through :meth:`~repro.serving.shard.HistogramShard.apply_op`
        in sequence order — the recovered shard's epoch and buckets are
        bit-identical to the copy the state was journaled from.
        Returns the number of replayed operations.
        """
        checkpoint = self._read_checkpoint()
        base = 0
        if checkpoint is not None:
            base = int(checkpoint["seq"])
            hist = checkpoint["hist"]
            if hist is not None and isinstance(hist["rows"], dict):
                checkpoint["hist"] = dict(
                    hist, rows=self._read_rows(hist["rows"])
                )
            shard.restore_state(checkpoint)
        replayed = 0
        for seq, path in self._record_files():
            if seq <= base:
                continue
            payload = read_artifact(path, kind=_RECORD_KIND)
            rect = Rect(*(float(v) for v in payload["rect"]))
            shard.apply_op(str(payload["op"]), rect)
            replayed += 1
        OBS.add("serving.wal.recoveries")
        OBS.add("serving.wal.replayed", replayed)
        return replayed

    def __repr__(self) -> str:
        return (
            f"ShardWAL(shard={self.shard_id}, seq={self._seq}, "
            f"tail={self._since_checkpoint})"
        )


def attach_wals(
    sharded: "ShardedHistogram",
    directory: PathLike,
    *,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> Dict[int, ShardWAL]:
    """Give every shard of a tier a WAL rooted at ``directory``.

    Each shard is checkpointed immediately, so recovery is well-defined
    before the first mutation ever lands.
    """
    wals: Dict[int, ShardWAL] = {}
    for shard in sharded.shards:
        wal = ShardWAL(
            directory, shard.shard_id,
            checkpoint_every=checkpoint_every,
        )
        wal.checkpoint(shard)
        shard.attach_wal(wal)
        wals[shard.shard_id] = wal
    return wals


def wal_recovery(
    sharded: "ShardedHistogram",
    wals: Union[PathLike, Dict[int, ShardWAL]],
) -> Callable[[int], "HistogramShard"]:
    """Recovery callable for :class:`~repro.serving.ShardWorkerPool`.

    Maps a shard id to a fresh shard rebuilt from its checkpoint and
    log tail (never from the parent's in-memory copy — the recovered
    state is what crash recovery would actually see).  The returned
    shard carries no WAL handle, so pickling it to a worker cannot
    double-journal.

    ``wals`` is either the handle dict from :func:`attach_wals` or the
    log root directory itself; the directory form opens each shard's
    log fresh at recovery time, which is what a restarted process (no
    live handles) has to work with.
    """
    index = {shard.shard_id: shard for shard in sharded.shards}

    def open_wal(shard_id: int) -> ShardWAL:
        if isinstance(wals, dict):
            return wals[shard_id]
        return ShardWAL(wals, shard_id)

    def recover(shard_id: int) -> "HistogramShard":
        fresh = index[shard_id].clone_unbuilt()
        open_wal(shard_id).recover(fresh)
        return fresh

    return recover
