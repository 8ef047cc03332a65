"""Partitioning strategies: which shard owns a video.

A sharded ViTri database places every *video* (all of its ViTris) on
exactly one shard, so per-video similarity scores are computed entirely
shard-locally and a global top-k is an exact merge of per-shard top-ks.
The :class:`Partitioner` decides the placement from the video's summary —
pluggable behind one interface, exactly like
:class:`~repro.core.reference.ReferenceStrategy`:

* :class:`HashPartitioner` — a deterministic integer mix of the video id.
  Spreads any workload evenly; placement carries no geometric meaning.
* :class:`KeyRangePartitioner` — splits the one-dimensional *routing key*
  space (the paper's transformed-key idea applied at fleet level: the
  mean distance of a video's ViTri positions to a fixed routing
  reference point).  Videos that are close in feature space land on the
  same shard, so a query's key ranges usually touch few shards and the
  rest prove themselves empty without searching — the same role the
  per-reference-point partitions play in iDistance.

Partitioners serialise to plain dicts (:meth:`Partitioner.to_dict` /
:func:`partitioner_from_dict`) so the fleet manifest can reopen a
database with the exact placement function it was written with.
"""

from __future__ import annotations

import abc
from bisect import bisect_right

import numpy as np

from repro.core.vitri import VideoSummary
from repro.utils.validation import check_shard_count

__all__ = [
    "HashPartitioner",
    "KeyRangePartitioner",
    "Partitioner",
    "make_partitioner",
    "partitioner_from_dict",
]


class Partitioner(abc.ABC):
    """Strategy interface: map a video summary to a shard index."""

    @property
    @abc.abstractmethod
    def num_shards(self) -> int:
        """Number of shards this partitioner routes across."""

    @abc.abstractmethod
    def shard_for(self, summary: VideoSummary) -> int:
        """Shard index in ``[0, num_shards)`` owning this video."""

    @abc.abstractmethod
    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :func:`partitioner_from_dict`)."""

    @property
    def name(self) -> str:
        """Short identifier used in manifests and benchmark tables."""
        return type(self).__name__


def _mix64(value: int) -> int:
    """SplitMix64 finaliser: a deterministic, well-spread integer hash.

    Explicit rather than built-in ``hash`` so the placement is stable
    across processes and interpreter versions (placement is persisted in
    the fleet manifest and must mean the same thing on reopen).
    """
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class HashPartitioner(Partitioner):
    """Deterministic hash of the video id, modulo the shard count."""

    def __init__(self, num_shards: int) -> None:
        self._num_shards = check_shard_count(num_shards)

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def shard_for(self, summary: VideoSummary) -> int:
        if not isinstance(summary, VideoSummary):
            raise TypeError("summary must be a VideoSummary")
        return _mix64(summary.video_id) % self._num_shards

    def to_dict(self) -> dict:
        return {"kind": "hash", "num_shards": self._num_shards}

    @property
    def name(self) -> str:
        return "hash"


class KeyRangePartitioner(Partitioner):
    """Contiguous routing-key ranges, one per shard.

    The *routing key* of a video is the mean distance of its ViTri
    positions to a fixed routing reference point (the origin by
    default) — a transform every shard and the router agree on without
    fitting anything, unlike the per-shard index transforms whose
    reference points are fitted to each shard's own data.

    ``boundaries`` is an ascending list of ``num_shards - 1`` split
    points: shard ``i`` owns keys in ``[boundaries[i-1], boundaries[i])``
    with open ends at the extremes.

    Build one with :meth:`fit` (quantile boundaries over a sample of
    summaries — balanced shards), :meth:`uniform` (evenly spaced
    boundaries over a key interval), or directly from boundaries.
    """

    def __init__(
        self,
        boundaries: list[float],
        *,
        reference_point: np.ndarray | None = None,
    ) -> None:
        self._boundaries = [float(b) for b in boundaries]
        if any(not np.isfinite(b) for b in self._boundaries):
            raise ValueError("boundaries must be finite")
        if any(
            later < earlier
            for earlier, later in zip(self._boundaries, self._boundaries[1:])
        ):
            raise ValueError(
                f"boundaries must be non-decreasing, got {self._boundaries}"
            )
        check_shard_count(len(self._boundaries) + 1)
        self._reference_point = (
            None
            if reference_point is None
            else np.asarray(reference_point, dtype=np.float64)
        )

    @classmethod
    def fit(
        cls,
        summaries: list[VideoSummary],
        num_shards: int,
        *,
        reference_point: np.ndarray | None = None,
    ) -> "KeyRangePartitioner":
        """Quantile boundaries over the summaries' routing keys."""
        check_shard_count(num_shards)
        if not summaries:
            raise ValueError("cannot fit a partitioner on zero summaries")
        probe = cls([], reference_point=reference_point)
        keys = np.sort(
            np.array([probe.routing_key(summary) for summary in summaries])
        )
        fractions = np.arange(1, num_shards) / num_shards
        boundaries = np.quantile(keys, fractions)
        return cls(list(boundaries), reference_point=reference_point)

    @classmethod
    def uniform(
        cls,
        num_shards: int,
        *,
        low: float = 0.0,
        high: float = 1.0,
        reference_point: np.ndarray | None = None,
    ) -> "KeyRangePartitioner":
        """Evenly spaced boundaries over ``[low, high]``.

        The default interval suits normalised histogram features: ViTri
        positions then lie in the unit simplex, whose distance to the
        origin is at most 1.
        """
        check_shard_count(num_shards)
        if not (np.isfinite(low) and np.isfinite(high)) or high <= low:
            raise ValueError(
                f"need finite low < high, got low={low}, high={high}"
            )
        step = (high - low) / num_shards
        boundaries = [low + step * i for i in range(1, num_shards)]
        return cls(boundaries, reference_point=reference_point)

    @property
    def num_shards(self) -> int:
        return len(self._boundaries) + 1

    @property
    def boundaries(self) -> tuple[float, ...]:
        """The split points (ascending)."""
        return tuple(self._boundaries)

    def routing_key(self, summary: VideoSummary) -> float:
        """Mean distance of the summary's ViTri positions to the routing
        reference point."""
        if not isinstance(summary, VideoSummary):
            raise TypeError("summary must be a VideoSummary")
        positions = summary.positions()
        reference = self._reference_point
        if reference is None:
            reference = np.zeros(positions.shape[1])
        elif reference.shape[0] != positions.shape[1]:
            raise ValueError(
                f"routing reference point has dimension {reference.shape[0]},"
                f" summary has {positions.shape[1]}"
            )
        difference = positions - reference
        return float(np.sqrt(np.sum(difference * difference, axis=1)).mean())

    def shard_for(self, summary: VideoSummary) -> int:
        return bisect_right(self._boundaries, self.routing_key(summary))

    def to_dict(self) -> dict:
        return {
            "kind": "key_range",
            "boundaries": list(self._boundaries),
            "reference_point": (
                None
                if self._reference_point is None
                else self._reference_point.tolist()
            ),
        }

    @property
    def name(self) -> str:
        return "key_range"


def make_partitioner(kind: str, num_shards: int, **kwargs) -> Partitioner:
    """Factory over the partitioner strategies by name.

    Parameters
    ----------
    kind:
        ``"hash"`` or ``"key_range"`` (uniform boundaries; fit one with
        :meth:`KeyRangePartitioner.fit` for balanced shards).
    num_shards:
        Number of shards to route across.
    kwargs:
        Forwarded to the strategy constructor.
    """
    num_shards = check_shard_count(num_shards)
    if kind == "hash":
        return HashPartitioner(num_shards, **kwargs)
    if kind == "key_range":
        return KeyRangePartitioner.uniform(num_shards, **kwargs)
    raise ValueError(
        f"unknown partitioner kind {kind!r}; expected 'hash' or 'key_range'"
    )


def partitioner_from_dict(data: dict) -> Partitioner:
    """Rebuild a partitioner from :meth:`Partitioner.to_dict` output."""
    kind = data.get("kind")
    if kind == "hash":
        return HashPartitioner(int(data["num_shards"]))
    if kind == "key_range":
        reference = data.get("reference_point")
        return KeyRangePartitioner(
            [float(b) for b in data["boundaries"]],
            reference_point=(
                None if reference is None else np.asarray(reference)
            ),
        )
    raise ValueError(f"unknown partitioner kind {kind!r} in manifest")
