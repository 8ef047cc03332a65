"""The ViTri model (paper Definition 2) and per-video summaries.

A ViTri ``(position, radius, density)`` describes one cluster of similar
frames as a hypersphere.  Density is derived from the stored ``count`` and
``radius`` (``D = |C| / V_hypersphere(R)``) rather than stored, and is
exposed in log space because the volume of a 64-dimensional sphere of
radius ~0.15 underflows float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.volumes import log_sphere_volume
from repro.utils.validation import check_non_negative, check_vector

__all__ = ["ViTri", "VideoSummary"]


@dataclass(frozen=True)
class ViTri:
    """Video Triplet: a frame cluster modelled as a hypersphere.

    Attributes
    ----------
    position:
        Cluster centre ``O`` in the frame feature space, shape ``(n,)``.
    radius:
        Refined cluster radius ``R`` (``min(R_max, mu + sigma)`` from the
        clustering step).
    count:
        Number of frames ``|C|`` in the cluster.
    """

    position: np.ndarray
    radius: float
    count: int

    def __post_init__(self) -> None:
        position = check_vector(self.position, "position")
        object.__setattr__(self, "position", position)
        object.__setattr__(
            self, "radius", check_non_negative(self.radius, "radius")
        )
        if not isinstance(self.count, (int, np.integer)) or isinstance(
            self.count, bool
        ):
            raise TypeError("count must be an int")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        object.__setattr__(self, "count", int(self.count))

    @property
    def dim(self) -> int:
        """Dimensionality ``n`` of the feature space."""
        return self.position.shape[0]

    @property
    def log_volume(self) -> float:
        """Natural log of the bounding hypersphere's volume (``-inf`` for a
        point-mass cluster)."""
        return log_sphere_volume(self.dim, self.radius)

    @property
    def log_density(self) -> float:
        """Natural log of the density ``D = |C| / V``; ``inf`` for a
        point-mass cluster."""
        log_volume = self.log_volume
        if log_volume == -math.inf:
            return math.inf
        return math.log(self.count) - log_volume

    @property
    def density(self) -> float:
        """Density ``D`` (may overflow to ``inf`` in high dimensions; use
        :attr:`log_density` in computations)."""
        return math.exp(self.log_density) if self.log_density < 700 else math.inf

    def __repr__(self) -> str:
        return (
            f"ViTri(dim={self.dim}, radius={self.radius:.6g}, "
            f"count={self.count})"
        )


@dataclass(frozen=True)
class VideoSummary:
    """The ViTri summary of one video sequence.

    Attributes
    ----------
    video_id:
        Identifier of the summarised video.
    vitris:
        The video's ViTris (one per frame cluster).
    num_frames:
        Total frame count of the original sequence; the ViTri counts must
        sum to it (each frame belongs to exactly one cluster).
    """

    video_id: int
    vitris: tuple[ViTri, ...]
    num_frames: int = field(default=0)

    def __post_init__(self) -> None:
        if not isinstance(self.video_id, (int, np.integer)) or isinstance(
            self.video_id, bool
        ):
            raise TypeError("video_id must be an int")
        object.__setattr__(self, "video_id", int(self.video_id))
        vitris = tuple(self.vitris)
        if not vitris:
            raise ValueError("a summary must contain at least one ViTri")
        if not all(isinstance(v, ViTri) for v in vitris):
            raise TypeError("vitris must all be ViTri instances")
        dims = {v.dim for v in vitris}
        if len(dims) != 1:
            raise ValueError(f"vitris have inconsistent dimensions: {dims}")
        object.__setattr__(self, "vitris", vitris)
        total = sum(v.count for v in vitris)
        num_frames = self.num_frames or total
        if num_frames != total:
            raise ValueError(
                f"num_frames={num_frames} but cluster counts sum to {total}"
            )
        object.__setattr__(self, "num_frames", num_frames)

    @classmethod
    def from_arrays(
        cls, video_id: int, positions, radii, counts, num_frames: int
    ) -> "VideoSummary":
        """A summary from its ViTris' fields as arrays: the inverse of
        :meth:`positions`, :meth:`radii` and :meth:`counts`.

        Accepts and rejects what building each :class:`ViTri` and then
        the summary would, with the same exception types, but runs each
        check once over the arrays instead of once per ViTri.  Each
        ViTri's position is a row of one private copy of ``positions``.
        """
        positions = np.array(positions, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64)
        counts = np.asarray(counts)
        if positions.ndim != 2 or not (
            radii.shape == counts.shape == positions.shape[:1]
        ):
            raise ValueError(
                f"positions {positions.shape}, radii {radii.shape} and "
                f"counts {counts.shape} do not describe one ViTri per row"
            )
        if not len(positions):
            raise ValueError("a summary must contain at least one ViTri")
        if not np.isfinite(positions).all():
            raise ValueError("position must contain only finite values")
        radius_list = radii.tolist()
        for radius in radius_list:
            if not 0.0 <= radius < math.inf:  # NaN fails both sides
                raise ValueError(
                    f"radius must be a finite non-negative number, got {radius}"
                )
        if counts.dtype.kind not in "iu":
            raise TypeError("count must be an int")
        count_list = counts.tolist()
        for count in count_list:
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
        if not isinstance(video_id, (int, np.integer)) or isinstance(
            video_id, bool
        ):
            raise TypeError("video_id must be an int")
        total = sum(count_list)
        num_frames = num_frames or total
        if num_frames != total:
            raise ValueError(
                f"num_frames={num_frames} but cluster counts sum to {total}"
            )
        vitris = tuple(
            _checked(ViTri, position=position, radius=radius, count=count)
            for position, radius, count in zip(
                positions, radius_list, count_list
            )
        )
        return _checked(
            cls, video_id=int(video_id), vitris=vitris, num_frames=num_frames
        )

    @property
    def dim(self) -> int:
        """Dimensionality of the feature space."""
        return self.vitris[0].dim

    def __len__(self) -> int:
        return len(self.vitris)

    def positions(self) -> np.ndarray:
        """Stack of the ViTri positions, shape ``(len(self), n)``."""
        return np.stack([v.position for v in self.vitris])

    def radii(self) -> np.ndarray:
        """Vector of the ViTri radii."""
        return np.array([v.radius for v in self.vitris])

    def counts(self) -> np.ndarray:
        """Vector of the ViTri frame counts."""
        return np.array([v.count for v in self.vitris], dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"VideoSummary(video_id={self.video_id}, vitris={len(self.vitris)}, "
            f"frames={self.num_frames})"
        )


def _checked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` whose fields the
    caller has already checked (``__post_init__`` does not run)."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance
