"""Video-level KNN scoring shared by every access method.

The ViTri index, the sequential scan and the pyramid-technique comparator
all produce streams of candidate ViTri records that must be folded into
the same video-level similarity:

* per candidate video, accumulate the estimated shared frames between
  each query ViTri and each of the video's ViTris;
* cap the query-side total per query ViTri at that cluster's frame count
  and the database-side total per database ViTri at its frame count (a
  frame cannot be counted twice);
* ``score = (capped query side + capped database side) /
  (query frames + video frames)``, clipped to 1.

Keeping this in one place guarantees the access methods return *exactly*
the same rankings — which the test suite asserts — and reduces each
method to its actual difference: which candidates it reads and at what
I/O cost.

Bit-exactness contract
----------------------
:meth:`ScoreAccumulator.evaluate` (per record, Python control flow) plus
the per-video Python fold in :meth:`ScoreAccumulator.scores` is the
*scalar oracle*; :meth:`ScoreAccumulator.evaluate_arrays` plus the array
fold in :meth:`ScoreAccumulator.score_arrays` is the vectorized path.
Driven over the same candidate stream in the same order, the two produce
bit-identical scores, not merely close ones:

* the per-pair estimate comes from ``_estimate_from_scalars`` /
  ``_estimate_batch``, which share their elementwise primitives and are
  bit-identical lane by lane;
* per-cell accumulation order is preserved — the vectorized path defers
  all summation to ``score_arrays()`` and folds the concatenated
  candidate stream with one ``np.bincount`` per cell kind, whose
  sequential left-to-right accumulation reproduces the oracle's ``+=``
  chains exactly (summing per *batch* and adding partial sums would not:
  float addition is not associative);
* the query side of a video is the sum of its ``m`` capped cells: the
  oracle calls ``.sum()`` on the video's length-``m`` array, the array
  fold row-sums a C-contiguous ``(videos, m)`` matrix — numpy runs the
  same pairwise summation over each contiguous row either way;
* the database side folds each video's capped totals in a canonical
  (vitri-id ascending) order with a plain left-to-right add — an
  explicit ``+=`` chain in the oracle (*not* the builtin ``sum()``,
  which from Python 3.12 on is Neumaier-compensated and would round
  differently from one interpreter to the next), a ``np.bincount`` over
  the id-sorted totals in the array fold.

``tests/test_vectorized_equivalence.py`` asserts all of this.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping

import numpy as np

from repro.core.similarity import _estimate_batch, _estimate_from_scalars
from repro.core.vitri import VideoSummary
from repro.storage.serialization import ViTriRecord

__all__ = ["ScoreAccumulator"]


class ScoreAccumulator:
    """Folds candidate ViTri records into video-level KNN scores.

    Parameters
    ----------
    query:
        The query video's ViTri summary.
    video_frames:
        Frame count per database video id (for the score denominator).

    Notes
    -----
    :meth:`evaluate` may be called several times for the same candidate
    record as long as each (query ViTri, database ViTri) pair is passed
    at most once overall — the naive range-search method relies on this.
    """

    def __init__(
        self, query: VideoSummary, video_frames: Mapping[int, int]
    ) -> None:
        self._query = query
        self._video_frames = video_frames
        self._m = len(query.vitris)
        self._dim = query.dim
        self._per_video_query: dict[int, np.ndarray] = {}
        self._per_video_db: dict[int, dict[int, float]] = defaultdict(dict)
        self._db_counts: dict[int, int] = {}
        # Deferred vectorized contributions, folded by score_arrays():
        # (query_index, video_ids, vitri_ids, counts, estimates) per call.
        self._segments: list[
            tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        self.evaluations = 0

    def evaluate(
        self, record: ViTriRecord, vitri_indices: Iterable[int]
    ) -> int:
        """Score one candidate against the given query-ViTri indices.

        Returns the number of similarity evaluations performed (the CPU
        cost unit).
        """
        performed = 0
        for index in vitri_indices:
            query_vitri = self._query.vitris[index]
            # sqrt-of-sum-of-squares, not np.linalg.norm on the 1-D diff:
            # BLAS nrm2's accumulation order differs from the batched
            # axis-1 norm, and this path is the bit-exactness oracle.
            diff = record.position - query_vitri.position
            distance = float(np.sqrt(np.sum(diff * diff)))
            estimate = _estimate_from_scalars(
                self._dim,
                query_vitri.radius,
                query_vitri.count,
                record.radius,
                record.count,
                distance,
            )
            performed += 1
            if estimate <= 0.0:
                continue
            video = record.video_id
            if video not in self._per_video_query:
                self._per_video_query[video] = np.zeros(self._m)
            self._per_video_query[video][index] += estimate
            per_db = self._per_video_db[video]
            per_db[record.vitri_id] = (
                per_db.get(record.vitri_id, 0.0) + estimate
            )
            self._db_counts[record.vitri_id] = record.count
        self.evaluations += performed
        return performed

    def evaluate_arrays(
        self,
        query_index: int,
        video_ids: np.ndarray,
        vitri_ids: np.ndarray,
        counts: np.ndarray,
        radii: np.ndarray,
        positions: np.ndarray,
    ) -> int:
        """Vectorised scoring of many candidates against one query ViTri.

        Bit-identical to calling :meth:`evaluate` once per candidate with
        ``[query_index]`` (see the module docstring's contract), but the
        distance and intersection math runs as one numpy batch and the
        positive estimates are only *recorded* here — the accumulation is
        deferred to :meth:`score_arrays` so every per-cell sum happens in
        one left-to-right pass regardless of how candidates were batched.
        Returns the number of similarity evaluations.
        """
        query_vitri = self._query.vitris[query_index]
        # np.linalg.norm(..., axis=1)'s own operations for real input
        # (square, then one add.reduce per row), minus its conj/product
        # temporaries: the distances are the same bits.
        diff = positions - query_vitri.position
        np.multiply(diff, diff, out=diff)
        distances = np.sqrt(np.add.reduce(diff, axis=1))
        estimates = _estimate_batch(
            self._dim,
            query_vitri.radius,
            query_vitri.count,
            radii,
            np.asarray(counts, dtype=np.float64),
            distances,
        )
        performed = int(estimates.shape[0])
        self.evaluations += performed
        live = np.flatnonzero(estimates > 0.0)
        if live.size:
            self._segments.append(
                (
                    int(query_index),
                    np.asarray(video_ids)[live].astype(np.int64, copy=False),
                    np.asarray(vitri_ids)[live].astype(np.int64, copy=False),
                    np.asarray(counts)[live].astype(np.int64, copy=False),
                    estimates[live],
                )
            )
        return performed

    def score_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Final scores as ``(video_ids, scores)`` arrays, ids ascending.

        With only deferred :meth:`evaluate_arrays` contributions this is
        the array-native fold — no per-video Python work; scalar
        contributions go through :meth:`scores`.
        """
        if not self._segments:
            scores = self.scores()
            video_ids = np.array(sorted(scores), dtype=np.int64)
            return video_ids, np.array(
                [scores[video] for video in video_ids.tolist()], dtype=np.float64
            )
        if self._per_video_query:
            raise RuntimeError(
                "evaluate() and evaluate_arrays() contributions cannot be "
                "mixed in one accumulator"
            )
        # Every cell sum below is one np.bincount over the *global*
        # concatenation of the recorded segments: bincount adds its
        # weights sequentially in input order, so each cell receives
        # exactly the scalar oracle's += chain.  Folding per batch and
        # adding partial sums instead would silently break bit-identity.
        m = self._m
        sizes = [seg[4].size for seg in self._segments]
        query_indices = np.repeat([seg[0] for seg in self._segments], sizes)
        videos = np.concatenate([seg[1] for seg in self._segments])
        vitris = np.concatenate([seg[2] for seg in self._segments])
        counts = np.concatenate([seg[3] for seg in self._segments])
        estimates = np.concatenate([seg[4] for seg in self._segments])

        video_ids, video_codes = np.unique(videos, return_inverse=True)
        query_totals = np.bincount(
            video_codes * m + query_indices,
            weights=estimates,
            minlength=video_ids.size * m,
        ).reshape(video_ids.size, m)
        query_side = np.minimum(
            self._query.counts().astype(np.float64), query_totals
        ).sum(axis=1)
        # np.unique orders the database ViTris by id, so the per-video
        # bincount folds each video's capped totals vitri-id ascending.
        _, first_seen, vitri_codes = np.unique(
            vitris, return_index=True, return_inverse=True
        )
        db_totals = np.bincount(vitri_codes, weights=estimates)
        db_side = np.bincount(
            video_codes[first_seen],
            weights=np.minimum(counts[first_seen].astype(np.float64), db_totals),
            minlength=video_ids.size,
        )
        frames = np.fromiter(
            map(self._video_frames.__getitem__, video_ids.tolist()),
            dtype=np.float64,
            count=video_ids.size,
        )
        denominators = self._query.num_frames + frames
        return video_ids, np.minimum((query_side + db_side) / denominators, 1.0)

    def scores(self) -> dict[int, float]:
        """Final per-video similarity scores in ``[0, 1]``."""
        if self._segments:
            video_ids, scores = self.score_arrays()
            return dict(zip(video_ids.tolist(), scores.tolist()))
        scores: dict[int, float] = {}
        query_counts = self._query.counts().astype(np.float64)
        for video, per_query in self._per_video_query.items():
            count_query_side = float(np.minimum(query_counts, per_query).sum())
            # Canonical (vitri-id-sorted) fold: the scalar and vectorized
            # paths meet db-side totals in different orders, and float
            # summation order must not depend on that.  An explicit +=
            # chain, not sum(): from Python 3.12 on sum() compensates
            # float addition (Neumaier), which np.bincount does not.
            count_db_side = 0.0
            for vid, total in sorted(self._per_video_db[video].items()):
                count_db_side += min(float(self._db_counts[vid]), total)
            denominator = self._query.num_frames + self._video_frames[video]
            scores[video] = min(
                (count_query_side + count_db_side) / denominator, 1.0
            )
        return scores

    def ranked(self, k: int) -> list[tuple[int, float]]:
        """Top-``k`` (video, score) pairs, score-descending, id tie-break."""
        return sorted(
            self.scores().items(), key=lambda item: (-item[1], item[0])
        )[:k]
