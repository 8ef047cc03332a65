"""Online ingestion: live inserts, drift monitoring, atomic cutover.

The write-heavy half of serving a video database.  Three pieces:

* :mod:`repro.ingest.pipeline` — :class:`IngestPipeline`, bounded
  admission and WAL-batched commits of streamed summaries into a live
  fleet, with typed backpressure mirroring the front door's shedding
  discipline.
* :mod:`repro.ingest.drift` — :class:`DriftMonitor`, the paper's
  Section 6.3.3 principal-angle drift policy re-cast for streaming:
  per-shard insert counts, a measurement every ``check_every`` inserts
  to a shard, and an explicit ``DriftCheck`` verdict the pipeline turns
  into the fleet's online rebuild of that shard.
* :mod:`repro.ingest.cutover` — the online side-build: construct the
  refitted index in a sibling generation directory while the old one
  serves, then cut over atomically through the ``epoch.json`` pointer
  (see :mod:`repro.core.database`).
"""

from __future__ import annotations

from repro.ingest.cutover import (
    CutoverReport,
    SideBuildResult,
    commit_cutover,
    side_build,
)
from repro.ingest.drift import DriftCheck, DriftMonitor
from repro.ingest.pipeline import (
    IngestBackpressure,
    IngestDraining,
    IngestFailed,
    IngestOverloaded,
    IngestPipeline,
)

__all__ = [
    "CutoverReport",
    "DriftCheck",
    "DriftMonitor",
    "IngestBackpressure",
    "IngestDraining",
    "IngestFailed",
    "IngestOverloaded",
    "IngestPipeline",
    "SideBuildResult",
    "commit_cutover",
    "side_build",
]
