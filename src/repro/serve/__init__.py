"""Network service layer over the sharded ViTri database.

The in-process :class:`~repro.shard.router.ShardedVideoDatabase` scatters
sub-queries to :class:`~repro.shard.shard.Shard` objects through direct
method calls.  This package stands the same fleet up as a network
service without changing any ranking:

* :mod:`repro.serve.protocol` — the length-prefixed binary framing, the
  bit-exact :class:`~repro.core.vitri.VideoSummary` codec, and the typed
  error mapping every other module speaks.
* :mod:`repro.serve.shard_server` — one TCP server per shard
  (in-process thread or real subprocess) executing sub-queries one at a
  time, in the order they were read (a FIFO ticket), with budget-aware
  deadlines.
* :mod:`repro.serve.transport` — :class:`~repro.serve.transport.RemoteShard`,
  a shard proxy speaking the protocol; it plugs straight into the
  router's scatter seam via
  :meth:`~repro.shard.router.ShardedVideoDatabase.from_shards`, and
  caches the content token its server reports in every ``status`` and
  ``knn`` reply, which is what lets the read-only router memoise
  complete answers (a repeat sends no leg).  Beside
  it, :class:`~repro.serve.transport.FrameServer`, the blocking server
  core both servers share: one accept thread, and one thread per
  connection that reads, executes and answers each request itself.
* :mod:`repro.serve.frontdoor` — the serving loop: bounded admission
  queue, one token bucket, typed load shedding, memo hits answered at
  admission, graceful drain, and :class:`~repro.serve.frontdoor.NetworkFleet`, which spawns a
  server per shard, builds the memoising read-only router over their
  proxies and restarts one server under live traffic.

Because every shard computes its sub-query with the same engine code and
scores travel as their float64 bytes in the binary knn reply, rankings
through the network path are bit-identical to the in-process router's.
"""

from __future__ import annotations

from repro.serve.frontdoor import (
    FrontDoor,
    FrontDoorServer,
    NetworkFleet,
    TokenBucket,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    RateLimited,
    RemoteShardError,
    ServiceDraining,
    ServiceOverloaded,
)
from repro.serve.shard_server import ShardServer, ShardServerHandle
from repro.serve.transport import RemoteShard, RemoteShardClient

__all__ = [
    "MAX_FRAME_BYTES",
    "FrontDoor",
    "FrontDoorServer",
    "NetworkFleet",
    "ProtocolError",
    "RateLimited",
    "RemoteShard",
    "RemoteShardClient",
    "RemoteShardError",
    "ServiceDraining",
    "ServiceOverloaded",
    "ShardServer",
    "ShardServerHandle",
    "TokenBucket",
]
