"""VIL007 ``injected-clock``: resilience code must not touch real time or RNGs.

The fault-tolerance layer's whole value is that its behaviour —
latencies, backoff schedules, breaker transitions — is
*reproducible*: a failing fault sweep must replay bit-for-bit.  That
only holds if the resilience modules never read the machine clock or an
unseeded RNG.  Time comes from the injected
:class:`repro.utils.clock.Clock` the router owns; retry jitter comes
from a seeded ``blake2b`` hash of ``(seed, shard, attempt)``.

This rule polices the resilience paths (``shard/resilience.py`` and
``shard/faults.py``), the whole service layer (``repro/serve/`` —
token-bucket refills, admission timing and wire deadlines must replay
under a ``VirtualClock`` exactly like the in-process scatter), the
replication layer (``repro/replication/``), and the ingest layer
(``repro/ingest/`` — the pump's backoff and retry schedule must replay
identically every run): any call into the ``time`` module (``sleep``
included — a real sleep would stall a virtual-clock test and desync
the per-context offsets), the ``random`` module, or ``numpy.random``
is an error there.  VIL006
(wall-clock-discipline) already flags clock *reads* repo-wide; this
rule is stricter on the scoped paths because in the resilience layer
even a non-clock call like ``time.sleep`` breaks determinism.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["InjectedClockRule"]

# Paths (normalised to "/") whose modules must use the injected clock:
# exact file suffixes, plus whole directories matched by containment
# (``endswith`` cannot scope a package).
_SCOPED_PATHS = ("shard/resilience.py", "shard/faults.py")
_SCOPED_DIRS = ("repro/serve/", "repro/replication/", "repro/ingest/")

_BANNED_PREFIXES = ("time.", "random.", "numpy.random.", "np.random.")


@register
class InjectedClockRule(Rule):
    name = "injected-clock"
    code = "VIL007"
    tiers = frozenset({"library"})
    description = (
        "resilience modules must use the injected Clock and seeded "
        "jitter, never the time/random modules"
    )
    rationale = (
        "retry backoffs and breaker transitions must "
        "replay bit-for-bit; a raw time or random call makes a fault "
        "sweep unreproducible"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        path = ctx.path.replace("\\", "/")
        if not path.endswith(_SCOPED_PATHS) and not any(
            directory in path for directory in _SCOPED_DIRS
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved.startswith(_BANNED_PREFIXES) or resolved in (
                "time",
                "random",
            ):
                yield self.diagnostic(
                    ctx,
                    node,
                    f"'{resolved}' call in a resilience module; use the "
                    "injected repro.utils.clock.Clock for time and the "
                    "seeded RetryPolicy jitter for randomness",
                )
