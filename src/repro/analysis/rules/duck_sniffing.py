"""VIL011 ``duck-sniffing``: the serving layers call the contract, they
do not probe for it.

Everything that routes, serves, replicates or ingests talks to a shard
through :mod:`repro.shard.contract` (``ShardLike`` / ``WritableShard``)
or decides once, by type, what it was handed.  ``hasattr(x, "name")``
and ``getattr(x, "name", default)`` with a literal name are how an
undeclared capability sneaks back in: the caller grows a second path for
objects that lack the attribute, and nothing says which objects those
are.  Put the member in the contract (an implementer with nothing to say
accepts the argument or reports ``None``) or branch on the class.

Delegation by a *computed* name — ``FaultInjectingShard.__getattr__``
— forwards a call rather than testing for one and is not flagged; neither is two-argument ``getattr``, which raises on a
missing attribute instead of hiding it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["DuckSniffingRule"]

_SCOPED_DIRS = (
    "repro/shard/",
    "repro/serve/",
    "repro/replication/",
    "repro/ingest/",
)


@register
class DuckSniffingRule(Rule):
    name = "duck-sniffing"
    code = "VIL011"
    tiers = frozenset({"library"})
    description = (
        "no hasattr(x, 'name') or getattr(x, 'name', default) capability "
        "probes in the shard, serve, replication and ingest layers"
    )
    rationale = (
        "a probed-for attribute is an undeclared contract: every caller "
        "forks on it and no type says who implements it"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        path = ctx.path.replace("\\", "/")
        if not any(directory in path for directory in _SCOPED_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and not node.keywords
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                continue
            probe = (node.func.id, len(node.args))
            if probe in (("hasattr", 2), ("getattr", 3)):
                yield self.diagnostic(
                    ctx,
                    node,
                    f"{node.func.id}(..., {node.args[1].value!r}"
                    f"{', default' if probe[1] == 3 else ''}) probes for an "
                    "undeclared capability; call the repro.shard.contract "
                    "surface or branch on the class",
                )
