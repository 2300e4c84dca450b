"""PERF rule pack: keep measured hot paths off known-slow idioms.

Each rule here pins a cost that a benchmark run has already paid for
once (``docs/performance.md``), so it cannot creep back in through an
innocent-looking edit.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    ProjectContext,
    Rule,
    dotted_name,
    register,
)

#: Where a tuple is copied once per tuple per hop: directories (as
#: ``/``-terminated path fragments) and single files.
DATAPLANE_PATHS = (
    "repro/engine/",
    "repro/streams/",
    "repro/dissemination/",
    "repro/live/entity_task.py",
)


def _on_dataplane(path: str) -> bool:
    posix = f"/{PurePath(path).as_posix()}"
    return any(f"/{fragment}" in posix for fragment in DATAPLANE_PATHS)


@register
class DataplaneReplaceRule(Rule):
    """PERF001: ``dataclasses.replace`` in dataplane code.

    ``replace`` walks the dataclass's field list, builds a keyword dict
    and calls ``__init__`` through it on every call — three to four
    times the cost of naming the fields positionally.  It was the
    hottest function of the ``stateful`` workload (233k calls, a fifth
    of the run) before the tuple copies were spelled out.  Control-path
    uses on config objects are fine and carry a suppression with the
    reason.
    """

    id = "PERF001"
    summary = "dataclasses.replace on the dataplane"

    def check(
        self, module: ModuleInfo, project: ProjectContext
    ) -> Iterator[Finding]:
        """Flag ``dataclasses.replace(...)`` and its imported aliases."""
        if not _on_dataplane(module.path):
            return
        aliases = {"dataclasses.replace"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                aliases.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "replace"
                )
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and dotted_name(node.func) in aliases
            ):
                yield self.finding(
                    module,
                    node,
                    "`dataclasses.replace` re-reads the field list on "
                    "every call; build the copy positionally",
                )
