"""The routing state a commitment covers, and a checkpoint snapshots.

A plain dataclass with no dependency inside :mod:`repro.spider`, so the
log (which encodes and decodes CHECKPOINT entries) and the replay in
:mod:`repro.spider.checkpoint` (which folds them) both import it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..bgp.prefix import Prefix
from ..bgp.route import Route


@dataclass
class RoutingState:
    """What a commitment needs to know about one AS's routing at time t.

    * ``imports[neighbor][prefix]`` — the route that neighbor was
      advertising to us (the VPref inputs);
    * ``exports[neighbor][prefix]`` — the route we were advertising to
      that neighbor (the VPref offers);
    * ``origins`` — prefixes we originate ourselves.
    """

    imports: Dict[int, Dict[Prefix, Route]] = field(default_factory=dict)
    exports: Dict[int, Dict[Prefix, Route]] = field(default_factory=dict)
    origins: Set[Prefix] = field(default_factory=set)

    def copy(self) -> "RoutingState":
        return RoutingState(
            imports={n: dict(t) for n, t in self.imports.items()},
            exports={n: dict(t) for n, t in self.exports.items()},
            origins=set(self.origins),
        )

    def known_prefixes(self) -> Set[Prefix]:
        prefixes: Set[Prefix] = set(self.origins)
        for table in self.imports.values():
            prefixes.update(table)
        for table in self.exports.values():
            prefixes.update(table)
        return prefixes

    def knows(self, prefix: Prefix) -> bool:
        """``prefix in known_prefixes()``, without building the set."""
        return prefix in self.origins or \
            any(prefix in table for table in self.imports.values()) or \
            any(prefix in table for table in self.exports.values())

    def import_route(self, neighbor: int,
                     prefix: Prefix) -> Optional[Route]:
        return self.imports.get(neighbor, {}).get(prefix)
