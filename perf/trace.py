"""The benchmark's own spans: recorded in memory, written at the end.

A span is (id, parent id, operation id, name, start, end). Names are
``<layer>:<what>`` with the layer being one of this repository's module
names, so a layer's self time is the sum over its spans of the span's
duration minus the part its children cover. Operation ids are
``<class>#<client>.<index>``; the layer probes that run after the timed
loop use the class :data:`PROBE`.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict

#: operation class of spans recorded by the layer probes.
PROBE = "probe"
#: the span that hosts the service-reported stages of an operation; the
#: root span itself when an operation is one ``QueryService.execute``.
SERVICE_EXECUTE = "service.session:execute"


class Tracer:
    """Collects spans; appends from several client threads are safe
    (``list.append`` and ``next`` on a counter are atomic)."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []

    def add(
        self, name: str, start: float, end: float, parent: int = 0, op: str = ""
    ) -> int:
        """Record one finished span; returns its id (a parent for others)."""
        span_id = next(self._ids)
        self.spans.append((span_id, parent, op, name, start, end))
        return span_id

    def self_seconds(self) -> dict[int, float]:
        """Per span id: its duration minus its children's durations."""
        own = {span[0]: span[5] - span[4] for span in self.spans}
        for _id, parent, _op, _name, start, end in self.spans:
            if parent:
                own[parent] -= end - start
        return {span_id: max(seconds, 0.0) for span_id, seconds in own.items()}

    def layer_shares(self) -> dict[str, dict[str, float]]:
        """Per operation class, each layer's self time as a share of the
        traced operation time (the root spans' total); ``"*"`` holds the
        shares over all operations. Shares of one class sum to 1."""
        own = self.self_seconds()
        totals = defaultdict(float)
        layers = defaultdict(lambda: defaultdict(float))
        for span_id, parent, op, name, start, end in self.spans:
            op_class = op.split("#", 1)[0]
            if op_class == PROBE:
                continue
            for key in ("*", op_class):
                layers[key][name.split(":", 1)[0]] += own[span_id]
                if not parent:
                    totals[key] += end - start
        return {
            key: {layer: seconds / totals[key] for layer, seconds in sorted(by.items())}
            for key, by in layers.items()
            if totals[key] > 0
        }

    def write(self, path) -> None:
        """One JSON object per span, in recording order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                )
                handle.write("\n")
