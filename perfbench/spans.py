"""The benchmark's own spans, recorded around calls into the program's layers.

Wrappers are installed on *instances* the benchmark built (a model's
submodule, a trainer, a service, a scaler), never on program modules or
classes, so untraced runs execute the program exactly as shipped. Spans
stay in a bounded in-memory list and are written out after the run; a span
that does not fit is counted as dropped.

A layer's self time is its span's duration minus the part of that interval
its child spans cover. ``ledger`` turns one unit of work (a training step,
a request, an ingested slot) into per-layer self times that add up to the
unit's wall clock.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
import zlib
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (span id, name, start, end, parent id, attributes)
Span = Tuple[int, str, float, float, int, Optional[dict]]

clock = time.monotonic  # the clock the serving layers stamp requests with


class Recorder:
    """Bounded in-memory span store with a per-thread stack for parent links."""

    def __init__(self, capacity: int = 1_000_000):
        self.capacity = int(capacity)
        self.spans: List[Span] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Request stamps: clock readings taken on a thread while a routed
        # forecast is open on it, mapped to that forecast's span id.
        self.stamp_owner: Dict[float, int] = {}

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, span: Span) -> None:
        if len(self.spans) < self.capacity:
            self.spans.append(span)
        else:
            self.dropped += 1

    def open(self) -> Tuple[int, int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent

    def close(self) -> None:
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        span_id, parent = self.open()
        began = clock()
        try:
            yield
        finally:
            ended = clock()
            self.close()
            self.add((span_id, name, began, ended, parent, None))

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        attributes: Optional[Callable[..., dict]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a callable that records one span per call."""
        inner = getattr(owner, attribute)
        recorder = self

        def traced(*args, **kwargs):
            span_id, parent = recorder.open()
            began = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                ended = clock()
                recorder.close()
                extra = attributes(*args, **kwargs) if attributes is not None else None
                recorder.add((span_id, name, began, ended, parent, extra))

        setattr(owner, attribute, traced)

    def wrap_iterator(self, owner: object, attribute: str, name: str) -> None:
        """Record one span around each ``next()`` of the iterator ``owner.attribute()`` returns."""
        inner = getattr(owner, attribute)
        recorder = self

        def traced(*args, **kwargs):
            iterator = iter(inner(*args, **kwargs))
            while True:
                span_id, parent = recorder.open()
                began = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    ended = clock()
                    recorder.close()
                    recorder.add((span_id, name, began, ended, parent, None))
                yield item

        setattr(owner, attribute, traced)

    def wrap_route(self, router: object, name: str = "shard.route") -> None:
        """Trace ``router.forecast`` and remember the clock stamps taken inside it.

        The router's batchers stamp each submission with the router's clock
        (``stamping_clock`` below); the stamp later arrives at the shard's
        ``predict_batch`` as that request's start, which links the batch to
        the request across the hand-off to the batcher thread.
        """
        inner = router.forecast
        recorder = self

        def traced(window, deadline_seconds=None):
            import numpy as np

            span_id, parent = recorder.open()
            began = clock()
            stamps = recorder._local.stamps = []
            try:
                window = np.asarray(window, dtype=float)
                return inner(window, deadline_seconds=deadline_seconds)
            finally:
                ended = clock()
                recorder._local.stamps = None
                recorder.close()
                for stamp in stamps:
                    recorder.stamp_owner[stamp] = span_id
                recorder.add((span_id, name, began, ended, parent, {"window": fingerprint(window)}))

        router.forecast = traced

    def stamping_clock(self) -> Callable[[], float]:
        """A ``clock=`` for ``ShardRouter`` that notes readings taken inside a traced route."""
        local = self._local

        def stamped() -> float:
            now = clock()
            stamps = getattr(local, "stamps", None)
            if stamps is not None:
                stamps.append(now)
            return now

        return stamped

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, name, began, ended, parent, extra in self.spans:
                record = {"id": span_id, "name": name, "start": began, "end": ended,
                          "parent": parent}
                if extra:
                    record["attrs"] = extra
                handle.write(json.dumps(record) + "\n")


def fingerprint(window) -> int:
    """Process-independent identity of a raw window's values."""
    import numpy as np

    return zlib.crc32(np.ascontiguousarray(window, dtype=float).tobytes())


def wrap_core(recorder: Recorder, model) -> None:
    """Spans around BikeCAP's forward and its four stages (Fig. 4)."""
    recorder.wrap(model, "forward", "core.forward")
    recorder.wrap(model.historical, "forward", "core.capsules")
    recorder.wrap(model.historical.conv, "forward", "core.pyramid_conv")
    recorder.wrap(model.future, "forward", "core.routing")
    recorder.wrap(model.decoder, "forward", "core.decoder")


def batch_attributes(windows, deadlines=None, starts=None, contexts=None) -> dict:
    """What a ``predict_batch`` span keeps: its size and its requests' start stamps."""
    return {"size": len(windows), "starts": list(starts) if starts is not None else None}


# ----------------------------------------------------------------------
# Per-unit ledgers
# ----------------------------------------------------------------------
class Tree:
    """Spans indexed by id and by parent, for walking one unit of work."""

    def __init__(self, spans: Iterable[Span]):
        self.by_id: Dict[int, Span] = {}
        self.children: Dict[int, List[int]] = defaultdict(list)
        for span in spans:
            self.by_id[span[0]] = span
        for span in self.by_id.values():
            self.children[span[4]].append(span[0])
        for ids in self.children.values():
            ids.sort(key=lambda i: self.by_id[i][2])

    def named(self, name: str) -> List[Span]:
        return sorted((s for s in self.by_id.values() if s[1] == name), key=lambda s: s[2])


def covered(interval: Tuple[float, float], parts: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    low, high = interval
    total, cursor = 0.0, low
    for begin, end in sorted(parts):
        begin, end = max(begin, cursor), min(end, high)
        if end > begin:
            total += end - begin
            cursor = end
    return total


class Ledger:
    """Per-layer self times of one unit of work, in seconds."""

    def __init__(self, wall: float):
        self.wall = wall
        self.layers: Dict[str, float] = defaultdict(float)

    def add(self, layer: str, seconds: float) -> None:
        self.layers[layer] += seconds

    def charge_subtree(self, tree: Tree, span_id: int, rename: Dict[str, str],
                       leaves: Sequence[str] = ()) -> None:
        """Charge a span and its descendants their self times.

        ``rename`` maps span names to layer names; spans named in ``leaves``
        are charged whole, without descending into their children.
        """
        span = tree.by_id[span_id]
        name = span[1]
        interval = (span[2], span[3])
        kids = [] if name in leaves else tree.children.get(span_id, [])
        inside = covered(interval, [(tree.by_id[k][2], tree.by_id[k][3]) for k in kids])
        self.add(rename.get(name, name), (span[3] - span[2]) - inside)
        for kid in kids:
            self.charge_subtree(tree, kid, rename, leaves)

    @property
    def residual(self) -> float:
        return sum(self.layers.values()) - self.wall


def summarize(ledgers: Sequence[Ledger], layers: Sequence[str]) -> Dict[str, float]:
    """Mean self time per unit, in milliseconds, for each named layer."""
    count = len(ledgers)
    return {
        layer: (sum(l.layers.get(layer, 0.0) for l in ledgers) / count * 1e3) if count else 0.0
        for layer in layers
    }


def max_residual_ms(ledgers: Sequence[Ledger]) -> float:
    return max((abs(l.residual) for l in ledgers), default=0.0) * 1e3


def unaccounted_layers(ledgers: Sequence[Ledger], layers: Sequence[str]) -> List[str]:
    """Layer names that some ledger charged but the report does not name."""
    named = set(layers)
    return sorted({layer for l in ledgers for layer in l.layers if layer not in named})
