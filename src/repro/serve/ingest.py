"""Streaming ingestion: live slots → the shared window store → drift scoring.

Serving used to keep its own rolling raw-window state; now live aggregated
slots append to the *same* chunked :class:`repro.store.WindowStore` the
training dataflow uses. The pipeline tracks which supervised windows have
fully materialized (history *and* horizon present), so every completed
window can be scored against realized demand exactly once, and — with
``update_scaler=True`` — folds each new slot into the scaler's running
extrema (``partial_fit``), refreshing normalization incrementally for a
service that shares the store's scaler.

Lifecycle (see docs/DATAFLOW.md):

1. ``ingest(slots)`` checks that the slots hold finite, non-negative counts
   shaped for the attached service's grid (the checks the router applies
   to request windows), then appends them;
2. each time a window's full horizon lands, ``ingest`` returns it as a
   :class:`ReadyWindow` (raw history + realized target demand) and — if a
   :class:`~repro.serve.monitor.DriftMonitor` is attached — feeds it
   through the monitor, closing the predict → realize → score loop.

Ingestion answers no forecast requests: those go through the
:class:`~repro.serve.shard.ShardRouter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import runlog
from repro.serve.monitor import DriftMonitor
from repro.serve.service import ForecastService, check_counts, check_shape
from repro.store import WindowStore


@dataclass(frozen=True)
class ReadyWindow:
    """A window whose full horizon has materialized in the store."""

    index: int  # window index within the store
    window: np.ndarray  # raw (history, G1, G2, F) model input
    actual: np.ndarray  # raw (horizon, G1, G2) realized target demand
    report: Optional[object] = None  # DriftReport when a monitor is attached


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one ``ingest`` call."""

    appended_slots: int
    ready: List[ReadyWindow] = field(default_factory=list)


class IngestionPipeline:
    """Append live slots to a window store and score completed windows.

    ``store`` should hold *raw* (denormalized) slots — the service applies
    its own normalization at predict time, so the store is typically built
    with ``normalize=False``. Pass ``scaler=service.scaler`` and
    ``update_scaler=True`` to refresh that service's normalization
    statistics incrementally as demand streams in.
    """

    def __init__(
        self,
        store: WindowStore,
        service: Optional[ForecastService] = None,
        monitor: Optional[DriftMonitor] = None,
        update_scaler: bool = False,
        label: str = "serve",
        controller=None,
    ):
        if service is not None:
            if (store.history, store.horizon) != (service.history, service.horizon):
                raise ValueError(
                    f"store geometry (h={store.history}, p={store.horizon}) does not "
                    f"match service (h={service.history}, p={service.horizon})"
                )
            if update_scaler and store.scaler is not service.scaler:
                raise ValueError(
                    "update_scaler=True requires the store and service to share "
                    "one scaler object, or the refreshed statistics never reach "
                    "the service"
                )
        self.store = store
        self.service = service
        self.monitor = monitor
        # An AdaptationController (duck-typed: anything with observe(ready))
        # sees every ReadyWindow after scoring — drift verdicts reach the
        # fine-tune trigger without the caller writing the loop by hand.
        self.controller = controller
        self.update_scaler = update_scaler
        self.label = label
        # Windows scored so far; everything below this index is final.
        self._scored = store.num_windows

    @property
    def num_scored(self) -> int:
        return self._scored

    def ingest(self, slots: np.ndarray) -> IngestReport:
        """Append ``(n, G1, G2, F)`` raw slots (or one bare slot).

        Returns the newly completed windows; with a monitor attached each
        one has already been predicted and scored against its realized
        demand (``report`` holds the drift verdict). Slots that are not
        finite, non-negative counts, or not shaped for the attached
        service's ``(G1, G2, F)``, raise ``ValueError`` before anything is
        appended or folded into the scaler.
        """
        slots = np.asarray(slots)
        if self.service is not None:  # one bare slot or a stack of them
            frame = self.service.grid_shape + (self.service.num_features,)
            check_shape(slots, slots.shape[:-3] + frame, "slots")
        check_counts(slots, "slots")
        appended = self.store.extend(slots, update_scaler=self.update_scaler)
        obs_metrics.counter("serve_ingest_slots_total", service=self.label).inc(appended)
        ready: List[ReadyWindow] = []
        history, horizon = self.store.history, self.store.horizon
        target = self.store.target_feature
        for index in range(self._scored, self.store.num_windows):
            window = self.store.raw_slots(index, index + history)
            actual = self.store.raw_slots(index + history, index + history + horizon)[
                ..., target
            ]
            report = None
            if self.monitor is not None:
                try:
                    report = self.monitor.feed(window, actual)
                except Exception as error:  # noqa: BLE001 - isolate scoring
                    # One poisoned window must not wedge ingestion: the
                    # window stays ready (report=None) and later windows
                    # still get scored.
                    obs_metrics.counter(
                        "serve_ingest_monitor_errors_total", service=self.label
                    ).inc()
                    runlog.emit(
                        "ingest_monitor_error",
                        service=self.label,
                        window=index,
                        error=str(error),
                    )
            # Advance per window — not after the loop — so a monitor
            # exception mid-stream cannot re-score (and double-emit drift
            # events for) windows already handled on the next ingest call.
            self._scored = index + 1
            obs_metrics.counter("serve_ingest_windows_total", service=self.label).inc()
            completed = ReadyWindow(
                index=index, window=window, actual=actual, report=report
            )
            ready.append(completed)
            if self.controller is not None:
                try:
                    self.controller.observe(completed)
                except Exception as error:  # noqa: BLE001 - isolate triggers
                    obs_metrics.counter(
                        "serve_ingest_controller_errors_total", service=self.label
                    ).inc()
                    runlog.emit(
                        "ingest_controller_error",
                        service=self.label,
                        window=index,
                        error=str(error),
                    )
        return IngestReport(appended_slots=appended, ready=ready)


__all__ = ["IngestReport", "IngestionPipeline", "ReadyWindow"]
