"""`repro.serve` — online, latency-bounded forecast serving.

The deployment story of the paper (Sec. IV-B) is an online loop: multi-step
demand forecasts answered on request and consumed by rebalancing. This
package is that loop, built on the pipeline's offline artifacts:

- :mod:`repro.serve.service` — :class:`ForecastService`: fitted scaler +
  ordered tier chain (primary model → cheaper fallbacks) behind one
  normalize → predict → denormalize call, with per-request deadlines and
  graceful degradation (tier failures and deadline overruns answer from
  the next tier, tagged, instead of erroring).
- :mod:`repro.serve.batching` — :class:`MicroBatcher`: coalesces
  concurrent single-window requests into one batched forward pass,
  bit-identical to the equivalent sequential ``predict``.
- :mod:`repro.serve.ingest` — :class:`IngestionPipeline`: live aggregated
  slots append to the *same* chunked :class:`repro.store.WindowStore` the
  training dataflow uses; each window whose horizon materializes is scored
  against realized demand (optionally through the drift monitor), and
  ``update_scaler=True`` refreshes the shared scaler's running extrema
  incrementally (``partial_fit``) — no serve-local window slicing.
- :mod:`repro.serve.monitor` — :class:`DriftMonitor` / :class:`SloMonitor`:
  feed the :mod:`repro.obs.drift` detectors from a live service and publish
  ``forecast_drift_score`` gauges plus ``drift_detected`` / ``slo_burn``
  run-log events.
- :mod:`repro.serve.adapt` — :class:`AdaptationController`: the closed
  online-adaptation loop. Drift verdicts trigger a
  warm-started fine-tune on the store's freshest windows (through
  ``repro.resilience`` recovery), a shadow-validation gate scores the
  candidate against the live model on held-out recent windows, and only a
  winner is hot-swapped in — an atomic, generation-numbered,
  compare-and-swap flip (:meth:`ForecastService.swap_primary`) that
  in-flight batches never observe mid-request; every failure mode is
  typed and leaves the original model serving.
- :mod:`repro.serve.shard` — :func:`partition_grid` / :class:`ShardRouter`:
  the one way a forecast request is answered, with one shard as the
  unsharded case. Contiguous region shards each run their own service
  (own scaler, own checkpoint); the router's one micro-batcher runs each
  batch through the shards in turn and merges degradation honestly (one
  degraded shard degrades the answer, a failed one falls back to its floor).
  :func:`load_shard_services` is the one loader: RunSpec + per-shard
  checkpoint + per-shard scaler state → warmed services (models built via
  the pipeline registry only; layering keeps ``serve`` off
  ``core``/``baselines`` and ``experiments`` entirely).
- :mod:`repro.serve.gateway` — ``python -m repro.serve.gateway``: stdlib
  JSON/HTTP front door over a router (``/forecast``, ``/healthz``,
  ``/shards``), traces linking gateway → router → shard spans.
- :mod:`repro.serve.bench` — ``python -m repro.serve.bench``: closed-loop
  load generator over a ``--shards N`` router (default 1) writing
  ``results/BENCH_serve.json`` (throughput, p50/p99 latency, degraded
  fraction); ``--trace`` records request-scoped spans, ``--telemetry-port``
  serves live ``/metrics``, ``--drift-samples`` replays ground truth
  through the drift monitor.

Request lifecycle and degradation tiers are documented in
docs/ARCHITECTURE.md; BENCH_serve.json fields in docs/PERFORMANCE.md.
"""

from repro.serve.adapt import (
    AdaptationController,
    AdaptationError,
    AdaptationPolicy,
    FineTuneDivergence,
    GateRejected,
    ShadowReport,
    SwapConflict,
)
from repro.serve.batching import MicroBatcher
from repro.serve.ingest import IngestionPipeline, IngestReport, ReadyWindow
from repro.serve.monitor import DriftMonitor, SloMonitor
from repro.serve.shard import (
    DEFAULT_FALLBACKS,
    ShardedResponse,
    ShardRegion,
    ShardReport,
    ShardRouter,
    load_shard_services,
    partition_grid,
)
from repro.serve.service import (
    REASON_DEADLINE,
    REASON_ERROR,
    REASON_PREDICTED_DEADLINE,
    ForecastResponse,
    ForecastService,
    GenerationConflict,
    PartialBatchError,
    ServiceTier,
)

__all__ = [
    "AdaptationController",
    "AdaptationError",
    "AdaptationPolicy",
    "DEFAULT_FALLBACKS",
    "DriftMonitor",
    "FineTuneDivergence",
    "GateRejected",
    "GenerationConflict",
    "ShadowReport",
    "SwapConflict",
    "ForecastResponse",
    "ForecastService",
    "IngestReport",
    "IngestionPipeline",
    "MicroBatcher",
    "PartialBatchError",
    "ReadyWindow",
    "ShardedResponse",
    "ShardRegion",
    "ShardReport",
    "ShardRouter",
    "SloMonitor",
    "REASON_DEADLINE",
    "REASON_ERROR",
    "REASON_PREDICTED_DEADLINE",
    "ServiceTier",
    "load_shard_services",
    "partition_grid",
]
