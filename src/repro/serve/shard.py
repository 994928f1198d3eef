"""Region-sharded serving: partition the city grid, answer shard by shard, merge.

One :class:`~repro.serve.service.ForecastService` per *region shard* is the
deployment shape, one shard being the unsharded case: each shard owns a
contiguous ``(rows, cols)`` block of the ``(G1, G2)`` grid with its **own**
scaler and checkpoint — demand extrema differ between downtown and suburb
blocks, so per-shard normalization is a feature, not an accident. The
pieces:

- :func:`partition_grid` — split ``(G1, G2)`` into ``num_shards`` contiguous
  :class:`ShardRegion` blocks that tile the grid exactly; one shard is the
  unsharded deployment.
- :func:`load_shard_services` — the one loader: spec + per-shard checkpoint
  + per-shard persisted scaler state → one warmed service per region.
- :class:`ShardRouter` — one :class:`~repro.serve.batching.MicroBatcher`
  whose worker runs each coalesced batch through every shard's service in
  turn and merges each request's blocks into one :class:`ShardedResponse`.
  It is the only path that answers a forecast request.
- :func:`synthetic_router` — a synthetic city behind a router, for the
  gateway CLI demo and the serve bench.

Merge semantics are honest by construction:

- the merged response carries a per-shard :class:`ShardReport` (tier, skips,
  degradation) — nothing is averaged away;
- **one degraded shard degrades the merged answer** (``degraded=True``),
  because a consumer rebalancing the whole city must not trust a partially
  stale grid more than its weakest region;
- **one failed shard does not fail the city**: its block is filled from the
  router-level floor (repeat the region's last observed demand slot across
  the horizon — the same persistence shape the shard's own floor tier would
  have answered with), the report says ``failed=True`` with the error, and
  ``serve_shard_failures_total{shard=…}`` counts it.

Shards run in region order on one thread (threads per shard only contended
for the interpreter lock), so a later shard's deadline check sees the
earlier shards' time, as the caller does. The batcher waits for stragglers
only until every caller it has seen in flight has submitted, so a lone
caller's forecast goes to the shards at once; ``max_wait_seconds`` caps
that wait.

Tracing: ``forecast`` opens ``serve.route`` on the calling thread, the
submission's ``serve.request`` starts under it, and the worker starts one
``serve.shard`` span per region (``shard``, ``tier``) from that request's
context: gateway → route → request → shard spans form one trace.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# Re-exported for repro.serve.gateway, which is layering-restricted to
# repro.serve + stdlib imports (scripts/check_layering.py rule 12) and
# reaches the observability surfaces through this module.
from repro.obs import metrics as obs_metrics
from repro.obs import runlog, tracing
from repro.data.datasets import BikeDemandDataset, dataset_from_tensor
from repro.pipeline import registry
from repro.pipeline.loading import load_forecaster
from repro.pipeline.runner import execute
from repro.pipeline.spec import RunSpec
from repro.serve.batching import MicroBatcher
from repro.serve.service import ForecastService, PartialBatchError, check_counts, check_shape
from repro.store import MinMaxScaler

# The floor tier under every primary: persistence needs no training and
# cannot fail on a well-formed window.
DEFAULT_FALLBACKS: Tuple[str, ...] = ("Persistence",)

# Small-but-real BikeCAP geometry shared by the serve bench and the gateway
# CLI demo pool: every kernel exercised, smoke runs finish in seconds.
DEMO_HPARAMS = {
    "BikeCAP": {
        "pyramid_size": 2,
        "capsule_dim": 2,
        "future_capsule_dim": 2,
        "decoder_hidden": 4,
    }
}


@dataclass(frozen=True)
class ShardRegion:
    """One contiguous block of the city grid: ``[rows) × [cols)``."""

    name: str
    rows: Tuple[int, int]  # half-open [start, stop) over G1
    cols: Tuple[int, int]  # half-open [start, stop) over G2

    def __post_init__(self) -> None:
        if self.rows[0] >= self.rows[1] or self.cols[0] >= self.cols[1]:
            raise ValueError(f"empty shard region {self.name}: {self.rows} × {self.cols}")

    @property
    def grid_shape(self) -> Tuple[int, int]:
        return (self.rows[1] - self.rows[0], self.cols[1] - self.cols[0])

    def slice_window(self, values: np.ndarray) -> np.ndarray:
        """This region's block of a ``(..., G1, G2, F)`` array: a window,
        a stack of windows or a raw slot tensor."""
        return values[..., self.rows[0] : self.rows[1], self.cols[0] : self.cols[1], :]

    slice_tensor = slice_window

    def place(self, grid: np.ndarray, block: np.ndarray) -> None:
        """Write this region's demand block into a ``(p, G1, G2)`` grid."""
        grid[:, self.rows[0] : self.rows[1], self.cols[0] : self.cols[1]] = block

    def as_dict(self) -> dict:
        return {"name": self.name, "rows": list(self.rows), "cols": list(self.cols)}


def partition_grid(grid_shape, num_shards: int) -> Tuple[ShardRegion, ...]:
    """Split ``(G1, G2)`` into ``num_shards`` contiguous blocks tiling it.

    ``num_shards`` is factored into an ``r × c`` block layout (``r`` bands
    of rows × ``c`` bands of columns); among the factorizations that fit,
    the one whose blocks are closest to square wins — compact regions keep
    spatially-correlated demand together, which is what per-shard models
    want. Band sizes differ by at most one cell, so the tiling is exact for
    any grid the layout fits.
    """
    g1, g2 = int(grid_shape[0]), int(grid_shape[1])
    num_shards = int(num_shards)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    layouts = [
        (r, num_shards // r)
        for r in range(1, num_shards + 1)
        if num_shards % r == 0 and r <= g1 and num_shards // r <= g2
    ]
    if not layouts:
        raise ValueError(
            f"cannot tile a {g1}×{g2} grid with {num_shards} contiguous shards"
        )
    # Squarest blocks first; ties prefer more row bands (windows are stored
    # row-major, so row bands slice contiguously).
    rows_n, cols_n = min(layouts, key=lambda rc: (abs(g1 / rc[0] - g2 / rc[1]), -rc[0]))

    def bands(extent: int, count: int) -> List[Tuple[int, int]]:
        base, extra = divmod(extent, count)
        edges, start = [], 0
        for i in range(count):
            stop = start + base + (1 if i < extra else 0)
            edges.append((start, stop))
            start = stop
        return edges

    regions = []
    for i, rows in enumerate(bands(g1, rows_n)):
        for j, cols in enumerate(bands(g2, cols_n)):
            regions.append(
                ShardRegion(name=f"shard{i * cols_n + j}", rows=rows, cols=cols)
            )
    return tuple(regions)


@dataclass
class ShardReport:
    """What one shard contributed to a merged answer."""

    shard: str
    tier: Optional[str]  # None when the shard failed outright
    degraded: bool
    deadline_missed: bool
    latency_seconds: float
    skips: Tuple[str, ...] = ()
    failed: bool = False
    error: Optional[str] = None
    generation: Optional[int] = None  # the shard's serving generation; None if it failed

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "generation": self.generation,
            "tier": self.tier,
            "degraded": self.degraded,
            "deadline_missed": self.deadline_missed,
            "latency_seconds": self.latency_seconds,
            "skips": list(self.skips),
            "failed": self.failed,
            "error": self.error,
        }


@dataclass
class ShardedResponse:
    """One merged full-grid answer assembled from per-shard partials."""

    demand: np.ndarray  # (p, G1, G2) raw demand counts, all regions filled
    degraded: bool  # any shard degraded OR failed
    deadline_missed: bool  # any shard missed its deadline
    latency_seconds: float  # submission → merged answer, as the caller saw it
    shards: Tuple[ShardReport, ...] = ()
    failed_shards: Tuple[str, ...] = ()
    # The trace this answer belongs to (the gateway.request's, behind the
    # gateway); None unless tracing was recording.
    trace_id: Optional[str] = None

    @property
    def tier(self) -> str:
        """Worst-case tier summary for SLO tooling: the per-shard tiers
        joined, e.g. ``"BikeCAP|Persistence"`` (order follows the shards)."""
        return "|".join(report.tier or "<failed>" for report in self.shards)

    def as_dict(self) -> dict:
        return {
            "demand": self.demand.tolist(),
            "degraded": self.degraded,
            "deadline_missed": self.deadline_missed,
            "latency_seconds": self.latency_seconds,
            "shards": [report.as_dict() for report in self.shards],
            "failed_shards": list(self.failed_shards),
            "trace_id": self.trace_id,
        }


class ShardRouter:
    """Batch full-grid windows, answer each batch shard by shard, merge."""

    def __init__(
        self,
        regions: Sequence[ShardRegion],
        services: Mapping[str, ForecastService],
        *,
        max_batch: int = 8,
        max_wait_seconds: float = 0.002,
        clock=time.monotonic,
    ):
        self.regions = tuple(regions)
        if not self.regions:
            raise ValueError("ShardRouter needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"shard names must be unique, got {names}")
        missing = [name for name in names if name not in services]
        if missing:
            raise ValueError(f"no service for shard(s) {missing}")
        self.services: Dict[str, ForecastService] = {
            name: services[name] for name in names
        }

        g1 = max(region.rows[1] for region in self.regions)
        g2 = max(region.cols[1] for region in self.regions)
        covered = np.zeros((g1, g2), dtype=int)
        for region in self.regions:
            covered[region.rows[0] : region.rows[1], region.cols[0] : region.cols[1]] += 1
        if not np.all(covered == 1):
            raise ValueError("shard regions must tile the grid exactly once")
        self.grid_shape = (g1, g2)

        reference = self.services[names[0]]
        for region in self.regions:
            service = self.services[region.name]
            if tuple(service.grid_shape) != region.grid_shape:
                raise ValueError(
                    f"shard {region.name}: service grid {service.grid_shape} != "
                    f"region grid {region.grid_shape}"
                )
            for attribute in ("history", "horizon", "num_features", "target_feature"):
                if getattr(service, attribute) != getattr(reference, attribute):
                    raise ValueError(
                        f"shard {region.name}: {attribute} differs from "
                        f"shard {names[0]} ({getattr(service, attribute)} != "
                        f"{getattr(reference, attribute)})"
                    )
        self.history = reference.history
        self.horizon = reference.horizon
        self.num_features = reference.num_features
        self.target_feature = reference.target_feature
        self._clock = clock
        # Per-shard AdaptationControllers (repro.serve.adapt), attached
        # after construction; shards adapt independently — downtown can
        # drift and fine-tune while the suburbs keep their model.
        self._adaptation: Dict[str, object] = {}
        # One queue and one worker thread for every shard: the worker
        # answers each coalesced batch through predict_batch below.
        self._batcher = MicroBatcher(
            self, max_batch=max_batch, max_wait_seconds=max_wait_seconds, clock=clock
        )

    # ------------------------------------------------------------------
    @property
    def window_shape(self) -> Tuple[int, ...]:
        """Shape of one raw full-grid window: ``(h, G1, G2, F)``."""
        return (self.history,) + self.grid_shape + (self.num_features,)

    @property
    def batch_sizes(self) -> Dict[str, List[int]]:
        """Per-shard coalesced batch sizes, the batcher's newest
        ``BATCH_SIZES_KEPT`` in order: every shard answers every batch."""
        return {region.name: list(self._batcher.batch_sizes) for region in self.regions}

    def attach_adaptation(self, controllers: Mapping[str, object]) -> None:
        """Register per-shard adaptation controllers (name → controller).

        Each value is an :class:`~repro.serve.adapt.AdaptationController`
        bound to that shard's service and store; a partial mapping is fine
        (only some shards adapt). Unknown shard names are rejected loudly.
        """
        known = {region.name for region in self.regions}
        unknown = sorted(set(controllers) - known)
        if unknown:
            raise ValueError(f"no shard(s) named {unknown}; have {sorted(known)}")
        self._adaptation.update(controllers)

    def adaptation_status(self) -> dict:
        """Per-shard adaptation state for the gateway's ``/adaptation``."""
        return {
            "enabled": bool(self._adaptation),
            "shards": {
                name: controller.status()
                for name, controller in sorted(self._adaptation.items())
            },
            "generations": {
                region.name: self.services[region.name].generation
                for region in self.regions
            },
        }

    def describe(self) -> List[dict]:
        """Static per-shard facts for the gateway's ``/shards`` route."""
        return [
            {
                **region.as_dict(),
                "tiers": list(self.services[region.name].tier_names),
                "window_shape": list(self.services[region.name].window_shape),
            }
            for region in self.regions
        ]

    # ------------------------------------------------------------------
    def forecast(self, window, deadline_seconds: Optional[float] = None) -> ShardedResponse:
        """Answer one full-grid window: submit it, wait, return the merge."""
        window = np.asarray(window, dtype=float)
        check_shape(window, self.window_shape, "one raw full-grid window")
        check_counts(window, "window")
        began = self._clock()
        obs_metrics.counter("serve_router_requests_total").inc()
        with tracing.span("serve.route", shards=len(self.regions)) as route_span:
            merged = self._batcher.forecast(window, deadline_seconds=deadline_seconds)
        merged.latency_seconds = self._clock() - began
        merged.trace_id = route_span.context.trace_id if route_span.context else None
        if merged.degraded:
            obs_metrics.counter("serve_router_degraded_total").inc()
        obs_metrics.histogram("serve_router_latency_seconds").observe(merged.latency_seconds)
        return merged

    def predict_batch(self, windows, deadlines, starts, contexts) -> List[ShardedResponse]:
        """The batcher worker's call: stacked full-grid windows, one shard
        after another, merged per request.

        Each shard's :meth:`ForecastService.predict_batch` gets its region's
        slice with the requests' deadlines, submission clock readings
        (``starts``) and ``serve.request`` contexts. A shard that raises is
        floored for the whole batch; a :class:`PartialBatchError` floors
        only the requests whose floor tier broke.
        """
        count = len(windows)
        demands = [np.empty((self.horizon,) + self.grid_shape) for _ in range(count)]
        reports: List[List[ShardReport]] = [[] for _ in range(count)]
        for region in self.regions:
            obs_metrics.counter("serve_shard_requests_total", shard=region.name).inc(count)
            spans = [
                tracing.start_span("serve.shard", parent=context, shard=region.name)
                for context in contexts
            ]
            errors: Dict[int, Exception] = {}
            try:
                answers = self.services[region.name].predict_batch(
                    region.slice_window(windows), deadlines, starts, contexts
                )
            except PartialBatchError as error:
                answers, errors = error.responses, error.errors
            except Exception as error:  # noqa: BLE001 - shard loss degrades
                answers, errors = [None] * count, dict.fromkeys(range(count), error)
            for i, answer in enumerate(answers):
                if i in errors:
                    report = self._floor(
                        region, windows[i], demands[i], errors[i], starts[i], contexts[i]
                    )
                else:
                    region.place(demands[i], answer.demand)
                    report = ShardReport(
                        shard=region.name, tier=answer.tier, degraded=answer.degraded,
                        deadline_missed=answer.deadline_missed, skips=answer.skips,
                        latency_seconds=answer.latency_seconds, generation=answer.generation,
                    )
                spans[i].end(status="error" if report.failed else "ok", tier=report.tier)
                reports[i].append(report)
        now = self._clock()
        return [
            ShardedResponse(
                demand=demand,
                degraded=any(report.degraded for report in shards),
                deadline_missed=any(report.deadline_missed for report in shards),
                latency_seconds=now - start,
                shards=tuple(shards),
                failed_shards=tuple(report.shard for report in shards if report.failed),
            )
            for demand, shards, start in zip(demands, reports, starts)
        ]

    def _floor(self, region, window, demand, error, start, context) -> ShardReport:
        """Fill a failed shard's block of ``demand`` and report the failure.

        The fill repeats the region's last observed target-feature slot
        across the horizon: the persistence shape the shard's own floor tier
        would have produced, with no scaler and no model, so it cannot fail.
        """
        last = region.slice_window(window)[-1, :, :, self.target_feature]
        region.place(demand, np.clip(last, 0.0, None))
        obs_metrics.counter("serve_shard_failures_total", shard=region.name).inc()
        trace_id = context.trace_id if context else None
        tracing.event("serve.shard_failed", parent=context, shard=region.name, error=str(error))
        runlog.emit("serve_shard_failed", shard=region.name, error=str(error), trace_id=trace_id)
        return ShardReport(
            shard=region.name, tier=None, degraded=True, deadline_missed=False,
            latency_seconds=self._clock() - start, skips=(f"{region.name}: failed: {error}",),
            failed=True, error=str(error),
        )

    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = 5.0) -> None:
        self._batcher.close(timeout=timeout)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
def load_shard_services(
    spec: RunSpec,
    regions: Sequence[ShardRegion],
    *,
    num_features: int,
    scaler_states: Mapping[str, dict],
    history: Optional[int] = None,
    horizon: Optional[int] = None,
    target_feature: int = 0,
    checkpoint_paths: Optional[Mapping[str, str]] = None,
    fallbacks: Sequence[str] = DEFAULT_FALLBACKS,
    warm_batch_sizes: Optional[Sequence[int]] = (1,),
) -> Dict[str, ForecastService]:
    """Spec + checkpoints + scaler states → one warmed service per region.

    The serving counterpart of :func:`repro.pipeline.runner.execute`: each
    shard's primary tier is the spec's model with that shard's checkpoint
    weights (:func:`repro.pipeline.loading.load_forecaster`; a shard with
    no ``checkpoint_paths`` entry builds the model fresh), and
    ``fallbacks`` name registered models, cheapest last, appended below it.
    ``scaler_states`` maps every shard name to the persisted state of the
    scaler that shard trained with: serving with other constants than
    training silently skews every answer, so there is no default.
    ``warm_batch_sizes=None`` skips the engine-plan warm-up.
    """
    history = history if history is not None else spec.history
    horizon = horizon if horizon is not None else spec.horizon
    if spec.model in fallbacks:
        raise ValueError(f"fallback {spec.model!r} duplicates the primary tier")
    services: Dict[str, ForecastService] = {}
    for region in regions:
        if region.name not in scaler_states:
            raise ValueError(f"scaler_states is missing shard {region.name!r}")
        primary = load_forecaster(
            spec,
            (checkpoint_paths or {}).get(region.name),
            grid_shape=region.grid_shape,
            num_features=num_features,
            history=history,
            horizon=horizon,
        )
        tiers = [(spec.model, primary)] + [
            (name, registry.create(name, history, horizon, region.grid_shape, num_features))
            for name in fallbacks
        ]
        service = ForecastService(
            tiers,
            MinMaxScaler.from_state(scaler_states[region.name]),
            history=history,
            horizon=horizon,
            grid_shape=region.grid_shape,
            num_features=num_features,
            target_feature=target_feature,
        )
        if warm_batch_sizes:
            service.warm_up(tuple(warm_batch_sizes))
        services[region.name] = service
    return services


def demo_spec(
    model: str = "BikeCAP",
    *,
    history: int = 6,
    horizon: int = 3,
    epochs: int = 0,
    seed: int = 0,
    hparams: Optional[dict] = None,
) -> RunSpec:
    """The spec of a demo pool: ``DEMO_HPARAMS`` updated by ``hparams``."""
    return RunSpec(
        model=model,
        history=history,
        horizon=horizon,
        epochs=epochs,
        seed=seed,
        hparams={**DEMO_HPARAMS.get(model, {}), **(hparams or {})},
    )


def synthetic_router(
    spec: RunSpec,
    *,
    grid=(6, 6),
    num_shards: int = 1,
    features: int = 4,
    slots: int = 80,
    checkpoint_dir: Optional[str] = None,
    max_batch: int = 8,
    max_wait_seconds: float = 0.002,
) -> Tuple[ShardRouter, BikeDemandDataset]:
    """A synthetic city behind a router → ``(router, full-grid dataset)``.

    The demand tensor is drawn from ``spec.seed``. Each region gets its own
    dataset sliced from it, so each shard fits its own scaler on its own
    block, the per-shard state a deployment persists; with
    ``spec.epochs > 0`` each shard also trains its own checkpoint under
    ``checkpoint_dir`` and reloads it exactly as a server would. A
    ``Persistence`` primary gets no floor tier (it would duplicate itself);
    every other primary gets the default persistence floor. The returned
    dataset covers the full grid: its test windows are the raw request
    traffic, and its store the slots a live replay ingests.
    """
    rng = np.random.default_rng(spec.seed)
    tensor = rng.random((slots, int(grid[0]), int(grid[1]), features)) * 20.0
    regions = partition_grid(grid, num_shards)
    states: Dict[str, dict] = {}
    checkpoints: Dict[str, str] = {}
    for region in regions:
        shard = dataset_from_tensor(
            region.slice_tensor(tensor), history=spec.history, horizon=spec.horizon
        )
        states[region.name] = shard.scaler.state()
        if spec.epochs > 0:
            result = execute(
                spec, shard, checkpoint_dir=os.path.join(checkpoint_dir, region.name)
            )
            checkpoints[region.name] = result.checkpoint_path
    services = load_shard_services(
        spec,
        regions,
        num_features=features,
        scaler_states=states,
        checkpoint_paths=checkpoints,
        fallbacks=() if spec.model in DEFAULT_FALLBACKS else DEFAULT_FALLBACKS,
        warm_batch_sizes=(1, max_batch),
    )
    router = ShardRouter(
        regions, services, max_batch=max_batch, max_wait_seconds=max_wait_seconds
    )
    dataset = dataset_from_tensor(tensor, history=spec.history, horizon=spec.horizon)
    return router, dataset


__all__ = [
    "DEFAULT_FALLBACKS",
    "DEMO_HPARAMS",
    "ShardRegion",
    "ShardReport",
    "ShardRouter",
    "ShardedResponse",
    "demo_spec",
    "load_shard_services",
    "partition_grid",
    "synthetic_router",
]
