"""The forecast service: normalize → predict → denormalize, with tiers.

:class:`ForecastService` owns a fitted :class:`~repro.data.normalization.
MinMaxScaler` and an ordered chain of *tiers* — named forecasters from most
accurate to cheapest (e.g. ``BikeCAP`` → ``Persistence``). Requests carry
**raw** demand windows ``(h, G1, G2, F)`` in real counts; responses carry
raw multi-step demand ``(p, G1, G2)`` plus the name of the tier that
produced it, so a rebalancing consumer always gets *an* answer and always
knows how much to trust it.

Degradation semantics, per request:

- a tier that **raises** hands the request to the next tier (a batched
  failure is retried per window first, so one poisoned request cannot drag
  its whole micro-batch down a tier);
- a request whose **deadline** has already passed — or is predicted to pass,
  via a per-tier latency EWMA — skips straight past the expensive tiers;
- a tier whose answer lands **after** the deadline is treated as a miss:
  the request falls through to the cheaper tiers (which is what the caller
  would have observed anyway);
- the **final tier is the floor**: it always runs when reached, deadline or
  not, and is expected to be infallible (persistence is a pure numpy
  reshuffle). If the floor itself fails for some requests, the batch raises
  :class:`PartialBatchError` carrying every answer that *was* computed plus
  the per-request floor errors — one poisoned request never voids its
  healthy batch-mates (:meth:`~ForecastService.predict_one` unwraps the
  single underlying error).

Hot-swap semantics (the online-adaptation loop, docs/RESILIENCE.md):

The tier chain and scaler live together in one immutable, generation-
numbered serving state. ``predict_batch`` reads that state exactly once at
entry, so an in-flight batch finishes wholly on the generation it started
on — normalize, predict and denormalize never mix generations — and every
response carries the ``generation`` that answered it. ``swap_primary``
flips in a new primary (and optionally a new scaler) under a lock with
compare-and-swap semantics (``expected_generation`` mismatches raise
:class:`GenerationConflict` and change nothing); ``revert_primary``
restores the previous generation the same way. The swap consults
:func:`repro.faults.crash_hot_swap` inside the critical section *before*
publishing, so an injected crash provably leaves the old generation
serving.

Every answer increments ``serve_requests_total{tier=…}`` and observes
``serve_latency_seconds{tier=…}``; every tier skip increments
``serve_degradations_total{tier=…,reason=…}`` and emits a
``serve_degraded`` run-log event when a run log is open.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.data.normalization import MinMaxScaler
from repro.nn import engine
from repro.obs import metrics as obs_metrics
from repro.obs import runlog, tracing

# Degradation reasons recorded in metrics, run logs and responses.
REASON_ERROR = "error"
REASON_DEADLINE = "deadline"
REASON_PREDICTED_DEADLINE = "predicted_deadline"

# Weight of the newest observation in the per-tier latency EWMA.
_EWMA_ALPHA = 0.3


def check_shape(values: np.ndarray, shape: Tuple[int, ...], what: str) -> None:
    """Raise ``ValueError`` unless ``values`` has exactly ``shape``: the
    serving boundary's shape check, for request windows and ingested slots
    (before the first slot can fix a store's frame shape for good)."""
    if values.shape != tuple(shape):
        raise ValueError(f"expected {what} of shape {tuple(shape)}, got {values.shape}")


def check_counts(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless every value is a finite, non-negative count.

    The one count check the two serving boundaries share: the router
    before it submits a window, ingestion before it appends slots.
    ``json.loads`` yields NaN and infinities, and a negative count folded
    into ``partial_fit`` would widen the scaler's extrema for good.
    """
    if not (np.isfinite(values).all() and (values >= 0).all()):
        raise ValueError(
            f"{what} must hold finite, non-negative counts "
            "(got NaN, inf or a negative value)"
        )


class PartialBatchError(RuntimeError):
    """The floor tier failed for *some* requests of a batch.

    ``responses`` aligns with the request batch and holds every
    :class:`ForecastResponse` that was computed (``None`` at the broken
    indices); ``errors`` maps each broken index to the exception its floor
    attempt raised. Batch callers keep the survivors: the shard router floors
    only the broken requests' blocks, a bare batcher fails only their futures.
    """

    def __init__(self, responses, errors):
        self.responses: List[Optional["ForecastResponse"]] = list(responses)
        self.errors: Dict[int, Exception] = dict(errors)
        broken = ", ".join(str(index) for index in sorted(self.errors))
        first = next(iter(self.errors.values()))
        super().__init__(
            f"floor tier failed for request(s) [{broken}] of a batch of "
            f"{len(self.responses)}: {first}"
        )


class GenerationConflict(RuntimeError):
    """A compare-and-swap hot-swap lost the race: the serving generation
    moved between the caller pinning it and the swap taking the lock."""

    def __init__(self, expected: int, actual: int):
        self.expected = int(expected)
        self.actual = int(actual)
        super().__init__(
            f"serving generation moved: expected {expected}, now {actual}"
        )


@dataclass(frozen=True)
class ServiceTier:
    """One rung of the degradation ladder: a name plus a forecaster."""

    name: str
    forecaster: object  # anything with .predict((N, h, G1, G2, F)) -> (N, p, G1, G2)


@dataclass(frozen=True)
class _Generation:
    """One immutable serving state: everything a batch must see together."""

    number: int
    tiers: Tuple[ServiceTier, ...]
    scaler: MinMaxScaler


@dataclass
class ForecastResponse:
    """One answered request."""

    demand: np.ndarray  # (p, G1, G2) raw demand counts
    tier: str  # which tier answered
    degraded: bool  # True when a tier above `tier` was skipped
    latency_seconds: float
    deadline_missed: bool = False  # answer landed after the deadline
    generation: int = 0  # serving generation that produced this answer
    # Human-readable trail of every tier skipped above the answering one,
    # e.g. ("BikeCAP: error: boom",).
    skips: Tuple[str, ...] = ()


@dataclass
class _PendingRequest:
    """Book-keeping for one request while it walks the tier chain."""

    index: int
    deadline: Optional[float]  # absolute monotonic seconds, None = no deadline
    start: float
    skips: List[str] = field(default_factory=list)
    # Trace position of the request's lifecycle span (MicroBatcher hand-off);
    # per-request tier retries and skip markers parent to it so a degraded
    # request's whole story nests under one span in the trace.
    ctx: Optional[tracing.TraceContext] = None


class ForecastService:
    """Checkpointed model + scaler + fallback chain behind one call."""

    def __init__(
        self,
        tiers: Sequence[Tuple[str, object]],
        scaler: MinMaxScaler,
        *,
        history: int,
        horizon: int,
        grid_shape,
        num_features: int,
        target_feature: int = 0,
        clip_negative: bool = True,
        clock=time.monotonic,
    ):
        if not tiers:
            raise ValueError("ForecastService needs at least one tier")
        if not scaler.fitted:
            raise RuntimeError("ForecastService needs a fitted scaler")
        built = tuple(ServiceTier(name, forecaster) for name, forecaster in tiers)
        names = [tier.name for tier in built]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        self._serving = _Generation(number=0, tiers=built, scaler=scaler)
        self._previous: Optional[_Generation] = None
        self._swap_lock = threading.Lock()
        self.history = int(history)
        self.horizon = int(horizon)
        self.grid_shape = tuple(grid_shape)
        self.num_features = int(num_features)
        self.target_feature = int(target_feature)
        self.clip_negative = clip_negative
        self._clock = clock
        self._latency_ewma: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Serving state: `tiers`/`scaler` delegate to the current generation.
    # The setters exist for pre-serving mutation (the bench wraps the
    # primary with injectors after construction); they republish the state
    # without bumping the generation number — a *swap* is the only thing
    # that advances it.
    @property
    def tiers(self) -> Tuple[ServiceTier, ...]:
        return self._serving.tiers

    @tiers.setter
    def tiers(self, value: Sequence[ServiceTier]) -> None:
        with self._swap_lock:
            current = self._serving
            self._serving = _Generation(
                number=current.number, tiers=tuple(value), scaler=current.scaler
            )

    @property
    def scaler(self) -> MinMaxScaler:
        return self._serving.scaler

    @scaler.setter
    def scaler(self, value: MinMaxScaler) -> None:
        with self._swap_lock:
            current = self._serving
            self._serving = _Generation(
                number=current.number, tiers=current.tiers, scaler=value
            )

    @property
    def generation(self) -> int:
        """The current serving generation number (0 at construction)."""
        return self._serving.number

    def snapshot(self) -> _Generation:
        """The current immutable serving state (generation, tiers, scaler).

        One atomic attribute read — the same pin ``predict_batch`` takes at
        entry. Adaptation callers use it so the generation they later pass
        as ``expected_generation`` and the model/scaler they fine-tuned
        from are guaranteed to be the *same* state.
        """
        return self._serving

    @property
    def previous_generation(self) -> Optional[int]:
        """Generation number a :meth:`revert_primary` would restore."""
        previous = self._previous
        return None if previous is None else previous.number

    def swap_primary(
        self,
        forecaster: object,
        *,
        scaler: Optional[MinMaxScaler] = None,
        expected_generation: Optional[int] = None,
        name: Optional[str] = None,
    ) -> int:
        """Atomically replace the primary tier (and optionally the scaler).

        The flip is lock-scoped compare-and-swap: with
        ``expected_generation`` set, a generation that moved since the
        caller pinned it raises :class:`GenerationConflict` and changes
        nothing. In-flight batches keep the state they snapshotted at
        entry; batches entering after the flip see only the new state. The
        displaced generation is retained for :meth:`revert_primary`.
        Returns the new generation number.
        """
        with self._swap_lock:
            current = self._serving
            if expected_generation is not None and expected_generation != current.number:
                obs_metrics.counter(
                    "serve_generation_swaps_total", kind="conflict"
                ).inc()
                raise GenerationConflict(expected_generation, current.number)
            # The injected crash fires *inside* the critical section but
            # before anything is published — the worst real moment.
            faults.crash_hot_swap(current.tiers[0].name)
            new_scaler = scaler if scaler is not None else current.scaler
            if not new_scaler.fitted:
                raise RuntimeError("swap_primary needs a fitted scaler")
            primary = ServiceTier(
                name if name is not None else current.tiers[0].name, forecaster
            )
            tiers = (primary,) + current.tiers[1:]
            names = [tier.name for tier in tiers]
            if len(set(names)) != len(names):
                raise ValueError(f"tier names must be unique, got {names}")
            self._previous = current
            self._serving = _Generation(
                number=current.number + 1, tiers=tiers, scaler=new_scaler
            )
            obs_metrics.counter("serve_generation_swaps_total", kind="swap").inc()
            tracing.event(
                "serve.swap", generation=self._serving.number, primary=primary.name
            )
            return self._serving.number

    def revert_primary(self, expected_generation: Optional[int] = None) -> int:
        """Restore the generation displaced by the last swap.

        Same lock + compare-and-swap discipline as :meth:`swap_primary`;
        the revert itself advances the generation number (state history is
        linear, never reused), and the reverted-away state becomes the new
        ``.prev`` so a revert can itself be reverted. Returns the new
        generation number.
        """
        with self._swap_lock:
            current = self._serving
            if expected_generation is not None and expected_generation != current.number:
                obs_metrics.counter(
                    "serve_generation_swaps_total", kind="conflict"
                ).inc()
                raise GenerationConflict(expected_generation, current.number)
            previous = self._previous
            if previous is None:
                raise RuntimeError("no previous generation to revert to")
            faults.crash_hot_swap(current.tiers[0].name)
            self._previous = current
            self._serving = _Generation(
                number=current.number + 1, tiers=previous.tiers, scaler=previous.scaler
            )
            obs_metrics.counter("serve_generation_swaps_total", kind="revert").inc()
            tracing.event(
                "serve.swap",
                generation=self._serving.number,
                primary=previous.tiers[0].name,
                reverted_from=current.number,
            )
            return self._serving.number

    @property
    def tier_names(self) -> Tuple[str, ...]:
        return tuple(tier.name for tier in self.tiers)

    @property
    def window_shape(self) -> Tuple[int, ...]:
        """Shape of one raw request window: ``(h, G1, G2, F)``."""
        return (self.history,) + self.grid_shape + (self.num_features,)

    def estimated_latency(self, tier: str) -> Optional[float]:
        """Per-window EWMA latency of a tier, None before its first answer."""
        return self._latency_ewma.get(tier)

    def warm_up(self, batch_sizes: Sequence[int] = (1,)) -> int:
        """Prime every tier's execution plans for the given batch sizes.

        Engine plans are keyed by full shape signatures (see
        :func:`repro.nn.engine.warmup`), so serving both single windows and
        coalesced micro-batches means warming both shapes — otherwise the
        first request at each size pays plan compilation.
        """
        calls = 0
        for tier in self.tiers:
            calls += engine.warmup(
                tier.forecaster.predict, self.window_shape, tuple(batch_sizes)
            )
        return calls

    # ------------------------------------------------------------------
    def predict_one(
        self, window: np.ndarray, deadline_seconds: Optional[float] = None
    ) -> ForecastResponse:
        """Answer a single raw window; sugar over :meth:`predict_batch`."""
        window = np.asarray(window, dtype=float)
        check_shape(window, self.window_shape, "one raw window")
        deadline = None
        if deadline_seconds is not None:
            deadline = self._clock() + float(deadline_seconds)
        try:
            return self.predict_batch(window[None], deadlines=[deadline])[0]
        except PartialBatchError as error:
            # A batch of one has exactly one underlying floor failure; the
            # wrapper adds nothing for a single-window caller.
            raise error.errors[0]

    def predict_batch(
        self,
        windows: np.ndarray,
        deadlines: Optional[Sequence[Optional[float]]] = None,
        starts: Optional[Sequence[float]] = None,
        contexts: Optional[Sequence[Optional[tracing.TraceContext]]] = None,
    ) -> List[ForecastResponse]:
        """Answer a batch of raw windows in one coalesced pass.

        ``deadlines`` are absolute monotonic timestamps (``None`` entries
        mean unbounded); ``starts`` are the monotonic enqueue times used for
        latency accounting (defaulting to "now" for direct callers);
        ``contexts`` are optional per-request trace positions (the
        MicroBatcher passes its request-lifecycle spans) that per-request
        trace records parent to. The whole batch goes through the primary
        tier in **one** forward pass; only requests the primary fails (or
        whose deadline rules it out) walk down the chain.
        """
        windows = np.asarray(windows, dtype=float)
        check_shape(windows, windows.shape[:1] + self.window_shape, "raw windows")
        now = self._clock()
        count = len(windows)
        if deadlines is None:
            deadlines = [None] * count
        if starts is None:
            starts = [now] * count
        if contexts is None:
            contexts = [None] * count
        if len(deadlines) != count or len(starts) != count or len(contexts) != count:
            raise ValueError("windows, deadlines, starts and contexts must align")

        obs_metrics.counter("serve_batches_total").inc()
        obs_metrics.histogram("serve_batch_size").observe(count)

        # One atomic read: the whole batch — normalize, tier walk,
        # denormalize — runs against this generation even if a hot-swap
        # publishes a new one mid-flight.
        serving = self._serving
        normalized = np.clip(serving.scaler.transform(windows), 0.0, None)
        pending = [
            _PendingRequest(
                index=i, deadline=deadlines[i], start=starts[i], ctx=contexts[i]
            )
            for i in range(count)
        ]
        responses: List[Optional[ForecastResponse]] = [None] * count

        floor_failures: List[Tuple[_PendingRequest, Exception]] = []
        with tracing.span("serve.batch", batch=count, generation=serving.number):
            for position, tier in enumerate(serving.tiers):
                if not pending:
                    break
                is_floor = position == len(serving.tiers) - 1
                if is_floor:
                    attempt, pending = pending, []
                else:
                    attempt, pending = self._partition_by_deadline(tier, pending)
                if not attempt:
                    continue
                answered, failed = self._attempt_tier(
                    tier, normalized, attempt, demote_late=not is_floor
                )
                for request, prediction in answered:
                    responses[request.index] = self._finish(
                        tier, request, prediction, degraded=position > 0,
                        serving=serving,
                    )
                if failed and is_floor:
                    # Nothing left to degrade to for *these* requests — but
                    # their batch-mates already have answers. Surface the
                    # per-request floor errors together after the loop so
                    # one poisoned request cannot void the whole batch.
                    floor_failures = failed
                    break
                pending.extend(request for request, _error in failed)
                pending.sort(key=lambda request: request.index)

        if floor_failures:
            raise PartialBatchError(
                responses,
                {request.index: error for request, error in floor_failures},
            )
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _partition_by_deadline(self, tier, pending):
        """Split requests into (attempt this tier, skip to a cheaper one).

        The tier runs its attempt set as **one** batched forward, so the
        predicted completion time for every attempted request is
        ``now + per_window_estimate × len(attempt)`` — not ``now +
        per_window_estimate``. Deadline-carrying requests are dropped
        tightest-deadline first: each drop shrinks the batch, which can pull
        the predicted finish back under the remaining deadlines and save
        the rest from a doomed attempt.
        """
        now = self._clock()
        estimate = self._latency_ewma.get(tier.name)
        attempt, skipped, bounded = [], [], []
        for request in pending:
            if request.deadline is not None and now > request.deadline:
                self._record_skip(tier, request, REASON_DEADLINE)
                skipped.append(request)
            elif request.deadline is None or estimate is None:
                attempt.append(request)
            else:
                bounded.append(request)
        if bounded:
            bounded.sort(key=lambda request: request.deadline)
            while bounded:
                finish = now + estimate * (len(attempt) + len(bounded))
                if finish <= bounded[0].deadline:
                    break
                request = bounded.pop(0)
                self._record_skip(tier, request, REASON_PREDICTED_DEADLINE)
                skipped.append(request)
            attempt.extend(bounded)
            attempt.sort(key=lambda request: request.index)
        return attempt, skipped

    def _attempt_tier(self, tier, normalized, requests, demote_late: bool = True):
        """Run one tier over its requests; batched first, per-window on failure.

        Returns ``(answered, failed)`` where ``answered`` holds
        ``(request, normalized_prediction)`` pairs and ``failed`` holds
        ``(request, exception)`` pairs. With ``demote_late`` (every tier but
        the floor) a post-run deadline check moves late answers to the
        failed list (reason ``deadline``) so they fall through to a cheaper
        tier; the floor keeps its answer and just flags the miss.
        """
        batch = normalized[[request.index for request in requests]]
        began = self._clock()
        # Windows actually pushed through the forecaster: the batched
        # attempt counts len(requests); each per-window retry adds one more.
        # The EWMA divides elapsed by this, so a retry storm (batched
        # failure + N singles) reads as ~2× per-window cost instead of being
        # folded into the batched estimate unweighted.
        executed_windows = len(requests)
        try:
            with tracing.span("serve.tier", tier=tier.name, batch=len(requests)):
                predictions = np.asarray(tier.forecaster.predict(batch))
            outcomes = [(request, predictions[i]) for i, request in enumerate(requests)]
            errors = []
        except Exception:
            # One bad window must not degrade the whole micro-batch: retry
            # each request alone so only the ones that actually fail fall
            # through to the next tier.
            outcomes, errors = [], []
            for request in requests:
                executed_windows += 1
                try:
                    with tracing.span(
                        "serve.tier.retry", parent=request.ctx, tier=tier.name
                    ):
                        single = np.asarray(
                            tier.forecaster.predict(normalized[request.index][None])
                        )
                    outcomes.append((request, single[0]))
                except Exception as error:  # noqa: BLE001 - tier errors degrade
                    self._record_skip(tier, request, REASON_ERROR, error=error)
                    errors.append((request, error))
        elapsed = self._clock() - began
        if executed_windows:
            self._update_ewma(tier.name, elapsed / executed_windows)

        answered, failed = [], list(errors)
        now = self._clock()
        for request, prediction in outcomes:
            if demote_late and request.deadline is not None and now > request.deadline:
                overrun = now - request.deadline
                error = TimeoutError(
                    f"{tier.name} answered {overrun * 1e3:.1f}ms past the deadline"
                )
                self._record_skip(tier, request, REASON_DEADLINE, error=error)
                failed.append((request, error))
            else:
                answered.append((request, prediction))
        return answered, failed

    def _finish(self, tier, request, normalized_prediction, degraded: bool, serving):
        demand = serving.scaler.inverse_transform(
            normalized_prediction, feature=self.target_feature
        )
        if self.clip_negative:
            demand = np.clip(demand, 0.0, None)
        now = self._clock()
        latency = now - request.start
        missed = request.deadline is not None and now > request.deadline
        obs_metrics.counter("serve_requests_total", tier=tier.name).inc()
        obs_metrics.histogram("serve_latency_seconds", tier=tier.name).observe(latency)
        return ForecastResponse(
            demand=demand,
            tier=tier.name,
            degraded=degraded,
            latency_seconds=latency,
            deadline_missed=missed,
            generation=serving.number,
            skips=tuple(request.skips),
        )

    def _record_skip(self, tier, request, reason: str, error: Optional[Exception] = None):
        detail = f"{tier.name}: {reason}" if error is None else f"{tier.name}: {reason}: {error}"
        request.skips.append(detail)
        obs_metrics.counter(
            "serve_degradations_total", tier=tier.name, reason=reason
        ).inc()
        tracing.event("serve.skip", parent=request.ctx, tier=tier.name, reason=reason)
        runlog.emit(
            "serve_degraded",
            tier=tier.name,
            reason=reason,
            detail=detail,
            trace_id=request.ctx.trace_id if request.ctx else None,
        )

    def _update_ewma(self, tier_name: str, per_window_seconds: float) -> None:
        previous = self._latency_ewma.get(tier_name)
        if previous is None:
            self._latency_ewma[tier_name] = per_window_seconds
        else:
            self._latency_ewma[tier_name] = (
                _EWMA_ALPHA * per_window_seconds + (1.0 - _EWMA_ALPHA) * previous
            )


__all__ = [
    "ForecastResponse",
    "ForecastService",
    "GenerationConflict",
    "PartialBatchError",
    "REASON_DEADLINE",
    "REASON_ERROR",
    "REASON_PREDICTED_DEADLINE",
    "ServiceTier",
    "check_counts",
]
