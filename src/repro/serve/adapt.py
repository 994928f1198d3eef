"""Drift-triggered online adaptation: fine-tune, shadow-validate, hot-swap.

This module closes the loop that the rest of the serving stack leaves
open: :class:`~repro.serve.monitor.DriftMonitor` *detects* that the live
model's error distribution shifted, and :meth:`ForecastService.swap_primary`
can *flip* a new model in atomically — the :class:`AdaptationController`
here is the machinery in between. On a ``drift_detected`` verdict it:

1. **assembles** a fine-tune dataset from the freshest raw windows of the
   shared :class:`~repro.store.WindowStore` (the same store streaming
   ingestion appends to), normalized with a frozen snapshot of the
   serving scaler;
2. **warm-starts** a candidate from the live serving weights via
   :func:`repro.pipeline.loading.warm_start_forecaster` (the candidate's
   parameters are copies — fine-tuning never touches the serving model);
3. **fine-tunes** through :func:`repro.resilience.run_with_recovery`, so a
   diverging fine-tune rolls back and retries under the usual policy
   instead of taking the adaptation down on the first NaN;
4. **shadow-validates**: candidate and the pinned live primary are scored
   identically (predict → denormalize → clip → MAE against realized raw
   demand) on a held-out suffix of recent windows; no improvement → the
   candidate is rejected and the live model keeps serving;
5. **hot-swaps** the candidate in with compare-and-swap against the
   generation pinned at trigger time, so an adaptation that raced another
   swap fails closed (:class:`SwapConflict`) rather than clobbering it.

Every failure mode is typed (:class:`FineTuneDivergence`,
:class:`GateRejected`, :class:`SwapConflict`, :class:`AdaptationError`)
and every outcome leaves the original service answering — the candidate
only becomes visible at the final CAS flip. Triggers are rate-limited by
a cooldown that backs off exponentially on consecutive failures, and a
controller that exhausts ``max_retries`` consecutive failures suspends
itself until :meth:`AdaptationController.reset` (a human or a supervisor
acknowledging the pathology), so a persistently broken fine-tune cannot
spin the serving host.

Observability: ``adaptation_{triggered,swapped,rejected,failed}`` run-log
events, ``serve_adaptations_total{outcome=…}`` counters, gauges for the
serving generation and last shadow-gate improvement, and one trace per
episode: :meth:`~AdaptationController.trigger` opens a ``serve.adapt``
span, the attempt's ``serve.adapt.fine_tune``/``.shadow``/``.swap`` spans
nest under it, it ends when the attempt concludes, and every
``adaptation_*`` event carries its ``trace_id`` (null while tracing is not
recording). :meth:`AdaptationController.status` feeds the gateway's
``GET /adaptation`` endpoint.

Layering: this module reaches training machinery only through two seams —
``repro.pipeline.loading`` / ``repro.pipeline.spec`` and the
``repro.resilience`` package — enforced by ``scripts/check_layering.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

import numpy as np

from repro import faults
from repro.data.datasets import BikeDemandDataset
from repro.data.splits import Split
from repro.nn import engine
from repro.nn.divergence import DivergenceError
from repro.obs import metrics as obs_metrics
from repro.obs import runlog, tracing
from repro.pipeline.loading import warm_start_forecaster
from repro.pipeline.spec import RunSpec
from repro.resilience import RecoveryPolicy, run_with_recovery
from repro.serve.service import ForecastService, GenerationConflict
from repro.store import WindowStore


class AdaptationError(RuntimeError):
    """Base of the adaptation failure taxonomy; ``reason`` is the
    machine-readable tag carried into events, counters and ``status()``."""

    reason = "error"


class FineTuneDivergence(AdaptationError):
    """The fine-tune diverged and exhausted its recovery retries."""

    reason = "fine_tune_divergence"


class GateRejected(AdaptationError):
    """The candidate did not beat the live model on the shadow holdout."""

    reason = "gate_rejected"


class SwapConflict(AdaptationError):
    """The serving generation moved between trigger and swap (CAS lost)."""

    reason = "swap_conflict"


@dataclass(frozen=True)
class ShadowReport:
    """Outcome of scoring candidate vs. live model on the shadow holdout."""

    live_error: float  # live primary's raw-demand MAE on the holdout
    candidate_error: float  # candidate's raw-demand MAE on the same windows
    windows: int  # holdout size
    min_improvement: float  # fractional improvement the gate demanded
    passed: bool

    @property
    def improvement(self) -> float:
        """Fractional error reduction (positive = candidate is better)."""
        if self.live_error <= 0.0:
            return 0.0
        return 1.0 - self.candidate_error / self.live_error

    def as_dict(self) -> dict:
        return {
            "live_error": self.live_error,
            "candidate_error": self.candidate_error,
            "improvement": self.improvement,
            "windows": self.windows,
            "min_improvement": self.min_improvement,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class AdaptationPolicy:
    """Knobs of the fine-tune / gate / rate-limit machinery.

    ``min_improvement`` is the fractional error reduction the shadow gate
    demands; the default ``0.0`` still requires the candidate to be
    *strictly* better (ties and regressions are rejected — swapping in a
    model that is not an improvement only resets latency EWMAs and risks
    churn for nothing).
    """

    epochs: int = 2
    min_windows: int = 8  # refuse to fine-tune on fewer recent windows
    max_windows: int = 256  # freshest windows used (train + holdout)
    holdout_fraction: float = 0.25
    min_holdout: int = 2
    min_improvement: float = 0.0
    cooldown_seconds: float = 60.0
    max_retries: int = 2  # consecutive failures before suspension
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 3600.0
    lr: Optional[float] = None  # fine-tune LR override (None = spec's own)
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.min_windows < 2:
            raise ValueError(f"min_windows must be >= 2, got {self.min_windows}")
        if self.max_windows < self.min_windows:
            raise ValueError(
                f"max_windows ({self.max_windows}) must be >= min_windows "
                f"({self.min_windows})"
            )
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )
        if self.min_holdout < 1:
            raise ValueError(f"min_holdout must be >= 1, got {self.min_holdout}")
        if self.cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {self.cooldown_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    @classmethod
    def from_dict(cls, config: Optional[dict]) -> "AdaptationPolicy":
        """Build from a config mapping; unknown keys are rejected loudly.

        ``recovery`` may itself be a dict, forwarded to
        :meth:`RecoveryPolicy.from_dict`.
        """
        if not config:
            return cls()
        config = dict(config)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(config) - known)
        if unknown:
            raise ValueError(
                f"unknown AdaptationPolicy key(s) {unknown}; known: {sorted(known)}"
            )
        recovery = config.get("recovery")
        if isinstance(recovery, dict):
            config["recovery"] = RecoveryPolicy.from_dict(recovery)
        return cls(**config)


def _trace_id(span) -> Optional[str]:
    """The trace of a span handle; None while tracing is not recording."""
    return span.context.trace_id if span.context is not None else None


class AdaptationController:
    """Drives drift verdicts through fine-tune → shadow gate → hot-swap.

    ``store`` must be the *raw* (``normalize=False``) window store the
    ingestion pipeline appends to, with geometry matching the service;
    ``spec`` is the :class:`RunSpec` that describes the serving model (the
    candidate is rebuilt from it, then warm-started from the live
    weights). With ``background=True`` (the default) each adaptation runs
    on a daemon worker thread so serving and ingestion never block on a
    fine-tune; tests and the bench pass ``background=False`` for
    determinism. Hook the controller into an
    :class:`~repro.serve.ingest.IngestionPipeline` via its ``controller=``
    argument, or call :meth:`trigger` directly.
    """

    def __init__(
        self,
        service: ForecastService,
        store: WindowStore,
        spec: RunSpec,
        *,
        policy: Optional[AdaptationPolicy] = None,
        label: str = "service",
        background: bool = True,
        warm_batch_sizes=(1,),
        clock=time.monotonic,
    ):
        if store.normalize:
            raise ValueError(
                "AdaptationController needs a raw (normalize=False) store: "
                "fine-tune windows are normalized with a frozen snapshot of "
                "the serving scaler, not the store's"
            )
        if (store.history, store.horizon) != (service.history, service.horizon):
            raise ValueError(
                f"store geometry (h={store.history}, p={store.horizon}) does "
                f"not match service (h={service.history}, p={service.horizon})"
            )
        if store.target_feature != service.target_feature:
            raise ValueError(
                f"store target feature ({store.target_feature}) does not "
                f"match service ({service.target_feature})"
            )
        self.service = service
        self.store = store
        self.spec = spec
        self.policy = policy or AdaptationPolicy()
        self.label = label
        self.background = background
        self.warm_batch_sizes = tuple(warm_batch_sizes)
        self._clock = clock
        self._lock = threading.Lock()
        self._busy = False
        self._worker: Optional[threading.Thread] = None
        self._cooldown_until: float = float("-inf")
        self.consecutive_failures = 0
        self.triggered = 0
        self.swapped = 0
        self.rejected = 0
        self.failed = 0
        self.skips: Dict[str, int] = {}
        self.last_outcome: Optional[str] = None
        self.last_reason: Optional[str] = None
        self.last_shadow: Optional[ShadowReport] = None

    # ------------------------------------------------------------------
    # Triggering.
    def observe(self, ready) -> bool:
        """Ingestion hook: trigger on a :class:`ReadyWindow`'s drift verdict."""
        report = getattr(ready, "report", None)
        if report is None or not getattr(report, "drifted", False):
            return False
        return self.trigger(reason=getattr(report, "detector", None) or "drift")

    def trigger(self, reason: str = "manual") -> bool:
        """Start one adaptation attempt unless rate-limited or busy.

        Returns whether an attempt actually started; skips are counted by
        cause (``busy`` / ``cooldown`` / ``suspended``) rather than raising,
        because a drift stream naturally fires while an attempt is already
        running.
        """
        now = self._clock()
        with self._lock:
            if self._busy:
                return self._skip("busy")
            if self.consecutive_failures > self.policy.max_retries:
                return self._skip("suspended")
            if now < self._cooldown_until:
                return self._skip("cooldown")
            self._busy = True
        pinned = self.service.snapshot()
        # The episode's trace: a detached span under the caller's open span,
        # if any, ended by _conclude on whichever thread runs the attempt.
        episode = tracing.start_span(
            "serve.adapt", service=self.label, reason=reason, generation=pinned.number
        )
        self.triggered += 1
        obs_metrics.counter(
            "serve_adaptation_triggers_total", service=self.label
        ).inc()
        runlog.emit(
            "adaptation_triggered",
            service=self.label,
            reason=reason,
            generation=pinned.number,
            windows=self.store.num_windows,
            trace_id=_trace_id(episode),
        )
        if self.background:
            worker = threading.Thread(
                target=self._run,
                args=(pinned, episode),
                name=f"adapt-{self.label}",
                daemon=True,
            )
            self._worker = worker
            worker.start()
        else:
            self._run(pinned, episode)
        return True

    def _skip(self, cause: str) -> bool:
        self.skips[cause] = self.skips.get(cause, 0) + 1
        obs_metrics.counter(
            "serve_adaptation_skipped_total", service=self.label, cause=cause
        ).inc()
        return False

    def wait(self, timeout: Optional[float] = None) -> None:
        """Join the background worker, if one is running."""
        worker = self._worker
        if worker is not None:
            worker.join(timeout)

    def reset(self) -> None:
        """Clear the failure backoff / suspension (operator acknowledgement)."""
        with self._lock:
            self.consecutive_failures = 0
            self._cooldown_until = float("-inf")

    # ------------------------------------------------------------------
    # The attempt itself.
    def _run(self, pinned, episode) -> None:
        outcome, failure, shadow, generation = "swapped", None, None, None
        try:
            with tracing.use_context(episode.context):
                shadow, generation = self._attempt(pinned)
        except GateRejected as error:
            outcome, failure = "rejected", error
            shadow = self.last_shadow
        except AdaptationError as error:
            outcome, failure = "failed", error
        except GenerationConflict as error:
            outcome, failure = "failed", SwapConflict(str(error))
        except faults.SimulatedCrash as error:
            # An injected crash inside the swap critical section: the flip
            # never published, so the pinned generation is still serving.
            outcome, failure = "failed", AdaptationError(str(error))
            failure.reason = "swap_crash"
        except Exception as error:  # noqa: BLE001 - adaptation never kills serving
            outcome, failure = "failed", AdaptationError(str(error))
        finally:
            self._conclude(outcome, failure, shadow, generation, pinned, episode)

    def _conclude(self, outcome, failure, shadow, generation, pinned, episode) -> None:
        reason = failure.reason if failure is not None else None
        trace_id = _trace_id(episode)
        obs_metrics.counter(
            "serve_adaptations_total", service=self.label, outcome=outcome
        ).inc()
        if outcome == "swapped":
            self.swapped += 1
            obs_metrics.gauge(
                "serve_adaptation_generation", service=self.label
            ).set(float(generation))
            obs_metrics.gauge(
                "serve_adaptation_last_improvement", service=self.label
            ).set(shadow.improvement if shadow is not None else 0.0)
            runlog.emit(
                "adaptation_swapped",
                service=self.label,
                generation=generation,
                trace_id=trace_id,
                **(shadow.as_dict() if shadow is not None else {}),
            )
        elif outcome == "rejected":
            self.rejected += 1
            runlog.emit(
                "adaptation_rejected",
                service=self.label,
                generation=pinned.number,
                trace_id=trace_id,
                **(shadow.as_dict() if shadow is not None else {}),
            )
        else:
            self.failed += 1
            obs_metrics.counter(
                "serve_adaptation_failures_total", service=self.label, reason=reason
            ).inc()
            runlog.emit(
                "adaptation_failed",
                service=self.label,
                generation=pinned.number,
                reason=reason,
                error=str(failure),
                trace_id=trace_id,
            )
        episode.end(status="ok" if outcome == "swapped" else "error", outcome=outcome)
        with self._lock:
            self._busy = False
            if outcome == "swapped":
                self.consecutive_failures = 0
            else:
                self.consecutive_failures += 1
            delay = self.policy.cooldown_seconds
            if outcome != "swapped":
                delay *= self.policy.backoff_factor ** (self.consecutive_failures - 1)
            self._cooldown_until = self._clock() + min(
                delay, self.policy.max_backoff_seconds
            )
            self.last_outcome = outcome
            self.last_reason = reason

    def _attempt(self, pinned):
        """One full fine-tune → gate → swap pass against a pinned state."""
        dataset, holdout_x, holdout_y_raw, scaler = self._assemble(pinned)
        candidate = self._fine_tune(pinned, dataset)
        shadow = self._shadow_gate(pinned, candidate, holdout_x, holdout_y_raw, scaler)
        self.last_shadow = shadow
        if not shadow.passed:
            raise GateRejected(
                f"candidate error {shadow.candidate_error:.6g} vs live "
                f"{shadow.live_error:.6g} (improvement "
                f"{shadow.improvement:+.2%}, gate needs "
                f">{shadow.min_improvement:.2%}) on {shadow.windows} windows"
            )
        # Prime the candidate's execution plans *before* it is visible, so
        # the first post-swap batch does not pay plan compilation.
        engine.warmup(
            candidate.predict, self.service.window_shape, self.warm_batch_sizes
        )
        with tracing.span("serve.adapt.swap", generation=pinned.number):
            try:
                generation = self.service.swap_primary(
                    candidate, expected_generation=pinned.number
                )
            except GenerationConflict as error:
                raise SwapConflict(str(error)) from error
        return shadow, generation

    def _assemble(self, pinned):
        """Freshest raw windows → normalized train split + shadow holdout.

        Normalization uses a *frozen snapshot* of the pinned generation's
        scaler: streaming ingestion may ``partial_fit`` the live scaler
        concurrently, and the fine-tune must see one consistent set of
        statistics end to end.
        """
        policy = self.policy
        total = self.store.num_windows
        take = min(policy.max_windows, total)
        if take < policy.min_windows:
            raise AdaptationError(
                f"only {total} recent windows materialized; fine-tune needs "
                f"at least {policy.min_windows}"
            )
        holdout = max(policy.min_holdout, int(round(take * policy.holdout_fraction)))
        if take - holdout < 1:
            raise AdaptationError(
                f"{take} windows leave no training data after a holdout of "
                f"{holdout}"
            )
        scaler = type(pinned.scaler).from_state(pinned.scaler.state())
        x_raw, y_raw = self.store.windows(total - take, total)
        target = self.store.target_feature
        # Mirror the training dataflow exactly: scale, then clip at zero
        # (robust scalers map sub-minimum values negative; demand is not).
        x_norm = np.clip(scaler.transform(np.asarray(x_raw, dtype=float)), 0.0, None)
        y_norm = np.clip(
            scaler.transform(np.asarray(y_raw, dtype=float), feature=target), 0.0, None
        )
        split_at = take - holdout
        dataset = BikeDemandDataset(
            split=Split(
                train_x=x_norm[:split_at],
                train_y=y_norm[:split_at],
                val_x=x_norm[split_at:],
                val_y=y_norm[split_at:],
                test_x=x_norm[:0],
                test_y=y_norm[:0],
            ),
            scaler=scaler,
            grid_shape=self.service.grid_shape,
            history=self.service.history,
            horizon=self.service.horizon,
            target_feature=target,
        )
        return dataset, x_norm[split_at:], np.asarray(y_raw, dtype=float)[split_at:], scaler

    def _fine_tune(self, pinned, dataset):
        """Warm-start a candidate from the pinned weights and fine-tune it."""
        live = pinned.tiers[0].forecaster
        source_model = getattr(live, "model", None)
        if source_model is None:
            raise AdaptationError(
                f"primary tier {pinned.tiers[0].name!r} exposes no .model to "
                "warm-start from"
            )
        candidate = warm_start_forecaster(
            self.spec,
            grid_shape=self.service.grid_shape,
            num_features=self.service.num_features,
            history=self.service.history,
            horizon=self.service.horizon,
            source_model=source_model,
            lr=self.policy.lr,
        )

        def fit_once(resume_point, watchers):
            return candidate.fit(
                dataset,
                epochs=self.policy.epochs,
                verbose=False,
                resume_from=resume_point,
                observers=watchers,
            )

        with tracing.span("serve.adapt.fine_tune", epochs=self.policy.epochs):
            try:
                run_with_recovery(
                    candidate.trainer,
                    fit_once,
                    policy=self.policy.recovery,
                    model_label=f"{self.label}:adapt",
                )
            except DivergenceError as error:
                raise FineTuneDivergence(
                    f"fine-tune diverged beyond recovery: {error}"
                ) from error
        return candidate

    def _shadow_gate(self, pinned, candidate, holdout_x, holdout_y_raw, scaler):
        """Score candidate and live primary identically on the holdout.

        Both models see the same normalized windows; both predictions go
        through the same denormalize-and-clip the service applies, and are
        scored against the *raw* realized demand — so the comparison is in
        the units callers experience, not normalized space.
        """
        target = self.store.target_feature

        def score(forecaster) -> float:
            predicted = np.asarray(forecaster.predict(holdout_x))
            demand = scaler.inverse_transform(predicted, feature=target)
            demand = np.clip(demand, 0.0, None)
            return float(np.mean(np.abs(demand - holdout_y_raw)))

        with tracing.span("serve.adapt.shadow", windows=len(holdout_x)):
            live_error = score(pinned.tiers[0].forecaster)
            candidate_error = score(candidate)
        passed = candidate_error < live_error * (1.0 - self.policy.min_improvement)
        shadow = ShadowReport(
            live_error=live_error,
            candidate_error=candidate_error,
            windows=len(holdout_x),
            min_improvement=self.policy.min_improvement,
            passed=passed,
        )
        obs_metrics.gauge(
            "serve_adaptation_shadow_live_error", service=self.label
        ).set(live_error)
        obs_metrics.gauge(
            "serve_adaptation_shadow_candidate_error", service=self.label
        ).set(candidate_error)
        return shadow

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Snapshot for operators (the gateway's ``GET /adaptation``)."""
        with self._lock:
            busy = self._busy
            cooldown = max(0.0, self._cooldown_until - self._clock())
            suspended = self.consecutive_failures > self.policy.max_retries
        if busy:
            state = "adapting"
        elif suspended:
            state = "suspended"
        elif cooldown > 0:
            state = "cooldown"
        else:
            state = "idle"
        return {
            "service": self.label,
            "state": state,
            "generation": self.service.generation,
            "triggered": self.triggered,
            "swapped": self.swapped,
            "rejected": self.rejected,
            "failed": self.failed,
            "skips": dict(self.skips),
            "consecutive_failures": self.consecutive_failures,
            "cooldown_remaining_seconds": cooldown,
            "last_outcome": self.last_outcome,
            "last_reason": self.last_reason,
            "last_shadow": (
                self.last_shadow.as_dict() if self.last_shadow is not None else None
            ),
        }


__all__ = [
    "AdaptationController",
    "AdaptationError",
    "AdaptationPolicy",
    "FineTuneDivergence",
    "GateRejected",
    "ShadowReport",
    "SwapConflict",
]
