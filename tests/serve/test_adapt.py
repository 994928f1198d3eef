"""AdaptationController: trigger gating, shadow gate, hot-swap atomicity,
chaos (crash mid-fine-tune / mid-swap), and generation purity under load.

The fine-tune itself is stubbed here (``warm_start_forecaster`` is patched
to hand back a controllable candidate) so every orchestration path — gate
pass/reject, CAS conflict, cooldown/backoff/suspension, injected crashes —
runs in milliseconds and deterministically. The *real* model end to end
(drift replay → warm-started BikeCAP fine-tune → measured recovery) is
pinned by the ``--adapt`` serve-bench smokes in tests/test_bench_smoke.py.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults
from repro.nn.divergence import DivergenceError
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.runlog import RunLogger, read_events
from repro.pipeline.spec import RunSpec
from repro.resilience import RecoveryPolicy
from repro.serve import (
    AdaptationController,
    AdaptationPolicy,
    ForecastService,
    MicroBatcher,
)
from repro.serve import adapt as adapt_module
from repro.store import WindowStore

from .conftest import ConstantForecaster, FakeClock

SPEC = RunSpec(model="BikeCAP", history=5, horizon=2, epochs=1)


class ModelForecaster(ConstantForecaster):
    """A constant tier that also exposes ``.model`` to warm-start from."""

    def __init__(self, horizon, value):
        super().__init__(horizon, value)
        self.model = object()


class StubCandidate(ConstantForecaster):
    """What the patched ``warm_start_forecaster`` hands the controller.

    ``fit_hook`` runs inside ``fit`` — mid-fine-tune, before the shadow
    gate — so tests can block there, race another swap in, or raise.
    """

    def __init__(self, horizon, value, fit_hook=None):
        super().__init__(horizon, value)
        self.trainer = SimpleNamespace(
            model=object(),
            last_checkpoint=None,
            optimizer=SimpleNamespace(lr=1e-3),
        )
        self.model = self.trainer.model  # a swapped-in candidate can itself seed the next warm start
        self.fit_hook = fit_hook
        self.fitted = 0

    def fit(self, dataset, epochs=1, verbose=False, resume_from=None, observers=()):
        self.fitted += 1
        if self.fit_hook is not None:
            self.fit_hook()
        return self


def _service(ds, value=0.9):
    """A service whose primary is deliberately *bad* (constant 0.9): a
    candidate answering 0.5 — near the uniform data's normalized mean — is
    measurably better, so the shadow gate's verdict is controllable.

    The scaler is a private copy: tests mutate it (``partial_fit``) and the
    ``serve_dataset`` fixture is session-scoped."""
    return ForecastService(
        [("Primary", ModelForecaster(ds.horizon, value)),
         ("Floor", ConstantForecaster(ds.horizon, 0.1))],
        type(ds.scaler).from_state(ds.scaler.state()),
        history=ds.history,
        horizon=ds.horizon,
        grid_shape=ds.grid_shape,
        num_features=ds.num_features,
        target_feature=ds.target_feature,
    )


def _store(ds, slots=30):
    store = WindowStore(
        ds.history,
        ds.horizon,
        target_feature=ds.target_feature,
        normalize=False,
    )
    store.extend(ds.store.raw_slots(0, slots))
    return store


def _controller(ds, monkeypatch, *, candidate_value=0.5, fit_hook=None, **kwargs):
    service = kwargs.pop("service", None) or _service(ds)
    store = kwargs.pop("store", None) or _store(ds)
    candidates = []

    def fake_warm_start(spec, *, source_model, lr=None, **geometry):
        assert source_model is service.snapshot().tiers[0].forecaster.model
        candidate = StubCandidate(ds.horizon, candidate_value, fit_hook=fit_hook)
        candidates.append(candidate)
        return candidate

    monkeypatch.setattr(adapt_module, "warm_start_forecaster", fake_warm_start)
    kwargs.setdefault("background", False)
    kwargs.setdefault("policy", AdaptationPolicy(epochs=1, cooldown_seconds=0.0))
    controller = AdaptationController(service, store, SPEC, **kwargs)
    controller._test_candidates = candidates
    return controller


class TestPolicy:
    def test_from_dict_round_trip_and_recovery_forwarding(self):
        policy = AdaptationPolicy.from_dict(
            {"epochs": 3, "min_improvement": 0.05, "recovery": {"max_retries": 1}}
        )
        assert policy.epochs == 3
        assert policy.min_improvement == 0.05
        assert isinstance(policy.recovery, RecoveryPolicy)
        assert policy.recovery.max_retries == 1

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown AdaptationPolicy key"):
            AdaptationPolicy.from_dict({"epoch": 3})

    @pytest.mark.parametrize(
        "bad",
        [
            {"epochs": -1},
            {"min_windows": 1},
            {"max_windows": 4, "min_windows": 8},
            {"holdout_fraction": 1.0},
            {"min_holdout": 0},
            {"cooldown_seconds": -1.0},
            {"max_retries": -1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_invalid_knobs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            AdaptationPolicy(**bad)


class TestConstruction:
    def test_normalized_store_is_rejected(self, serve_dataset):
        store = WindowStore(serve_dataset.history, serve_dataset.horizon, normalize=True)
        with pytest.raises(ValueError, match="raw"):
            AdaptationController(_service(serve_dataset), store, SPEC)

    def test_geometry_mismatch_is_rejected(self, serve_dataset):
        store = WindowStore(
            serve_dataset.history + 1, serve_dataset.horizon, normalize=False
        )
        with pytest.raises(ValueError, match="geometry"):
            AdaptationController(_service(serve_dataset), store, SPEC)

    def test_target_feature_mismatch_is_rejected(self, serve_dataset):
        store = WindowStore(
            serve_dataset.history,
            serve_dataset.horizon,
            target_feature=1,
            normalize=False,
        )
        with pytest.raises(ValueError, match="target feature"):
            AdaptationController(_service(serve_dataset), store, SPEC)


class TestHappyPath:
    def test_winning_candidate_is_swapped_in(self, serve_dataset, tmp_path, monkeypatch):
        controller = _controller(serve_dataset, monkeypatch, label="adapt-happy")
        service = controller.service
        logger = RunLogger(str(tmp_path / "adapt.jsonl"), seed=0).open()
        try:
            assert controller.trigger(reason="test-drift") is True
        finally:
            logger.close()

        assert controller.triggered == 1
        assert controller.swapped == 1
        assert controller.failed == controller.rejected == 0
        assert controller.last_outcome == "swapped"
        assert controller.last_reason is None
        assert service.generation == 1
        # The candidate now answers: its constant, not the old primary's.
        (candidate,) = controller._test_candidates
        assert candidate.fitted == 1
        assert service.tiers[0].forecaster is candidate

        shadow = controller.last_shadow
        assert shadow.passed
        assert shadow.candidate_error < shadow.live_error
        assert shadow.improvement > 0

        events = read_events(logger.path)
        kinds = [e["event"] for e in events]
        assert kinds.count("adaptation_triggered") == 1
        assert kinds.count("adaptation_swapped") == 1
        (swapped,) = [e for e in events if e["event"] == "adaptation_swapped"]
        assert swapped["generation"] == 1
        assert swapped["improvement"] == pytest.approx(shadow.improvement)
        counter = obs_metrics.counter(
            "serve_adaptations_total", service="adapt-happy", outcome="swapped"
        )
        assert counter.value == 1.0

    def test_fine_tune_sees_frozen_scaler_snapshot(self, serve_dataset, monkeypatch):
        """Concurrent ``partial_fit`` on the live scaler must not leak into
        an in-flight fine-tune: the dataset is normalized with a snapshot."""
        seen = {}

        controller = _controller(
            serve_dataset,
            monkeypatch,
            fit_hook=lambda: seen.update(live=np.array(service.scaler.maximum)),
        )
        service = controller.service
        original_max = np.array(service.scaler.maximum)
        assemble = controller._assemble

        def spying_assemble(pinned):
            dataset, holdout_x, holdout_y, scaler = assemble(pinned)
            seen["snapshot"] = scaler
            # The regime gets hotter *after* assembly, mid-fine-tune.
            service.scaler.partial_fit(
                np.full((1,) + service.grid_shape + (service.num_features,), 1e4)
            )
            return dataset, holdout_x, holdout_y, scaler

        monkeypatch.setattr(controller, "_assemble", spying_assemble)
        assert controller.trigger() is True
        assert controller.last_outcome == "swapped"
        assert seen["snapshot"] is not service.scaler
        # The snapshot kept the statistics from trigger time even though
        # the live scaler moved mid-attempt.
        assert np.array_equal(seen["snapshot"].maximum, original_max)
        assert service.scaler.maximum.max() == 1e4

    def test_observe_triggers_only_on_drift_verdicts(self, serve_dataset, monkeypatch):
        controller = _controller(serve_dataset, monkeypatch)
        quiet = SimpleNamespace(report=SimpleNamespace(drifted=False, detector="ewma"))
        unscored = SimpleNamespace(report=None)
        assert controller.observe(quiet) is False
        assert controller.observe(unscored) is False
        assert controller.triggered == 0
        drifted = SimpleNamespace(report=SimpleNamespace(drifted=True, detector="ewma"))
        assert controller.observe(drifted) is True
        assert controller.triggered == 1
        assert controller.last_outcome == "swapped"


def _crash():
    raise RuntimeError("fine-tune crashed")


class TestEpisodeTrace:
    """One trace per adaptation episode: the trigger opens ``serve.adapt``,
    the attempt's spans nest under it, and every ``adaptation_*`` event
    names its trace."""

    @pytest.mark.parametrize(
        "candidate_value, fit_hook, outcome, children",
        [
            (0.5, None, "swapped", ["fine_tune", "shadow", "swap"]),
            (0.9, None, "rejected", ["fine_tune", "shadow"]),
            (0.5, _crash, "failed", ["fine_tune"]),
        ],
        ids=["swapped", "rejected", "failed"],
    )
    def test_events_and_spans_share_one_trace(
        self, serve_dataset, tmp_path, monkeypatch, candidate_value, fit_hook, outcome, children
    ):
        controller = _controller(
            serve_dataset,
            monkeypatch,
            candidate_value=candidate_value,
            fit_hook=fit_hook,
            label=f"adapt-trace-{outcome}",
        )
        with RunLogger(str(tmp_path / "adapt.jsonl")) as logger:
            tracing.start_recording()
            try:
                assert controller.trigger(reason="test-drift") is True
                records = tracing.recent()
            finally:
                tracing.stop_recording()
                tracing.reset()
        assert controller.last_outcome == outcome
        events = [e for e in read_events(logger.path) if e["event"].startswith("adaptation_")]
        assert [e["event"] for e in events] == ["adaptation_triggered", f"adaptation_{outcome}"]
        (trace_id,) = {e["trace_id"] for e in events}
        assert trace_id is not None
        in_trace = [r for r in records if r["trace_id"] == trace_id]
        (episode,) = [r for r in in_trace if r["name"] == "serve.adapt"]
        assert episode["parent_id"] is None
        assert episode["attributes"]["outcome"] == outcome
        nested = sorted(
            r["name"] for r in in_trace if r["parent_id"] == episode["span_id"]
        )
        assert nested == sorted(f"serve.adapt.{name}" for name in children)

    def test_events_carry_no_trace_id_while_not_recording(
        self, serve_dataset, tmp_path, monkeypatch
    ):
        controller = _controller(serve_dataset, monkeypatch, label="adapt-untraced")
        with RunLogger(str(tmp_path / "adapt.jsonl")) as logger:
            assert controller.trigger() is True
        events = [e for e in read_events(logger.path) if e["event"].startswith("adaptation_")]
        assert [e["event"] for e in events] == ["adaptation_triggered", "adaptation_swapped"]
        assert [e["trace_id"] for e in events] == [None, None]


class TestGateRejection:
    def test_tied_candidate_is_rejected_and_live_model_keeps_answering(
        self, serve_dataset, raw_windows, tmp_path, monkeypatch
    ):
        # Candidate predicts the exact same constant as the live primary:
        # identical shadow error, and the gate demands *strict* improvement.
        controller = _controller(
            serve_dataset, monkeypatch, candidate_value=0.9, label="adapt-reject"
        )
        service = controller.service
        before = service.predict_one(raw_windows[0])

        logger = RunLogger(str(tmp_path / "reject.jsonl"), seed=0).open()
        try:
            assert controller.trigger() is True
        finally:
            logger.close()

        assert controller.rejected == 1
        assert controller.swapped == 0
        assert controller.last_outcome == "rejected"
        assert controller.last_reason == "gate_rejected"
        assert not controller.last_shadow.passed
        assert controller.last_shadow.candidate_error == pytest.approx(
            controller.last_shadow.live_error
        )
        # Nothing swapped: same generation, bit-identical answers.
        assert service.generation == 0
        after = service.predict_one(raw_windows[0])
        np.testing.assert_array_equal(after.demand, before.demand)
        events = [
            e for e in read_events(logger.path) if e["event"] == "adaptation_rejected"
        ]
        assert len(events) == 1
        assert events[0]["passed"] is False

    def test_min_improvement_raises_the_bar(self, serve_dataset, monkeypatch):
        # Candidate IS better, but not by the demanded 90%.
        controller = _controller(
            serve_dataset,
            monkeypatch,
            candidate_value=0.5,
            policy=AdaptationPolicy(epochs=1, min_improvement=0.9),
        )
        assert controller.trigger() is True
        assert controller.last_outcome == "rejected"
        assert controller.last_shadow.improvement > 0  # better...
        assert not controller.last_shadow.passed  # ...but not 90% better


class TestFailureIsolation:
    def test_insufficient_windows_fails_without_touching_serving(
        self, serve_dataset, raw_windows, monkeypatch
    ):
        store = _store(serve_dataset, slots=serve_dataset.history + serve_dataset.horizon + 2)
        controller = _controller(
            serve_dataset, monkeypatch, store=store, label="adapt-thin"
        )
        service = controller.service
        before = service.predict_one(raw_windows[0])
        assert controller.trigger() is True
        assert controller.failed == 1
        assert controller.last_outcome == "failed"
        assert controller.last_reason == "error"
        assert service.generation == 0
        np.testing.assert_array_equal(
            service.predict_one(raw_windows[0]).demand, before.demand
        )
        counter = obs_metrics.counter(
            "serve_adaptation_failures_total", service="adapt-thin", reason="error"
        )
        assert counter.value == 1.0

    def test_divergent_fine_tune_fails_typed_and_original_answers(
        self, serve_dataset, raw_windows, tmp_path, monkeypatch
    ):
        def diverge():
            raise DivergenceError("non_finite_loss", step=1, epoch=1)

        controller = _controller(
            serve_dataset, monkeypatch, fit_hook=diverge, label="adapt-diverge"
        )
        service = controller.service
        before = service.predict_one(raw_windows[0])
        logger = RunLogger(str(tmp_path / "diverge.jsonl"), seed=0).open()
        try:
            assert controller.trigger() is True
        finally:
            logger.close()
        assert controller.failed == 1
        assert controller.last_reason == "fine_tune_divergence"
        assert service.generation == 0
        np.testing.assert_array_equal(
            service.predict_one(raw_windows[0]).demand, before.demand
        )
        events = [
            e for e in read_events(logger.path) if e["event"] == "adaptation_failed"
        ]
        assert len(events) == 1
        assert events[0]["reason"] == "fine_tune_divergence"

    def test_crash_inside_swap_leaves_pinned_generation_serving(
        self, serve_dataset, raw_windows, monkeypatch
    ):
        controller = _controller(serve_dataset, monkeypatch, label="adapt-crash")
        service = controller.service
        before = service.predict_one(raw_windows[0])
        plan = faults.FaultPlan(crash_swap_at=1)
        with faults.active(plan):
            assert controller.trigger() is True
        assert plan.fired["swap_crash"] == 1
        assert controller.failed == 1
        assert controller.last_reason == "swap_crash"
        # The crash fired inside the critical section, before publication:
        # generation unchanged, answers bit-identical to pre-trigger.
        assert service.generation == 0
        np.testing.assert_array_equal(
            service.predict_one(raw_windows[0]).demand, before.demand
        )

    def test_concurrent_swap_loses_the_cas_race(self, serve_dataset, monkeypatch):
        service = _service(serve_dataset)

        def racing_swap():
            # Another actor flips the primary mid-fine-tune: the pinned
            # generation is stale by the time the controller swaps.
            service.swap_primary(ConstantForecaster(serve_dataset.horizon, 0.3))

        controller = _controller(
            serve_dataset,
            monkeypatch,
            fit_hook=racing_swap,
            service=service,
            label="adapt-cas",
        )
        assert controller.trigger() is True
        assert controller.failed == 1
        assert controller.last_reason == "swap_conflict"
        # The racing swap won and stays; the controller's candidate never
        # published on top of it.
        assert service.generation == 1
        assert service.tiers[0].forecaster.value == 0.3


class TestRateLimiting:
    def test_cooldown_skips_until_clock_advances(self, serve_dataset, monkeypatch):
        clock = FakeClock()
        controller = _controller(
            serve_dataset,
            monkeypatch,
            policy=AdaptationPolicy(epochs=1, cooldown_seconds=60.0),
            clock=clock,
        )
        assert controller.trigger() is True
        assert controller.last_outcome == "swapped"
        assert controller.trigger() is False
        assert controller.skips == {"cooldown": 1}
        assert controller.status()["state"] == "cooldown"
        clock.advance(61.0)
        assert controller.status()["state"] == "idle"
        assert controller.trigger() is True
        assert controller.triggered == 2

    def test_failures_back_off_exponentially(self, serve_dataset, monkeypatch):
        clock = FakeClock()
        # A starved store makes every attempt fail deterministically.
        store = _store(serve_dataset, slots=serve_dataset.history + serve_dataset.horizon + 2)
        controller = _controller(
            serve_dataset,
            monkeypatch,
            store=store,
            policy=AdaptationPolicy(
                epochs=1, cooldown_seconds=10.0, backoff_factor=2.0, max_retries=5
            ),
            clock=clock,
        )
        delays = []
        for _ in range(3):
            assert controller.trigger() is True
            delays.append(controller.status()["cooldown_remaining_seconds"])
            clock.advance(delays[-1] + 0.001)
        assert delays == [pytest.approx(10.0), pytest.approx(20.0), pytest.approx(40.0)]

    def test_retry_exhaustion_suspends_until_reset(self, serve_dataset, monkeypatch):
        clock = FakeClock()
        store = _store(serve_dataset, slots=serve_dataset.history + serve_dataset.horizon + 2)
        controller = _controller(
            serve_dataset,
            monkeypatch,
            store=store,
            policy=AdaptationPolicy(epochs=1, cooldown_seconds=0.0, max_retries=1),
            clock=clock,
        )
        for _ in range(2):  # max_retries=1 → two failures exhaust it
            assert controller.trigger() is True
            clock.advance(1.0)
        assert controller.consecutive_failures == 2
        assert controller.status()["state"] == "suspended"
        assert controller.trigger() is False
        assert controller.skips["suspended"] == 1
        controller.reset()
        assert controller.status()["state"] == "idle"
        assert controller.trigger() is True

    def test_background_attempt_reports_busy(self, serve_dataset, monkeypatch):
        gate = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            assert gate.wait(timeout=10.0)

        controller = _controller(
            serve_dataset,
            monkeypatch,
            fit_hook=block,
            background=True,
            policy=AdaptationPolicy(epochs=1, cooldown_seconds=0.0),
        )
        assert controller.trigger() is True
        assert started.wait(timeout=10.0)
        assert controller.status()["state"] == "adapting"
        assert controller.trigger() is False  # one adaptation at a time
        assert controller.skips == {"busy": 1}
        gate.set()
        controller.wait(timeout=10.0)
        assert controller.last_outcome == "swapped"
        assert controller.service.generation == 1


class TestGenerationPurityUnderLoad:
    def test_every_response_is_bit_identical_to_exactly_one_generation(
        self, serve_dataset, raw_windows
    ):
        """Micro-batched requests racing repeated hot-swaps and reverts:
        each answer must match — bitwise — the direct answer of the single
        generation it claims, never a blend of two."""
        ds = serve_dataset
        values = [0.2, 0.4, 0.6, 0.8]
        service = ForecastService(
            [("Primary", ConstantForecaster(ds.horizon, values[0]))],
            ds.scaler,
            history=ds.history,
            horizon=ds.horizon,
            grid_shape=ds.grid_shape,
            num_features=ds.num_features,
            target_feature=ds.target_feature,
        )
        # What each generation answers for any window, computed directly.
        def expected(value):
            demand = ds.scaler.inverse_transform(
                np.full((ds.horizon,) + ds.grid_shape, value),
                feature=ds.target_feature,
            )
            return np.clip(demand, 0.0, None)

        by_generation = {0: expected(values[0])}
        responses = []
        errors = []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                try:
                    responses.append(batcher.forecast(raw_windows[0]))
                except Exception as error:  # noqa: BLE001 - fail the test, not the thread
                    errors.append(error)
                    return

        with MicroBatcher(service, max_batch=4, max_wait_seconds=0.0005) as batcher:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            # One main-thread request per generation (coalesced with the
            # clients' traffic) guarantees every generation answers load.
            responses.append(batcher.forecast(raw_windows[0]))
            for value in values[1:]:
                generation = service.swap_primary(
                    ConstantForecaster(ds.horizon, value)
                )
                by_generation[generation] = expected(value)
                responses.append(batcher.forecast(raw_windows[0]))
            # And revert twice: history is linear, each revert is a fresh
            # generation answering like the one it restored.
            for _ in range(2):
                restored = service.revert_primary()
                by_generation[restored] = by_generation[restored - 2]
                responses.append(batcher.forecast(raw_windows[0]))
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)

        assert not errors
        assert len(responses) > 0
        seen = set()
        for response in responses:
            assert response.generation in by_generation
            np.testing.assert_array_equal(
                response.demand, by_generation[response.generation]
            )
            seen.add(response.generation)
        # Every generation in the linear history answered at least once.
        assert seen == set(by_generation)

    def test_cas_conflict_on_direct_swap(self, serve_dataset):
        service = _service(serve_dataset)
        pinned = service.snapshot()
        service.swap_primary(ConstantForecaster(serve_dataset.horizon, 0.2))
        from repro.serve import GenerationConflict

        with pytest.raises(GenerationConflict):
            service.swap_primary(
                ConstantForecaster(serve_dataset.horizon, 0.3),
                expected_generation=pinned.number,
            )
        assert service.generation == 1  # the losing swap changed nothing


class TestStatus:
    def test_status_snapshot_shape(self, serve_dataset, monkeypatch):
        controller = _controller(serve_dataset, monkeypatch, label="adapt-status")
        status = controller.status()
        assert status["service"] == "adapt-status"
        assert status["state"] == "idle"
        assert status["generation"] == 0
        assert status["last_shadow"] is None
        controller.trigger()
        status = controller.status()
        assert status["swapped"] == 1
        assert status["generation"] == 1
        assert status["last_outcome"] == "swapped"
        assert status["last_shadow"]["passed"] is True
