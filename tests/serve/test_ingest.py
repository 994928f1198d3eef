"""Streaming ingestion: live slots → shared WindowStore → drift scoring."""

import numpy as np
import pytest

from repro.serve.ingest import IngestionPipeline
from repro.serve.monitor import DriftMonitor
from repro.serve.service import ForecastService
from repro.store import MinMaxScaler, WindowStore

from tests.serve.conftest import ConstantForecaster

HISTORY, HORIZON = 5, 2


def _slots(n, seed=0):
    return np.random.default_rng(seed).random((n, 4, 4, 3)) * 30.0


def _service(scaler):
    return ForecastService(
        [("Constant", ConstantForecaster(HORIZON, 0.5))],
        scaler,
        history=HISTORY,
        horizon=HORIZON,
        grid_shape=(4, 4),
        num_features=3,
    )


def _raw_store(scaler=None):
    return WindowStore(
        HISTORY, HORIZON, scaler=scaler or MinMaxScaler(), normalize=False
    )


class TestIngest:
    def test_slot_by_slot_emits_each_window_exactly_once(self):
        slots = _slots(12)
        pipeline = IngestionPipeline(_raw_store())
        seen = []
        for i in range(len(slots)):
            report = pipeline.ingest(slots[i])
            assert report.appended_slots == 1
            seen.extend(report.ready)
        assert [ready.index for ready in seen] == list(range(12 - HISTORY - HORIZON + 1))
        assert pipeline.num_scored == len(seen)

    def test_ready_windows_carry_raw_history_and_realized_demand(self):
        slots = _slots(10)
        pipeline = IngestionPipeline(_raw_store())
        ready = pipeline.ingest(slots).ready
        first = ready[0]
        assert np.array_equal(first.window, slots[:HISTORY])
        assert np.array_equal(
            first.actual, slots[HISTORY : HISTORY + HORIZON, :, :, 0]
        )

    def test_bulk_and_incremental_appends_agree(self):
        slots = _slots(14)
        bulk = IngestionPipeline(_raw_store())
        bulk_ready = bulk.ingest(slots).ready
        drip = IngestionPipeline(_raw_store())
        drip_ready = []
        for i in range(len(slots)):
            drip_ready.extend(drip.ingest(slots[i]).ready)
        assert len(bulk_ready) == len(drip_ready)
        for a, b in zip(bulk_ready, drip_ready):
            assert a.index == b.index
            assert np.array_equal(a.window, b.window)
            assert np.array_equal(a.actual, b.actual)


class TestScalerRefresh:
    def test_update_scaler_streams_partial_fit_exactly(self):
        slots = _slots(20)
        scaler = MinMaxScaler()
        pipeline = IngestionPipeline(_raw_store(scaler), update_scaler=True)
        for start in range(0, 20, 6):
            pipeline.ingest(slots[start : start + 6])
        reference = MinMaxScaler().fit(slots)
        assert np.array_equal(scaler.minimum, reference.minimum)
        assert np.array_equal(scaler.maximum, reference.maximum)
        assert scaler.count == reference.count

    def test_shared_scaler_refresh_reaches_the_service(self):
        warm, live = _slots(8), _slots(8, seed=9) * 4.0  # live regime is hotter
        store = _raw_store()
        pipeline = IngestionPipeline(store, update_scaler=True)
        pipeline.ingest(warm)  # offline warm-up fits the shared scaler
        service = _service(store.scaler)
        pipeline.service = service
        pipeline.ingest(live)
        # The service normalizes with the very same refreshed statistics:
        # extrema now cover the hotter live regime, not just the warm-up.
        assert service.scaler is store.scaler
        reference = MinMaxScaler().fit(np.concatenate([warm, live]))
        assert np.array_equal(service.scaler.maximum, reference.maximum)
        response = service.predict_one(live[-HISTORY:])
        assert response.demand.shape == (HORIZON, 4, 4)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_non_finite_slot_leaves_store_and_scaler_unchanged(self, bad):
        # One NaN folded into partial_fit's running min/max used to make
        # them NaN for good, and one negative count widened the minimum for
        # good: later clean slots never recovered them.
        slots = _slots(12)
        scaler = MinMaxScaler()
        store = _raw_store(scaler)
        pipeline = IngestionPipeline(store, update_scaler=True)
        pipeline.ingest(slots[:6])
        minimum, maximum = scaler.minimum.copy(), scaler.maximum.copy()
        poisoned = slots[6:7].copy()
        poisoned[0, 1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            pipeline.ingest(poisoned)
        assert store.num_slots == 6
        assert np.array_equal(scaler.minimum, minimum)
        assert np.array_equal(scaler.maximum, maximum)
        pipeline.ingest(slots[6:])
        reference = MinMaxScaler().fit(slots)
        assert np.array_equal(scaler.minimum, reference.minimum)
        assert np.array_equal(scaler.maximum, reference.maximum)

    def test_update_scaler_with_unshared_scaler_is_rejected(self):
        store = _raw_store()
        service = _service(MinMaxScaler().fit(_slots(5)))
        with pytest.raises(ValueError, match="share"):
            IngestionPipeline(store, service=service, update_scaler=True)


class TestServiceAndMonitorWiring:
    def test_geometry_mismatch_is_rejected(self):
        store = WindowStore(HISTORY + 1, HORIZON, normalize=False)
        service = _service(MinMaxScaler().fit(_slots(5)))
        with pytest.raises(ValueError, match="geometry"):
            IngestionPipeline(store, service=service)

    def test_slots_shaped_for_another_grid_leave_the_store_empty(self):
        # A fresh store takes its frame shape from the first slots it gets:
        # 5×4 slots behind a 4×4 service used to be appended, fixing the
        # store at 5×4 for good, and no completed window was ever scored.
        service = _service(MinMaxScaler().fit(_slots(5)))
        store = _raw_store()
        pipeline = IngestionPipeline(
            store, service=service, monitor=DriftMonitor(service, label="shape-test")
        )
        wrong = np.random.default_rng(3).random((HISTORY, 5, 4, 3)) * 30.0
        with pytest.raises(ValueError, match=r"shape \(5, 4, 4, 3\)"):
            pipeline.ingest(wrong)
        with pytest.raises(ValueError, match="shape"):
            pipeline.ingest(wrong[0])  # one bare slot
        assert store.num_slots == 0
        ready = pipeline.ingest(_slots(HISTORY + HORIZON)).ready
        assert len(ready) == 1 and ready[0].report is not None

    def test_monitor_scores_every_ready_window(self):
        slots = _slots(12)
        primary = ConstantForecaster(HORIZON, 0.5)
        service = ForecastService(
            [("Constant", primary)],
            MinMaxScaler().fit(slots),
            history=HISTORY,
            horizon=HORIZON,
            grid_shape=(4, 4),
            num_features=3,
        )
        monitor = DriftMonitor(service, label="ingest-test")
        pipeline = IngestionPipeline(_raw_store(), service=service, monitor=monitor)
        ready = pipeline.ingest(slots).ready
        assert len(ready) == 12 - HISTORY - HORIZON + 1
        assert primary.calls == len(ready)  # one scored prediction per window
        assert all(r.report is not None for r in ready)


class _FlakyMonitor:
    """Raises on chosen feed calls (1-based), records every window fed."""

    def __init__(self, poison=()):
        self.poison = set(poison)
        self.calls = 0
        self.windows = []

    def feed(self, window, actual):
        self.calls += 1
        self.windows.append(np.array(window))
        if self.calls in self.poison:
            raise RuntimeError(f"poisoned feed #{self.calls}")
        return object()


class TestScoringIsolation:
    """A poisoned monitor or controller must not wedge or re-score
    ingestion (ISSUE 10 satellite 2)."""

    def test_poisoned_window_is_skipped_and_later_windows_still_score(self):
        slots = _slots(12)  # 6 completed windows
        monitor = _FlakyMonitor(poison={2})
        pipeline = IngestionPipeline(_raw_store(), monitor=monitor)
        ready = pipeline.ingest(slots).ready
        assert len(ready) == 6
        assert monitor.calls == 6  # every window was offered exactly once
        assert ready[1].report is None  # the poisoned one stays unscored
        assert all(r.report is not None for i, r in enumerate(ready) if i != 1)
        assert pipeline.num_scored == 6

    def test_no_window_is_rescored_after_a_mid_stream_failure(self):
        slots = _slots(14)
        monitor = _FlakyMonitor(poison={3})
        pipeline = IngestionPipeline(_raw_store(), monitor=monitor)
        first = pipeline.ingest(slots[:12]).ready
        second = pipeline.ingest(slots[12:]).ready
        indices = [r.index for r in first + second]
        assert indices == sorted(set(indices))  # each window exactly once
        assert monitor.calls == len(indices)
        # And the windows fed were the distinct consecutive ones, in order.
        for offset, fed in enumerate(monitor.windows):
            assert np.array_equal(fed, slots[offset : offset + HISTORY])

    def test_monitor_failure_increments_the_isolation_counter(self):
        from repro.obs import metrics as obs_metrics

        before = obs_metrics.counter(
            "serve_ingest_monitor_errors_total", service="flaky-count"
        ).value
        pipeline = IngestionPipeline(
            _raw_store(), monitor=_FlakyMonitor(poison={1, 2}), label="flaky-count"
        )
        pipeline.ingest(_slots(10))  # 4 windows, first two poisoned
        after = obs_metrics.counter(
            "serve_ingest_monitor_errors_total", service="flaky-count"
        ).value
        assert after - before == 2

    def test_controller_failure_is_isolated_from_ingestion(self):
        from repro.obs import metrics as obs_metrics

        class ExplodingController:
            def __init__(self):
                self.observed = []

            def observe(self, ready):
                self.observed.append(ready.index)
                raise RuntimeError("trigger path down")

        controller = ExplodingController()
        pipeline = IngestionPipeline(
            _raw_store(), controller=controller, label="ctrl-iso"
        )
        report = pipeline.ingest(_slots(12))
        # Every window still completed, and every one reached the
        # controller before it blew up.
        assert len(report.ready) == 6
        assert controller.observed == [r.index for r in report.ready]
        counter = obs_metrics.counter(
            "serve_ingest_controller_errors_total", service="ctrl-iso"
        )
        assert counter.value == 6.0
