"""ForecastService: scaling round-trip, tier tagging, degradation paths."""

import numpy as np
import pytest

from repro.data.normalization import MinMaxScaler
from repro.faults import SlowForecaster
from repro.obs import metrics as obs_metrics
from repro.pipeline import registry
from repro.serve import (
    REASON_DEADLINE,
    REASON_ERROR,
    REASON_PREDICTED_DEADLINE,
    ForecastService,
    PartialBatchError,
)

from .conftest import (
    ConstantForecaster,
    FailingForecaster,
    FakeClock,
    PerWindowSlowForecaster,
    ThresholdFaultForecaster,
)


def _persistence(ds):
    return registry.create(
        "Persistence", ds.history, ds.horizon, ds.grid_shape, ds.num_features
    )


def _service(ds, tiers, **overrides):
    kwargs = dict(
        history=ds.history,
        horizon=ds.horizon,
        grid_shape=ds.grid_shape,
        num_features=ds.num_features,
        target_feature=ds.target_feature,
    )
    kwargs.update(overrides)
    return ForecastService(tiers, ds.scaler, **kwargs)


class TestScalingRoundTrip:
    def test_normalize_predict_denormalize(self, serve_dataset, raw_windows):
        """One call == clip(transform) → predict → inverse_transform → clip."""
        ds = serve_dataset
        persistence = _persistence(ds)
        service = _service(ds, [("Persistence", persistence)])

        response = service.predict_one(raw_windows[0])

        normalized = np.clip(ds.scaler.transform(raw_windows[:1]), 0.0, None)
        expected = ds.scaler.inverse_transform(
            np.asarray(persistence.predict(normalized))[0], feature=ds.target_feature
        )
        expected = np.clip(expected, 0.0, None)
        np.testing.assert_array_equal(response.demand, expected)
        assert response.demand.shape == (ds.horizon,) + ds.grid_shape
        assert response.tier == "Persistence"
        assert not response.degraded
        assert response.skips == ()

    def test_primary_answer_is_tagged_primary(self, serve_dataset, raw_windows):
        ds = serve_dataset
        service = _service(
            ds,
            [("Primary", ConstantForecaster(ds.horizon, 0.5)),
             ("Floor", ConstantForecaster(ds.horizon, 0.1))],
        )
        response = service.predict_one(raw_windows[0])
        assert response.tier == "Primary"
        assert not response.degraded
        # The constant 0.5 denormalizes through the target feature's span.
        expected = ds.scaler.inverse_transform(
            np.full((ds.horizon,) + ds.grid_shape, 0.5), feature=ds.target_feature
        )
        np.testing.assert_array_equal(response.demand, np.clip(expected, 0.0, None))


class TestErrorDegradation:
    def test_broken_primary_falls_through_tagged(self, serve_dataset, raw_windows):
        ds = serve_dataset
        service = _service(
            ds,
            [("Broken", FailingForecaster("model is down")),
             ("Persistence", _persistence(ds))],
        )
        response = service.predict_one(raw_windows[0])
        assert response.tier == "Persistence"
        assert response.degraded
        assert len(response.skips) == 1
        assert "Broken" in response.skips[0]
        assert REASON_ERROR in response.skips[0]
        assert "model is down" in response.skips[0]

    def test_mid_batch_fault_degrades_only_poisoned_requests(
        self, serve_dataset, raw_windows
    ):
        """One bad window must not drag its whole micro-batch down a tier."""
        ds = serve_dataset
        primary = ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.5))
        service = _service(
            ds, [("Primary", primary), ("Floor", ConstantForecaster(ds.horizon, 0.1))]
        )

        windows = np.array(raw_windows[:4])
        poisoned = (1, 3)
        for index in poisoned:
            # Far past the fitted maximum → normalizes above the fault
            # threshold for exactly these windows.
            windows[index, 0, 0, 0, 0] = 1e6

        responses = service.predict_batch(windows)
        for index, response in enumerate(responses):
            if index in poisoned:
                assert response.tier == "Floor", index
                assert response.degraded
                assert any(REASON_ERROR in skip for skip in response.skips)
            else:
                assert response.tier == "Primary", index
                assert not response.degraded
                assert response.skips == ()

    def test_floor_failure_propagates(self, serve_dataset, raw_windows):
        ds = serve_dataset
        service = _service(ds, [("OnlyTier", FailingForecaster("nothing left"))])
        with pytest.raises(RuntimeError, match="nothing left"):
            service.predict_one(raw_windows[0])

    def test_partial_floor_failure_keeps_the_survivors(
        self, serve_dataset, raw_windows
    ):
        """One poisoned request reaching a flaky floor must not void the
        answers already computed for its healthy batch-mates: the batch
        raises ``PartialBatchError`` carrying the survivors' responses plus
        the per-request floor errors."""
        ds = serve_dataset
        floor = ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.1))
        service = _service(
            ds, [("Broken", FailingForecaster("primary down")), ("Floor", floor)]
        )
        windows = np.array(raw_windows[:4])
        windows[2, 0, 0, 0, 0] = 1e6  # poison exactly one request

        with pytest.raises(PartialBatchError) as excinfo:
            service.predict_batch(windows)
        error = excinfo.value
        assert set(error.errors) == {2}
        assert "poisoned" in str(error.errors[2])
        assert [response is not None for response in error.responses] == [
            True, True, False, True,
        ]
        for index in (0, 1, 3):
            response = error.responses[index]
            assert response.tier == "Floor"
            assert response.degraded  # "Broken" was skipped above it

    def test_predict_one_unwraps_the_single_floor_error(
        self, serve_dataset, raw_windows
    ):
        """A batch of one has exactly one underlying error; single-window
        callers get it directly, not wrapped in PartialBatchError."""
        ds = serve_dataset
        floor = ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.1))
        service = _service(ds, [("Floor", floor)])
        window = np.array(raw_windows[0])
        window[0, 0, 0, 0] = 1e6
        with pytest.raises(RuntimeError, match="poisoned") as excinfo:
            service.predict_one(window)
        assert not isinstance(excinfo.value, PartialBatchError)


class TestDeadlines:
    def test_overrun_falls_back_to_floor(self, serve_dataset, raw_windows):
        ds = serve_dataset
        clock = FakeClock()
        slow = SlowForecaster(
            ConstantForecaster(ds.horizon, 0.5), 0.05, sleep=clock.advance
        )
        service = _service(
            ds,
            [("Slow", slow), ("Floor", ConstantForecaster(ds.horizon, 0.1))],
            clock=clock,
        )
        response = service.predict_one(raw_windows[0], deadline_seconds=0.01)
        assert response.tier == "Floor"
        assert response.degraded
        assert response.deadline_missed  # the miss already happened up-tier
        assert any(REASON_DEADLINE in skip for skip in response.skips)

    def test_ewma_preskips_known_slow_tier(self, serve_dataset, raw_windows):
        ds = serve_dataset
        clock = FakeClock()
        slow = SlowForecaster(
            ConstantForecaster(ds.horizon, 0.5), 0.05, sleep=clock.advance
        )
        service = _service(
            ds,
            [("Slow", slow), ("Floor", ConstantForecaster(ds.horizon, 0.1))],
            clock=clock,
        )
        # First request teaches the EWMA that "Slow" takes ~50ms.
        service.predict_one(raw_windows[0], deadline_seconds=0.01)
        assert service.estimated_latency("Slow") == pytest.approx(0.05)

        # Second request is predicted to miss, so the slow tier never runs
        # and the floor answers *within* the deadline.
        second = service.predict_one(raw_windows[1], deadline_seconds=0.01)
        assert second.tier == "Floor"
        assert second.degraded
        assert not second.deadline_missed
        assert any(REASON_PREDICTED_DEADLINE in skip for skip in second.skips)

    def test_already_expired_deadline_skips_primary(self, serve_dataset, raw_windows):
        ds = serve_dataset
        primary = ConstantForecaster(ds.horizon, 0.5)
        service = _service(
            ds, [("Primary", primary), ("Floor", ConstantForecaster(ds.horizon, 0.1))]
        )
        response = service.predict_one(raw_windows[0], deadline_seconds=-1.0)
        assert response.tier == "Floor"
        assert response.degraded
        assert primary.calls == 0  # the expensive tier never ran
        assert any(REASON_DEADLINE in skip for skip in response.skips)

    def test_preskip_scales_the_estimate_by_batch_size(
        self, serve_dataset, raw_windows
    ):
        """The tier runs its attempt set as ONE batched forward, so the
        pre-skip must predict ``estimate × len(attempt)`` — with the
        per-window estimate alone all four requests look safe, the batch of
        four costs 1.0s against 0.5s deadlines, and every answer lands
        late. Dropping tightest-deadline first shrinks the batch until the
        survivors genuinely fit."""
        ds = serve_dataset
        clock = FakeClock()
        slow = PerWindowSlowForecaster(ConstantForecaster(ds.horizon, 0.5), 0.25, clock)
        service = _service(
            ds,
            [("Slow", slow), ("Floor", ConstantForecaster(ds.horizon, 0.1))],
            clock=clock,
        )
        # Teach the EWMA: one single-window request costs exactly 0.25s.
        service.predict_one(raw_windows[0])
        assert service.estimated_latency("Slow") == pytest.approx(0.25)

        windows = np.array(raw_windows[1:5])
        deadlines = [clock.now + 0.5] * 4  # each fits 2 windows, not 4
        responses = service.predict_batch(windows, deadlines=deadlines)

        slow_answers = [r for r in responses if r.tier == "Slow"]
        floor_answers = [r for r in responses if r.tier == "Floor"]
        # Two requests were shed so the other two could make their deadline.
        assert len(slow_answers) == 2
        assert len(floor_answers) == 2
        assert not any(response.deadline_missed for response in responses)
        for response in floor_answers:
            assert any(
                REASON_PREDICTED_DEADLINE in skip for skip in response.skips
            )

    def test_retry_storm_is_weighted_into_the_ewma_per_window(
        self, serve_dataset, raw_windows
    ):
        """A poisoned batch costs batched-attempt + per-window retries
        (~2× the windows); folding that elapsed time into the EWMA divided
        only by the batch size would double the tier's estimated per-window
        cost and starve it of future traffic."""
        ds = serve_dataset
        clock = FakeClock()
        flaky = PerWindowSlowForecaster(
            ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.5)), 1.0, clock
        )
        service = _service(
            ds,
            [("Flaky", flaky), ("Floor", ConstantForecaster(ds.horizon, 0.1))],
            clock=clock,
        )
        windows = np.array(raw_windows[:4])
        windows[1, 0, 0, 0, 0] = 1e6  # poison one → batched pass fails

        responses = service.predict_batch(windows)
        assert responses[1].tier == "Floor"
        # 8s elapsed (4-window batch + 4 single retries) over 8 executed
        # windows → 1.0s/window, not 8/4 = 2.0.
        assert service.estimated_latency("Flaky") == pytest.approx(1.0)

    def test_floor_answers_even_past_deadline(self, serve_dataset, raw_windows):
        """The last tier never demotes: a late answer beats no answer."""
        ds = serve_dataset
        clock = FakeClock()
        slow_floor = SlowForecaster(
            ConstantForecaster(ds.horizon, 0.1), 0.05, sleep=clock.advance
        )
        service = _service(ds, [("Floor", slow_floor)], clock=clock)
        response = service.predict_one(raw_windows[0], deadline_seconds=0.01)
        assert response.tier == "Floor"
        assert not response.degraded  # nothing above it was skipped
        assert response.deadline_missed


class TestValidationAndMetrics:
    def test_rejects_unfitted_scaler(self, serve_dataset):
        ds = serve_dataset
        with pytest.raises(RuntimeError, match="fitted"):
            ForecastService(
                [("Floor", ConstantForecaster(ds.horizon, 0.1))],
                MinMaxScaler(),
                history=ds.history,
                horizon=ds.horizon,
                grid_shape=ds.grid_shape,
                num_features=ds.num_features,
            )

    def test_rejects_duplicate_tier_names(self, serve_dataset):
        ds = serve_dataset
        stub = ConstantForecaster(ds.horizon, 0.1)
        with pytest.raises(ValueError, match="unique"):
            _service(ds, [("Same", stub), ("Same", stub)])

    def test_rejects_wrong_window_shape(self, serve_dataset):
        ds = serve_dataset
        service = _service(ds, [("Floor", ConstantForecaster(ds.horizon, 0.1))])
        with pytest.raises(ValueError, match="shape"):
            service.predict_one(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            service.predict_batch(np.zeros((3, 2, 2)))

    def test_request_and_degradation_counters(self, serve_dataset, raw_windows):
        ds = serve_dataset
        obs_metrics.reset()
        service = _service(
            ds,
            [("Broken", FailingForecaster()),
             ("Floor", ConstantForecaster(ds.horizon, 0.1))],
        )
        service.predict_batch(np.array(raw_windows[:3]))
        assert obs_metrics.counter("serve_requests_total", tier="Floor").value == 3
        assert (
            obs_metrics.counter(
                "serve_degradations_total", tier="Broken", reason=REASON_ERROR
            ).value
            == 3
        )
        assert obs_metrics.histogram("serve_latency_seconds", tier="Floor").count == 3

    def test_warm_up_runs_every_tier_and_batch_size(self, serve_dataset):
        ds = serve_dataset
        tiers = [
            ("A", ConstantForecaster(ds.horizon, 0.5)),
            ("B", ConstantForecaster(ds.horizon, 0.1)),
        ]
        service = _service(ds, tiers)
        assert service.warm_up(batch_sizes=(1, 4)) == 4
        assert tiers[0][1].calls == 2
        assert tiers[1][1].calls == 2
