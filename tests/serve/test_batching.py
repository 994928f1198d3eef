"""MicroBatcher: coalescing, the straggler wait, bit-identity with the
direct batch call, fault isolation inside a coalesced batch, the bounded
batch-size record, and shutdown semantics."""

import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import tracing
from repro.pipeline import registry
from repro.serve import ForecastService, MicroBatcher, batching
from repro.serve.bench import run_load

from .conftest import (
    ConstantForecaster,
    FailingForecaster,
    ThresholdFaultForecaster,
    make_shard_router,
)

# Tiny-but-real BikeCAP: the one tier whose numerics could plausibly depend
# on how requests are batched, so it is the one the identity tests pin.
BIKECAP_HPARAMS = {
    "pyramid_size": 2,
    "capsule_dim": 2,
    "future_capsule_dim": 2,
    "decoder_hidden": 4,
}


def _service(ds, tiers):
    return ForecastService(
        tiers,
        ds.scaler,
        history=ds.history,
        horizon=ds.horizon,
        grid_shape=ds.grid_shape,
        num_features=ds.num_features,
        target_feature=ds.target_feature,
    )


@pytest.fixture(scope="module")
def bikecap_service(serve_dataset):
    ds = serve_dataset
    primary = registry.create(
        "BikeCAP",
        ds.history,
        ds.horizon,
        ds.grid_shape,
        ds.num_features,
        seed=0,
        **BIKECAP_HPARAMS,
    )
    floor = registry.create(
        "Persistence", ds.history, ds.horizon, ds.grid_shape, ds.num_features
    )
    service = _service(ds, [("BikeCAP", primary), ("Persistence", floor)])
    service.warm_up(batch_sizes=(1, 6))
    return service


class TestCoalescingIdentity:
    def test_coalesced_batch_is_bit_identical_to_direct_call(
        self, bikecap_service, raw_windows
    ):
        """The whole point of the micro-batcher: coalescing six concurrent
        requests answers them with ONE ``predict_batch`` call, and that call
        is the same call a direct caller would make with the same stack — so
        the demands must match bit for bit, not just approximately."""
        windows = list(raw_windows[:6])
        with MicroBatcher(
            bikecap_service, max_batch=6, max_wait_seconds=1.0
        ) as batcher:
            futures = [batcher.submit(window) for window in windows]
            responses = [future.result(timeout=30) for future in futures]
            batch_sizes = list(batcher.batch_sizes)

        # All six submissions landed in one coalesced forward pass.
        assert batch_sizes == [6]

        reference = bikecap_service.predict_batch(np.stack(windows))
        for response, expected in zip(responses, reference):
            assert response.tier == expected.tier == "BikeCAP"
            np.testing.assert_array_equal(response.demand, expected.demand)

    def test_coalesced_close_to_per_window_calls(self, bikecap_service, raw_windows):
        """Across *different* batch shapes BLAS reassociates float sums, so
        per-window answers are only close — equality is pinned against the
        same-shape direct call above."""
        windows = list(raw_windows[:4])
        with MicroBatcher(
            bikecap_service, max_batch=4, max_wait_seconds=1.0
        ) as batcher:
            responses = [
                future.result(timeout=30)
                for future in [batcher.submit(window) for window in windows]
            ]
        for response, window in zip(responses, windows):
            single = bikecap_service.predict_one(window)
            np.testing.assert_allclose(
                response.demand, single.demand, rtol=1e-6, atol=1e-8
            )

    def test_batch_invariant_tier_is_exact_per_window(self, serve_dataset, raw_windows):
        """Persistence is a pure reindex, so for it even the per-window
        comparison is exact — a stronger floor-tier guarantee."""
        ds = serve_dataset
        service = _service(
            ds,
            [(
                "Persistence",
                registry.create(
                    "Persistence", ds.history, ds.horizon, ds.grid_shape, ds.num_features
                ),
            )],
        )
        windows = list(raw_windows[:5])
        with MicroBatcher(service, max_batch=5, max_wait_seconds=1.0) as batcher:
            responses = [
                future.result(timeout=30)
                for future in [batcher.submit(window) for window in windows]
            ]
        for response, window in zip(responses, windows):
            np.testing.assert_array_equal(
                response.demand, service.predict_one(window).demand
            )


class TestStragglerWait:
    """The wait after a batch's first request ends once the queue holds
    every caller seen in flight, and never lasts past the cap. A constant
    tier takes no model time, so each timing below is the wait alone."""

    CAP = 1.0

    def _batcher(self, ds):
        service = _service(ds, [("Floor", ConstantForecaster(ds.horizon, 0.1))])
        return MicroBatcher(service, max_batch=8, max_wait_seconds=self.CAP)

    def test_a_lone_caller_is_answered_at_once(self, serve_dataset, raw_windows):
        with self._batcher(serve_dataset) as batcher:
            batcher.forecast(raw_windows[0])  # a fresh batcher waits the cap
            began = time.monotonic()
            for window in raw_windows[1:5]:
                batcher.forecast(window)
            elapsed = time.monotonic() - began
            assert list(batcher.batch_sizes) == [1] * 5
        # Four caps (4 s) if each forecast waited for max_batch.
        assert elapsed < self.CAP / 2

    def test_two_callers_coalesce_when_the_second_arrives(
        self, serve_dataset, raw_windows
    ):
        with self._batcher(serve_dataset) as batcher:
            first = [batcher.submit(window) for window in raw_windows[:2]]
            for future in first:
                future.result(timeout=30)
            began = time.monotonic()
            second = [batcher.submit(window) for window in raw_windows[2:4]]
            for future in second:
                future.result(timeout=30)
            elapsed = time.monotonic() - began
            assert list(batcher.batch_sizes) == [2, 2]
        # The second pair is dispatched when its second request arrives,
        # not after the cap.
        assert elapsed < self.CAP / 2

    def test_a_lone_caller_after_a_round_of_four_waits_one_cap_once(
        self, serve_dataset, raw_windows
    ):
        with self._batcher(serve_dataset) as batcher:
            for future in [batcher.submit(window) for window in raw_windows[:4]]:
                future.result(timeout=30)
            began = time.monotonic()
            batcher.forecast(raw_windows[4])  # waits for the four it saw
            first = time.monotonic() - began
            began = time.monotonic()
            for window in raw_windows[5:8]:
                batcher.forecast(window)
            rest = time.monotonic() - began
            assert list(batcher.batch_sizes) == [4, 1, 1, 1, 1]
        assert first < 2 * self.CAP
        assert rest < self.CAP / 2

    def test_closed_loop_callers_coalesce_every_round(self, serve_dataset, raw_windows):
        """Eight closed-loop callers, more than the cores, with frequent
        thread switches. Every round after the first is one batch of all
        eight, dispatched without the cap. A caller counted twice (say,
        resubmitting before the finished batch stopped counting) would make
        each round wait the cap for callers that do not exist."""
        callers, rounds = 8, 6
        ds = serve_dataset
        service = _service(ds, [("Floor", ConstantForecaster(ds.horizon, 0.1))])
        started = threading.Barrier(callers + 1)
        first_round = threading.Barrier(callers + 1)
        errors = []

        def caller(batcher, window):
            try:
                started.wait(timeout=30)
                batcher.forecast(window)
                first_round.wait(timeout=30)
                for _ in range(rounds - 1):
                    batcher.forecast(window)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MicroBatcher(service, max_batch=16, max_wait_seconds=self.CAP) as batcher:
                threads = [
                    threading.Thread(target=caller, args=(batcher, window))
                    for window in raw_windows[:callers]
                ]
                for thread in threads:
                    thread.start()
                started.wait(timeout=30)
                first_round.wait(timeout=30)  # the fresh batcher waits the cap once
                began = time.monotonic()
                for thread in threads:
                    thread.join(timeout=30)
                elapsed = time.monotonic() - began
                sizes = list(batcher.batch_sizes)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert sizes == [callers] * rounds
        assert elapsed < self.CAP / 2


class TestBatchSizeRecord:
    """A batcher keeps only the newest ``BATCH_SIZES_KEPT`` batch sizes."""

    def test_ten_batches_leave_the_newest_four(
        self, serve_dataset, raw_windows, monkeypatch
    ):
        monkeypatch.setattr(batching, "BATCH_SIZES_KEPT", 4)
        ds = serve_dataset
        service = _service(ds, [("Floor", ConstantForecaster(ds.horizon, 0.1))])
        with MicroBatcher(service, max_batch=1, max_wait_seconds=0.0) as batcher:
            for window in raw_windows[:10]:
                batcher.forecast(window)
            assert list(batcher.batch_sizes) == [1] * 4
        with make_shard_router(ds) as router:
            for window in raw_windows[:10]:
                router.forecast(window)
            # Plain lists, one per shard.
            assert router.batch_sizes == {"shard0": [1] * 4, "shard1": [1] * 4}

    def test_serve_bench_load_counts_its_batches_from_the_end(
        self, serve_dataset, raw_windows, monkeypatch
    ):
        """Once the record is full its length stops growing, so a load's
        batches are the newest ones that hold its requests."""
        monkeypatch.setattr(batching, "BATCH_SIZES_KEPT", 4)
        with make_shard_router(serve_dataset) as router:
            reference = SimpleNamespace(deadline_ms=None, clients=1, requests=6)
            run_load(router, list(raw_windows), reference)
            load = SimpleNamespace(deadline_ms=None, clients=1, requests=3)
            responses, _, batch_sizes = run_load(router, list(raw_windows), load)
        assert len(responses) == 3
        assert batch_sizes == {"shard0": [1] * 3, "shard1": [1] * 3}


class TestFaultIsolation:
    def test_poisoned_request_degrades_without_touching_neighbours(
        self, serve_dataset, raw_windows
    ):
        ds = serve_dataset
        primary = ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.5))
        service = _service(
            ds, [("Primary", primary), ("Floor", ConstantForecaster(ds.horizon, 0.1))]
        )
        windows = [np.array(window) for window in raw_windows[:4]]
        windows[2][0, 0, 0, 0] = 1e6  # poison exactly one request

        with MicroBatcher(service, max_batch=4, max_wait_seconds=1.0) as batcher:
            responses = [
                future.result(timeout=30)
                for future in [batcher.submit(window) for window in windows]
            ]

        assert [response.tier for response in responses] == [
            "Primary", "Primary", "Floor", "Primary",
        ]
        assert [response.degraded for response in responses] == [
            False, False, True, False,
        ]

    def test_total_failure_reaches_every_waiter(self, serve_dataset, raw_windows):
        ds = serve_dataset
        service = _service(ds, [("OnlyTier", FailingForecaster("all down"))])
        with MicroBatcher(service, max_batch=2, max_wait_seconds=1.0) as batcher:
            futures = [batcher.submit(window) for window in raw_windows[:2]]
            for future in futures:
                with pytest.raises(RuntimeError, match="all down"):
                    future.result(timeout=30)

    def test_partial_floor_failure_fails_only_the_poisoned_future(
        self, serve_dataset, raw_windows
    ):
        """With a flaky *floor*, one poisoned request must fail alone: its
        batch-mates' answers were computed and their futures must resolve,
        not inherit the poisoned request's floor error."""
        ds = serve_dataset
        floor = ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.1))
        service = _service(ds, [("Floor", floor)])
        windows = [np.array(window) for window in raw_windows[:3]]
        windows[1][0, 0, 0, 0] = 1e6  # poison exactly one request

        with MicroBatcher(service, max_batch=3, max_wait_seconds=1.0) as batcher:
            futures = [batcher.submit(window) for window in windows]
            assert futures[0].result(timeout=30).tier == "Floor"
            with pytest.raises(RuntimeError, match="poisoned"):
                futures[1].result(timeout=30)
            assert futures[2].result(timeout=30).tier == "Floor"


class TestLifecycle:
    def test_submit_after_close_raises(self, serve_dataset, raw_windows):
        ds = serve_dataset
        service = _service(ds, [("Floor", ConstantForecaster(ds.horizon, 0.1))])
        batcher = MicroBatcher(service)
        batcher.close()
        batcher.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(raw_windows[0])

    def test_close_drains_queued_work(self, serve_dataset, raw_windows):
        ds = serve_dataset
        service = _service(ds, [("Floor", ConstantForecaster(ds.horizon, 0.1))])
        batcher = MicroBatcher(service, max_batch=8, max_wait_seconds=0.5)
        futures = [batcher.submit(window) for window in raw_windows[:3]]
        batcher.close()
        for future in futures:
            assert future.result(timeout=1).tier == "Floor"

    def test_closed_submit_ends_its_span_as_error(self, serve_dataset, raw_windows):
        """``submit`` opens the request-lifecycle span before the closed
        check; the rejection path must end it, or it dangles on the caller's
        thread and every later span there parents to a dead request."""
        ds = serve_dataset
        service = _service(ds, [("Floor", ConstantForecaster(ds.horizon, 0.1))])
        batcher = MicroBatcher(service)
        batcher.close()
        tracing.start_recording()
        try:
            with pytest.raises(RuntimeError, match="closed"):
                batcher.submit(raw_windows[0])
            requests = [
                record
                for record in tracing.recent()
                if record["name"] == "serve.request"
            ]
            assert len(requests) == 1
            assert requests[0]["status"] == "error"
            # Parent resolution on this thread is intact: a fresh span is a
            # root, not a child of the rejected request.
            with tracing.span("after-rejection"):
                pass
            (after,) = [
                record
                for record in tracing.recent()
                if record["name"] == "after-rejection"
            ]
            assert after["parent_id"] is None
        finally:
            tracing.stop_recording()
            tracing.reset()

    def test_close_fails_queued_futures_when_worker_is_stuck(
        self, serve_dataset, raw_windows
    ):
        """If the worker cannot be joined, queued callers must not block
        forever on futures nobody will resolve: close() fails the backlog
        and surfaces the unjoined worker as a warning."""
        ds = serve_dataset
        entered = threading.Event()
        release = threading.Event()

        class BlockingForecaster:
            def predict(self, x):
                entered.set()
                release.wait(timeout=30)
                x = np.asarray(x)
                return np.zeros((len(x), ds.horizon) + x.shape[2:4])

        service = _service(ds, [("Blocking", BlockingForecaster())])
        batcher = MicroBatcher(service, max_batch=1, max_wait_seconds=0.0)
        try:
            first = batcher.submit(raw_windows[0])
            assert entered.wait(timeout=5)  # worker is wedged in the tier
            second = batcher.submit(raw_windows[1])  # stays queued
            with pytest.warns(RuntimeWarning, match="failed to stop"):
                batcher.close(timeout=0.2)
            with pytest.raises(RuntimeError, match="closed before"):
                second.result(timeout=1)
        finally:
            release.set()
        # The in-flight request was already with the worker; un-wedging the
        # tier still answers it.
        assert first.result(timeout=30).tier == "Blocking"

    def test_validates_parameters_and_window_shape(self, serve_dataset):
        ds = serve_dataset
        service = _service(ds, [("Floor", ConstantForecaster(ds.horizon, 0.1))])
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(service, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_seconds"):
            MicroBatcher(service, max_wait_seconds=-1)
        with MicroBatcher(service) as batcher:
            with pytest.raises(ValueError, match="shape"):
                batcher.submit(np.zeros((2, 2)))
