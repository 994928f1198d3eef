"""Region-sharded serving: partitioning, scatter/gather, honest merges.

The contract under test (docs/ARCHITECTURE.md "Sharded serving"):

- :func:`partition_grid` tiles the grid exactly once with contiguous,
  near-square blocks;
- the router's merged demand is bit-identical to calling each shard's
  service directly — including when a shard is fault-injected into its
  fallback tier (via :mod:`repro.faults`), and with one shard, where the
  router is the unsharded deployment;
- one degraded shard degrades the merged answer; one *failed* shard fills
  its region from the router-level persistence floor without failing the
  city.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import faults
from repro.data.datasets import dataset_from_tensor
from repro.obs import tracing
from repro.obs.runlog import RunLogger, read_events
from repro.pipeline.runner import execute
from repro.pipeline.spec import RunSpec
from repro.serve.service import PartialBatchError, ServiceTier
from repro.serve.shard import (
    ShardRegion,
    ShardRouter,
    demo_spec,
    load_shard_services,
    obs_metrics,
    partition_grid,
    synthetic_router,
)

from .conftest import (
    ConstantForecaster,
    ThresholdFaultForecaster,
    make_shard_router,
    manual_shard_services,
)


# ----------------------------------------------------------------------
# partition_grid
# ----------------------------------------------------------------------
class TestPartitionGrid:
    def test_tiles_the_grid_exactly_once(self):
        regions = partition_grid((6, 6), 4)
        covered = np.zeros((6, 6), dtype=int)
        for region in regions:
            covered[
                region.rows[0] : region.rows[1], region.cols[0] : region.cols[1]
            ] += 1
        assert np.all(covered == 1)
        assert [region.name for region in regions] == [f"shard{i}" for i in range(4)]

    def test_square_count_gives_square_blocks(self):
        regions = partition_grid((6, 6), 4)
        assert all(region.grid_shape == (3, 3) for region in regions)

    def test_prime_count_falls_back_to_row_bands(self):
        # 3 shards on 6×6: (3 rows × 1 col) and (1 × 3) tie on squareness;
        # row bands win because windows slice contiguously row-major.
        regions = partition_grid((6, 6), 3)
        assert all(region.cols == (0, 6) for region in regions)
        assert [region.rows for region in regions] == [(0, 2), (2, 4), (4, 6)]

    def test_uneven_extents_differ_by_at_most_one(self):
        regions = partition_grid((5, 4), 2)
        heights = sorted(region.grid_shape[0] for region in regions)
        assert heights == [2, 3]
        covered = np.zeros((5, 4), dtype=int)
        for region in regions:
            covered[
                region.rows[0] : region.rows[1], region.cols[0] : region.cols[1]
            ] += 1
        assert np.all(covered == 1)

    def test_single_shard_is_the_whole_grid(self):
        (region,) = partition_grid((4, 4), 1)
        assert region.rows == (0, 4) and region.cols == (0, 4)

    def test_too_many_shards_for_the_grid_raises(self):
        with pytest.raises(ValueError, match="cannot tile"):
            partition_grid((2, 2), 5)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="empty shard region"):
            ShardRegion(name="bad", rows=(2, 2), cols=(0, 4))


# ----------------------------------------------------------------------
# router construction + merge semantics
# ----------------------------------------------------------------------
class TestShardRouterMerge:
    @pytest.mark.parametrize("num_shards", [2, 1])
    def test_merged_demand_is_bit_identical_to_direct_shard_calls(
        self, serve_dataset, raw_windows, num_shards
    ):
        window = raw_windows[0]
        with make_shard_router(serve_dataset, num_shards) as router:
            merged = router.forecast(window)
            for region in router.regions:
                direct = router.services[region.name].predict_one(
                    region.slice_window(window)
                )
                block = merged.demand[
                    :, region.rows[0] : region.rows[1], region.cols[0] : region.cols[1]
                ]
                assert np.array_equal(block, direct.demand)
        assert not merged.degraded
        assert not merged.failed_shards
        assert merged.tier == "|".join(["Primary"] * num_shards)
        assert merged.demand.shape == (serve_dataset.horizon,) + serve_dataset.grid_shape

    @pytest.mark.parametrize("num_shards", [2, 1])
    def test_one_degraded_shard_degrades_the_merged_answer(
        self, serve_dataset, raw_windows, num_shards
    ):
        window = raw_windows[0]
        with make_shard_router(
            serve_dataset, num_shards, poisoned=("shard0",)
        ) as router:
            merged = router.forecast(window)
            # Bit-identity must survive degradation: the injector is a
            # pure function of the window bytes, so the direct call
            # degrades identically.
            for region in router.regions:
                direct = router.services[region.name].predict_one(
                    region.slice_window(window)
                )
                block = merged.demand[
                    :, region.rows[0] : region.rows[1], region.cols[0] : region.cols[1]
                ]
                assert np.array_equal(block, direct.demand)
        assert merged.degraded
        assert merged.failed_shards == ()
        by_name = {report.shard: report for report in merged.shards}
        assert by_name["shard0"].tier == "Floor"
        assert by_name["shard0"].degraded and not by_name["shard0"].failed
        for report in merged.shards[1:]:
            assert report.tier == "Primary"
            assert not report.degraded

    def test_one_failed_shard_floors_its_region_not_the_city(
        self, serve_dataset, raw_windows
    ):
        window = raw_windows[0]
        counter = obs_metrics.counter("serve_shard_failures_total", shard="shard0")
        before = counter.value
        with make_shard_router(serve_dataset, failing=("shard0",)) as router:
            merged = router.forecast(window)
            failed_region = router.regions[0]
            healthy_region = router.regions[1]
            healthy_direct = router.services[healthy_region.name].predict_one(
                healthy_region.slice_window(window)
            )
        assert merged.failed_shards == ("shard0",)
        assert merged.degraded  # a failed shard is a degraded answer
        assert merged.tier == "<failed>|Primary"
        report = merged.shards[0]
        assert report.failed and report.tier is None
        assert "shard down" in report.error
        # The failed block is the router-level floor: the region's last
        # observed demand slot repeated across the horizon.
        last = failed_region.slice_window(window)[-1, :, :, serve_dataset.target_feature]
        expected = np.clip(
            np.broadcast_to(last, (serve_dataset.horizon,) + last.shape), 0.0, None
        )
        block = merged.demand[
            :,
            failed_region.rows[0] : failed_region.rows[1],
            failed_region.cols[0] : failed_region.cols[1],
        ]
        assert np.array_equal(block, expected)
        # The healthy shard is untouched by its neighbour's failure.
        healthy_block = merged.demand[
            :,
            healthy_region.rows[0] : healthy_region.rows[1],
            healthy_region.cols[0] : healthy_region.cols[1],
        ]
        assert np.array_equal(healthy_block, healthy_direct.demand)
        assert counter.value == before + 1

    def test_wrong_window_shape_is_rejected(self, serve_dataset, raw_windows):
        with make_shard_router(serve_dataset) as router:
            with pytest.raises(ValueError, match="full-grid window"):
                router.forecast(raw_windows[0][:, :2])

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_non_finite_window_is_rejected(self, serve_dataset, raw_windows, bad):
        window = raw_windows[0].copy()
        window[0, 0, 0, 0] = bad
        with make_shard_router(serve_dataset) as router:
            before = obs_metrics.counter("serve_router_requests_total").value
            with pytest.raises(ValueError, match="finite"):
                router.forecast(window)
            assert obs_metrics.counter("serve_router_requests_total").value == before

    def test_describe_lists_regions_and_tiers(self, serve_dataset):
        with make_shard_router(serve_dataset) as router:
            described = router.describe()
        assert [entry["name"] for entry in described] == ["shard0", "shard1"]
        assert all(entry["tiers"] == ["Primary", "Floor"] for entry in described)
        assert described[0]["rows"] == [0, 4] or described[0]["rows"] == [0, 2]


def _block(demand, region):
    return demand[:, region.rows[0] : region.rows[1], region.cols[0] : region.cols[1]]


def _batcher_threads():
    return {t for t in threading.enumerate() if t.name == "repro-serve-batcher"}


class TestOneBatcherPerRouter:
    """One queue and one worker thread answer every shard of a batch."""

    def test_a_four_shard_router_runs_one_batcher_thread(
        self, serve_dataset, raw_windows
    ):
        regions = partition_grid(serve_dataset.grid_shape, 4)
        before = _batcher_threads()
        router = ShardRouter(
            regions,
            manual_shard_services(serve_dataset, regions),
            max_batch=2,
            max_wait_seconds=30.0,
        )
        try:
            assert len(_batcher_threads() - before) == 1
            with ThreadPoolExecutor(2) as pool:
                merged = list(pool.map(router.forecast, raw_windows[:2]))
            assert router.batch_sizes == {region.name: [2] for region in regions}
        finally:
            router.close()
        assert all(answer.tier == "|".join(["Primary"] * 4) for answer in merged)

    def test_partial_floor_failure_in_a_coalesced_batch_floors_only_its_block(
        self, serve_dataset, raw_windows
    ):
        ds = serve_dataset
        regions = partition_grid(ds.grid_shape, 2)
        services = manual_shard_services(ds, regions)
        # shard0 answers from its floor alone, and that floor breaks on a
        # window holding a count far past the scaler's fitted maximum.
        services["shard0"].tiers = (
            ServiceTier("Floor", ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.1))),
        )
        windows = [np.array(raw_windows[0]), np.array(raw_windows[1])]
        windows[1][0, 0, 0, 0] = 1e6  # inside shard0's region only
        counter = obs_metrics.counter("serve_shard_failures_total", shard="shard0")
        before = counter.value
        with ShardRouter(regions, services, max_batch=2, max_wait_seconds=30.0) as router:
            with ThreadPoolExecutor(2) as pool:
                healthy, poisoned = pool.map(router.forecast, windows)
            assert router.batch_sizes == {"shard0": [2], "shard1": [2]}
        assert counter.value == before + 1

        assert healthy.failed_shards == () and poisoned.failed_shards == ("shard0",)
        report = poisoned.shards[0]
        assert report.failed and report.tier is None and "poisoned" in report.error
        assert healthy.shards[0].tier == "Floor" and not healthy.shards[0].failed
        last = regions[0].slice_window(windows[1])[-1, :, :, ds.target_feature]
        floor = np.clip(np.broadcast_to(last, (ds.horizon,) + last.shape), 0.0, None)
        assert np.array_equal(_block(poisoned.demand, regions[0]), floor)

        pair = np.stack(windows)
        with pytest.raises(PartialBatchError) as caught:
            services["shard0"].predict_batch(regions[0].slice_window(pair))
        direct0 = caught.value.responses
        direct1 = services["shard1"].predict_batch(regions[1].slice_window(pair))
        assert np.array_equal(_block(healthy.demand, regions[0]), direct0[0].demand)
        assert np.array_equal(_block(healthy.demand, regions[1]), direct1[0].demand)
        assert np.array_equal(_block(poisoned.demand, regions[1]), direct1[1].demand)

    def test_failure_events_carry_the_request_trace_id(
        self, serve_dataset, raw_windows, tmp_path
    ):
        """Shard failures are handled on the worker, where no span is open:
        the trace event and both run-log events must still name the
        request's trace, and the run log says null while nothing records."""
        with make_shard_router(
            serve_dataset, failing=("shard0",), poisoned=("shard1",)
        ) as router:
            with RunLogger(str(tmp_path / "untraced.jsonl")) as untraced:
                router.forecast(raw_windows[0])
            with RunLogger(str(tmp_path / "traced.jsonl")) as traced:
                tracing.start_recording()
                try:
                    merged = router.forecast(raw_windows[0])
                    records = tracing.recent()
                finally:
                    tracing.stop_recording()
                    tracing.reset()
        (route,) = [r for r in records if r["name"] == "serve.route"]
        assert merged.trace_id == route["trace_id"]
        (event,) = [r for r in records if r["name"] == "serve.shard_failed"]
        assert event["trace_id"] == route["trace_id"]
        assert event["parent_id"] is not None

        for log, trace_id in ((untraced, None), (traced, route["trace_id"])):
            events = read_events(log.path)
            failed = [e for e in events if e["event"] == "serve_shard_failed"]
            degraded = [e for e in events if e["event"] == "serve_degraded"]
            assert [e["shard"] for e in failed] == ["shard0"]
            # shard0's one tier errors and shard1's poisoned primary skips.
            assert {e["tier"] for e in degraded} == {"Broken", "Primary"}
            assert {e["trace_id"] for e in failed + degraded} == {trace_id}


class TestShardRouterValidation:
    def test_regions_must_tile_exactly_once(self, serve_dataset):
        regions = partition_grid(serve_dataset.grid_shape, 2)
        overlapping = (regions[0], regions[0].__class__("shard1", (0, 4), (0, 4)))
        services = manual_shard_services(serve_dataset, overlapping)
        with pytest.raises(ValueError, match="tile the grid exactly once"):
            ShardRouter(overlapping, services)

    def test_missing_service_is_rejected(self, serve_dataset):
        regions = partition_grid(serve_dataset.grid_shape, 2)
        services = manual_shard_services(serve_dataset, regions)
        del services["shard1"]
        with pytest.raises(ValueError, match="no service for shard"):
            ShardRouter(regions, services)

    def test_service_grid_must_match_region(self, serve_dataset):
        regions = partition_grid(serve_dataset.grid_shape, 2)
        lopsided = (
            ShardRegion("shard0", (0, 1), (0, 4)),
            ShardRegion("shard1", (1, 4), (0, 4)),
        )
        with pytest.raises(ValueError, match="service grid"):
            # Services shaped for the even 2×4 bands, regions 1×4 and 3×4.
            ShardRouter(lopsided, manual_shard_services(serve_dataset, regions))

    def test_duplicate_names_rejected(self, serve_dataset):
        regions = (
            ShardRegion("shard0", (0, 2), (0, 4)),
            ShardRegion("shard0", (2, 4), (0, 4)),
        )
        with pytest.raises(ValueError, match="unique"):
            ShardRouter(regions, manual_shard_services(serve_dataset, regions[:1]))


# ----------------------------------------------------------------------
# per-shard scaler / checkpoint wiring
# ----------------------------------------------------------------------
class TestLoadShardServices:
    def test_scaler_states_must_cover_every_shard(self, serve_dataset):
        regions = partition_grid(serve_dataset.grid_shape, 2)
        spec = RunSpec(model="Persistence", history=5, horizon=2, epochs=0, seed=0)
        states = {"shard0": serve_dataset.scaler.state()}
        with pytest.raises(ValueError, match="missing shard 'shard1'"):
            load_shard_services(
                spec,
                regions,
                num_features=3,
                history=5,
                horizon=2,
                scaler_states=states,
                fallbacks=(),
            )

    def test_per_shard_scalers_and_checkpoints_wire_through(self, tmp_path):
        rng = np.random.default_rng(11)
        tensor = rng.random((30, 4, 4, 3)) * 25.0
        # Skew one half so the per-shard extrema genuinely differ.
        tensor[:, 2:, :, :] *= 3.0
        regions = partition_grid((4, 4), 2)
        shard_datasets = {
            region.name: dataset_from_tensor(
                region.slice_tensor(tensor), history=5, horizon=2
            )
            for region in regions
        }
        spec = RunSpec(
            model="STGCN",
            history=5,
            horizon=2,
            epochs=1,
            seed=0,
            hparams={"hidden_channels": 2},
        )
        # Train shard0's own checkpoint on shard0's own sub-grid; shard1
        # builds fresh from the registry (no entry in the mapping).
        result = execute(
            spec,
            shard_datasets["shard0"],
            checkpoint_dir=str(tmp_path / "ckpt-shard0"),
        )
        services = load_shard_services(
            spec,
            regions,
            num_features=3,
            history=5,
            horizon=2,
            scaler_states={
                name: dataset.scaler.state()
                for name, dataset in shard_datasets.items()
            },
            checkpoint_paths={"shard0": result.checkpoint_path},
        )
        assert set(services) == {"shard0", "shard1"}
        for region in regions:
            service = services[region.name]
            own = shard_datasets[region.name].scaler
            assert service.grid_shape == region.grid_shape
            assert service.tier_names == ("STGCN", "Persistence")
            assert np.array_equal(service.scaler.minimum, own.minimum)
            assert np.array_equal(service.scaler.maximum, own.maximum)
        # The skewed halves fit different extrema — per-shard normalization
        # is real, not a copy of one global scaler.
        assert not np.array_equal(
            services["shard0"].scaler.maximum, services["shard1"].scaler.maximum
        )
        with ShardRouter(regions, services, max_wait_seconds=0.0) as router:
            merged = router.forecast(tensor[:5])  # a genuine raw window
        assert merged.demand.shape == (2, 4, 4)
        assert not merged.failed_shards


# ----------------------------------------------------------------------
# synthetic_router: the gateway demo's and the serve bench's pool
# ----------------------------------------------------------------------
class TestSyntheticRouter:
    def test_one_shard_router_answers_as_the_direct_service_under_faults(
        self, tmp_path
    ):
        """The 1-shard router is the unsharded deployment: for every test
        window it answers exactly what its one service answers directly,
        bit for bit and from the same tier, with the trained primary
        failing half the windows."""
        spec = demo_spec(history=5, horizon=2, epochs=1)
        router, dataset = synthetic_router(
            spec,
            grid=(4, 4),
            num_shards=1,
            features=3,
            slots=40,
            checkpoint_dir=str(tmp_path),
            max_wait_seconds=0.0,
        )
        with router:
            service = router.services["shard0"]
            primary = service.tiers[0]
            service.tiers = (
                ServiceTier(
                    primary.name, faults.FaultInjectingForecaster(primary.forecaster, 0.5)
                ),
            ) + service.tiers[1:]
            tiers = []
            for window in dataset.test_view().raw_x():
                merged = router.forecast(window)
                direct = service.predict_one(window)
                assert np.array_equal(merged.demand, direct.demand)
                assert merged.tier == direct.tier
                tiers.append(direct.tier)
        assert set(tiers) == {"BikeCAP", "Persistence"}
