"""The program API the performance benchmark (``perfbench/``) reads.

The benchmark runs outside this suite; these calls pin what it uses of the
program, so an API change fails here instead of in a benchmark run.
"""

import json
import urllib.request

import numpy as np

from perfbench import common, serving
from perfbench import spans as spanlib

from repro.nn import config


def test_engine_state_reads_dtype_mode_and_threads():
    state = common.engine_state()
    assert set(state) == {"dtype", "engine_mode", "num_threads"}
    assert state["engine_mode"] == config.engine_mode()
    assert config.engine_mode() in {"fast", "precise"}
    assert state["num_threads"] in (1, 2)


def test_program_counters_read_plan_cache_and_degradations():
    counters = common.program_counters()
    assert set(counters) == {"plan_hits", "plan_misses", "degradations"}
    assert all(isinstance(value, float) for value in counters.values())


def test_grad_flag_is_readable():
    assert config.grad_enabled() is True


def test_scaler_shim_rebuilds_from_json_state():
    # The gateway oracle imports the scaler through this shim.
    from repro.data.normalization import MinMaxScaler

    data = np.random.default_rng(0).random((20, 4, 4, 4)) * 10
    scaler = MinMaxScaler().fit(data)
    state = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
             for k, v in scaler.state().items()}
    rebuilt = MinMaxScaler.from_state(json.loads(json.dumps(state)))
    assert np.array_equal(rebuilt.transform(data), scaler.transform(data))


def test_run_spec_round_trips_through_json():
    from repro.pipeline import RunSpec

    spec = serving.make_spec(tiny=False)
    assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_load_forecaster_builds_the_spec_geometry():
    from repro.pipeline import load_forecaster

    spec = serving.make_spec(tiny=True)
    forecaster = load_forecaster(spec, None, grid_shape=(4, 4), num_features=4,
                                 history=spec.history, horizon=spec.horizon)
    window = np.zeros((1, spec.history, 4, 4, 4))
    assert forecaster.predict(window).shape == (1, spec.horizon, 4, 4)


def test_shards_load_route_and_ingest_as_the_serving_workloads_call_them(tmp_path):
    # perfbench/server.py and perfbench/shards4_ingest.py, in miniature.
    from repro.serve import (
        DriftMonitor,
        IngestionPipeline,
        ShardRouter,
        load_shard_services,
        partition_grid,
    )
    from repro.store import WindowStore

    spec = serving.make_spec(tiny=True)
    history, horizon = spec.history, spec.horizon
    tensor = np.random.default_rng(0).random((40, 4, 4, 4)) * 10.0
    regions = partition_grid((4, 4), 2)
    states, checkpoints = {}, {}
    for region in regions:
        shard = serving.make_dataset(region.slice_tensor(tensor))
        checkpoints[region.name] = serving.train(spec, shard, str(tmp_path / region.name))
        states[region.name] = shard.scaler.state()
    services = load_shard_services(
        spec, regions, num_features=4, history=history, horizon=horizon,
        scaler_states=states, checkpoint_paths=checkpoints,
        warm_batch_sizes=serving.WARM_BATCH_SIZES,
    )
    recorder = spanlib.Recorder()
    router = ShardRouter(
        regions, services, max_batch=serving.MAX_BATCH,
        max_wait_seconds=serving.MAX_WAIT_SECONDS, clock=recorder.stamping_clock(),
    )
    try:
        assert router.regions == regions and set(router.services) == set(states)
        serving.wrap_router(recorder, router)
        response = router.forecast(tensor[:history], deadline_seconds=1.0)
        assert response.demand.shape == (horizon, 4, 4)
        assert [report.tier for report in response.shards] == ["BikeCAP", "BikeCAP"]
        assert router.batch_sizes == {"shard0": [1], "shard1": [1]}
        names = {span[1] for span in recorder.spans}
        assert {"shard.route", "service.predict_batch", "service.normalize",
                "service.forward", "service.denormalize"} <= names
        # The serving ledgers link each shard's batch to its request through
        # the router clock's reading at submission, taken on the calling
        # thread inside the traced route and passed on as the batch's start.
        (route,) = [span for span in recorder.spans if span[1] == "shard.route"]
        batches = [span for span in recorder.spans if span[1] == "service.predict_batch"]
        assert len(batches) == len(regions)
        for batch in batches:
            assert [recorder.stamp_owner[stamp] for stamp in batch[5]["starts"]] == [route[0]]
        costs = serving.route_costs(recorder.spans, recorder.stamp_owner)
        assert set(costs) == {route[0]}
        assert abs(costs[route[0]].ledger.residual) < 1e-9

        for region in router.regions:
            service = router.services[region.name]
            store = WindowStore(service.history, service.horizon,
                                target_feature=service.target_feature,
                                scaler=service.scaler, normalize=False)
            pipeline = IngestionPipeline(
                store, service=service, monitor=DriftMonitor(service, label=region.name),
                update_scaler=False, label=region.name,
            )
            reports = [pipeline.ingest(region.slice_tensor(slot[None]))
                       for slot in tensor[: history + horizon]]
            assert sum(report.appended_slots for report in reports) == history + horizon
            (ready,) = [ready for report in reports for ready in report.ready]
            assert ready.report is not None
    finally:
        router.close()


def test_gateway_starts_on_a_port_and_stops():
    from repro.serve.gateway import ForecastGateway
    from repro.serve.shard import demo_spec, synthetic_router

    router, _ = synthetic_router(demo_spec(), grid=(4, 4), num_shards=1, slots=40)
    gateway = ForecastGateway(router).start()
    try:
        url = f"http://127.0.0.1:{gateway.port}/healthz"
        with urllib.request.urlopen(url, timeout=30) as reply:
            assert reply.status == 200
    finally:
        gateway.stop()
        router.close()
