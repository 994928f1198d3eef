"""The program API the performance benchmark (``perfbench/``) reads.

The benchmark runs outside this suite; these calls pin what it uses of the
program, so an API change fails here instead of in a benchmark run.
"""

import json
import urllib.request

import numpy as np

from perfbench import common, serving

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


def test_gateway_starts_on_a_port_and_stops():
    from repro.serve.gateway import ForecastGateway
    from repro.serve.shard import synthetic_router

    router, _ = synthetic_router(grid=(4, 4), num_shards=1, slots=40)
    gateway = ForecastGateway(router).start()
    try:
        url = f"http://127.0.0.1:{gateway.port}/healthz"
        with urllib.request.urlopen(url, timeout=30) as reply:
            assert reply.status == 200
    finally:
        gateway.stop()
        router.close()
