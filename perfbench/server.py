"""The serving process of ``gateway_1shard``: a ForecastGateway over a 1-shard router.

    python3 perfbench/server.py CONFIG.json [--trace]

Loads the shard services from the checkpoint and scaler state named in the
config with ``load_shard_services``, starts the gateway on an ephemeral
port and prints ``{"ready": port}``. It then answers one JSON line per
command read from standard input:

- ``counters``: the engine plan-cache and serving-degradation counters;
- ``trace``: install the benchmark's spans on the router and everything
  behind it (only with ``--trace``, which also gives the router a clock
  that notes submission stamps);
- ``report``: spans, submission stamps, peak RSS, batch sizes and whether
  autograd is still enabled;
- ``stop``: shut the gateway and the router down and exit.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench import common, serving
    from perfbench import spans as spanlib

    common.bind_program()
    with open(argv[0]) as handle:
        config = json.load(handle)
    trace = "--trace" in argv[1:]

    from repro.nn import config as nn_config
    from repro.pipeline import RunSpec
    from repro.serve import ShardRouter, load_shard_services, partition_grid
    from repro.serve.gateway import ForecastGateway

    spec = RunSpec.from_dict(config["spec"])
    regions = partition_grid(tuple(config["grid"]), config["shards"])
    services = load_shard_services(
        spec,
        regions,
        num_features=config["num_features"],
        history=spec.history,
        horizon=spec.horizon,
        scaler_states=config["scaler_states"],
        checkpoint_paths=config["checkpoints"],
        warm_batch_sizes=serving.WARM_BATCH_SIZES,
    )
    recorder = spanlib.Recorder() if trace else None
    router = ShardRouter(
        regions,
        services,
        max_batch=serving.MAX_BATCH,
        max_wait_seconds=serving.MAX_WAIT_SECONDS,
        clock=recorder.stamping_clock() if trace else time.monotonic,
    )
    gateway = ForecastGateway(router).start()
    try:
        reply({"ready": gateway.port, "engine": common.engine_state()})
        for line in sys.stdin:
            command = line.strip()
            if command == "counters":
                reply(common.program_counters())
            elif command == "trace" and recorder is not None:
                serving.wrap_router(recorder, router)
                reply({"tracing": True})
            elif command == "report":
                reply({
                    "grad_enabled": nn_config.grad_enabled(),
                    "peak_rss_mb": common.peak_rss_mb(),
                    "batch_sizes": router.batch_sizes,
                    "spans": recorder.spans if recorder else [],
                    "dropped": recorder.dropped if recorder else 0,
                    "stamps": list(recorder.stamp_owner.items()) if recorder else [],
                })
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        gateway.stop()
        router.close()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
