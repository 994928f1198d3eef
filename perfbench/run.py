"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` of
the same checkout; without it the command exits with status 2 and prints
no result. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``. Everything before it is a
readable report of the same run.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train_paper", "gateway_1shard", "shards4_ingest")


def declared_metrics(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test only")
    args = parser.parse_args(argv)

    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench import common

    try:
        common.bind_program()
    except common.ProgramUnavailable as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    metrics = declared_metrics(bool(args.trace))

    workdir = common.make_workdir(args.workload)
    previous = os.getcwd()
    os.chdir(workdir)  # anything the program writes relative to cwd lands here
    try:
        workload = importlib.import_module(f"perfbench.{args.workload}")
        result = workload.run(args.seconds, args.seed, bool(args.trace), args.tiny, PROCESS_START)
    finally:
        os.chdir(previous)
        common.drop_workdir(workdir)

    recorder = result.trace_recorder
    if recorder is not None:
        dump = os.path.join(common.WORK_ROOT, f"trace-{args.workload}.jsonl")
        recorder.dump(dump)
        result.report.setdefault("trace", {})["dump"] = os.path.relpath(dump, ROOT)

    if args.trace:
        # A layer this workload never calls did no work in it.
        idle = [name for name, _unit in metrics if name not in result.metrics]
        result.metrics.update({name: 0.0 for name in idle})
        result.report["layers_not_exercised"] = idle
    missing = [name for name, _unit in metrics if name not in result.metrics]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}", file=sys.stderr)
        return 1
    values = {}
    for name, unit in metrics:
        value = float(result.metrics[name])
        if not math.isfinite(value):
            print(f"perfbench: {name} is not finite ({value})", file=sys.stderr)
            return 1
        values[name] = {"value": value, "unit": unit}

    readable = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {name: f"{v['value']:.6g} {v['unit']}" for name, v in values.items()},
        "checks": result.checks,
        "report": result.report,
    }
    print(json.dumps(readable, indent=2, default=str))
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
