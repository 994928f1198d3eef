"""Fast self-test of the benchmark: every workload at a tiny size, through the same code.

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced with ``--tiny`` and
checks that the result line carries every declared metric with its unit,
that every correctness check ran and passed, that the traced run
reconciles its ledger and dropped no span, and that each per-layer metric
is measured by at least one workload. Finally it checks that a copy of the
benchmark without the program beside it fails without printing a result.
Exits non-zero on the first problem.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
SECONDS = "10"  # long enough for the tiny replay to complete windows while traced

EXPECTED_CHECKS = {
    "train_paper": {"losses_finite", "no_rollbacks", "val_loss_identical_across_epochs"},
    "gateway_1shard": {"every_scheduled_operation_ran", "no_failed_operations",
                       "answers_correct"},
    "shards4_ingest": {"every_scheduled_operation_ran", "no_failed_operations",
                       "answers_correct", "ingest_slots_appended_equal_fed",
                       "ingest_windows_completed_as_expected",
                       "ingest_windows_scored_equal_completed"},
}
TRACED_CHECKS = {
    "train_paper": {"traced_val_loss_bit_identical", "trace_reconciles",
                    "trace_no_spans_dropped", "trace_one_ledger_per_step"},
    "gateway_1shard": {"trace_reconciles", "trace_every_request_linked",
                       "trace_no_spans_dropped"},
    "shards4_ingest": {"trace_reconciles", "trace_every_request_linked",
                       "trace_one_ledger_per_slot", "trace_no_spans_dropped"},
}


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    measured = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                fail(f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            readable = json.loads("\n".join(lines[:-1]))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                     f"failed={result['failed']} checks={readable['checks']}")
            for metric in declared[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    fail(f"{label}: metric {metric['name']} missing or wrong unit: {got}")
                if got["value"] != 0:
                    measured.add(metric["name"])
            if set(result["metrics"]) != {m["name"] for m in declared[trace]}:
                fail(f"{label}: undeclared metrics {sorted(result['metrics'])}")
            expected = EXPECTED_CHECKS[workload] | (TRACED_CHECKS[workload] if trace else set())
            missing = expected - set(readable["checks"])
            if missing:
                fail(f"{label}: checks not run: {sorted(missing)}")
            if trace and readable["report"]["trace"]["spans_dropped"] != 0:
                fail(f"{label}: spans dropped")
            print(f"ok  {label}: {len(readable['checks'])} checks, "
                  f"{len(result['metrics'])} metrics", flush=True)
    idle = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    idle = [name for name in idle if name not in ("service.fallbacks", "trace.spans_dropped")]
    if idle:
        fail(f"per-layer metrics no workload measured: {idle}")

    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("train_paper", 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            fail(f"bare copy exited {done.returncode} with output {done.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare copy without the program fails without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
