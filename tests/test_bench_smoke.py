"""Smoke-run the substrate/train bench modules with timing disabled.

The benches live outside ``testpaths`` and only run on demand, so nothing
would catch an import error or a broken kernel call until someone next
benchmarks. This runs each module once with ``--benchmark-disable`` (every
benched callable executes exactly once, untimed) in a subprocess, with
``REPRO_BENCH_DIR`` pointed at a tmpdir so no snapshot files land in the
repo.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "module",
    [
        "benchmarks/bench_substrate.py",
        "benchmarks/bench_train.py",
        "benchmarks/bench_store.py",
    ],
)
def test_bench_module_smoke(module, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "--benchmark-disable",
            module,
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{module} smoke run failed:\n{result.stdout}\n{result.stderr}"
    )


@pytest.mark.parametrize(
    "extra",
    [
        [],  # happy path
        ["--fault-rate", "0.5"],  # degraded traffic still answers
        ["--model", "Persistence"],  # a persistence primary gets no floor
    ],
    ids=["clean", "degraded", "persistence"],
)
def test_serve_bench_smoke(extra, tmp_path):
    """``python -m repro.serve.bench`` end to end, tiny geometry.

    Covers the acceptance loop: the CLI must run a 1-shard router, write
    BENCH_serve.json with the gauges bench_compare diffs, and — with faults
    injected — keep answering through the degradation chain instead of
    erroring out.
    """
    import json

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_RUNLOG"] = "0"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.serve.bench",
            "--requests", "12",
            "--clients", "3",
            "--grid", "4", "4",
            "--history", "5",
            "--horizon", "2",
            "--features", "3",
            "--slots", "40",
            "--max-batch", "4",
            *extra,
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"serve bench smoke failed:\n{result.stdout}\n{result.stderr}"
    )
    with open(tmp_path / "BENCH_serve.json") as handle:
        payload = json.load(handle)
    gauges = payload["gauges"]
    for key in (
        "bench_serve_latency_mean_seconds",
        "bench_serve_latency_p50_seconds",
        "bench_serve_latency_p99_seconds",
        "bench_serve_throughput_rps",
        "bench_serve_degraded_fraction",
    ):
        assert key in gauges, key
    assert payload["requests"] == 12
    assert gauges["bench_serve_throughput_rps"] > 0
    assert payload["config"]["shards"] == 1
    (shard,) = payload["shards"].values()
    assert sum(shard["batch_sizes"]) == 12
    if "--fault-rate" in extra:  # injection must exercise the fallback tier
        assert gauges["bench_serve_degraded_fraction"] > 0
        assert shard["tier_counts"].get("Persistence", 0) > 0
    if "Persistence" in extra:
        assert shard["tier_counts"] == {"Persistence": 12}


@pytest.mark.parametrize(
    "extra",
    [
        [],  # happy path
        ["--fault-rate", "0.5", "--deadline-ms", "200"],  # faulted shards
    ],
    ids=["clean", "faulted"],
)
def test_serve_bench_sharded_smoke(extra, tmp_path):
    """``python -m repro.serve.bench --shards N`` end to end.

    The sharded closed loop must run clean *and* faulted, writing the same
    throughput/latency/degradation gauges as one shard (bench_compare
    gates ``*_throughput_rps`` by suffix) plus the per-shard breakdown.
    """
    import json

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_RUNLOG"] = "0"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.serve.bench",
            "--shards", "2",
            "--requests", "12",
            "--clients", "3",
            "--grid", "4", "4",
            "--history", "5",
            "--horizon", "2",
            "--features", "3",
            "--slots", "40",
            "--max-batch", "4",
            *extra,
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"sharded serve bench smoke failed:\n{result.stdout}\n{result.stderr}"
    )
    with open(tmp_path / "BENCH_serve.json") as handle:
        payload = json.load(handle)
    gauges = payload["gauges"]
    for key in (
        "bench_serve_latency_mean_seconds",
        "bench_serve_latency_p50_seconds",
        "bench_serve_latency_p99_seconds",
        "bench_serve_throughput_rps",
        "bench_serve_degraded_fraction",
        "bench_serve_deadline_missed_fraction",
    ):
        assert key in gauges, key
    assert gauges["bench_serve_throughput_rps"] > 0
    assert payload["config"]["shards"] == 2
    assert set(payload["shards"]) == {"shard0", "shard1"}
    for shard in payload["shards"].values():
        assert sum(shard["batch_sizes"]) == 12
    if extra:  # injected faults must surface as merged degradation
        assert gauges["bench_serve_degraded_fraction"] > 0
        assert any(
            tier != "BikeCAP"
            for shard in payload["shards"].values()
            for tier in shard["tier_counts"]
        )


def test_gateway_selfcheck_smoke():
    """``python -m repro.serve.gateway --selfcheck``: the HTTP front door
    must come up, answer one real POSTed window, and exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_RUNLOG"] = "0"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.serve.gateway",
            "--selfcheck",
            "--shards", "2",
            "--grid", "4", "4",
            "--history", "5",
            "--horizon", "2",
            "--features", "3",
            "--slots", "40",
            "--model", "Persistence",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"gateway selfcheck failed:\n{result.stdout}\n{result.stderr}"
    )
    assert "selfcheck ok" in result.stdout


def test_serve_bench_traced_faulted_acceptance(tmp_path):
    """The issue's acceptance run: faults + tracing + drift + telemetry.

    One faulted bench run must leave (a) a Perfetto-loadable chrome trace
    in which a degraded request's tier-retry span links to its request
    span, (b) a live /metrics endpoint while it ran, and (c) exactly one
    drift_detected event from the deterministic injected error shift.
    """
    import json

    runlog_dir = tmp_path / "runs"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_RUNLOG"] = "1"
    env["REPRO_RUNLOG_DIR"] = str(runlog_dir)
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.serve.bench",
            "--requests", "16",
            "--clients", "4",
            "--grid", "4", "4",
            "--history", "5",
            "--horizon", "2",
            "--features", "3",
            "--slots", "40",
            "--max-batch", "4",
            "--fault-rate", "0.5",
            "--deadline-ms", "50",
            "--trace",
            "--telemetry-port", "0",
            "--drift-samples", "64",
            "--drift-shift", "1.0",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"traced serve bench failed:\n{result.stdout}\n{result.stderr}"
    )
    assert "telemetry live at" in result.stdout

    with open(tmp_path / "BENCH_serve.json") as handle:
        payload = json.load(handle)
    assert payload["drift"]["events"] == 1
    assert "breaches" in payload["slo"]

    # (a) chrome trace: a degraded request's failed tier-retry span links
    # back to a serve.request span in the same trace.
    with open(tmp_path / "BENCH_serve.trace.json") as handle:
        chrome = json.load(handle)
    spans = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
    requests = {
        e["args"]["span_id"]: e for e in spans if e["name"] == "serve.request"
    }
    assert requests
    failed_retries = [
        e
        for e in spans
        if e["name"] == "serve.tier.retry" and e["args"].get("status") == "error"
    ]
    assert failed_retries, "faulted run recorded no failed tier retries"
    # Retries from the drift replay (direct predict_one calls) parent to
    # tier spans; the batched load's retries must link to request spans.
    linked = [e for e in failed_retries if e["args"]["parent_id"] in requests]
    assert linked, "no failed retry linked back to a request span"
    for retry in linked:
        parent = requests[retry["args"]["parent_id"]]
        assert parent["args"]["trace_id"] == retry["args"]["trace_id"]

    # (c) exactly one drift_detected event in the run log.
    logs = [
        name
        for name in os.listdir(runlog_dir)
        if name.endswith(".jsonl") and ".trace" not in name
    ]
    assert len(logs) == 1
    with open(runlog_dir / logs[0]) as handle:
        events = [json.loads(line) for line in handle]
    drift_events = [e for e in events if e.get("event") == "drift_detected"]
    assert len(drift_events) == 1
    assert drift_events[0]["service"] == "serve-bench"


def test_serve_bench_adapt_smoke(tmp_path):
    """``--adapt``: deterministic drift replay → exactly one warm-start
    fine-tune → shadow-gated hot-swap, with post-swap error measurably
    below pre-swap (the ISSUE-10 acceptance loop, end to end)."""
    import json

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_RUNLOG"] = "0"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.serve.bench",
            "--requests", "12",
            "--clients", "2",
            "--grid", "4", "4",
            "--history", "5",
            "--horizon", "2",
            "--features", "3",
            "--slots", "40",
            "--max-batch", "4",
            "--adapt",
            "--drift-shift", "1.5",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"adapt serve bench smoke failed:\n{result.stdout}\n{result.stderr}"
    )
    with open(tmp_path / "BENCH_serve.json") as handle:
        payload = json.load(handle)
    adaptation = payload["adaptation"]
    status = adaptation["status"]
    assert status["triggered"] == 1  # the infinite cooldown allows exactly one
    assert status["swapped"] == 1
    assert status["failed"] == status["rejected"] == 0
    assert status["generation"] == 1
    assert status["last_shadow"]["passed"] is True
    assert adaptation["drift_events"] == 1
    assert adaptation["pre_samples"] > 0 and adaptation["post_samples"] > 0
    # The fine-tuned generation measurably recovered from the regime shift.
    assert adaptation["post_swap_error"] < adaptation["pre_swap_error"]
    assert adaptation["improvement_fraction"] > 0
    gauges = payload["gauges"]
    for key in (
        "serve_adaptation_recovery_pre_swap_error",
        "serve_adaptation_recovery_post_swap_error",
        "serve_adaptation_recovery_improvement_fraction",
    ):
        assert key in gauges, key


@pytest.mark.parametrize("fault", ["fine-tune", "swap"])
def test_serve_bench_adapt_fault_smoke(fault, tmp_path):
    """``--adapt-fault``: a poisoned fine-tune (recovery retries exhaust)
    or a crash inside the hot-swap critical section must leave the
    original generation serving every request — zero failures, typed
    ``adaptation_failed`` outcome, and no recovery gauges (nothing
    recovered)."""
    import json

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_RUNLOG"] = "0"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.serve.bench",
            "--requests", "12",
            "--clients", "2",
            "--grid", "4", "4",
            "--history", "5",
            "--horizon", "2",
            "--features", "3",
            "--slots", "40",
            "--max-batch", "4",
            "--adapt",
            "--drift-shift", "1.5",
            "--adapt-fault", fault,
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"faulted adapt bench ({fault}) failed:\n{result.stdout}\n{result.stderr}"
    )
    with open(tmp_path / "BENCH_serve.json") as handle:
        payload = json.load(handle)
    adaptation = payload["adaptation"]
    status = adaptation["status"]
    assert status["triggered"] == 1
    assert status["swapped"] == 0
    assert status["failed"] == 1
    assert status["generation"] == 0  # the original model kept serving
    expected_reason = {
        "fine-tune": "fine_tune_divergence",
        "swap": "swap_crash",
    }[fault]
    assert status["last_reason"] == expected_reason
    assert adaptation["fault_fired"], "the injected fault never fired"
    assert adaptation["post_samples"] == 0  # no swap → no post-swap stream
    # The load phase before the replay answered everything normally.
    assert payload["gauges"]["bench_serve_throughput_rps"] > 0
    # And the recovery gauges are omitted: bench_compare must not diff
    # misleading zeros from a run that never recovered.
    for key in (
        "serve_adaptation_recovery_pre_swap_error",
        "serve_adaptation_recovery_post_swap_error",
        "serve_adaptation_recovery_improvement_fraction",
    ):
        assert key not in payload["gauges"], key
