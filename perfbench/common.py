"""Shared helpers: binding the program from source, statistics, process facts."""

from __future__ import annotations

import math
import os
import resource
import shutil
import sys
import time
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


class ProgramUnavailable(RuntimeError):
    """The program source is missing, or engine knobs are set in the environment."""


def bind_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Refuses to run when the source tree is absent (so a bare copy of the
    benchmark fails instead of measuring an installed package) and when any
    ``REPRO_*`` variable is set, because the benchmark measures the shipped
    engine defaults.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramUnavailable(f"program source not found under {SRC}")
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        raise ProgramUnavailable(f"unset these variables to measure the defaults: {knobs}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ProgramUnavailable(f"repro imported from {repro.__file__}, not from {SRC}")


def make_workdir(label: str) -> str:
    """A private scratch directory inside the checkout, removed by ``drop_workdir``."""
    path = os.path.join(WORK_ROOT, f"{label}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def drop_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def engine_state() -> Dict[str, object]:
    import numpy as np
    from repro.nn import config

    return {
        "dtype": np.dtype(config.dtype()).name,
        "engine_mode": config.engine_mode(),
        "num_threads": config.num_threads(),
    }


def counter_total(prefix: str) -> float:
    """Sum of one ``repro.obs`` counter over all its label sets."""
    from repro.obs import metrics

    counters = metrics.snapshot()["counters"]
    return float(
        sum(v for k, v in counters.items() if k == prefix or k.startswith(prefix + "{"))
    )


def program_counters() -> Dict[str, float]:
    """The engine plan-cache and serving-degradation counters, right now."""
    from repro.nn import engine

    stats = engine.plan_cache_stats()
    return {
        "plan_hits": float(stats["hits"]),
        "plan_misses": float(stats["misses"]),
        "degradations": counter_total("serve_degradations_total"),
    }


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before}


def hit_ratio(delta: Dict[str, float]) -> float:
    lookups = delta["plan_hits"] + delta["plan_misses"]
    return delta["plan_hits"] / lookups if lookups else 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class SetupClock:
    """Times repeated set-ups; the first one counts from process start."""

    def __init__(self, process_start: float):
        self.process_start = process_start
        self.durations: List[float] = []
        self._began = None

    def begin(self) -> None:
        self._began = self.process_start if not self.durations else time.perf_counter()

    def end(self) -> None:
        self.durations.append(time.perf_counter() - self._began)

    @property
    def median(self) -> float:
        return median(self.durations)


class Result:
    """What one workload run produced: metrics, work counts, checks and a readable report."""

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.report: Dict[str, object] = {}
        self.trace_recorder = None  # the spans of a traced run, written out after it

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())
