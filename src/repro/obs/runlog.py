"""Structured JSONL run logs.

A :class:`RunLogger` writes one JSON object per line: a ``run_start`` event
on open (seed + config recorded), arbitrary events while open, and a
``run_end`` event on close. Timestamps are *monotonic seconds since open*
(``ts``) plus a wall-clock ``time`` for cross-run correlation.

While a logger is open it is registered process-globally, so deeply nested
code (the routing loop, the trainer's epoch loop, boosting rounds) can emit
events with the module-level :func:`emit` without threading a logger handle
through every API. When no logger is open, :func:`emit` is a no-op costing
one truthiness check.

Default run-log files live under ``results/runs/`` (override with the
``REPRO_RUNLOG_DIR`` environment variable; set ``REPRO_RUNLOG=0`` to
disable the experiment runners' automatic logs entirely).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Dict, List, Optional

RUNLOG_DIR_ENV = "REPRO_RUNLOG_DIR"
RUNLOG_ENV = "REPRO_RUNLOG"

_ACTIVE: List["RunLogger"] = []
_SEQUENCE = itertools.count()


class RunLogger:
    """Append-only JSONL event writer for one run."""

    def __init__(
        self,
        path: str,
        run_id: Optional[str] = None,
        seed: Optional[int] = None,
        config: Optional[Dict] = None,
    ):
        self.path = path
        self.run_id = run_id or os.path.splitext(os.path.basename(path))[0]
        self.seed = seed
        self.config = config
        self._handle = None
        self._t0 = 0.0
        # Serializes writers: concurrent event() calls (service worker,
        # client threads, monitors) must each land as one intact JSON line.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._handle is not None

    def open(self) -> "RunLogger":
        if self.is_open:
            return self
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "w")
        self._t0 = time.monotonic()
        self._write(
            {
                "event": "run_start",
                "ts": 0.0,
                "time": time.time(),
                "run_id": self.run_id,
                "seed": self.seed,
                "config": self.config,
            }
        )
        _ACTIVE.append(self)
        return self

    def event(self, event_type: str, **fields) -> None:
        if not self.is_open:
            raise RuntimeError(f"run logger for {self.path} is not open")
        record = {"event": event_type, "ts": time.monotonic() - self._t0}
        record.update(fields)
        self._write(record)

    def close(self, status: str = "ok", **fields) -> None:
        if not self.is_open:
            return
        record = {
            "event": "run_end",
            "ts": time.monotonic() - self._t0,
            "time": time.time(),
            "run_id": self.run_id,
            "status": status,
        }
        record.update(fields)
        line = json.dumps(record, default=str) + "\n"
        try:
            _ACTIVE.remove(self)
        except ValueError:
            pass
        # run_end and the close share one lock hold, so no event racing the
        # close can land after run_end.
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line)
            self._handle.close()
            self._handle = None

    def _write(self, record: Dict) -> None:
        # Serialize the line outside the lock (the expensive part), then
        # write-and-flush atomically so concurrent emitters interleave at
        # line granularity only. A writer racing close() drops the event
        # instead of crashing the run.
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line)
            self._handle.flush()

    # ------------------------------------------------------------------
    def __enter__(self) -> "RunLogger":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(status="error" if exc_type is not None else "ok")


# ----------------------------------------------------------------------
# Module-level dispatch to whatever loggers are currently open.
# ----------------------------------------------------------------------
def active() -> bool:
    """True when at least one run logger is open (emit would do work)."""
    return bool(_ACTIVE)


def emit(event_type: str, **fields) -> None:
    """Write an event to every open run logger; no-op when none are open."""
    if not _ACTIVE:
        return
    for logger in list(_ACTIVE):
        logger.event(event_type, **fields)


# ----------------------------------------------------------------------
# Default file placement for the experiment runners.
# ----------------------------------------------------------------------
def enabled() -> bool:
    return os.environ.get(RUNLOG_ENV, "1") != "0"


def default_dir() -> str:
    return os.environ.get(RUNLOG_DIR_ENV, os.path.join("results", "runs"))


def new_run_path(label: str, directory: Optional[str] = None) -> str:
    """A unique ``run-<label>-<pid>-<seq>.jsonl`` path under the run-log dir."""
    directory = directory if directory is not None else default_dir()
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in label)
    name = f"run-{safe}-{os.getpid()}-{next(_SEQUENCE):04d}.jsonl"
    return os.path.join(directory, name)


def start_run(
    label: str,
    seed: Optional[int] = None,
    config: Optional[Dict] = None,
    directory: Optional[str] = None,
) -> Optional[RunLogger]:
    """Open a run logger under the default directory, or None when disabled."""
    if not enabled():
        return None
    path = new_run_path(label, directory=directory)
    return RunLogger(path, seed=seed, config=config).open()


def read_events(path: str) -> List[Dict]:
    """Parse a JSONL run log back into a list of event dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
