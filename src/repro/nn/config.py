"""Global configuration for the numpy deep-learning substrate.

The substrate computes in float32 by default, like the paper's Keras stack
(whose ``floatx`` defaults to float32). Float64 is the reference path:
finite-difference gradient checks always run in it
(:mod:`repro.nn.gradcheck`), and the reported experiment tables were
produced in it. :func:`set_dtype`, :func:`use_dtype` or ``REPRO_DTYPE``
select it; :func:`engine_mode` is a read-only label for the choice.

Whether autograd records graphs is per thread (:func:`no_grad`); every
other setting is process-wide.

Two knobs, each overridable by an environment variable read once at
import:

=============================== ======================================== =========
knob                            environment variable                     default
=============================== ======================================== =========
dtype                           ``REPRO_DTYPE`` (float32|float64)        float32
plan cache on/off               ``REPRO_PLAN_CACHE`` (1|0)               1
=============================== ======================================== =========

The plan cache gates every identity-keyed cache in :mod:`repro.nn.engine`
and the fused kernels with them. Conv dispatch has no knob:
:mod:`repro.nn.ops.conv` picks its strategy from the kernel volume alone.
Threads have none either: a model decides how many shards a batch runs
as, and the host's usable CPUs decide whether those shards run side by
side (:func:`num_threads`, docs/PERFORMANCE.md).
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


_DTYPE = np.float32
_PLAN_CACHE_ENABLED = _env_flag("REPRO_PLAN_CACHE", True)


def dtype() -> np.dtype:
    """Return the substrate-wide floating point dtype."""
    return _DTYPE


def set_dtype(new_dtype) -> None:
    """Set the substrate-wide floating point dtype (float32 or float64)."""
    global _DTYPE
    nd = np.dtype(new_dtype)
    if nd not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"dtype must be float32 or float64, got {new_dtype}")
    _DTYPE = nd.type


def engine_mode() -> str:
    """Read-only label for the dtype: ``"fast"`` (float32) or ``"precise"`` (float64)."""
    return "fast" if _DTYPE is np.float32 else "precise"


@contextlib.contextmanager
def use_dtype(new_dtype):
    """Context manager pinning the substrate dtype inside the block."""
    global _DTYPE
    previous = _DTYPE
    set_dtype(new_dtype)
    try:
        yield
    finally:
        _DTYPE = previous


class _GradMode(threading.local):
    # Class attribute: every thread starts with autograd on.
    enabled = True


_GRAD_MODE = _GradMode()


def grad_enabled() -> bool:
    """Return whether autograd graph construction is enabled on this thread."""
    return _GRAD_MODE.enabled


def set_grad_enabled(enabled: bool) -> None:
    """Enable or disable autograd graph construction on this thread.

    Per thread, so a serving thread inside :func:`no_grad` never switches
    autograd off under a training step running on another thread.
    """
    _GRAD_MODE.enabled = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph construction on this thread.

    Useful for evaluation loops: forward passes run faster and allocate no
    backward closures.
    """
    previous = grad_enabled()
    set_grad_enabled(False)
    try:
        yield
    finally:
        set_grad_enabled(previous)


# ---------------------------------------------------------------------------
# Execution-engine knobs (consumed by repro.nn.engine)
# ---------------------------------------------------------------------------

def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def num_threads() -> int:
    """Threads one training step or validation batch runs on.

    Two when the process may use two CPUs, else one: a sharded batch runs
    its second shard on the engine's single pool thread, and BLAS and FFT
    calls are held to one thread each (:mod:`repro.nn.engine`).
    """
    return min(2, usable_cpus())


def plan_cache_enabled() -> bool:
    return _PLAN_CACHE_ENABLED


def set_plan_cache_enabled(enabled: bool) -> None:
    global _PLAN_CACHE_ENABLED
    _PLAN_CACHE_ENABLED = bool(enabled)


# Environment-selected startup dtype.
_ENV_DTYPE = os.environ.get("REPRO_DTYPE")
if _ENV_DTYPE:
    set_dtype(_ENV_DTYPE)
