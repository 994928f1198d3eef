"""Global configuration for the numpy deep-learning substrate.

The substrate defaults to float64 so finite-difference gradient checks are
reliable; callers that want speed over gradcheck-grade precision can switch
to float32 via :func:`set_dtype` or the ``fast`` engine mode.

Whether autograd records graphs is per thread (:func:`no_grad`); every
other setting is process-wide.

Engine knobs (all overridable by environment variables, read once at
import) control the execution-plan layer in :mod:`repro.nn.engine`:

=============================== ======================================== =========
knob                            environment variable                     default
=============================== ======================================== =========
dtype                           ``REPRO_DTYPE`` (float32|float64)        float64
engine mode                     ``REPRO_ENGINE`` (fast|precise|mixed)    precise
cross-op fusion on/off          ``REPRO_FUSION`` (1|0)                   1
plan cache on/off               ``REPRO_PLAN_CACHE`` (1|0)               1
initial dynamic loss scale      ``REPRO_LOSS_SCALE``                     65536
loss-scale growth interval      ``REPRO_LOSS_SCALE_GROWTH_INTERVAL``     200
minimum loss scale              ``REPRO_LOSS_SCALE_MIN``                 1.0
=============================== ======================================== =========

Conv dispatch has no knob: :mod:`repro.nn.ops.conv` picks its strategy
from the kernel volume alone. Threads have none either: a model decides
how many shards a batch runs as, and the host's usable CPUs decide whether
those shards run side by side (:func:`num_threads`, docs/PERFORMANCE.md).
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    return int(raw)


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


_DTYPE = np.float64
_MIXED = False
_FUSION_ENABLED = _env_flag("REPRO_FUSION", True)
_PLAN_CACHE_ENABLED = _env_flag("REPRO_PLAN_CACHE", True)
_LOSS_SCALE_INIT = float(os.environ.get("REPRO_LOSS_SCALE", "") or 65536.0)
_LOSS_SCALE_GROWTH_INTERVAL = _env_int("REPRO_LOSS_SCALE_GROWTH_INTERVAL", 200)
_LOSS_SCALE_MIN = float(os.environ.get("REPRO_LOSS_SCALE_MIN", "") or 1.0)


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
    """``"mixed"``/``"fast"`` for float32 compute, ``"precise"`` for float64."""
    if _DTYPE is np.float32:
        return "mixed" if _MIXED else "fast"
    return "precise"


def set_engine_mode(mode: str) -> None:
    """Sugar over :func:`set_dtype`: ``fast``/``mixed`` → float32, ``precise`` → float64.

    ``mixed`` additionally arms mixed-precision training: optimizers keep
    float64 master copies of the float32 parameters and the trainer applies
    dynamic loss scaling (see :mod:`repro.nn.optim`). Must be set *before*
    models are constructed — parameters adopt the ambient dtype at creation
    time. Gradient checks always run float64 regardless of this mode
    (:mod:`repro.nn.gradcheck` pins it).
    """
    global _MIXED
    if mode == "fast":
        set_dtype(np.float32)
        _MIXED = False
    elif mode == "mixed":
        set_dtype(np.float32)
        _MIXED = True
    elif mode == "precise":
        set_dtype(np.float64)
        _MIXED = False
    else:
        raise ValueError(
            f"engine mode must be 'fast', 'mixed' or 'precise', got {mode!r}"
        )


def mixed_precision() -> bool:
    """Whether mixed-precision training (master weights + loss scaling) is on.

    Only meaningful while the compute dtype is float32 — pinning float64
    (e.g. inside a gradcheck ``use_dtype`` block) suspends it.
    """
    return _MIXED and _DTYPE is np.float32


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
# Execution-engine knobs (consumed by repro.nn.engine and repro.nn.optim)
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


def fusion_enabled() -> bool:
    """Whether cross-op fused kernels (:mod:`repro.nn.fusion`) may be used."""
    return _FUSION_ENABLED


def set_fusion_enabled(enabled: bool) -> None:
    global _FUSION_ENABLED
    _FUSION_ENABLED = bool(enabled)


def loss_scale_init() -> float:
    """Initial dynamic loss scale for mixed-precision training."""
    return _LOSS_SCALE_INIT


def loss_scale_growth_interval() -> int:
    """Consecutive finite steps before the loss scale doubles."""
    return _LOSS_SCALE_GROWTH_INTERVAL


def loss_scale_min() -> float:
    """Floor below which loss-scale collapse is treated as divergence."""
    return _LOSS_SCALE_MIN


def plan_cache_enabled() -> bool:
    return _PLAN_CACHE_ENABLED


def set_plan_cache_enabled(enabled: bool) -> None:
    global _PLAN_CACHE_ENABLED
    _PLAN_CACHE_ENABLED = bool(enabled)


# Environment-selected startup state: REPRO_ENGINE wins over REPRO_DTYPE.
_ENV_DTYPE = os.environ.get("REPRO_DTYPE")
if _ENV_DTYPE:
    set_dtype(_ENV_DTYPE)
_ENV_ENGINE = os.environ.get("REPRO_ENGINE")
if _ENV_ENGINE:
    set_engine_mode(_ENV_ENGINE)
