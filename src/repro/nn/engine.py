"""Execution-plan layer for the numpy substrate.

Every experiment in this reproduction funnels through the same handful of
numpy kernels, and training repeats them thousands of times on identical
shapes. This module reuses the work that is invariant across those calls
and owns the substrate's threads:

- **Plan cache** — ``np.einsum`` contraction paths, keyed by shape/dtype
  signatures. Looked up once per signature, hit thereafter
  (``engine_plan_cache_*`` counters). Conv dispatch needs no cache: it is
  one comparison on the kernel shape (:mod:`repro.nn.ops.conv`).
- **Weight-derived caches** — the precomputed kernel FFT and the masked
  effective weight (pyramid gating) are invariant while the weights are
  unchanged; entries are keyed by the weight array's identity plus a global
  *weight version* that optimizers bump on every step (and
  ``Module.load_state_dict`` on every load), so a stale kernel FFT can
  never survive a weight update.
- **One thread budget** — parallelism comes only from batch shards. A
  sharded batch runs its first shard on the calling thread and the second
  on one pool thread (:func:`run_shards`) when the process may use two
  CPUs; OpenBLAS is pinned to one thread when this module is imported and
  the FFTs run with ``workers=1``, so neither competes with the shards.

The one knob, the dtype, lives in :mod:`repro.nn.config`; behaviour and
measurements are documented in docs/PERFORMANCE.md.

Identity-keyed caches are only coherent if in-place weight mutation goes
through an optimizer step or a state-dict load. Code that perturbs
``param.data`` directly (e.g. finite-difference gradcheck) must run inside
:func:`no_cache`, which bypasses them.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import os
import threading
import weakref
from concurrent import futures as concurrent_futures
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.nn import config
from repro.obs import metrics as obs_metrics
from repro.obs import tracing

logger = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Cache-coherency state
# ---------------------------------------------------------------------------

_weight_version = 0
_cache_bypass = threading.local()


def weight_version() -> int:
    """Monotonic counter identifying the current generation of weights."""
    return _weight_version


def bump_weight_version() -> None:
    """Invalidate weight-derived caches (kernel FFTs, masked weights).

    Called by every optimizer step and ``load_state_dict``; call it manually
    after mutating a parameter's ``data`` in place by any other route.
    """
    global _weight_version
    _weight_version += 1


def caches_enabled() -> bool:
    """Whether identity-keyed caches may be consulted on this thread."""
    return not getattr(_cache_bypass, "depth", 0)


@contextlib.contextmanager
def no_cache():
    """Bypass identity-keyed caches inside the block (this thread only).

    Required around code that mutates parameter data in place without an
    optimizer step — the finite-difference gradcheck is the canonical user.
    Pure shape-keyed plans (einsum paths) stay active; they are functions
    of the signature alone and cannot go stale. Fused
    kernels (:mod:`repro.nn.fusion`) are also disabled inside the block:
    although bit-equivalent by construction, the bypass makes the block
    the unfused reference path that gradchecks and the fusion parity
    tests run.
    """
    _cache_bypass.depth = getattr(_cache_bypass, "depth", 0) + 1
    try:
        yield
    finally:
        _cache_bypass.depth -= 1


# ---------------------------------------------------------------------------
# Plan cache: einsum contraction paths and fused-kernel plans
# ---------------------------------------------------------------------------

_plan_lock = threading.Lock()
_einsum_paths: Dict[Tuple, list] = {}
_fused_plans: Dict[Tuple, object] = {}


def _plan_hit(kind: str) -> None:
    obs_metrics.counter("engine_plan_cache_hits_total", kind=kind).inc()


def _plan_miss(kind: str) -> None:
    obs_metrics.counter("engine_plan_cache_misses_total", kind=kind).inc()


def fused_plan(key: Tuple, builder: Callable[[], object]):
    """Shape-keyed cache of compiled fused-kernel plans.

    ``key[0]`` names the fused kernel kind (``lstm_gates``, ``squash``,
    ``routing``, …) and the rest pins the full shape/dtype signature.
    Returns ``None`` inside ``no_cache()`` so call sites fall back to the
    unfused op chain; hit/miss traffic is exported as
    ``engine_fusion_cache_*_total``.
    """
    if not caches_enabled():
        return None
    with _plan_lock:
        plan = _fused_plans.get(key)
    if plan is not None:
        obs_metrics.counter("engine_fusion_cache_hits_total", kind=key[0]).inc()
        return plan
    plan = builder()
    with _plan_lock:
        _fused_plans[key] = plan
    obs_metrics.counter("engine_fusion_cache_misses_total", kind=key[0]).inc()
    return plan


def einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum`` with the contraction path cached per shape signature."""
    key = (subscripts,) + tuple(
        (op.shape, np.dtype(op.dtype).str) for op in operands
    )
    with _plan_lock:
        path = _einsum_paths.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize=True)[0]
        with _plan_lock:
            _einsum_paths[key] = path
        _plan_miss("einsum_path")
    else:
        _plan_hit("einsum_path")
    return np.einsum(subscripts, *operands, optimize=path)


# ---------------------------------------------------------------------------
# Weight-derived caches (kernel FFTs, masked effective weights)
# ---------------------------------------------------------------------------

class _WeightCache:
    """Identity-keyed cache of arrays derived from (unchanging) weights.

    An entry is valid only while (a) the exact source array object is still
    alive (held by weakref, so a recycled ``id`` can never alias) and
    (b) the global weight version has not moved since it was built.
    """

    def __init__(self, name: str, capacity: int = 128):
        self.name = name
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: Dict[Tuple, Tuple[weakref.ref, int, np.ndarray]] = {}

    def get_or_build(
        self,
        source: np.ndarray,
        key_extra: Tuple,
        builder: Callable[[], np.ndarray],
        extra_source: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if not caches_enabled():
            return builder()
        key = (id(source),) + key_extra
        version = _weight_version
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None:
            refs, entry_version, value = entry
            if entry_version == version and all(
                ref() is origin for ref, origin in zip(refs, (source, extra_source))
            ):
                obs_metrics.counter(f"engine_{self.name}_cache_hits_total").inc()
                return value
        value = builder()
        try:
            refs = (weakref.ref(source),) + (
                (weakref.ref(extra_source),) if extra_source is not None else ()
            )
        except TypeError:
            # Non-weakrefable sources (rare array subclasses) are not cached.
            return value
        with self._lock:
            if len(self._entries) >= self.capacity:
                self._entries.clear()
            self._entries[key] = (refs, version, value)
        obs_metrics.counter(f"engine_{self.name}_cache_misses_total").inc()
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_kernel_fft_cache = _WeightCache("kernel_fft")
_masked_weight_cache = _WeightCache("masked_weight")


def kernel_fft(
    source: np.ndarray, key_extra: Tuple, builder: Callable[[], np.ndarray]
) -> np.ndarray:
    """Cache an FFT derived from kernel array ``source``.

    ``key_extra`` must pin down everything else the transform depends on
    (padded extent, flip, and — since kernels often arrive as flip/transpose
    views of a parameter — the view's memory layout).
    """
    return _kernel_fft_cache.get_or_build(source, tuple(key_extra), builder)


def masked_weight(w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Cache ``w * mask`` (the pyramid convolution's gated kernel)."""
    return _masked_weight_cache.get_or_build(
        w, (id(mask), w.shape), lambda: w * mask, extra_source=mask
    )


def clear_caches() -> None:
    """Drop every cached plan and weight-derived entry (tests, benchmarks)."""
    with _plan_lock:
        _einsum_paths.clear()
        _fused_plans.clear()
    _kernel_fft_cache.clear()
    _masked_weight_cache.clear()


def _sum_counters(prefix: str) -> float:
    counters = obs_metrics.get_registry().snapshot()["counters"]
    return sum(
        value
        for key, value in counters.items()
        if key == prefix or key.startswith(prefix + "{")
    )


def plan_cache_stats() -> Dict[str, object]:
    """Live plan-cache statistics (entries and hit/miss traffic).

    Entry counts come straight from the cache dicts; hit/miss totals are the
    accumulated ``engine_*_cache_*_total`` counters (summed over their
    ``kind`` label).
    """
    with _plan_lock:
        entries = {
            "einsum_paths": len(_einsum_paths),
            "fused_kernels": len(_fused_plans),
        }
    with _kernel_fft_cache._lock:
        entries["kernel_fft"] = len(_kernel_fft_cache._entries)
    with _masked_weight_cache._lock:
        entries["masked_weight"] = len(_masked_weight_cache._entries)
    return {
        "entries": entries,
        "hits": _sum_counters("engine_plan_cache_hits_total"),
        "misses": _sum_counters("engine_plan_cache_misses_total"),
        "fusion_hits": _sum_counters("engine_fusion_cache_hits_total"),
        "fusion_misses": _sum_counters("engine_fusion_cache_misses_total"),
    }


def publish_plan_cache_stats() -> Dict[str, object]:
    """Export :func:`plan_cache_stats` as ``repro.obs`` gauges and return it."""
    stats = plan_cache_stats()
    for kind, count in stats["entries"].items():
        obs_metrics.gauge("engine_plan_cache_entries", kind=kind).set(count)
    return stats


# ---------------------------------------------------------------------------
# Inference warm-up
# ---------------------------------------------------------------------------


def warmup(
    forward: Callable[[np.ndarray], np.ndarray],
    example_shape: Tuple[int, ...],
    batch_sizes: Tuple[int, ...] = (1,),
    dtype=None,
) -> int:
    """Prime the shape-keyed caches behind an inference path.

    Runs ``forward`` once per requested batch size on zero-filled inputs of
    shape ``(batch,) + example_shape``, discarding the outputs. Every plan
    in this module is keyed by the *full* shape signature — batch included —
    so a service must warm each batch size it will actually serve (e.g. 1
    and its micro-batch cap), or the first real request at that size pays
    for einsum path search and kernel-FFT construction. Returns the number
    of forward calls made.
    """
    dtype = np.dtype(dtype if dtype is not None else config.dtype())
    calls = 0
    with config.no_grad():
        for batch in batch_sizes:
            if batch < 1:
                raise ValueError(f"warm-up batch sizes must be >= 1, got {batch}")
            forward(np.zeros((int(batch),) + tuple(example_shape), dtype=dtype))
            calls += 1
    obs_metrics.counter("engine_warmup_runs_total").inc(calls)
    return calls


# ---------------------------------------------------------------------------
# Threads: one BLAS thread, one pool thread for batch shards
# ---------------------------------------------------------------------------

# How the OpenBLAS builds numpy and scipy ship name their thread setter.
_OPENBLAS_SETTERS = tuple(
    f"{prefix}openblas_set_num_threads{suffix}"
    for prefix in ("", "scipy_")
    for suffix in ("", "64_", "_64")
)


def _loaded_openblas() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line
            }
    except OSError:
        return []
    return sorted(
        path
        for path in paths
        if os.path.basename(path).startswith(("libopenblas", "libscipy_openblas"))
    )


def pin_blas_threads() -> int:
    """Hold every loaded OpenBLAS to one thread; returns how many were pinned.

    Done with ctypes, the way threadpoolctl does it. Batch shards are the
    substrate's only parallelism: a multi-threaded BLAS under two shards
    oversubscribes a two-CPU host and erases the sharding gain. When no
    known library is found, nothing changes and that is logged.
    """
    pinned = 0
    for path in _loaded_openblas():
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned += 1
                break
    if not pinned:
        logger.info("no OpenBLAS library found; BLAS threads left unchanged")
    return pinned


pin_blas_threads()

_executor_lock = threading.Lock()
_executor: Optional[ThreadPoolExecutor] = None
_shard = threading.local()

T = TypeVar("T")


def _pool() -> ThreadPoolExecutor:
    """The process-wide pool: one thread, built on first use."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-engine"
            )
        return _executor


def reset_executor(wait: bool = True) -> None:
    """Shut down the shard pool thread (if any) and forget it.

    The next sharded batch builds a fresh one. Forked sweep workers call
    this, since a thread pool cannot cross a fork.
    """
    global _executor
    with _executor_lock:
        executor, _executor = _executor, None
    if executor is not None:
        executor.shutdown(wait=wait, cancel_futures=True)


def shard_index() -> int:
    """Which shard of a batch this thread is computing (0 outside shards).

    Modules that keep per-forward state (the routing's last coupling) write
    it from shard 0 only, so it stays well defined while shards run
    concurrently.
    """
    return getattr(_shard, "index", 0)


def _as_shard(index: int, task: Callable[[], T]) -> Callable[[], T]:
    """``task`` run as shard ``index`` in the caller's autograd, cache and
    trace state (all three are per thread)."""
    grad = config.grad_enabled()
    bypass = getattr(_cache_bypass, "depth", 0)
    parent = tracing.current_context()

    def run() -> T:
        config.set_grad_enabled(grad)
        _cache_bypass.depth = bypass
        _shard.index = index
        try:
            with tracing.span("train.shard", parent=parent, shard=index):
                return task()
        finally:
            _shard.index = 0

    return run


def run_shards(tasks: Sequence[Callable[[], T]]) -> List[T]:
    """Run one batch's shards and return their results in shard order.

    The calling thread runs shard 0; with two usable CPUs the pool thread
    runs the others meanwhile, otherwise they run after it, in order. Each
    shard is a pure function of its inputs, so the results are the same
    bits either way. If a shard raises, its siblings are cancelled or
    waited out before the error propagates, so no shard of a failed step
    outlives it.
    """
    shards = [_as_shard(index, task) for index, task in enumerate(tasks)]
    if len(shards) < 2 or config.num_threads() < 2:
        return [shard() for shard in shards]
    pending = [_pool().submit(shard) for shard in shards[1:]]
    try:
        first = shards[0]()
        return [first] + [future.result() for future in pending]
    except BaseException:
        for future in pending:
            future.cancel()
        concurrent_futures.wait(pending)
        raise
