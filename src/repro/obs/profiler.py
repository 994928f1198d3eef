"""Op- and module-level profilers for the ``repro.nn`` substrate.

Two opt-in hooks, both restoring the original code on exit so that the
disabled state carries **zero** overhead (nothing is patched, no flag is
checked on the hot path):

- :func:`profile_ops` — wraps every autograd op in the ``repro.nn.ops``
  namespace with a ``op.<name>`` span, and wraps the produced tensor's
  backward closure with ``op.<name>.backward``, giving forward *and*
  backward self-time per op.
- :func:`profile_modules` — wraps ``Module.__call__`` with a
  ``module.<ClassName>`` span, giving per-layer forward timing for whole
  models (nested: self time excludes child modules).

:func:`top_ops` turns a tracer snapshot into the "top ops by self time"
rows the report CLI renders.

``repro.nn`` is imported lazily inside the enable functions so this module
stays importable from anywhere without cycles.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Dict, List, Optional

from repro.obs import tracing

# Shape/padding helpers re-exported by repro.nn.ops that are not autograd
# ops; timing them would only add noise.
_NON_OPS = {
    "normalize_pads",
    "normalize_stride",
    "same_padding",
}

_op_patches: List = []  # [(module, name, original), ...] while enabled
_module_patch: Optional[tuple] = None


def _timed_op(name: str, fn, tracer: tracing.Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(f"op.{name}"):
            out = fn(*args, **kwargs)
        backward = getattr(out, "_backward", None)
        if backward is not None:

            def timed_backward(grad):
                with tracer.span(f"op.{name}.backward"):
                    return backward(grad)

            out._backward = timed_backward
        return out

    wrapper._obs_original = fn
    return wrapper


def _op_modules():
    from repro.nn import ops
    from repro.nn.ops import activations, basic, conv, reduce, shape

    return ops, (basic, reduce, shape, activations, conv)


def op_profiling_enabled() -> bool:
    return bool(_op_patches)


def enable_op_profiling(tracer: Optional[tracing.Tracer] = None) -> tracing.Tracer:
    """Patch the op namespace with timed wrappers (idempotent)."""
    tracer = tracer or tracing.get_tracer()
    if _op_patches:
        return tracer
    ops_pkg, submodules = _op_modules()
    wrappers: Dict[str, object] = {}
    for name in ops_pkg.__all__:
        if name in _NON_OPS:
            continue
        original = getattr(ops_pkg, name)
        if not callable(original) or hasattr(original, "_obs_original"):
            continue
        wrapper = _timed_op(name, original, tracer)
        wrappers[name] = wrapper
        _op_patches.append((ops_pkg, name, original))
        setattr(ops_pkg, name, wrapper)
    # Also patch the defining submodules so intra-op calls (e.g. reductions
    # built on basic ops) and `from repro.nn.ops import basic` users are seen.
    for module in submodules:
        for name, wrapper in wrappers.items():
            original = getattr(module, name, None)
            if original is not None and not hasattr(original, "_obs_original"):
                _op_patches.append((module, name, original))
                setattr(module, name, wrapper)
    return tracer


def disable_op_profiling() -> None:
    """Restore every patched op (safe to call when already disabled)."""
    while _op_patches:
        module, name, original = _op_patches.pop()
        setattr(module, name, original)


@contextlib.contextmanager
def profile_ops(tracer: Optional[tracing.Tracer] = None):
    """``with profile_ops() as tracer:`` — op timing scoped to the block."""
    was_enabled = op_profiling_enabled()
    tracer = enable_op_profiling(tracer)
    try:
        yield tracer
    finally:
        if not was_enabled:
            disable_op_profiling()


# ----------------------------------------------------------------------
def module_profiling_enabled() -> bool:
    return _module_patch is not None


def enable_module_profiling(tracer: Optional[tracing.Tracer] = None) -> tracing.Tracer:
    """Wrap ``Module.__call__`` with a per-class forward span (idempotent)."""
    global _module_patch
    tracer = tracer or tracing.get_tracer()
    if _module_patch is not None:
        return tracer
    from repro.nn.layers.base import Module

    original = Module.__call__

    def timed_call(self, *args, **kwargs):
        with tracer.span(f"module.{type(self).__name__}"):
            return original(self, *args, **kwargs)

    timed_call._obs_original = original
    Module.__call__ = timed_call
    _module_patch = (Module, original)
    return tracer


def disable_module_profiling() -> None:
    global _module_patch
    if _module_patch is None:
        return
    module_cls, original = _module_patch
    module_cls.__call__ = original
    _module_patch = None


@contextlib.contextmanager
def profile_modules(tracer: Optional[tracing.Tracer] = None):
    """``with profile_modules() as tracer:`` — per-layer forward timing."""
    was_enabled = module_profiling_enabled()
    tracer = enable_module_profiling(tracer)
    try:
        yield tracer
    finally:
        if not was_enabled:
            disable_module_profiling()


# ----------------------------------------------------------------------
def top_ops(
    rows: Optional[List[Dict]] = None,
    limit: int = 15,
    tracer: Optional[tracing.Tracer] = None,
) -> List[Dict]:
    """Top profiled spans (``op.*`` / ``module.*``) ranked by self time."""
    if rows is None:
        rows = (tracer or tracing.get_tracer()).snapshot()
    profiled = [
        row
        for row in rows
        if row["name"].startswith("op.") or row["name"].startswith("module.")
    ]
    profiled.sort(key=lambda row: row["self_s"], reverse=True)
    return profiled[:limit]
