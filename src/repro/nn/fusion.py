"""Cross-op fused kernels for the hot elementwise/routing chains.

The unfused substrate dispatches one :mod:`repro.nn.ops` node per
primitive: an LSTM gate update alone builds 13 graph nodes (4 slice ops,
4 activations, 3 muls, an add and a tanh), each allocating its output and
a backward closure, and each backward slice op scattering through a
full-size ``np.add.at``. The kernels here collapse those chains into one
or two :func:`repro.nn.tensor.make_op` nodes with hand-written backward
passes that replay the *exact* sequence of IEEE operations the unfused
graph performs — the fused graph is bit-equivalent (``np.array_equal``)
to the unfused one, not merely close. Saved activations are shared
between forward and backward instead of being recomputed per node (the
stable sigmoid, for instance, evaluates ``exp`` once instead of twice).

Fused kernels:

- :func:`fused_lstm_step` — the ``[i, f, g, o]`` gate block of
  ``LSTMCell``/``ConvLSTM2DCell`` (two nodes: ``c`` and ``h``).
- :func:`fused_memory_update` — the 3-gate ``sigmoid(f)*prev +
  sigmoid(i)*tanh(g)`` memory write of the PredRNN cells (one node).
- :func:`fused_highway` — the GHU blend ``s*p + (1-s)*z`` (one node).
- :func:`fused_squash` — the capsule squash (paper Eq. 3) as one node.
- :func:`fused_weighted_combine_squash` — the routing tail
  ``squash(sum(votes * weights))`` as one node (weights detached).

The detached routing iterations need no kernel: they are plain numpy
outside autograd already, written once in :mod:`repro.core.routing`.

Every kernel consults :func:`repro.nn.engine.fused_plan` first: under
``engine.no_cache()`` the plan lookup returns ``None`` and the caller
falls back to the unfused op chain, so in-place parameter perturbation
(finite-difference gradcheck) never meets a fused closure. Layering: this
module sits below the model layers and imports only ``repro.nn.ops`` /
``repro.nn.engine`` / ``repro.nn.tensor`` (enforced by
``scripts/check_layering.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import engine
from repro.nn.tensor import Tensor, make_op

_EPSILON = 1e-9  # matches repro.core.squash._EPSILON (callers pass it in)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """The exact piecewise logistic of ``ops.sigmoid`` (one exp, not two)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _gate_slices(n: int, count: int) -> Tuple[slice, ...]:
    return tuple(slice(i * n, (i + 1) * n) for i in range(count))


# ---------------------------------------------------------------------------
# LSTM-style gate blocks
# ---------------------------------------------------------------------------


def fused_lstm_step(
    gates: Tensor, c_prev: Tensor, hidden: int
) -> Optional[Tuple[Tensor, Tensor]]:
    """Fused ``[i, f, g, o]`` LSTM update: returns ``(h, c)`` or ``None``.

    Bit-equivalent to::

        i = sigmoid(gates[:, 0n:1n]); f = sigmoid(gates[:, 1n:2n])
        g = tanh(gates[:, 2n:3n]);    o = sigmoid(gates[:, 3n:4n])
        c = f * c_prev + i * g
        h = o * tanh(c)

    Two graph nodes are built — ``c`` (parents: c_prev, gates) and ``h``
    (parents: gates, c) — so the gradient accumulation pattern into
    ``gates`` and ``c`` matches the unfused graph. Parent order is
    load-bearing: the backward DFS visits the *last* parent's subtree
    first, and the unfused graph reaches the gates subtree before
    ``c_prev`` — flipping the order changes where upstream (earlier
    timestep) nodes land in the topological order, which reassociates
    gradient accumulation into any tensor with three or more consumers.
    """
    plan = engine.fused_plan(
        ("lstm_gates", gates.shape, hidden, np.dtype(gates.dtype).str),
        lambda: {"slices": _gate_slices(hidden, 4)},
    )
    if plan is None:
        return None
    si, sf, sg, so = plan["slices"]
    gd = gates.data
    i = _stable_sigmoid(gd[:, si])
    f = _stable_sigmoid(gd[:, sf])
    g = np.tanh(gd[:, sg])
    o = _stable_sigmoid(gd[:, so])
    c_data = f * c_prev.data + i * g
    tanh_c = np.tanh(c_data)
    h_data = o * tanh_c
    c_prev_data = c_prev.data

    def backward_c(dc):
        dgates = np.zeros_like(gd)
        dgates[:, si] = (dc * g * i) * (1.0 - i)
        dgates[:, sf] = (dc * c_prev_data * f) * (1.0 - f)
        dgates[:, sg] = (dc * i) * (1.0 - g**2)
        return dc * f, dgates

    c = make_op(c_data, (c_prev, gates), backward_c)

    def backward_h(dh):
        dgates = np.zeros_like(gd)
        dgates[:, so] = (dh * tanh_c * o) * (1.0 - o)
        return dgates, (dh * o) * (1.0 - tanh_c**2)

    h = make_op(h_data, (gates, c), backward_h)
    return h, c


def fused_memory_update(
    gates: Tensor,
    prev: Tensor,
    hidden: int,
    order: Tuple[int, int, int] = (0, 1, 2),
) -> Optional[Tensor]:
    """Fused 3-gate memory write ``sigmoid(f)*prev + sigmoid(i)*tanh(g)``.

    ``order`` gives the slice indices of the ``(g, i, f)`` gates inside
    the stacked ``gates`` tensor (the PredRNN cells emit them g-first).
    Returns the new memory tensor, or ``None`` when fusion is inactive.
    Parents are ``(prev, gates)`` because the unfused graph's DFS
    reaches the gates subtree first (see :func:`fused_lstm_step`).
    """
    plan = engine.fused_plan(
        ("memory_update", gates.shape, hidden, tuple(order), np.dtype(gates.dtype).str),
        lambda: {"slices": _gate_slices(hidden, max(order) + 1)},
    )
    if plan is None:
        return None
    slices = plan["slices"]
    sg, si, sf = (slices[k] for k in order)
    gd = gates.data
    g = np.tanh(gd[:, sg])
    i = _stable_sigmoid(gd[:, si])
    f = _stable_sigmoid(gd[:, sf])
    data = f * prev.data + i * g
    prev_data = prev.data

    def backward(dm):
        dgates = np.zeros_like(gd)
        dgates[:, sg] = (dm * i) * (1.0 - g**2)
        dgates[:, si] = (dm * g * i) * (1.0 - i)
        dgates[:, sf] = (dm * prev_data * f) * (1.0 - f)
        return dm * f, dgates

    return make_op(data, (prev, gates), backward)


def fused_highway(combined: Tensor, z_prev: Tensor, channels: int) -> Optional[Tensor]:
    """Fused GHU blend ``s*p + (1-s)*z`` with ``p=tanh``, ``s=sigmoid``."""
    plan = engine.fused_plan(
        ("highway", combined.shape, channels, np.dtype(combined.dtype).str),
        lambda: {"slices": _gate_slices(channels, 2)},
    )
    if plan is None:
        return None
    sp, ss = plan["slices"]
    cd = combined.data
    p = np.tanh(cd[:, sp])
    s = _stable_sigmoid(cd[:, ss])
    one_minus_s = 1.0 - s
    data = s * p + one_minus_s * z_prev.data
    z_data = z_prev.data

    def backward(dout):
        ds = dout * p + -(dout * z_data)
        dcombined = np.zeros_like(cd)
        dcombined[:, sp] = (dout * s) * (1.0 - p**2)
        dcombined[:, ss] = (ds * s) * (1.0 - s)
        return dcombined, dout * one_minus_s

    return make_op(data, (combined, z_prev), backward)


# ---------------------------------------------------------------------------
# Capsule squash (paper Eq. 3)
# ---------------------------------------------------------------------------


def _squash_forward(t: np.ndarray, axes: Tuple[int, ...], epsilon: float):
    """Forward intermediates, step for step as the unfused op chain."""
    sq = (t * t).sum(axis=axes, keepdims=True)
    norm = np.sqrt(sq + epsilon)
    a2 = sq + 1.0
    m2 = a2 * norm
    scale = sq / m2
    return sq, norm, a2, m2, scale


def _squash_backward(grad, t, axes, sq, norm, a2, m2, scale):
    """Upstream grad → grad w.r.t. the squash input, bit-for-bit.

    Replays the unfused graph's backward in its topological order: the
    three contributions to the squared-norm gradient arrive from the
    div, the ``+1`` add and the ``+eps`` add in exactly that sequence
    (IEEE addition only commutes pairwise, so association order matters).
    """
    d_t = grad * scale
    d_scale = (grad * t).sum(axis=axes, keepdims=True)
    d_sq = d_scale / m2
    d_m2 = -d_scale * sq / (m2**2)
    d_sq = d_sq + d_m2 * norm
    d_norm = d_m2 * a2
    d_sq = d_sq + (d_norm * 0.5) / norm
    d_m = np.broadcast_to(d_sq, t.shape)
    tmp = d_m * t
    return (d_t + tmp) + tmp


def fused_squash(
    tensor: Tensor, axis: int = -1, epsilon: float = _EPSILON
) -> Optional[Tensor]:
    """The squash non-linearity as a single fused node (or ``None``)."""
    axes = (axis % tensor.ndim,)
    plan = engine.fused_plan(
        ("squash", tensor.shape, axes, np.dtype(tensor.dtype).str),
        lambda: {"axes": axes},
    )
    if plan is None:
        return None
    t = tensor.data
    sq, norm, a2, m2, scale = _squash_forward(t, axes, epsilon)
    data = t * scale

    def backward(grad):
        return (_squash_backward(grad, t, axes, sq, norm, a2, m2, scale),)

    return make_op(data, (tensor,), backward)


# ---------------------------------------------------------------------------
# Routing: weighted combine + squash tail, and the detached iteration loop
# ---------------------------------------------------------------------------


def fused_weighted_combine_squash(
    votes: Tensor,
    weights: np.ndarray,
    sum_axis: int = 3,
    squash_axis: int = 2,
    epsilon: float = _EPSILON,
) -> Optional[Tensor]:
    """Fused ``squash(sum(votes * weights, sum_axis), squash_axis)``.

    ``weights`` is the detached coupling tensor — only ``votes`` gets a
    gradient, so the unfused graph's wasted weight-side adjoint (a full
    reduction it then discards) is skipped entirely.
    """
    plan = engine.fused_plan(
        (
            "routing_combine",
            votes.shape,
            weights.shape,
            sum_axis,
            squash_axis,
            np.dtype(votes.dtype).str,
        ),
        lambda: {"sum_axes": (sum_axis,), "squash_axes": (squash_axis,)},
    )
    if plan is None:
        return None
    sum_axes = plan["sum_axes"]
    squash_axes = plan["squash_axes"]
    vd = votes.data
    combined = np.multiply(vd, weights).sum(axis=sum_axes, keepdims=False)
    sq, norm, a2, m2, scale = _squash_forward(combined, squash_axes, epsilon)
    data = combined * scale
    prod_shape = vd.shape

    def backward(grad):
        d_combined = _squash_backward(
            grad, combined, squash_axes, sq, norm, a2, m2, scale
        )
        shape = list(prod_shape)
        for ax in sum_axes:
            shape[ax] = 1
        d_prod = np.broadcast_to(d_combined.reshape(shape), prod_shape)
        return (d_prod * weights,)

    return make_op(data, (votes,), backward)
