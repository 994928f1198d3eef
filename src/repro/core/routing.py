"""Spatial-temporal routing between historical and future capsules.

Implements Sec. III-D of the paper:

1. The historical capsule tensor ``Φ^l`` is reshaped so that every
   historical capsule occupies ``n^l`` consecutive positions along the depth
   axis, and a 3-D convolution with stride ``(n^l, 1, 1)`` produces, for
   *each* historical capsule ``s`` independently, its prediction ("vote")
   for every future time slot — ``p × n^{l+1}`` output channels.
2. Routing logits ``B_s ∈ R^{(G1, G2, p)}`` start at zero; coupling
   coefficients are a 3-D softmax *jointly over grid cells and future time
   slots* (Eq. 4), so each historical capsule distributes one unit of
   contribution across space *and* prediction steps — this is what makes the
   routing spatial-temporal.
3. Votes are combined per future slot, squashed (Eq. 3), and the logits are
   refined by the agreement ``⟨V_s, Ŝ⟩``.

Because every future slot is reconstructed from *all* historical capsules
independently — never from a previously-predicted slot — multi-step errors
do not accumulate the way they do in autoregressive baselines (paper Fig. 2).

Routing iterations run detached (plain numpy); gradients flow through the
vote tensor and the final weighted combination, as in the reference capsule
implementations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import engine, fusion, ops
from repro.nn.layers.base import Module
from repro.nn.layers.conv import Conv2D
from repro.nn.tensor import Tensor
from repro.core.squash import squash
from repro.obs import metrics as obs_metrics
from repro.obs import runlog, tracing

_EPSILON = 1e-9


def softmax_3d(logits: np.ndarray, axes=(-3, -2, -1)) -> np.ndarray:
    """Numerically-stable softmax jointly normalized over several axes (Eq. 4)."""
    shifted = logits - logits.max(axis=axes, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axes, keepdims=True)


def squash_np(tensor: np.ndarray, axis: int = -1) -> np.ndarray:
    """Detached (numpy) squash used inside the routing iterations."""
    squared_norm = (tensor**2).sum(axis=axis, keepdims=True)
    norm = np.sqrt(squared_norm + _EPSILON)
    return tensor * squared_norm / ((1.0 + squared_norm) * norm)


class SpatialTemporalRouting(Module):
    """Route historical capsules to future capsules with dynamic agreement.

    Input: ``(N, c_hist, n_in, h, G1, G2)`` historical capsule tensor.
    Output: ``(N, p, n_out, G1, G2)`` — one ``n_out``-dim capsule per future
    time slot per grid cell.
    """

    def __init__(
        self,
        in_capsule_dim: int,
        out_capsule_dim: int,
        horizon: int,
        iterations: int = 3,
        kernel_size: int = 3,
        separate_temporal_capsules: bool = False,
        rng=None,
    ):
        super().__init__()
        if iterations < 1:
            raise ValueError(f"routing needs at least 1 iteration, got {iterations}")
        self.in_capsule_dim = in_capsule_dim
        self.out_capsule_dim = out_capsule_dim
        self.horizon = horizon
        self.iterations = iterations
        self.separate_temporal_capsules = separate_temporal_capsules
        # The paper's vote transform is a 3-D convolution with kernel depth
        # n^l and stride (n^l, 1, 1) over capsules stacked along the depth
        # axis. Because the stride equals the kernel depth, the depth blocks
        # never overlap — the operation is exactly a 2-D convolution with
        # n^l input channels applied to each historical capsule's slice,
        # which is how we implement it (identical parameters, much faster).
        if separate_temporal_capsules:
            # The stability extension the paper sketches in Sec. V-A:
            # a *separate* vote transform per future time slot, so one
            # slot's representation is not biased by its neighbours'
            # variance. More parameters, lower run-to-run variance.
            from repro.nn.layers.base import ModuleList

            self.vote_convs = ModuleList(
                [
                    Conv2D(in_capsule_dim, out_capsule_dim, kernel_size, padding="same", rng=rng)
                    for _ in range(horizon)
                ]
            )
            self.vote_conv = None
        else:
            # One conv produces votes for every (future slot, out-capsule
            # dim) pair — each historical capsule contributes one
            # independent vote per future slot.
            self.vote_conv = Conv2D(
                in_capsule_dim, horizon * out_capsule_dim, kernel_size, padding="same", rng=rng
            )
            self.vote_convs = None
        self.last_coupling: Optional[np.ndarray] = None

    def compute_votes(self, phi) -> Tensor:
        """Vote tensor ``V``: ``(N, p, n_out, S, G1, G2)`` with ``S = c_hist*h``."""
        batch, c_hist, n_in, history, g1, g2 = phi.shape
        if n_in != self.in_capsule_dim:
            raise ValueError(f"expected capsule dim {self.in_capsule_dim}, got {n_in}")
        count = c_hist * history
        # Capsule s = (c, t) becomes one batch slice with its n_in components
        # as 2-D channels — the non-overlapping depth blocks of the paper's
        # strided 3-D convolution.
        stacked = ops.transpose(phi, (0, 1, 3, 2, 4, 5))  # (N, c, h, n_in, G1, G2)
        stacked = ops.reshape(stacked, (batch * count, n_in, g1, g2))
        if self.vote_conv is not None:
            votes = self.vote_conv(stacked)  # (N*S, p*n_out, G1, G2)
            votes = ops.reshape(
                votes, (batch, count, self.horizon, self.out_capsule_dim, g1, g2)
            )
            return ops.transpose(votes, (0, 2, 3, 1, 4, 5))
        per_step = [conv(stacked) for conv in self.vote_convs]  # each (N*S, n_out, G1, G2)
        votes = ops.stack(per_step, axis=1)  # (N*S, p, n_out, G1, G2)
        votes = ops.reshape(votes, (batch, count, self.horizon, self.out_capsule_dim, g1, g2))
        return ops.transpose(votes, (0, 2, 3, 1, 4, 5))

    def forward(self, phi) -> Tensor:
        with tracing.span("routing.forward"):
            with tracing.span("routing.votes"):
                votes = self.compute_votes(phi)
            batch, horizon, n_out, count, g1, g2 = votes.shape
            votes_np = votes.data
            # A sharded batch runs this forward once per shard, possibly on
            # two threads at once: only shard 0 reports and keeps state.
            primary = engine.shard_index() == 0

            # Routing logits start at zero, so the first coupling is exactly
            # the uniform softmax — materialize it directly instead of
            # building and softmaxing a full zeros tensor, and accumulate
            # logits from the first agreement onward.
            logits = None
            coupling = np.full(
                (batch, count, horizon, g1, g2),
                1.0 / (horizon * g1 * g2),
                dtype=votes_np.dtype,
            )
            last_agreement = None
            with tracing.span("routing.iterations"):
                for iteration in range(self.iterations - 1):
                    # (N, s, p, G1, G2) -> broadcastable against V (N, p, n_out, s, G1, G2).
                    # Broadcast-multiply-sum beats the equivalent einsum here
                    # (measured): the temp is small enough to stay cheap.
                    weights = np.expand_dims(coupling.transpose(0, 2, 1, 3, 4), axis=2)
                    combined = (votes_np * weights).sum(axis=3)  # (N, p, n_out, G1, G2)
                    squashed = squash_np(combined, axis=2)
                    # Agreement: dot product between each vote and the combined
                    # capsule. Plain (unoptimized) einsum: at routing sizes the
                    # direct C loop beats any precomputed contraction path,
                    # which pays for tensordot reshapes it can never amortize.
                    agreement = np.einsum("npdsxy,npdxy->nspxy", votes_np, squashed)
                    logits = agreement if logits is None else logits + agreement
                    coupling = softmax_3d(logits)
                    last_agreement = agreement
                    if primary and runlog.active():
                        runlog.emit(
                            "routing_iter",
                            iteration=iteration + 1,
                            iterations=self.iterations,
                            agreement_mean=float(agreement.mean()),
                            agreement_abs_mean=float(np.abs(agreement).mean()),
                        )

            if primary:
                obs_metrics.counter("routing_forward_total").inc()
                obs_metrics.gauge("routing_iterations").set(self.iterations)
                if last_agreement is not None:
                    # How strongly votes agree with the consensus capsule —
                    # the convergence signal of the dynamic routing (Sec. III-D).
                    obs_metrics.gauge("routing_agreement_mean").set(
                        float(last_agreement.mean())
                    )
                    obs_metrics.histogram("routing_agreement_abs_mean").observe(
                        float(np.abs(last_agreement).mean())
                    )
                self.last_coupling = coupling
            weights_np = np.expand_dims(coupling.transpose(0, 2, 1, 3, 4), axis=2)
            fused_out = fusion.fused_weighted_combine_squash(
                votes, weights_np, sum_axis=3, squash_axis=2, epsilon=_EPSILON
            )
            if fused_out is not None:
                return fused_out
            weights = Tensor(weights_np)
            combined = ops.sum(ops.mul(votes, weights), axis=3)
            return squash(combined, axis=2)
