"""BikeCAP: the end-to-end deep spatial-temporal capsule network (Fig. 4).

Pipeline: input demand series → historical capsules (pyramid convolution +
3-D squash) → future capsules (spatial-temporal routing) → 3-D deconvolution
decoder → multi-step downstream demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import init, ops
from repro.nn.layers.base import Module
from repro.nn.tensor import Tensor, as_tensor
from repro.core.capsules import FutureCapsules, HistoricalCapsules
from repro.core.decoder import Decoder3D, ReshapeDecoder
from repro.obs import tracing


@dataclass
class BikeCAPConfig:
    """Hyper-parameters; defaults follow the paper's Sec. IV-C.

    ``feature_indices`` selects which input channels the model consumes —
    the BikeCap-Sub ablation keeps only the downstream (bike) channels.
    """

    grid: Tuple[int, int] = (16, 12)
    history: int = 8
    horizon: int = 4
    features: int = 4
    capsule_channels: int = 1
    capsule_dim: int = 4
    future_capsule_dim: int = 4
    pyramid_size: int = 5
    routing_iterations: int = 3
    decoder_hidden: int = 8
    use_pyramid: bool = True
    use_3d_decoder: bool = True
    # Sec. V-A stability extension: one vote transform per future slot,
    # reducing the run-to-run variance the paper reports as a limitation.
    separate_temporal_capsules: bool = False
    feature_indices: Optional[Sequence[int]] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.history < 1 or self.horizon < 1:
            raise ValueError("history and horizon must be positive")
        if self.pyramid_size < 1:
            raise ValueError("pyramid size must be positive")
        if self.feature_indices is not None:
            indices = tuple(int(i) for i in self.feature_indices)
            if any(i < 0 or i >= self.features for i in indices):
                raise ValueError(
                    f"feature_indices {indices} out of range for {self.features} features"
                )
            self.feature_indices = indices

    @property
    def model_features(self) -> int:
        """Number of channels the network actually consumes."""
        if self.feature_indices is not None:
            return len(self.feature_indices)
        return self.features


# A training step or validation batch splits into two half-batch shards
# once each half carries at least this many input elements. Measured on a
# two-vCPU host: the default geometry (32,768 per half) ran 1.3–1.5× faster
# split and the paper geometry (98,304) 1.6–1.75×, while the 6×6 smoke city
# (13,824) ran 0.84× — too little work per shard to pay for the hand-off.
SHARD_MIN_ELEMENTS = 32_768


class BikeCAP(Module):
    """Multi-step bike demand predictor.

    ``forward`` maps ``(N, h, G1, G2, f)`` history windows to
    ``(N, p, G1, G2)`` future downstream (bike pick-up) demand.
    """

    def __init__(self, config: BikeCAPConfig):
        super().__init__()
        self.config = config
        rng = init.default_rng(config.seed)
        self.historical = HistoricalCapsules(
            in_features=config.model_features,
            capsule_channels=config.capsule_channels,
            capsule_dim=config.capsule_dim,
            pyramid_size=config.pyramid_size,
            use_pyramid=config.use_pyramid,
            rng=rng,
        )
        self.future = FutureCapsules(
            in_capsule_dim=config.capsule_dim,
            out_capsule_dim=config.future_capsule_dim,
            horizon=config.horizon,
            iterations=config.routing_iterations,
            separate_temporal_capsules=config.separate_temporal_capsules,
            rng=rng,
        )
        decoder_cls = Decoder3D if config.use_3d_decoder else ReshapeDecoder
        self.decoder = decoder_cls(
            config.future_capsule_dim, hidden_channels=config.decoder_hidden, rng=rng
        )

    def forward(self, x) -> Tensor:
        with tracing.span("bikecap.forward"):
            x = as_tensor(x)
            if x.ndim != 5:
                raise ValueError(f"expected (N, h, G1, G2, f) input, got shape {x.shape}")
            if self.config.feature_indices is not None:
                x = x[:, :, :, :, list(self.config.feature_indices)]
            # (N, h, G1, G2, f) -> channels-first (N, f, h, G1, G2)
            x = ops.transpose(x, (0, 4, 1, 2, 3))
            with tracing.span("bikecap.historical_capsules"):
                historical_capsules = self.historical(x)
            with tracing.span("bikecap.routing"):
                future_capsules = self.future(historical_capsules)
            with tracing.span("bikecap.decoder"):
                return self.decoder(future_capsules)

    def batch_shards(self, input_shape: Tuple[int, ...]) -> int:
        """Two shards when each half-batch is big enough to pay, else one."""
        half = input_shape[0] // 2
        return 2 if half * int(np.prod(input_shape[1:])) >= SHARD_MIN_ELEMENTS else 1

    def predict(self, x: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Inference helper: batched forward without autograd graphs."""
        from repro.nn import config as nn_config

        self.eval()
        outputs = []
        with nn_config.no_grad():
            for start in range(0, len(x), batch_size):
                outputs.append(self.forward(Tensor(x[start : start + batch_size])).data)
        self.train()
        return np.concatenate(outputs, axis=0)

    @property
    def coupling_coefficients(self) -> Optional[np.ndarray]:
        """Spatial-temporal connections learned by the last forward pass.

        Shape ``(N, S, p, G1, G2)``: how strongly historical capsule ``s``
        contributes to each future slot at each grid — the quantity the
        paper interprets as upstream→downstream propagation strength. After
        a sharded training step or validation batch this covers the first
        shard's samples only.
        """
        return self.future.last_coupling
