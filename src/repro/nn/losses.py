"""Loss functions. The paper trains BikeCAP with L1 loss (Sec. IV-C)."""

from __future__ import annotations

from repro.nn import ops
from repro.nn.tensor import Tensor, as_tensor


def l1_loss(prediction, target) -> Tensor:
    """Mean absolute error — the paper's training loss."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    return ops.mean(ops.abs(ops.sub(prediction, target)))


def mse_loss(prediction, target) -> Tensor:
    """Mean squared error (the decoder objective described in Sec. III-E)."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = ops.sub(prediction, target)
    return ops.mean(ops.mul(diff, diff))


LOSSES = {"l1": l1_loss, "mse": mse_loss}


def get_loss(name: str):
    """Look up a loss function by name."""
    try:
        return LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; choose from {sorted(LOSSES)}") from None
