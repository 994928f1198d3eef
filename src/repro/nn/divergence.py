"""Typed divergence errors and finiteness checks for the training loop.

Training on garbage is worse than crashing: one NaN loss silently poisons
every later epoch, the autosaved checkpoint, and the evaluation. This
module gives the stack one vocabulary for "the run left the land of finite
numbers" — :class:`DivergenceError` with a machine-readable ``reason`` —
plus cheap helpers for locating the first offending array.

Raisers live at two levels:

- the substrate itself: :func:`repro.nn.optim.clip_grad_norm` raises
  ``non_finite_grad_norm`` instead of scaling NaN into the weights;
- the :class:`repro.resilience.DivergenceSentinel` observer, which checks
  loss/gradient/weight finiteness and a windowed loss-spike rule per step
  and epoch via the ``Trainer.fit`` observer protocol.

The recovery side (rollback + LR backoff + retry) is
:mod:`repro.resilience`; this module stays at substrate level so ``nn``
can raise the typed error without importing upward.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

# Canonical reason strings (the `reason` label on metrics and run-log events).
NON_FINITE_LOSS = "non_finite_loss"
NON_FINITE_GRAD = "non_finite_grad"
NON_FINITE_GRAD_NORM = "non_finite_grad_norm"
NON_FINITE_WEIGHTS = "non_finite_weights"
LOSS_SPIKE = "loss_spike"

REASONS = (
    NON_FINITE_LOSS,
    NON_FINITE_GRAD,
    NON_FINITE_GRAD_NORM,
    NON_FINITE_WEIGHTS,
    LOSS_SPIKE,
)


class DivergenceError(RuntimeError):
    """Training left the land of finite numbers (or spiked beyond reason).

    ``reason`` is one of :data:`REASONS`; ``step``/``epoch`` locate the
    detection point (1-based, when known) and ``value`` carries the
    offending scalar, so a recovery policy can log *what* diverged and
    *where* without string-parsing the message.
    """

    def __init__(
        self,
        reason: str,
        message: Optional[str] = None,
        step: Optional[int] = None,
        epoch: Optional[int] = None,
        value: Optional[float] = None,
    ):
        if reason not in REASONS:
            raise ValueError(f"unknown divergence reason {reason!r}; choose from {REASONS}")
        detail = message or reason.replace("_", " ")
        where = []
        if epoch is not None:
            where.append(f"epoch {epoch}")
        if step is not None:
            where.append(f"step {step}")
        if where:
            detail = f"{detail} (at {', '.join(where)})"
        super().__init__(detail)
        self.reason = reason
        self.step = step
        self.epoch = epoch
        self.value = None if value is None else float(value)


def first_nonfinite(named_arrays: Iterable[Tuple[str, np.ndarray]]) -> Optional[str]:
    """Name of the first array containing a non-finite value, else ``None``."""
    for name, array in named_arrays:
        if array is None:
            continue
        if not np.all(np.isfinite(array)):
            return name
    return None


def check_weights(model, step: Optional[int] = None, epoch: Optional[int] = None) -> None:
    """Raise ``non_finite_weights`` naming the first bad parameter."""
    offender = first_nonfinite(
        (name, param.data) for name, param in model.named_parameters()
    )
    if offender is not None:
        raise DivergenceError(
            NON_FINITE_WEIGHTS,
            f"parameter {offender!r} contains non-finite values",
            step=step,
            epoch=epoch,
        )


def check_grads(parameters, step: Optional[int] = None, epoch: Optional[int] = None) -> None:
    """Raise ``non_finite_grad`` when any live gradient is non-finite."""
    offender = first_nonfinite(
        (f"param[{index}].grad", param.grad) for index, param in enumerate(parameters)
    )
    if offender is not None:
        raise DivergenceError(
            NON_FINITE_GRAD,
            f"{offender} contains non-finite values",
            step=step,
            epoch=epoch,
        )


def check_loss(loss: float, step: Optional[int] = None, epoch: Optional[int] = None) -> float:
    """Pass a finite loss through; raise ``non_finite_loss`` otherwise."""
    if not np.isfinite(loss):
        raise DivergenceError(NON_FINITE_LOSS, step=step, epoch=epoch, value=loss)
    return float(loss)


__all__ = [
    "DivergenceError",
    "LOSS_SPIKE",
    "NON_FINITE_GRAD",
    "NON_FINITE_GRAD_NORM",
    "NON_FINITE_LOSS",
    "NON_FINITE_WEIGHTS",
    "REASONS",
    "check_grads",
    "check_loss",
    "check_weights",
    "first_nonfinite",
]
