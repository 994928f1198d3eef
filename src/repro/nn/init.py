"""Weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so that every
model in the repository is fully seed-reproducible (the paper reports
mean±std over 5 repeated runs; we reproduce that by re-seeding).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn import config
from repro.pipeline import seeding


def default_rng(rng=None) -> np.random.Generator:
    """Return ``rng`` if provided, else the process-shared generator.

    Seeds and integer seeds resolve through :mod:`repro.pipeline.seeding`,
    so an unseeded model init is still pinned by a single prior
    ``seeding.seed_everything(...)`` call.
    """
    return seeding.rng(rng)


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


def glorot_uniform(shape, rng=None) -> np.ndarray:
    """Glorot/Xavier uniform — Keras's default, matching the paper's stack."""
    rng = default_rng(rng)
    fan_in, fan_out = _fan_in_out(tuple(shape))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(config.dtype())


def orthogonal(shape, rng=None, gain: float = 1.0) -> np.ndarray:
    """Orthogonal init (used for recurrent kernels)."""
    rng = default_rng(rng)
    if len(shape) < 2:
        raise ValueError("orthogonal init needs at least 2 dimensions")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).reshape(shape).astype(config.dtype())


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=config.dtype())
