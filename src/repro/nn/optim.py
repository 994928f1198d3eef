"""Gradient-descent optimizers. The paper uses Adam with lr=1e-3.

Steps are allocation-free on the hot path: moment buffers update in place
through reusable flat scratch arrays, and ``zero_grad`` just drops gradient
references (``param.grad = None``) — fresh gradients are allocated lazily by
the first accumulation of the next backward pass. Every ``step`` bumps the
engine's weight version so weight-derived caches (kernel FFTs, masked
weights) can never serve stale data.

The in-place rewrites preserve the exact floating-point operation order of
the original expressions, so parameter trajectories are bit-identical to the
allocating implementation. Moments and scratch share each parameter's
dtype, so a float32 model updates entirely in float32.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn import engine
from repro.nn.divergence import NON_FINITE_GRAD_NORM, DivergenceError
from repro.nn.layers.base import Parameter


class Optimizer:
    """Base optimizer holding a parameter list.

    Subclasses expose their complete update state through ``state_dict`` /
    ``load_state_dict`` (moment buffers, step counters, hyperparameters) so
    a training run can be checkpointed and resumed bit-exactly — see
    :mod:`repro.nn.serialization`.
    """

    def __init__(self, parameters: Iterable[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self._scratch: Dict[str, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    # ------------------------------------------------------------------
    # Full-state checkpointing.
    # ------------------------------------------------------------------
    def _hyper(self) -> Dict[str, float]:
        """Scalar hyperparameters, for recording and load-time validation."""
        return {}

    def _slots(self) -> Dict[str, List[np.ndarray]]:
        """Per-parameter state buffers, keyed by slot name."""
        return {}

    def state_dict(self) -> Dict:
        """Everything needed to continue stepping exactly where we left off."""
        return {
            "type": type(self).__name__,
            "step_count": int(getattr(self, "_step_count", 0)),
            "hyper": self._hyper(),
            "slots": {name: [b.copy() for b in buffers] for name, buffers in self._slots().items()},
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place (shape-checked)."""
        expected_type = type(self).__name__
        if state.get("type") != expected_type:
            raise ValueError(
                f"optimizer state is for {state.get('type')!r}, not {expected_type!r}"
            )
        own_slots = self._slots()
        saved_slots = state.get("slots", {})
        if set(saved_slots) != set(own_slots):
            raise ValueError(
                f"optimizer slot mismatch: saved {sorted(saved_slots)}, "
                f"expected {sorted(own_slots)}"
            )
        for name, buffers in own_slots.items():
            saved = saved_slots[name]
            if len(saved) != len(buffers):
                raise ValueError(
                    f"optimizer slot {name!r} has {len(saved)} buffers, "
                    f"expected {len(buffers)}"
                )
            for index, (buffer, value) in enumerate(zip(buffers, saved)):
                value = np.asarray(value)
                if value.shape != buffer.shape:
                    raise ValueError(
                        f"optimizer slot {name}[{index}] shape mismatch: "
                        f"saved {value.shape}, expected {buffer.shape}"
                    )
                np.copyto(buffer, value.astype(buffer.dtype, copy=False))
        if hasattr(self, "_step_count"):
            self._step_count = int(state.get("step_count", 0))

    def _scratch_for(self, param: Parameter, slot: str) -> np.ndarray:
        """A reusable scratch view shaped like ``param`` (one flat buffer per
        dtype and slot, grown to the largest parameter seen)."""
        dtype = param.data.dtype
        key = f"{slot}:{dtype.str}"
        flat = self._scratch.get(key)
        if flat is None or flat.size < param.data.size:
            size = max(p.data.size for p in self.parameters)
            flat = self._scratch[key] = np.empty(size, dtype=dtype)
        return flat[: param.data.size].reshape(param.data.shape)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters, lr: float = 0.01, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def _hyper(self) -> Dict[str, float]:
        return {"lr": self.lr, "momentum": self.momentum, "weight_decay": self.weight_decay}

    def _slots(self) -> Dict[str, List[np.ndarray]]:
        return {"velocity": self._velocity}

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                scaled = self._scratch_for(param, "wd")
                np.multiply(param.data, self.weight_decay, out=scaled)
                scaled += grad
                grad = scaled
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            update = self._scratch_for(param, "update")
            np.multiply(grad, self.lr, out=update)
            param.data -= update
        engine.bump_weight_version()


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the paper's optimizer, defaults matched."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def _hyper(self) -> Dict[str, float]:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "epsilon": self.epsilon,
            "weight_decay": self.weight_decay,
        }

    def _slots(self) -> Dict[str, List[np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                scaled = self._scratch_for(param, "wd")
                np.multiply(param.data, self.weight_decay, out=scaled)
                scaled += grad
                grad = scaled
            tmp = self._scratch_for(param, "tmp")
            # m = beta1*m + (1-beta1)*grad
            np.multiply(grad, 1.0 - self.beta1, out=tmp)
            m *= self.beta1
            m += tmp
            # v = beta2*v + (1-beta2)*grad^2
            np.multiply(grad, grad, out=tmp)
            tmp *= 1.0 - self.beta2
            v *= self.beta2
            v += tmp
            # param -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
            denom = self._scratch_for(param, "denom")
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            np.divide(m, bias1, out=tmp)
            tmp *= self.lr
            tmp /= denom
            param.data -= tmp
        engine.bump_weight_version()


OPTIMIZERS: Dict[str, type] = {"adam": Adam, "sgd": SGD}


def make_optimizer(name: str, parameters: Iterable[Parameter], lr: float = 1e-3, **kwargs) -> Optimizer:
    """Build an optimizer by name — the hook ``RunSpec.optimizer`` resolves through."""
    try:
        cls = OPTIMIZERS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown optimizer {name!r}; choose from {sorted(OPTIMIZERS)}") from None
    return cls(parameters, lr=lr, **kwargs)


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm. A non-finite norm (any NaN/Inf gradient)
    raises :class:`~repro.nn.divergence.DivergenceError` rather than scaling
    the poison into every gradient — NaN / total is NaN, so one bad entry
    would otherwise corrupt all parameters in a single step. An all-zero
    gradient is returned as norm 0.0 without touching anything (no 0/0).
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if not np.isfinite(total):
        raise DivergenceError(
            NON_FINITE_GRAD_NORM,
            f"gradient norm is {total} before clipping",
            value=total,
        )
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for param in params:
            param.grad *= scale
    return total
