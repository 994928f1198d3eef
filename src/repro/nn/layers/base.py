"""Module and Parameter: the building blocks of every model in this repo."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by default)."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with automatic parameter/submodule registration.

    Assigning a :class:`Parameter` or :class:`Module` to an attribute
    registers it; ``parameters()`` walks the tree. Follows the familiar
    torch-style contract so models read idiomatically.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _name, param in self.named_parameters():
            yield param

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count (the paper reports 646,395 for BikeCAP)."""
        return sum(p.size for p in self.parameters())

    def batch_shards(self, input_shape: Tuple[int, ...]) -> int:
        """How many shards ``Trainer`` splits a batch of this shape into.

        One — the plain serial step — unless a model that measured faster
        split overrides this, as BikeCAP does.
        """
        return 1

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()
        # Weight-derived engine caches (kernel FFTs, masked weights) must not
        # survive a weight swap.
        from repro.nn import engine

        engine.bump_weight_version()


class ModuleList(Module):
    """An indexable container that registers each child module."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]
