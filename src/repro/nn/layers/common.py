"""Small utility layers: activations-as-modules and sequential."""

from __future__ import annotations

from repro.nn import ops
from repro.nn.layers.base import Module


class Activation(Module):
    """Wrap a stateless activation function as a layer."""

    _FUNCTIONS = {
        "relu": ops.relu,
        "sigmoid": ops.sigmoid,
        "tanh": ops.tanh,
    }

    def __init__(self, name: str):
        super().__init__()
        if name not in self._FUNCTIONS:
            raise ValueError(f"unknown activation {name!r}; choose from {sorted(self._FUNCTIONS)}")
        self.name = name

    def forward(self, x):
        return self._FUNCTIONS[self.name](x)


class Sequential(Module):
    """Apply layers in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers = []
        for index, layer in enumerate(layers):
            self._layers.append(layer)
            self._modules[str(index)] = layer

    def forward(self, x):
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layers)

    def __len__(self):
        return len(self._layers)

    def __getitem__(self, index):
        return self._layers[index]
