"""Additional Module-system behaviours: nesting, sharing, introspection."""

import numpy as np
import pytest

from repro.nn import Linear, Module, ModuleList, Parameter, Sequential, Tensor


class TestNestedModules:
    def test_three_level_nesting_collects_all_parameters(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(2, 2, rng=0)

        class Middle(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.own = Parameter(np.zeros(3))

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.middle = Middle()

        outer = Outer()
        names = sorted(name for name, _p in outer.named_parameters())
        assert names == ["middle.inner.layer.bias", "middle.inner.layer.weight", "middle.own"]

    def test_modules_iterator_visits_every_node(self):
        seq = Sequential(Linear(2, 2, rng=0), Sequential(Linear(2, 2, rng=1)))
        count = sum(1 for _ in seq.modules())
        assert count == 4  # outer seq + linear + inner seq + linear

    def test_module_list_inside_module(self):
        class Holder(Module):
            def __init__(self):
                super().__init__()
                self.items = ModuleList([Linear(2, 2, rng=0), Linear(2, 2, rng=1)])

        holder = Holder()
        assert sum(1 for _ in holder.parameters()) == 4


class TestParameterSharing:
    def test_shared_parameter_accumulates_both_paths(self):
        shared = Parameter(np.ones((2, 2)))

        class Tied(Module):
            def __init__(self):
                super().__init__()
                self.weight = shared

            def forward(self, x):
                from repro.nn import ops

                return ops.add(ops.matmul(x, self.weight), ops.matmul(x, self.weight))

        model = Tied()
        x = Tensor(np.ones((1, 2)))
        model(x).sum().backward()
        # Each path contributes a gradient of ones → total twos.
        assert np.allclose(shared.grad, 2.0)

    def test_reassigning_attribute_updates_registry(self):
        class Swappable(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(2, 2, rng=0)

        model = Swappable()
        original = model.layer.weight.data.copy()
        model.layer = Linear(2, 2, rng=99)
        state = model.state_dict()
        assert not np.allclose(state["layer.weight"], original)


class TestStateDictDetails:
    def test_state_dict_values_are_copies(self):
        layer = Linear(2, 2, rng=0)
        state = layer.state_dict()
        state["weight"][...] = 999.0
        assert not np.allclose(layer.weight.data, 999.0)

    def test_load_state_dict_copies_input(self):
        layer = Linear(2, 2, rng=0)
        state = layer.state_dict()
        layer.load_state_dict(state)
        state["weight"][...] = 123.0
        assert not np.allclose(layer.weight.data, 123.0)

    def test_load_preserves_dtype(self):
        layer = Linear(2, 2, rng=0)
        state = {k: v.astype(np.float64) for k, v in layer.state_dict().items()}
        layer.load_state_dict(state)
        assert layer.weight.data.dtype == np.float32
