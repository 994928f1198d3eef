"""Module system, Linear and convolution layers."""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Conv2D,
    Conv3D,
    ConvTranspose3D,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Sequential,
    Tensor,
)
from repro.nn.gradcheck import gradcheck_module


class TestModuleRegistration:
    def test_parameters_registered_via_setattr(self):
        class Toy(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.child = Linear(2, 2, rng=0)

        toy = Toy()
        names = [name for name, _p in toy.named_parameters()]
        assert "w" in names
        assert "child.weight" in names and "child.bias" in names

    def test_num_parameters_counts_scalars(self):
        layer = Linear(3, 4, rng=0)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_zero_grad_clears_all(self):
        layer = Linear(2, 2, rng=0)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        src = Linear(3, 2, rng=0)
        dst = Linear(3, 2, rng=1)
        assert not np.allclose(src.weight.data, dst.weight.data)
        dst.load_state_dict(src.state_dict())
        assert np.allclose(src.weight.data, dst.weight.data)

    def test_load_state_dict_validates_keys_and_shapes(self):
        layer = Linear(3, 2, rng=0)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((3, 2))})
        state = layer.state_dict()
        state["weight"] = np.zeros((2, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_module_list(self):
        layers = ModuleList([Linear(2, 2, rng=0), Linear(2, 2, rng=1)])
        assert len(layers) == 2
        assert len(list(layers[0].parameters())) == 2
        assert sum(1 for _ in ModuleList(layers).parameters()) == 4


class TestLinear:
    def test_forward_matches_numpy(self, rng):
        layer = Linear(4, 3, rng=0)
        x = rng.standard_normal((5, 4))
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        assert layer.num_parameters() == 12

    def test_gradcheck(self, rng):
        layer = Linear(3, 2, rng=0)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        gradcheck_module(layer, x)


class TestConvLayers:
    def test_conv2d_same_padding_preserves_shape(self, rng):
        layer = Conv2D(2, 3, 3, padding="same", rng=0)
        out = layer(Tensor(rng.standard_normal((1, 2, 5, 7))))
        assert out.shape == (1, 3, 5, 7)

    def test_conv2d_stride_shrinks(self, rng):
        layer = Conv2D(1, 1, 3, stride=2, rng=0)
        out = layer(Tensor(rng.standard_normal((1, 1, 7, 7))))
        assert out.shape == (1, 1, 3, 3)

    def test_conv3d_same_padding_preserves_shape(self, rng):
        layer = Conv3D(2, 4, (3, 3, 3), padding="same", rng=0)
        out = layer(Tensor(rng.standard_normal((1, 2, 4, 5, 6))))
        assert out.shape == (1, 4, 4, 5, 6)

    def test_conv3d_rejects_bad_mask_shape(self):
        with pytest.raises(ValueError):
            Conv3D(1, 1, (2, 2, 2), weight_mask=np.ones((3, 3, 3)), rng=0)

    def test_conv3d_mask_broadcast_from_kernel_shape(self, rng):
        mask = np.zeros((2, 3, 3))
        mask[-1, 1, 1] = 1.0
        layer = Conv3D(2, 3, (2, 3, 3), weight_mask=mask, rng=0)
        assert layer.weight_mask.shape == (3, 2, 2, 3, 3)

    def test_transpose3d_gradcheck_through_layer(self, rng):
        layer = ConvTranspose3D(2, 1, 3, stride=1, padding=1, rng=0)
        x = Tensor(rng.standard_normal((1, 2, 3, 3, 3)), requires_grad=True)
        gradcheck_module(layer, x)


class TestUtilityLayers:
    def test_activation_lookup_and_unknown(self):
        x = Tensor([-1.0, 2.0])
        assert np.allclose(Activation("relu")(x).data, [0.0, 2.0])
        assert np.allclose(Activation("sigmoid")(x).data, 1.0 / (1.0 + np.exp([1.0, -2.0])))
        assert np.allclose(Activation("tanh")(x).data, np.tanh([-1.0, 2.0]))
        with pytest.raises(ValueError):
            Activation("nope")

    def test_sequential_applies_in_order(self, rng):
        seq = Sequential(Linear(3, 4, rng=0), Activation("relu"), Linear(4, 2, rng=1))
        out = seq(Tensor(rng.standard_normal((5, 3))))
        assert out.shape == (5, 2)
        assert len(seq) == 3
        assert isinstance(seq[1], Activation)
