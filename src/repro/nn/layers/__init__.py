"""Layer library for the numpy substrate."""

from repro.nn.layers.base import Module, ModuleList, Parameter
from repro.nn.layers.common import Activation, Sequential
from repro.nn.layers.conv import Conv2D, Conv3D, ConvTranspose3D
from repro.nn.layers.convlstm import ConvLSTM2DCell
from repro.nn.layers.linear import Linear
from repro.nn.layers.predrnn_cells import GHU, CausalLSTMCell, STLSTMCell
from repro.nn.layers.recurrent import LSTM, LSTMCell

__all__ = [
    "Activation",
    "CausalLSTMCell",
    "Conv2D",
    "Conv3D",
    "ConvLSTM2DCell",
    "ConvTranspose3D",
    "GHU",
    "LSTM",
    "LSTMCell",
    "Linear",
    "Module",
    "ModuleList",
    "Parameter",
    "STLSTMCell",
    "Sequential",
]
