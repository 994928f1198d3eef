"""`repro.nn` — a from-scratch numpy deep-learning substrate.

Provides reverse-mode autograd tensors, convolutional/recurrent layers,
losses, optimizers and a training loop. It exists because this reproduction
environment ships no deep-learning framework; see DESIGN.md for the
substitution rationale.
"""

from repro.nn import config, divergence, engine, init, layers, losses, ops, optim
from repro.nn.config import no_grad, set_dtype
from repro.nn.divergence import DivergenceError
from repro.nn.gradcheck import check_gradients, gradcheck_module
from repro.nn.layers import (
    LSTM,
    Activation,
    CausalLSTMCell,
    Conv2D,
    Conv3D,
    ConvLSTM2DCell,
    ConvTranspose3D,
    Dropout,
    GHU,
    LayerNorm,
    Linear,
    LSTMCell,
    Module,
    ModuleList,
    Parameter,
    Sequential,
    STLSTMCell,
)
from repro.nn.losses import get_loss, huber_loss, l1_loss, mse_loss
from repro.nn.optim import SGD, Adam, clip_grad_norm, make_optimizer
from repro.nn.serialization import (
    CheckpointCorruptError,
    TrainingCheckpoint,
    build_checkpoint,
    load_checkpoint,
    load_weights,
    quarantine,
    save_checkpoint,
    save_weights,
    write_checkpoint,
)
from repro.nn.tensor import Tensor, as_tensor
from repro.nn.training import Trainer, TrainingHistory, iterate_minibatches

__all__ = [
    "Activation",
    "Adam",
    "CausalLSTMCell",
    "CheckpointCorruptError",
    "DivergenceError",
    "Conv2D",
    "Conv3D",
    "ConvLSTM2DCell",
    "ConvTranspose3D",
    "Dropout",
    "GHU",
    "LSTM",
    "LSTMCell",
    "LayerNorm",
    "Linear",
    "Module",
    "ModuleList",
    "Parameter",
    "SGD",
    "STLSTMCell",
    "Sequential",
    "Tensor",
    "Trainer",
    "TrainingCheckpoint",
    "TrainingHistory",
    "as_tensor",
    "build_checkpoint",
    "check_gradients",
    "clip_grad_norm",
    "config",
    "divergence",
    "engine",
    "get_loss",
    "gradcheck_module",
    "huber_loss",
    "init",
    "iterate_minibatches",
    "l1_loss",
    "layers",
    "load_checkpoint",
    "load_weights",
    "losses",
    "make_optimizer",
    "mse_loss",
    "no_grad",
    "ops",
    "optim",
    "quarantine",
    "save_checkpoint",
    "save_weights",
    "set_dtype",
    "write_checkpoint",
]
