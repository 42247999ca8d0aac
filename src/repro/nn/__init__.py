"""Pure-NumPy neural-network substrate used by the Duet reproduction.

This package replaces PyTorch (not available offline) with a small
reverse-mode autograd engine plus the layers, masked autoregressive
networks, losses, and optimisers that the paper's models require.
"""

from . import functional, inference, init
from .inference import ForwardPlan, PlanOptions, StageSpec, masked_block_mass
from .layers import (
    LSTM,
    Embedding,
    Identity,
    Linear,
    LSTMCell,
    MaskedLinear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .made import MADE, ColumnBlockSpec
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .serialization import load_module, save_module
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "inference",
    "init",
    "ForwardPlan",
    "PlanOptions",
    "StageSpec",
    "masked_block_mass",
    "Module",
    "Linear",
    "MaskedLinear",
    "Embedding",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Sequential",
    "LSTMCell",
    "LSTM",
    "MADE",
    "ColumnBlockSpec",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_module",
    "load_module",
]
