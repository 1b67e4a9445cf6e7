"""A PyTorch-style neural network library over repro.autograd.

``repro.orion`` layers extend these modules the same way the paper's
``orion.nn`` extends ``torch.nn`` (Listing 1): the cleartext semantics
live here, the FHE compilation metadata lives in the subclass.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    AvgPool2d,
    AdaptiveAvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
)
from repro.nn.activations import ReLU, SiLU, Square
from repro.nn.optim import SGD

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm1d",
    "BatchNorm2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Flatten",
    "ReLU",
    "SiLU",
    "Square",
    "SGD",
]
