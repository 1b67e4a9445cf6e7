"""orion.nn: PyTorch-style modules carrying FHE compilation metadata.

Each leaf module provides (a) exact cleartext semantics (training and
validation run through repro.nn), and (b) the metadata the Orion
compiler needs: its kind, multiplicative depth, and any polynomial
approximation configuration.  ``__call__`` additionally records the
module into an active trace (repro.trace) so the compiler can recover
the layer DAG; every leaf's ``traced_shape(*input_shapes)`` rule gives
its output shape there without running ``forward``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn as base_nn
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.trace.graph import TracedValue, record_node, trace_active

Shape = Tuple[int, ...]


class Module(base_nn.Module):
    """Base class for all orion modules.

    Subclass this (like paper Listing 1) to build networks.  Leaf
    modules set ``orion_kind`` and give a ``traced_shape`` rule (feature
    shapes in, feature shape out, ``ValueError`` where ``forward`` would
    reject the input); containers leave ``orion_kind`` ``None`` and
    simply compose children in ``forward``.
    """

    orion_kind: Optional[str] = None  # None = container

    def __call__(self, *args):
        if self.orion_kind is None or trace_active() is None:
            return self.forward(*args)
        values: List[TracedValue] = []
        for arg in args:
            if isinstance(arg, TracedValue):
                values.append(arg)
            else:
                raise TypeError(
                    f"{type(self).__name__} received a raw tensor during "
                    "tracing; all values must flow from the traced input"
                )
        shape = tuple(self.traced_shape(*(v.feature_shape for v in values)))
        if any(v.tensor is None for v in values):
            return record_node(self, values, shape)
        out = self.forward(*(v.tensor for v in values))
        if tuple(out.shape[1:]) != shape:
            raise ValueError(
                f"{type(self).__name__}: forward produced feature shape "
                f"{tuple(out.shape[1:])}, its traced_shape rule says {shape}"
            )
        return record_node(self, values, shape, out)


def _channels_must_match(module, shape: Shape, expected: int, rank: int) -> None:
    if len(shape) != rank or shape[0] != expected:
        raise ValueError(
            f"{type(module).__name__} expects a rank-{rank} feature shape "
            f"whose first entry is {expected}, got {tuple(shape)}"
        )


# ---------------------------------------------------------------------------
# Linear layers (each consumes exactly one level; paper Section 4)
# ---------------------------------------------------------------------------
class Conv2d(Module, base_nn.Conv2d):
    """Convolution with arbitrary stride/padding/dilation/groups."""

    orion_kind = "linear"

    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0,
                 dilation=1, groups=1, bias=True):
        base_nn.Conv2d.__init__(
            self, in_channels, out_channels, kernel_size, stride, padding,
            dilation, groups, bias,
        )

    def traced_shape(self, shape: Shape) -> Shape:
        _channels_must_match(self, shape, self.in_channels, rank=3)
        return self.output_shape(shape)


class Linear(Module, base_nn.Linear):
    orion_kind = "linear"

    def __init__(self, in_features, out_features, bias=True):
        base_nn.Linear.__init__(self, in_features, out_features, bias)

    def traced_shape(self, shape: Shape) -> Shape:
        _channels_must_match(self, shape, self.in_features, rank=1)
        return (self.out_features,)


class AvgPool2d(Module, base_nn.AvgPool2d):
    orion_kind = "linear"

    def __init__(self, kernel_size, stride=None):
        base_nn.AvgPool2d.__init__(self, kernel_size, stride)

    def traced_shape(self, shape: Shape) -> Shape:
        return self.output_shape(shape)


class AdaptiveAvgPool2d(Module, base_nn.AdaptiveAvgPool2d):
    orion_kind = "linear"

    def __init__(self, output_size=1):
        base_nn.AdaptiveAvgPool2d.__init__(self, output_size)

    def traced_shape(self, shape: Shape) -> Shape:
        return (shape[0], 1, 1)


class BatchNorm2d(Module, base_nn.BatchNorm2d):
    """Batch norm; folded into the adjacent convolution at compile time
    so it consumes no level (paper Section 5.1 counts linear layers as
    one level each — conv+bn together form one linear layer)."""

    orion_kind = "batchnorm"

    def __init__(self, num_features, eps=1e-5, momentum=0.1):
        base_nn.BatchNorm2d.__init__(self, num_features, eps, momentum)

    def traced_shape(self, shape: Shape) -> Shape:
        _channels_must_match(self, shape, self.num_features, rank=3)
        return shape


class BatchNorm1d(Module, base_nn.BatchNorm1d):
    """Per-feature batch norm; folded into the adjacent dense Linear at
    compile time exactly like BatchNorm2d folds into Conv2d."""

    orion_kind = "batchnorm"

    def __init__(self, num_features, eps=1e-5, momentum=0.1):
        base_nn.BatchNorm1d.__init__(self, num_features, eps, momentum)

    def traced_shape(self, shape: Shape) -> Shape:
        _channels_must_match(self, shape, self.num_features, rank=1)
        return shape


class Flatten(Module, base_nn.Flatten):
    """Layout-only: flattening is free under packed layouts."""

    orion_kind = "reshape"

    def traced_shape(self, shape: Shape) -> Shape:
        return (math.prod(shape),)


class Roll(Module):
    """Cyclic slot rotation by ``shift`` (positive = leftward, matching
    the backend's ``rotate`` convention: slot i reads slot i + shift).

    Cleartext semantics roll the flattened feature vector; under FHE
    this lowers to one hoisted Galois rotation.  The graph optimizer
    hoists identical rolls across fork branches and cancels
    roll/unroll pairs.
    """

    orion_kind = "rotate"

    def __init__(self, shift: int):
        super().__init__()
        self.shift = int(shift)

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        flat = np.roll(x.data.reshape(batch, -1), -self.shift, axis=1)
        data = flat.reshape(x.shape)
        shift = self.shift

        def backward(grad):
            if x.requires_grad:
                rolled = np.roll(grad.reshape(batch, -1), shift, axis=1)
                x._accumulate(rolled.reshape(x.shape))

        return Tensor._make(np.asarray(data), (x,), backward)

    def traced_shape(self, shape: Shape) -> Shape:
        return shape


class Add(Module):
    """Elementwise join for residual connections (paper Listing 1)."""

    orion_kind = "add"

    def forward(self, a: Tensor, b: Tensor) -> Tensor:
        return a + b

    def traced_shape(self, a: Shape, b: Shape) -> Shape:
        if tuple(a) != tuple(b):
            raise ValueError(
                f"{type(self).__name__} joins operands of different shapes "
                f"{tuple(a)} and {tuple(b)}"
            )
        return a


# ---------------------------------------------------------------------------
# Activations (polynomial evaluations under FHE; paper Sections 6-7)
# ---------------------------------------------------------------------------
class _ActivationBase(Module):
    """Shared machinery for polynomially-approximated activations.

    Cleartext forward is the *exact* function (training matches normal
    practice); the compiler swaps in the fitted polynomial, fitted over
    the input range :func:`repro.core.ranges.estimate_ranges` reports.
    """

    orion_kind = "poly"

    def exact_fn(self, values: np.ndarray) -> np.ndarray:
        """The true activation on a numpy array (for fitting)."""
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def traced_shape(self, shape: Shape) -> Shape:
        return shape


class ReLU(_ActivationBase):
    """ReLU via composite minimax sign polynomials (paper Section 7).

    ``degrees`` configures the composition (default [15, 15, 27] after
    Lee et al. [53]); total depth = sum(ceil(log2(d+1))) + 1 for the
    final multiply, i.e. 14 for the default.
    """

    orion_kind = "relu"

    def __init__(self, degrees: Sequence[int] = (15, 15, 27)):
        super().__init__()
        self.degrees = tuple(degrees)

    def exact_fn(self, values):
        return np.maximum(values, 0.0)

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class SiLU(_ActivationBase):
    """SiLU approximated by one Chebyshev polynomial of ``degree``."""

    def __init__(self, degree: int = 127):
        super().__init__()
        self.degree = degree

    def exact_fn(self, values):
        return values / (1.0 + np.exp(-values))

    def forward(self, x: Tensor) -> Tensor:
        return F.silu(x)


class Square(_ActivationBase):
    """x^2: exact degree-2 polynomial (MNIST networks, paper Table 2)."""

    def __init__(self):
        super().__init__()
        self.degree = 2

    def exact_fn(self, values):
        return values * values

    def forward(self, x: Tensor) -> Tensor:
        return F.square(x)


class Activation(_ActivationBase):
    """Arbitrary user activation fit with a degree-``degree`` Chebyshev
    polynomial (paper Section 6: extending support "is straightforward
    and follows a process similar to defining custom PyTorch modules")."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], degree: int = 31,
                 name: str = "custom"):
        super().__init__()
        self.fn = fn
        self.degree = degree
        self.custom_name = name

    def exact_fn(self, values):
        return self.fn(values)

    def forward(self, x: Tensor) -> Tensor:
        data = self.fn(x.data)
        out = Tensor._make(np.asarray(data), (x,), _numeric_backward(self.fn, x))
        return out


def _numeric_backward(fn, x: Tensor, eps: float = 1e-5):
    def backward(grad):
        if x.requires_grad:
            deriv = (fn(x.data + eps) - fn(x.data - eps)) / (2 * eps)
            x._accumulate(grad * deriv)

    return backward


# Re-export containers so models can be written entirely against this module.
Sequential = base_nn.Sequential
