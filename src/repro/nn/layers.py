"""Standard CNN layers over the autograd engine."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


class Conv2d(Module):
    """2D convolution with arbitrary stride/padding/dilation/groups.

    Signature mirrors ``torch.nn.Conv2d`` so Orion models read like the
    paper's Listing 1.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        dilation: IntPair = 1,
        groups: int = 1,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.dilation = _pair(dilation)
        self.groups = groups
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        kh, kw = self.kernel_size
        fan_in = (in_channels // groups) * kh * kw
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels // groups, kh, kw), fan_in)
        )
        self.bias = Parameter(init.uniform_bias(out_channels, fan_in)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            dilation=self.dilation,
            groups=self.groups,
        )

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """(C,H,W) -> (C,H,W) shape inference used by the Orion compiler."""
        _, h, w = input_shape
        kh, kw = self.kernel_size
        out_h = F._conv_output_size(h, kh, self.stride[0], self.padding[0], self.dilation[0])
        out_w = F._conv_output_size(w, kw, self.stride[1], self.padding[1], self.dilation[1])
        return (self.out_channels, out_h, out_w)


class Linear(Module):
    """Fully-connected layer: y = x W^T + b."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), in_features)
        )
        self.bias = Parameter(init.uniform_bias(out_features, in_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def folded_affine(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel (scale, shift) equivalent in eval mode.

        Used by the Orion compiler to fold batch norm into the adjacent
        convolution so it costs no multiplicative level.
        """
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.weight.data * inv_std
        shift = self.bias.data - self.running_mean * scale
        return scale, shift


class BatchNorm1d(BatchNorm2d):
    """Per-feature batch normalization for (B, C) inputs.

    Reuses the 2D statistics machinery by viewing features as 1x1
    spatial maps; ``folded_affine`` is inherited unchanged, so the
    Orion compiler folds Linear -> BatchNorm1d exactly like
    Conv2d -> BatchNorm2d.
    """

    def forward(self, x: Tensor) -> Tensor:
        if len(x.shape) != 2:
            raise ValueError(f"BatchNorm1d expects (B, C) input, got {x.shape}")
        as_2d = x.reshape(x.shape[0], x.shape[1], 1, 1)
        out = F.batch_norm2d(
            as_2d,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )
        return out.reshape(x.shape[0], x.shape[1])


class AvgPool2d(Module):
    """Average pooling (the paper replaces max pooling with this)."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        c, h, w = input_shape
        out_h = (h - self.kernel_size) // self.stride + 1
        out_w = (w - self.kernel_size) // self.stride + 1
        return (c, out_h, out_w)


class AdaptiveAvgPool2d(Module):
    """Global average pooling to a fixed output size (only 1x1 needed)."""

    def __init__(self, output_size: int = 1):
        super().__init__()
        if output_size != 1:
            raise NotImplementedError("only global (1x1) pooling is supported")
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3), keepdims=True)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
