"""Differentiable operations for the autograd engine.

Each function computes a forward numpy result and registers a closure
that routes the output gradient back to its parents.  Broadcasting is
handled by summing gradients over broadcast dimensions.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise arithmetic --------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-grad * a.data / (b.data**2), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


# -- shape ops ---------------------------------------------------------------
def reshape(a: Tensor, shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    original = a.shape
    out_data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(original))

    return Tensor._make(out_data, (a,), backward)


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    out_data = np.transpose(a.data, axes)

    def backward(grad):
        if a.requires_grad:
            if axes is None:
                a._accumulate(np.transpose(grad))
            else:
                inverse = np.argsort(axes)
                a._accumulate(np.transpose(grad, inverse))

    return Tensor._make(out_data, (a,), backward)


def pad2d(a: Tensor, padding: Tuple[int, int]) -> Tensor:
    """Zero-pad the last two (spatial) dimensions."""
    ph, pw = padding
    if ph == 0 and pw == 0:
        return a
    pads = [(0, 0)] * (a.ndim - 2) + [(ph, ph), (pw, pw)]
    out_data = np.pad(a.data, pads)

    def backward(grad):
        if a.requires_grad:
            slices = tuple(
                [slice(None)] * (a.ndim - 2)
                + [slice(ph, grad.shape[-2] - ph), slice(pw, grad.shape[-1] - pw)]
            )
            a._accumulate(grad[slices])

    return Tensor._make(out_data, (a,), backward)


# -- reductions ---------------------------------------------------------------
def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if not a.requires_grad:
            return
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.shape))

    return Tensor._make(out_data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(sum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


# -- activations ----------------------------------------------------------------
def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * mask)

    return Tensor._make(out_data, (a,), backward)


def silu(a: Tensor) -> Tensor:
    """SiLU(x) = x * sigmoid(x) (paper Section 7 activation)."""
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out_data = a.data * sig

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (sig + a.data * sig * (1.0 - sig)))

    return Tensor._make(out_data, (a,), backward)


def square(a: Tensor) -> Tensor:
    """x^2, the MNIST activation in paper Table 2."""
    out_data = a.data**2

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * 2.0 * a.data)

    return Tensor._make(out_data, (a,), backward)


# -- im2col convolution -----------------------------------------------------
def _conv_output_size(size: int, kernel: int, stride: int, pad: int, dil: int) -> int:
    effective = dil * (kernel - 1) + 1
    return (size + 2 * pad - effective) // stride + 1


def _im2col_indices(c, h, w, kh, kw, stride, dilation):
    """Gather indices turning (C,H,W) into (C*kh*kw, L) patch columns."""
    sh, sw = stride
    dh, dw = dilation
    out_h = (h - dh * (kh - 1) - 1) // sh + 1
    out_w = (w - dw * (kw - 1) - 1) // sw + 1
    i0 = np.repeat(np.arange(kh) * dh, kw)
    j0 = np.tile(np.arange(kw) * dw, kh)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    rows = i0[:, None] + i1[None, :]  # (kh*kw, L)
    cols = j0[:, None] + j1[None, :]
    chan = np.repeat(np.arange(c), kh * kw)[:, None]  # (C*kh*kw, 1)
    rows = np.tile(rows, (c, 1))
    cols = np.tile(cols, (c, 1))
    return chan, rows, cols, out_h, out_w


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
) -> Tensor:
    """2D convolution with arbitrary parameters (im2col formulation).

    Shapes: x (B, Ci, H, W); weight (Co, Ci/groups, kh, kw).
    """
    batch, c_in, _, _ = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if c_in != c_in_g * groups:
        raise ValueError(
            f"input channels {c_in} incompatible with weight "
            f"{weight.shape} and groups {groups}"
        )
    if c_out % groups != 0:
        raise ValueError("output channels must divide evenly into groups")

    padded = pad2d(x, padding)
    _, _, hp, wp = padded.shape
    chan, rows, cols, out_h, out_w = _im2col_indices(
        c_in, hp, wp, kh, kw, stride, dilation
    )
    x_data = padded.data
    patches = x_data[:, chan, rows, cols]  # (B, Ci*kh*kw, L)
    length = out_h * out_w
    patches_g = patches.reshape(batch, groups, c_in_g * kh * kw, length)
    weight_g = weight.data.reshape(groups, c_out // groups, c_in_g * kh * kw)
    out = np.einsum("gok,bgkl->bgol", weight_g, patches_g, optimize=True)
    out = out.reshape(batch, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (padded, weight) + ((bias,) if bias is not None else ())

    def backward(grad):
        grad4 = grad.reshape(batch, groups, c_out // groups, length)
        if weight.requires_grad:
            wgrad = np.einsum("bgol,bgkl->gok", grad4, patches_g, optimize=True)
            weight._accumulate(wgrad.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if padded.requires_grad:
            col_grad = np.einsum("gok,bgol->bgkl", weight_g, grad4, optimize=True)
            col_grad = col_grad.reshape(batch, c_in * kh * kw, length)
            xgrad = np.zeros_like(x_data)
            np.add.at(
                xgrad,
                (slice(None), chan, rows, cols),
                col_grad,
            )
            padded._accumulate(xgrad)

    return Tensor._make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map: x (B, in) @ weight.T (in, out) + bias."""
    out = matmul(x, transpose(weight))
    if bias is not None:
        out = add(out, bias)
    return out


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling (the paper replaces all max pools with this)."""
    stride = kernel if stride is None else stride
    batch, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    window = np.lib.stride_tricks.sliding_window_view(x.data, (kernel, kernel), (2, 3))
    strided = window[:, :, ::stride, ::stride]
    out = strided.mean(axis=(-1, -2))

    def backward(grad):
        if not x.requires_grad:
            return
        xgrad = np.zeros_like(x.data)
        share = grad / (kernel * kernel)
        for dy in range(kernel):
            for dx in range(kernel):
                xgrad[
                    :, :, dy : dy + out_h * stride : stride, dx : dx + out_w * stride : stride
                ] += share
        x._accumulate(xgrad)

    return Tensor._make(out, (x,), backward)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (B, H, W) per channel.

    Running statistics are updated in place during training, mirroring
    torch.nn.BatchNorm2d semantics.
    """
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]
    count = x.shape[0] * x.shape[2] * x.shape[3]

    def backward(grad):
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            g = grad * gamma.data[None, :, None, None]
            if training:
                sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
                sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
                inv = inv_std[None, :, None, None]
                xgrad = inv / count * (count * g - sum_g - x_hat * sum_gx)
            else:
                xgrad = g * inv_std[None, :, None, None]
            x._accumulate(xgrad)

    return Tensor._make(out, (x, gamma, beta), backward)


# -- losses ----------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z
    softmax = np.exp(out)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy with integer class targets."""
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    batch = logits.shape[0]
    picked_data = logp.data[np.arange(batch), targets]
    out = -picked_data.mean()

    def backward(grad):
        if logp.requires_grad:
            g = np.zeros_like(logp.data)
            g[np.arange(batch), targets] = -float(grad) / batch
            logp._accumulate(g)

    return Tensor._make(np.asarray(out), (logp,), backward)
