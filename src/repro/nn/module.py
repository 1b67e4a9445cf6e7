"""Module base class: parameter registration and train/eval modes."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.init import Draw

#: The slot a :class:`Tensor` keeps its array in; a Parameter's ``data``
#: property wraps it.
_DATA = Tensor.data


class Parameter(Tensor):
    """A trainable tensor (requires_grad is always on at creation).

    Built from an init :class:`~repro.nn.init.Draw`, it holds no values
    until ``.data`` is first read.  ``shape`` (and with it ``ndim`` and
    ``size``) answers from the draw's shape; assigning ``.data``
    replaces the draw.
    """

    def __init__(self, data):
        deferred = isinstance(data, Draw)
        super().__init__(() if deferred else data, requires_grad=True)
        if deferred:
            _DATA.__set__(self, data)

    @property
    def data(self) -> np.ndarray:
        value = _DATA.__get__(self)
        if isinstance(value, Draw):
            value = value()
            _DATA.__set__(self, value)
        return value

    @data.setter
    def data(self, value) -> None:
        _DATA.__set__(self, value)

    @property
    def shape(self) -> Tuple[int, ...]:
        return _DATA.__get__(self).shape


class Module:
    """Base class with PyTorch-style attribute registration.

    Assigning a :class:`Parameter` or :class:`Module` to an attribute
    registers it; ``parameters()`` and ``train()`` walk the registry
    recursively.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- buffers (non-trainable state, e.g. batchnorm running stats) ----
    def register_buffer(self, name: str, array: np.ndarray) -> None:
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # -- traversal --------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self):
        for _, param in self.named_parameters():
            yield param

    # -- modes -------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- call ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules in order (matches torch.nn.Sequential semantics)."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)
