"""The Tensor datatype: numpy array + gradient + backward closure."""

from __future__ import annotations

import contextlib
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference / weight updates)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Graph edges are recorded eagerly: each op stores its parents and a
    closure that accumulates gradients into them.  ``backward()`` runs a
    topological sweep from the output.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._parents: Tuple["Tensor", ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    # -- construction helpers ----------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...], backward_fn) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    # -- shape info -------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- backward ---------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this tensor."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def visit(node: Tensor):
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    topo.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operators (implemented in functional.py to keep this file small) --
    def __add__(self, other):
        from repro.autograd import functional as F

        return F.add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        from repro.autograd import functional as F

        return F.sub(self, _wrap(other))

    def __rsub__(self, other):
        from repro.autograd import functional as F

        return F.sub(_wrap(other), self)

    def __mul__(self, other):
        from repro.autograd import functional as F

        return F.mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.autograd import functional as F

        return F.div(self, _wrap(other))

    def __neg__(self):
        from repro.autograd import functional as F

        return F.mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        from repro.autograd import functional as F

        return F.matmul(self, _wrap(other))

    def reshape(self, *shape):
        from repro.autograd import functional as F

        return F.reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        from repro.autograd import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        from repro.autograd import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)
