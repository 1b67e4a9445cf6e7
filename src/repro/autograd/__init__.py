"""A compact reverse-mode automatic differentiation engine over numpy.

This is the repository's stand-in for PyTorch's autograd
(docs/substitutions.md): enough machinery to *train* every network in the model zoo
(convolutions with stride/padding/dilation/groups, batch norm, pooling,
the activations Orion supports) and to run the cleartext forward passes
that Orion's range estimation and validation require.
"""

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd import functional

__all__ = ["Tensor", "no_grad", "functional"]
