"""repro: a from-scratch reproduction of Orion (ASPLOS 2025).

Orion is a fully-automated framework for private neural inference using
fully homomorphic encryption (FHE).  This package reimplements the entire
system in pure Python/numpy:

- ``repro.ntt`` / ``repro.rns`` / ``repro.ckks``: a real RNS-CKKS
  implementation exact on small rings (the cryptographic substrate).
- ``repro.backend``: a common FHE backend interface with an exact toy
  backend, a fast functional simulator, an analytical latency cost model,
  and an operation ledger.
- ``repro.autograd`` / ``repro.nn`` / ``repro.datasets``: a compact
  PyTorch stand-in (reverse-mode autodiff, CNN layers, SGD) plus
  synthetic dataset generators.
- ``repro.core``: Orion's contributions — single-shot multiplexed
  packing, automatic bootstrap placement over level digraphs, errorless
  scale management, range estimation, and the compiler/runtime.
- ``repro.orion``: the user-facing ``orion.nn``-style API.
- ``repro.models``: the paper's model zoo (MLP through ResNet-50 and
  YOLO-v1).

See docs/architecture.md for the system inventory and
docs/substitutions.md for what stands in for the paper's stack.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
