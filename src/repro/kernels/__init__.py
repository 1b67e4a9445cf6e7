"""Hot-path kernels (the key-switch inner products).

Plain numpy functions, one implementation each, called directly.  The
NTT is :class:`repro.ntt.NttChainEngine`, two BLAS matrix products per
transform.  See :mod:`repro.kernels.ops` and ``docs/kernels.md``.
"""

from types import SimpleNamespace

from repro.kernels.ops import (
    ks_inner,
    ks_inner_stacked,
    lazy_reduction_chunk,
)


def active_backend() -> str:
    """The kernel implementation name recorded in telemetry (a constant)."""
    return "numpy"


# For benchmarks/e2e only (a frozen harness that still pins a backend by
# environment variable); the next two names leave with that pin.
def select_backend(name=None) -> str:
    if name not in (None, "numpy"):
        raise ValueError(f"the only kernel backend is 'numpy', got {name!r}")
    return "numpy"


registry = SimpleNamespace(probe=active_backend)

__all__ = [
    "active_backend",
    "ks_inner",
    "ks_inner_stacked",
    "lazy_reduction_chunk",
]
