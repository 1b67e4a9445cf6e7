"""Key material for a serving lane, generated once from its program.

An artifact names its exact parameter set and the Galois steps its
program will request (:class:`repro.ckks.keys.KeyManifest`).  A serving
lane — one :class:`repro.serve.runtime.InferenceServer` — builds its
backend from ``manifest.to_params()`` and, before anything runs, calls
:func:`generate_lane_keys` for the batch views it can execute: every
rotation key those views use, compressed to the level it is used at.
Nothing generates a key on the request path afterwards.
"""

from __future__ import annotations

from typing import Optional


def default_backend_factory(params, seed: int):
    """Exact toy backend when the primes fit its NTT bound; the
    functional simulator (keyless) otherwise."""
    if max(params.primes) < 2**31:
        from repro.backend.toy import ToyBackend

        return ToyBackend(params, seed=seed)
    from repro.backend.sim import SimBackend

    return SimBackend(params, seed=seed)


def backend_key_bytes(backend) -> int:
    """Stored rotation-key bytes of one backend: the sum of its switching
    keys' :meth:`repro.ckks.keys.SwitchingKey.size_bytes` (seed-expandable
    keys count their ``b_i`` halves plus the 32-byte seed); 0 for a
    functional backend, which holds no key material."""
    context = getattr(backend, "context", None)
    if context is None:
        return 0
    return sum(key.size_bytes() for key in context.keys.galois.values())


def generate_lane_keys(backend, program, max_batch: Optional[int] = None) -> None:
    """Generate the rotation keys ``program``'s views up to ``max_batch``
    requests per ciphertext use (``None``: the program's full slot-batch
    capacity, i.e. the key manifest), in step order, each compressed to
    the highest level it key-switches at.

    Keys the backend already holds at a covering bound are kept as they
    are and draw no randomness, so a second call for the same program —
    a hot reload over the same backend — changes nothing.  A functional
    backend holds no key material and is left untouched.
    """
    context = getattr(backend, "context", None)
    if context is None:
        return
    levels = program.required_rotation_step_levels(max_batch)
    context.generate_rotation_keys(sorted(levels), levels=levels)
