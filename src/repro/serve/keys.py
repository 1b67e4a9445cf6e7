"""Key material for a serving lane, generated once from its manifest.

An artifact names its exact parameter set and the Galois steps its
program will request (:class:`repro.ckks.keys.KeyManifest`).  A serving
lane — one :class:`repro.serve.runtime.InferenceServer` — builds its
backend from ``manifest.to_params()`` and, before anything runs, calls
:func:`generate_lane_keys` with that manifest: every rotation key the
program uses at any batch size, compressed to the level it is used at.
Nothing generates a key on the request path afterwards.  Lanes of one
artifact built from one key seed would all draw the same keys, so an
inline pool draws them once and shares a :class:`KeyDomain`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.ckks.keys import SwitchingKey


class KeyDomainError(ValueError):
    """A shared key domain offered to a backend it was not made for:
    another parameter set or another secret."""


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


def generate_lane_keys(backend, manifest) -> None:
    """Generate the rotation keys an artifact's :class:`repro.ckks.keys.
    KeyManifest` names, in step order, each compressed to the highest
    level it key-switches at.  The manifest covers every batch size the
    program can run (no batched view adds a step), so a lane keys it
    whatever its cap.

    Keys the backend already holds at a covering bound are kept as they
    are and draw no randomness, so a second call for the same manifest —
    a hot reload over the same backend — changes nothing.  A functional
    backend holds no key material and is left untouched.
    """
    context = getattr(backend, "context", None)
    if context is None:
        return
    context.generate_rotation_keys(
        manifest.rotation_steps, levels=manifest.step_level_map()
    )


@dataclass(frozen=True)
class KeyDomain:
    """One lane's rotation keys, right after :func:`generate_lane_keys`.

    ``galois`` holds the donor's :class:`SwitchingKey` objects
    themselves (read-only tensors, so any number of backends may hold
    them); ``rng_state`` is the donor context's rng right after it drew
    them.  A backend built from the same parameters and key seed that
    installs the domain is in exactly the state its own keygen would
    have left it in: same keys, same ``keys.galois`` order, same rng
    stream afterwards.
    """

    params_fingerprint: str
    secret_fingerprint: str
    galois: Dict[int, SwitchingKey]
    rng_state: dict

    @staticmethod
    def _fingerprints(context):
        """``(parameter set, secret)`` digests of a key context."""
        return tuple(
            hashlib.sha256(data).hexdigest()[:16]
            for data in (repr(context.params).encode(), context.keys.secret.data.tobytes())
        )

    @classmethod
    def of(cls, backend) -> Optional["KeyDomain"]:
        """The domain ``backend`` holds now; ``None`` for a functional
        backend, which holds no keys and has nothing to share."""
        context = getattr(backend, "context", None)
        if context is None:
            return None
        return cls(
            *cls._fingerprints(context),
            dict(context.keys.galois),
            context.rng.get_state(),
        )

    def install(self, backend) -> None:
        """Give ``backend`` this domain's keys and rng state.

        Raises :class:`KeyDomainError` naming both sides, and installs
        nothing, when ``backend`` was built from another parameter set
        or holds another secret: keys made under one secret decrypt
        garbage under another.
        """
        params, secret = self._fingerprints(backend.context)
        if (params, secret) != (self.params_fingerprint, self.secret_fingerprint):
            raise KeyDomainError(
                f"key domain of params {self.params_fingerprint} / secret "
                f"{self.secret_fingerprint} cannot be installed into a "
                f"backend of params {params} / secret {secret}"
            )
        backend.context.keys.galois = dict(self.galois)
        backend.context.rng.set_state(self.rng_state)
