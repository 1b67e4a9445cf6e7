"""Multi-tenant key material for serving, driven by the key manifest.

An artifact names its exact parameter set and the Galois steps its
program will request (:class:`repro.ckks.keys.KeyManifest`).  The
:class:`KeyRegistry` turns that manifest into per-client backends:
each client gets its own secret/rotation keys (generated once, eagerly,
from the manifest — never lazily on the request path), cached under
``(manifest fingerprint, client id)`` and evicted LRU.

With a ``cache_dir`` configured, LRU demotion becomes **spill-to-disk**
instead of key destruction: a cold tenant's key chain is serialized to
fingerprint-addressed storage (seed-expandable keys persist only their
``b_i`` halves plus the 32-byte PRG seed — about half the compressed
in-memory footprint) and transparently *promoted* back on the next
request.  Promotion restores the exact key material **and** the saved
rng stream position, so a promoted tenant's encryptions — and therefore
its outputs — are bit-identical to a replica that was never spilled.

Slot batching operates *within* one client's key domain: a batched
ciphertext is encrypted under a single key, so only requests sharing a
backend coalesce (the runtime enforces this).  Different tenants are
isolated by construction — separate secrets, separate backends,
separate plaintext caches, separate spill files.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ckks.keys import KeyChain, KeyManifest, SwitchingKey
from repro.serve.artifact import check_header

#: Spill-file format tag and version (stored in the ``__spill__`` JSON
#: member; loaders reject anything else loudly).  Version 3 stores each
#: key's b rows as the resident tensor holds them — uint32, special-first
#: limbs, inverse-permuted slots; a version-2 file holds the same rows in
#: int64 and a version-1 file in another layout, so neither may restore.
SPILL_FORMAT = "repro-key-spill"
SPILL_VERSION = 3


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


class KeySpillError(RuntimeError):
    """A spill file failed validation (wrong format, version, fingerprint,
    shape or dtype)."""


def _serialize_switching_key(
    key: SwitchingKey, arrays: Dict[str, np.ndarray], prefix: str
) -> Dict:
    """Add one switching key's persistent rows to ``arrays``.

    Seed-expandable keys (the normal case — every key the context
    generates carries a PRG seed) store only the b rows, ``tensor[0]``
    in the key's resident layout; the uniform a rows regenerate from
    the seed on restore.  Keys without a seed store both halves.
    """
    arrays[f"{prefix}_b"] = key.tensor[0]
    if key.seed is None:
        arrays[f"{prefix}_a"] = key.tensor[1]
    return {
        "digits": len(key),
        "max_level": key.max_level,
        "seed": key.seed.hex() if key.seed is not None else None,
    }


def _restore_switching_key(
    context, arrays: Dict[str, np.ndarray], prefix: str, meta: Dict, exponent: int = 1
) -> SwitchingKey:
    """Rebuild a switching key from its spill-file members."""
    max_level = meta["max_level"]
    level = context.params.max_level if max_level is None else max_level
    shape = (
        meta["digits"],
        context.params.num_special_primes + level + 1,
        context.params.ring_degree,
    )
    halves = [arrays[f"{prefix}_b"]]
    if meta["seed"] is None:
        halves.append(arrays[f"{prefix}_a"])
    for half in halves:
        if half.shape != shape or half.dtype != np.uint32:
            raise KeySpillError(
                f"spill member of {prefix} is {half.dtype} {half.shape}, "
                f"manifest says uint32 {shape}"
            )
    if meta["seed"] is not None:
        return SwitchingKey.from_seed(
            bytes.fromhex(meta["seed"]), halves[0], context.basis, exponent, max_level
        )
    return SwitchingKey(np.stack(halves), context.basis, exponent, max_level)


class KeyRegistry:
    """Per-client backend/key cache keyed by the artifact's manifest.

    Args:
        manifest: the artifact's key manifest.
        backend_factory: ``(params, seed) -> FheBackend``; defaults to
            the exact toy backend for toy-sized primes.
        max_clients: LRU capacity (multi-tenant memory bound).
        cache_dir: optional spill directory.  When set, LRU demotion
            serializes the victim's key chain (and rng stream position)
            under ``cache_dir/<manifest fingerprint>/`` instead of
            destroying it, and :meth:`backend_for` promotes spilled
            tenants back transparently.  When unset (the default) the
            registry behaves as before: demotion discards keys and the
            next request pays full keygen.
    """

    def __init__(
        self,
        manifest: KeyManifest,
        backend_factory: Optional[Callable] = None,
        max_clients: int = 16,
        cache_dir: Optional[str] = None,
    ):
        if max_clients < 1:
            raise ValueError("max_clients must be at least 1")
        self.manifest = manifest
        self.params = manifest.to_params()
        self.backend_factory = backend_factory or default_backend_factory
        self.max_clients = max_clients
        self.cache_dir = cache_dir
        self._fingerprint = manifest.fingerprint()
        self._clients: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        # In-flight refcounts: a pinned client's keys must never be
        # LRU-evicted (or spilled) mid-request — demoting them would
        # force a silent re-keygen — and a *different* key domain —
        # under a request that already encrypted against the old keys.
        self._pins: Dict[Tuple[str, str], int] = {}
        self.keygen_count = 0
        self.spill_count = 0
        self.promote_count = 0

    def __len__(self) -> int:
        return len(self._clients)

    def _client_seed(self, client_id: str) -> int:
        # Stable, collision-resistant per-client seed (builtin hash()
        # is process-randomized and 2^31-collision-prone — unacceptable
        # for tenant key derivation).
        digest = hashlib.sha256(
            f"{self._fingerprint}/{client_id}".encode()
        ).digest()
        return int.from_bytes(digest[:4], "big") % (2**31)

    def backend_for(self, client_id: str, seed: Optional[int] = None):
        """The client's backend, with the manifest's keys pre-generated.

        The first call for a client performs keygen (secret, relin,
        and exactly the manifest's rotation keys); later calls return
        the cached backend so its plaintext caches keep paying off.
        A client whose keys were spilled to disk is promoted back here
        — key material and rng stream restored bit-exactly — instead
        of re-running keygen.
        """
        key = (self._fingerprint, client_id)
        backend = self._clients.get(key)
        if backend is not None:
            self._clients.move_to_end(key)
            return backend
        if seed is None:
            seed = self._client_seed(client_id)
        spill_path = self._spill_path(client_id)
        if spill_path is not None and os.path.exists(spill_path):
            backend = self._promote(client_id, seed, spill_path)
            if backend is not None:
                self._clients[key] = backend
                self._shrink()
                return backend
        backend = self.backend_factory(self.params, seed)
        self._prepare(backend)
        self.keygen_count += 1
        self._clients[key] = backend
        self._shrink()
        return backend

    def _shrink(self) -> None:
        """Demote LRU entries past capacity, skipping pinned clients.

        A client with in-flight requests (pin count > 0) is never
        demoted even if it is the least recently used, and neither is
        the most recently used entry (a request that just built its
        backend must get the chance to pin it).  The cache may
        temporarily exceed ``max_clients`` while everything is pinned,
        and shrinks back as pins release.  With a ``cache_dir``,
        demotion spills the victim's keys to disk first; without one
        it discards them (the pre-spill behaviour).
        """
        if len(self._clients) <= self.max_clients:
            return
        for key in list(self._clients)[:-1]:
            if len(self._clients) <= self.max_clients:
                return
            if self._pins.get(key, 0) > 0:
                continue
            self._spill(key[1], self._clients[key])
            del self._clients[key]

    def _prepare(self, backend) -> None:
        context = getattr(backend, "context", None)
        if context is None:
            return  # functional backends hold no key material
        # The manifest's per-step level bounds (traced from placement)
        # turn eager keygen into *compressed* keygen: each rotation key
        # stores only the digits/limbs a key switch at its recorded
        # level can consume.  Manifests without level data fall back to
        # full-chain keys.
        context.generate_rotation_keys(
            self.manifest.rotation_steps, levels=self.manifest.step_level_map()
        )
        if self.manifest.needs_conjugation:
            context.galois_key(context.encoder.conjugation_exponent)

    # -- spill-to-disk -------------------------------------------------------
    def _spill_dir(self) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, self._fingerprint)

    def _spill_path(self, client_id: str) -> Optional[str]:
        spill_dir = self._spill_dir()
        if spill_dir is None:
            return None
        name = hashlib.sha256(client_id.encode()).hexdigest()[:24]
        return os.path.join(spill_dir, f"{name}.npz")

    def _spill(self, client_id: str, backend) -> bool:
        """Serialize one client's key chain to its spill file.

        Returns False (plain discard) when no cache dir is configured
        or the backend holds no key material (functional simulator).
        """
        path = self._spill_path(client_id)
        context = getattr(backend, "context", None)
        if path is None or context is None:
            return False
        arrays: Dict[str, np.ndarray] = {}
        keys = context.keys
        arrays["secret"] = keys.secret.data
        arrays["public_b"] = keys.public[0].data
        arrays["public_a"] = keys.public[1].data
        meta = {
            "format": SPILL_FORMAT,
            "version": SPILL_VERSION,
            "fingerprint": self._fingerprint,
            "client_id": client_id,
            "rng_state": context.rng.get_state(),
            "relin": _serialize_switching_key(keys.relin, arrays, "relin"),
            "galois": {
                str(exponent): _serialize_switching_key(
                    key, arrays, f"g{exponent}"
                )
                for exponent, key in keys.galois.items()
            },
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            np.savez(
                f,
                __spill__=np.frombuffer(
                    json.dumps(meta).encode("utf-8"), dtype=np.uint8
                ),
                **arrays,
            )
        os.replace(tmp, path)  # atomic publish: readers never see a torn file
        self.spill_count += 1
        return True

    def _promote(self, client_id: str, seed: int, path: str):
        """Restore a spilled client: exact keys, exact rng position.

        Builds a skeleton backend through the normal factory (so the
        backend type and ledger wiring match a fresh build), then
        replaces its key chain with the deserialized one and rewinds
        the context rng to the spilled stream position.  The promoted
        backend is indistinguishable from one that never left RAM —
        minus the warm plaintext caches, which rebuild on use.
        Returns ``None`` for keyless (functional) backends, falling
        back to a fresh build.
        """
        from repro.rns.poly import RnsPolynomial

        backend = self.backend_factory(self.params, seed)
        context = getattr(backend, "context", None)
        if context is None:
            return None
        with np.load(path, allow_pickle=False) as data:
            if "__spill__" not in data:
                raise KeySpillError(f"{path}: not a key spill file")
            meta = json.loads(bytes(data["__spill__"]).decode("utf-8"))
            check_header(
                meta,
                (("format", "format", SPILL_FORMAT),
                 ("version", "spill version", SPILL_VERSION),
                 ("fingerprint", "manifest fingerprint", self._fingerprint)),
                KeySpillError,
                path,
                "evict and re-keygen",
            )
            arrays = {k: data[k] for k in data.files if k != "__spill__"}
        chain = context._full_chain()
        secret = RnsPolynomial(
            context.basis, chain, np.ascontiguousarray(arrays["secret"]), is_ntt=True
        )
        public = (
            RnsPolynomial(
                context.basis,
                chain,
                np.ascontiguousarray(arrays["public_b"]),
                is_ntt=True,
            ),
            RnsPolynomial(
                context.basis,
                chain,
                np.ascontiguousarray(arrays["public_a"]),
                is_ntt=True,
            ),
        )
        restored = KeyChain(
            secret=secret,
            # s^2 is derived material: recompute instead of storing.
            secret_squared=secret * secret,
            public=public,
            relin=_restore_switching_key(context, arrays, "relin", meta["relin"]),
            galois={
                int(exponent): _restore_switching_key(
                    context, arrays, f"g{exponent}", key_meta, int(exponent)
                )
                for exponent, key_meta in meta["galois"].items()
            },
        )
        context.keys = restored
        context.rng.set_state(meta["rng_state"])
        os.remove(path)  # promoted = resident again; disk copy retired
        self.promote_count += 1
        return backend

    def spill(self, client_id: str) -> bool:
        """Explicitly demote one resident client to disk.

        Returns True if the client's keys now live in the spill file.
        Refuses (``RuntimeError``) while the client is pinned, exactly
        like :meth:`evict`.  Clients without key material (functional
        backends), or a registry without a ``cache_dir``, fall back to
        plain eviction semantics and return False.
        """
        key = (self._fingerprint, client_id)
        backend = self._clients.get(key)
        if backend is None:
            raise KeyError(f"unknown client {client_id!r}")
        if self._pins.get(key, 0) > 0:
            raise RuntimeError(
                f"client {client_id!r} has {self._pins[key]} in-flight "
                "request(s); cannot spill its key material"
            )
        spilled = self._spill(client_id, backend)
        del self._clients[key]
        return spilled

    def resident_clients(self) -> List[str]:
        """Client ids currently resident in RAM (LRU order, oldest first)."""
        return [client_id for _, client_id in self._clients]

    def spilled_count(self) -> int:
        """Number of clients whose keys live only in spill files."""
        spill_dir = self._spill_dir()
        if spill_dir is None or not os.path.isdir(spill_dir):
            return 0
        return sum(1 for name in os.listdir(spill_dir) if name.endswith(".npz"))

    def key_bytes(self) -> Dict[str, int]:
        """``{"resident": ..., "spilled": ...}`` key-material bytes.

        Resident bytes count every resident client's stored rotation-key
        material (:meth:`key_material_bytes`); spilled bytes are the
        on-disk spill-file sizes under this manifest's fingerprint.
        Gated by the serving-pool benchmark's tenant-key budget.
        """
        resident = sum(
            self.key_material_bytes(client_id)
            for client_id in self.resident_clients()
        )
        spilled = 0
        spill_dir = self._spill_dir()
        if spill_dir is not None and os.path.isdir(spill_dir):
            for name in os.listdir(spill_dir):
                if name.endswith(".npz"):
                    try:
                        spilled += os.path.getsize(os.path.join(spill_dir, name))
                    except OSError:
                        pass  # raced with a concurrent promote
        return {"resident": resident, "spilled": spilled}

    def key_material_bytes(self, client_id: str) -> int:
        """Stored rotation-key bytes for one client (compression metric).

        For a resident client this is :func:`backend_key_bytes` of its
        backend; for a spilled client, the spill file's on-disk size.
        """
        backend = self._clients.get((self._fingerprint, client_id))
        if backend is None:
            path = self._spill_path(client_id)
            if path is not None and os.path.exists(path):
                return os.path.getsize(path)
            raise KeyError(f"unknown client {client_id!r}")
        return backend_key_bytes(backend)

    # -- in-flight pinning ---------------------------------------------------
    def pin(self, client_id: str) -> None:
        """Mark a request in flight for the client: its keys become
        ineligible for LRU demotion until :meth:`unpin`."""
        key = (self._fingerprint, client_id)
        if key not in self._clients:
            raise KeyError(f"unknown client {client_id!r}")
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, client_id: str) -> None:
        """Release one in-flight pin; frees demotion when it hits zero."""
        key = (self._fingerprint, client_id)
        count = self._pins.get(key, 0)
        if count <= 0:
            raise RuntimeError(f"client {client_id!r} is not pinned")
        if count == 1:
            del self._pins[key]
            self._shrink()  # release any deferred over-capacity demotion
        else:
            self._pins[key] = count - 1

    def pin_count(self, client_id: str) -> int:
        return self._pins.get((self._fingerprint, client_id), 0)

    @contextmanager
    def lease(self, client_id: str, seed: Optional[int] = None):
        """The request-path entry point: yields the client's backend
        with its keys pinned for the duration of the request."""
        backend = self.backend_for(client_id, seed=seed)
        self.pin(client_id)
        try:
            yield backend
        finally:
            self.unpin(client_id)

    def evict(self, client_id: str) -> bool:
        """Drop a client's keys everywhere (tenant offboarding).

        Removes both the resident backend and any spill file; True if
        either existed.  Refuses (``RuntimeError``) while the client
        has in-flight requests — offboarding must wait for the pins to
        release.
        """
        key = (self._fingerprint, client_id)
        if self._pins.get(key, 0) > 0:
            raise RuntimeError(
                f"client {client_id!r} has {self._pins[key]} in-flight "
                "request(s); cannot evict its key material"
            )
        present = self._clients.pop(key, None) is not None
        path = self._spill_path(client_id)
        if path is not None and os.path.exists(path):
            os.remove(path)
            present = True
        return present
