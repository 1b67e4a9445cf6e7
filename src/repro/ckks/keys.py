"""Key material for the toy RNS-CKKS backend.

Hybrid key switching (paper Sections 2.5.2-2.5.3, following Han-Ki [33]
and Bossuat et al. [11]): a switching key from s' to s consists of one
RLWE pair per decomposition digit.  Digit i groups ``ks_alpha`` limbs
(dnum = ceil((L+1)/alpha) pairs total); its pair encrypts P * g_i * s',
where the CRT gadget g_i = P * Q-hat_i * [Q-hat_i^{-1}]_{Q_i} has
residues (P mod q_j) on digit i's own limbs and 0 elsewhere, and P is
the special modulus (product of the special primes, which must outweigh
every digit modulus).  Summing digit * key products and dividing by P
(mod-down) keeps the switching noise a factor P smaller than the naive
method; ks_alpha = 1 recovers the per-limb decomposition.

The client (:class:`repro.ckks.context.CkksContext`) generates and
holds these keys; the exact evaluator
(:class:`repro.backend.toy.ToyBackend`) reads them in place, in its
key-switch inner products, and never writes them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ntt import galois_eval_permutation
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial

#: Bytes of PRG seed stored per switching key in place of its uniform
#: ``a_i`` halves.  32 bytes of entropy feed a counter-based PRG
#: (Philox) so the halves regenerate deterministically on load.
KEY_PRG_SEED_BYTES = 32


def _prg_key(seed: bytes, digit: int, prime: int) -> np.ndarray:
    """Derive the 128-bit Philox key for one (key seed, digit, prime) row."""
    digest = hashlib.sha256(
        seed + digit.to_bytes(4, "big") + prime.to_bytes(8, "big")
    ).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def expand_uniform_row(
    seed: bytes, digit: int, prime: int, ring_degree: int
) -> np.ndarray:
    """Regenerate one uniform NTT-domain residue row from a key seed.

    The PRG is counter-based (numpy Philox) and keyed per
    ``(seed, digit index, prime value)``.  Keying by the prime *value*
    rather than its chain position is what makes seed expansion compose
    with level compression: a key compressed to the ``Q_l * P`` chain
    keeps the same prime values (a prefix of the data primes plus the
    special primes), so the compressed rows regenerate bit-identically
    from the same seed without knowing the original chain layout.
    """
    gen = np.random.Generator(np.random.Philox(key=_prg_key(seed, digit, prime)))
    return gen.integers(0, prime, size=ring_degree, dtype=np.int64)


def expand_a_half(seed: bytes, digit: int, basis, primes) -> RnsPolynomial:
    """Expand digit ``digit``'s uniform ``a_i`` half over ``primes``.

    Uniform residues are generated directly in the NTT (evaluation)
    domain — the NTT of a uniform polynomial is uniform, so sampling
    there is distribution-identical and skips a transform.
    """
    rows = np.stack(
        [expand_uniform_row(seed, digit, q, basis.ring_degree) for q in primes]
    )
    return RnsPolynomial(basis, primes, rows, is_ntt=True)


def key_chain_primes(basis: RnsBasis, num_limbs: int) -> Tuple[int, ...]:
    """Prime of each limb-axis row of a ``num_limbs``-row key tensor
    (special primes first, then the data-prime prefix)."""
    return basis.special_primes + basis.primes[: num_limbs - basis.num_special]


def key_slot_order(basis: RnsBasis, exponent: int) -> np.ndarray:
    """Gather that stores a natural evaluation-form row in the slot
    order of sigma_t's key: the inverse of sigma_t's permutation, which
    is the permutation of sigma_{1/t}."""
    n = basis.ring_degree
    return galois_eval_permutation(n, pow(exponent, -1, 2 * n))


@dataclass
class SwitchingKey:
    """One RLWE pair (b_i, a_i) per decomposition digit, over Q*P.

    The key *is* one uint32 tensor ``(2, D, K, N)`` — b rows then a
    rows, ``D`` digits, ``K`` limbs, ``N`` slots — held at the width of
    its residues (every prime the exact backend admits is < 2^31) and in
    the layout the hoisted inner product streams, so no level, offset
    group or batch view ever copies or widens key material
    (docs/keys.md).  It is read-only once constructed, and legal only as
    one factor against an int64 operand: uint32 * uint32 wraps silently.

    * **limb axis: special primes first, then data primes** — the
      key-switch chain of any level up to the key's bound is the
      *prefix* :meth:`chain_view`, a plain view;
    * **slot axis inverse-Galois-permuted** (``tensor[..., perm_t]`` is
      the natural evaluation-form key; identity for the relin key,
      ``exponent == 1``) — the product-sum runs against the UN-rotated
      digit tensor and only the small accumulator is gathered
      (:meth:`ToyBackend._ks_inner`).

    ``max_level`` marks a *compressed* key: the tensor carries only the
    digits and limbs a key switch at ``level <= max_level`` consumes
    (``dnum(max_level)`` digits over the ``Q_max_level * P`` chain;
    grouped digits drop whole digit *groups* above the bound too).
    ``None`` is the full-chain key.

    ``seed`` marks a *seed-expandable* key: its uniform a rows came from
    the counter-based PRG (:func:`expand_a_half`) keyed by this 32-byte
    seed, so persistent storage only needs the b rows plus the seed;
    :meth:`from_seed` rebuilds the a rows bit-identically.
    """

    tensor: np.ndarray
    basis: RnsBasis
    exponent: int = 1
    max_level: Optional[int] = None
    seed: Optional[bytes] = None

    def __post_init__(self):
        if self.tensor.dtype != np.uint32:
            raise TypeError(
                f"a switching-key tensor is uint32, got {self.tensor.dtype}"
            )
        self.tensor.setflags(write=False)

    def __len__(self) -> int:
        return self.tensor.shape[1]

    def covers(self, level: int) -> bool:
        """Whether this key can serve a key switch at ``level``."""
        return self.max_level is None or level <= self.max_level

    @property
    def primes(self) -> Tuple[int, ...]:
        """Prime of each limb-axis row (special primes first)."""
        return key_chain_primes(self.basis, self.tensor.shape[2])

    def chain_view(self, num_digits: int, level: int) -> np.ndarray:
        """The ``(2, num_digits, num_special + level + 1, N)`` prefix
        view a key switch at ``level`` multiplies against."""
        return self.tensor[:, :num_digits, : self.basis.num_special + level + 1]

    @property
    def pairs(self) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
        """The key as natural ``(b_i, a_i)`` polynomials over the
        ``(data..., special)`` chain — a *derived copy*, widened to the
        int64 every polynomial carries, for references, tests and
        tooling; nothing on the evaluation path reads it."""
        ns = self.basis.num_special
        perm = galois_eval_permutation(self.basis.ring_degree, self.exponent)
        rows = np.roll(self.tensor, -ns, axis=2)[..., perm].astype(np.int64)
        chain = self.primes[ns:] + self.primes[:ns]
        return [
            tuple(RnsPolynomial(self.basis, chain, half[d], is_ntt=True) for half in rows)
            for d in range(len(self))
        ]

    @classmethod
    def from_seed(
        cls,
        seed: bytes,
        b_rows: np.ndarray,
        basis: RnsBasis,
        exponent: int = 1,
        max_level: Optional[int] = None,
    ) -> "SwitchingKey":
        """Rebuild a seed-expandable key from its stored b rows.

        ``b_rows`` is ``tensor[0]`` as stored — ``(D, K, N)`` in the
        key's own layout.  Each a row is regenerated for the prime its
        b row carries (the PRG is keyed by prime *value*), so a key
        stored compressed (or cut to a prefix after storage) expands
        bit-identically to the resident original.
        """
        if b_rows.dtype != np.uint32:
            raise TypeError(f"stored key rows are uint32, got {b_rows.dtype}")
        tensor = np.empty((2,) + b_rows.shape, dtype=np.uint32)
        tensor[0] = b_rows
        primes = key_chain_primes(basis, b_rows.shape[1])
        order = key_slot_order(basis, exponent)
        for digit in range(b_rows.shape[0]):
            tensor[1, digit] = np.take(
                expand_a_half(seed, digit, basis, primes).data, order, axis=-1
            )
        return cls(tensor, basis, exponent, max_level, seed)

    def size_bytes(self) -> int:
        """Stored key material in bytes (the compression win metric).

        What persistent storage needs, not what is resident: for a
        seed-expandable key the uniform a rows regenerate from
        :attr:`seed`, so storage is the b rows plus the seed.  Resident
        bytes are exactly ``tensor.nbytes`` — there is no other array.
        """
        if self.seed is not None:
            return self.tensor[0].nbytes + len(self.seed)
        return self.tensor.nbytes


@dataclass
class KeyChain:
    """All key material owned by a :class:`repro.ckks.context.CkksContext`.

    Attributes:
        secret: s in NTT form over the full prime chain.
        public: RLWE encryption of zero used for public-key encryption.
        relin: switching key s^2 -> s.
        galois: switching keys sigma_t(s) -> s, keyed by the Galois
            exponent t (generated lazily, one per distinct rotation).
    """

    secret: RnsPolynomial
    public: Tuple[RnsPolynomial, RnsPolynomial]
    relin: SwitchingKey
    galois: Dict[int, SwitchingKey] = field(default_factory=dict)

    def galois_exponents(self) -> List[int]:
        return sorted(self.galois)

    def num_rotation_keys(self) -> int:
        return len(self.galois)


@dataclass(frozen=True)
class KeyManifest:
    """The key material contract between an artifact and its clients.

    A serving artifact (``repro.serve.artifact``) ships no keys — keys
    are per-client secrets.  Instead it ships this manifest: the exact
    parameter set the program was compiled for and the exact Galois
    steps execution will request, so a client can generate precisely
    the key material the program needs — no trial-and-error keygen on
    the request path, no unused rotation keys.

    ``params_dict`` holds every :class:`repro.ckks.params.CkksParameters`
    field including the realized prime chain, so reconstructed
    parameters are value-identical to the compiler's (the prime chain,
    ``ks_alpha`` digit grouping, and special basis all participate in
    :meth:`fingerprint`).

    ``rotation_step_levels`` (parallel to ``rotation_steps``) records
    the highest ciphertext level each step's key switch executes at, as
    traced from the program's placement decisions.  Key generators use
    it to produce *compressed* switching keys — only the digits and
    limbs a key switch at that level consumes
    (:class:`SwitchingKey.max_level`) — instead of full-chain pairs.
    An empty tuple means "levels unknown": every key is generated
    full-chain, the pre-compression behaviour.
    """

    params_dict: Dict
    rotation_steps: Tuple[int, ...]
    rotation_step_levels: Tuple[int, ...] = ()

    @classmethod
    def for_program(cls, params, program) -> "KeyManifest":
        """Manifest covering one compiled program on one parameter set."""
        fields = {
            "ring_degree": params.ring_degree,
            "scale_bits": params.scale_bits,
            "max_level": params.max_level,
            "first_prime_bits": params.first_prime_bits,
            "prime_bits": params.prime_bits,
            "special_prime_bits": params.special_prime_bits,
            "boot_levels": params.boot_levels,
            "ring_type": params.ring_type.value,
            "sigma": params.sigma,
            "num_special_primes": params.num_special_primes,
            "ks_alpha": params.ks_alpha,
            "secret_hamming_weight": params.secret_hamming_weight,
            "primes": list(params.primes),
        }
        step_levels = program.required_rotation_step_levels()
        steps = tuple(sorted(step_levels))
        return cls(
            params_dict=fields,
            rotation_steps=steps,
            rotation_step_levels=tuple(step_levels[s] for s in steps),
        )

    def step_level_map(self) -> Dict[int, int]:
        """``{step: max execution level}`` (empty if levels unknown)."""
        if not self.rotation_step_levels:
            return {}
        return dict(zip(self.rotation_steps, self.rotation_step_levels))

    def to_params(self):
        """Reconstruct the exact CkksParameters of the manifest."""
        from repro.ckks.params import CkksParameters, RingType

        fields = dict(self.params_dict)
        fields["ring_type"] = RingType(fields["ring_type"])
        fields["primes"] = tuple(fields["primes"])
        return CkksParameters(**fields)

    def to_dict(self) -> Dict:
        return {
            "params": dict(self.params_dict),
            "rotation_steps": list(self.rotation_steps),
            "rotation_step_levels": list(self.rotation_step_levels),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "KeyManifest":
        """Inverse of :meth:`to_dict`.  A document that still carries the
        dropped ``needs_conjugation`` flag loads: the flag was always
        false, so ignoring it changes nothing."""
        return cls(
            params_dict=dict(data["params"]),
            rotation_steps=tuple(data["rotation_steps"]),
            rotation_step_levels=tuple(data.get("rotation_step_levels", ())),
        )

    def fingerprint(self) -> str:
        """Stable content hash of :meth:`to_dict`."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
