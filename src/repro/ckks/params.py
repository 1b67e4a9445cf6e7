"""CKKS parameter sets.

Mirrors Table 1 of the paper: ring degree N, modulus chain Q = prod q_i,
scaling factor Delta, maximum level L, bootstrap budget L_boot, and the
post-bootstrap effective level L_eff = L - L_boot.  The toy backend runs
these parameters exactly on small rings; the simulation backend reuses
the same dataclass with production-sized N for capacity/cost modeling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.utils.intmath import int_log2, is_power_of_two
from repro.utils.primes import find_ntt_primes


class RingType(enum.Enum):
    """Ring flavour, which fixes the slot capacity.

    ``STANDARD``: n = N/2 complex (or real) slots; supports bootstrapping.
    ``CONJUGATE_INVARIANT``: n = N real slots (paper Section 8.1, used for
    the MNIST networks where no bootstrapping is needed).
    """

    STANDARD = "standard"
    CONJUGATE_INVARIANT = "conjugate_invariant"


# Minimum ring degree for 128-bit security at a given total modulus width,
# interpolated from the homomorphic encryption standard tables [4] that the
# paper cites.  Keys are log2(N); values are the maximum secure log2(QP).
SECURITY_128_MAX_LOGQP = {
    10: 27,
    11: 54,
    12: 109,
    13: 218,
    14: 438,
    15: 881,
    16: 1772,
    17: 3576,
}


@dataclass(frozen=True)
class CkksParameters:
    """An immutable CKKS parameter set.

    Attributes:
        ring_degree: N, a power of two.
        scale_bits: log2(Delta).
        first_prime_bits: width of q_0 (larger than Delta for headroom).
        prime_bits: width of the rescaling primes q_1..q_L (~Delta).
        special_prime_bits: width of the key-switching prime(s).
        max_level: L, the number of rescalings available from fresh.
        boot_levels: L_boot, levels consumed by bootstrapping.
        ring_type: standard or conjugate-invariant.
        sigma: RLWE noise standard deviation.
        num_special_primes: key-switching primes (dnum hybrid variant).
        ks_alpha: data limbs grouped per key-switch digit (Han-Ki [33]).
            dnum = ceil((L+1) / ks_alpha) digits; each digit is the CRT
            lift of ks_alpha limbs, so the special basis P must outweigh
            any digit modulus (enforced below as a bit-width check).
            ks_alpha = 1 is the per-limb decomposition (dnum = L+1).
    """

    ring_degree: int
    scale_bits: int
    max_level: int
    first_prime_bits: int = 29
    prime_bits: int = 0  # 0 -> defaults to scale_bits
    special_prime_bits: int = 29
    boot_levels: int = 3
    ring_type: RingType = RingType.STANDARD
    sigma: float = 3.2
    num_special_primes: int = 1
    ks_alpha: int = 1
    secret_hamming_weight: int = 0  # 0 -> dense ternary secret
    primes: Tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not is_power_of_two(self.ring_degree):
            raise ValueError("ring degree must be a power of two")
        if self.max_level < 1:
            raise ValueError("need at least one multiplicative level")
        if self.boot_levels >= self.max_level:
            raise ValueError("L_boot must be smaller than L")
        if self.prime_bits == 0:
            object.__setattr__(self, "prime_bits", self.scale_bits)
        if self.ks_alpha < 1:
            raise ValueError("ks_alpha must be at least 1")
        if self.ks_alpha > 1 and self.num_special_primes < self.min_special_primes(
            self.ks_alpha
        ):
            raise ValueError(
                f"ks_alpha={self.ks_alpha} needs a wider special basis: "
                f"digit width ~{self._digit_bits(self.ks_alpha)} bits exceeds "
                f"special width ~{self.num_special_primes * self.special_prime_bits} bits"
            )
        if not self.primes:
            object.__setattr__(self, "primes", self._build_prime_chain())

    def _digit_bits(self, ks_alpha: int) -> int:
        # Digit 0 holds the first prime plus ks_alpha - 1 rescale primes,
        # inner digits hold ks_alpha rescale primes (wider when
        # prime_bits dominates).
        return max(
            self.first_prime_bits + (ks_alpha - 1) * self.prime_bits,
            ks_alpha * self.prime_bits,
        )

    def min_special_primes(self, ks_alpha: int) -> int:
        """Fewest special primes that let ``ks_alpha`` limbs share a digit.

        Key-switch noise stays bounded only while P = prod(special)
        exceeds every digit modulus (a bit-width check); the per-limb
        decomposition (``ks_alpha = 1``) needs one special prime.
        """
        if ks_alpha == 1:
            return 1
        return -(-self._digit_bits(ks_alpha) // self.special_prime_bits)

    def _build_prime_chain(self) -> Tuple[int, ...]:
        n = self.ring_degree
        first = find_ntt_primes(self.first_prime_bits, 1, n)
        rescale = find_ntt_primes(
            self.prime_bits, self.max_level, n, exclude=tuple(first)
        )
        special = find_ntt_primes(
            self.special_prime_bits,
            self.num_special_primes,
            n,
            exclude=tuple(first) + tuple(rescale),
        )
        return tuple(first) + tuple(rescale) + tuple(special)

    # -- derived quantities ---------------------------------------------
    @property
    def slot_count(self) -> int:
        """n: usable SIMD slots (paper Table 1)."""
        if self.ring_type is RingType.CONJUGATE_INVARIANT:
            return self.ring_degree
        return self.ring_degree // 2

    @property
    def scale(self) -> int:
        """Delta as an integer."""
        return 1 << self.scale_bits

    @property
    def effective_level(self) -> int:
        """L_eff = L - L_boot: the level a bootstrap refreshes up to."""
        return self.max_level - self.boot_levels

    def ks_digits(self, level: int) -> int:
        """Key-switch digits at ``level``: ceil((level+1) / ks_alpha)."""
        return -(-(level + 1) // self.ks_alpha)

    @property
    def dnum(self) -> int:
        """Key-switch decomposition number at the top level."""
        return self.ks_digits(self.max_level)

    @property
    def data_primes(self) -> Tuple[int, ...]:
        return self.primes[: self.max_level + 1]

    @property
    def special_primes(self) -> Tuple[int, ...]:
        return self.primes[self.max_level + 1:]

    @property
    def log_qp(self) -> float:
        """Total modulus width log2(Q*P), the security-relevant size."""
        total = 0.0
        for q in self.primes:
            total += q.bit_length()
        return total

    def is_128_bit_secure(self) -> bool:
        """Check N against the HE-standard table for 128-bit security."""
        log_n = int_log2(self.ring_degree)
        limit = SECURITY_128_MAX_LOGQP.get(log_n)
        if limit is None:
            return False
        return self.log_qp <= limit

    def __repr__(self) -> str:
        return (
            f"CkksParameters(N=2^{int_log2(self.ring_degree)}, "
            f"L={self.max_level}, L_eff={self.effective_level}, "
            f"Delta=2^{self.scale_bits}, slots={self.slot_count}, "
            f"ring={self.ring_type.value})"
        )


def toy_parameters(
    ring_degree: int = 2048,
    max_level: int = 8,
    scale_bits: int = 21,
    boot_levels: int = 3,
    ring_type: RingType = RingType.STANDARD,
    num_special_primes: int = 1,
    ks_alpha: int = 1,
) -> CkksParameters:
    """Small, fast, exact parameters for tests and the toy backend.

    Primes stay below 2^31 so all residue products fit in int64 (see
    repro.ntt).  These parameters are *not* 128-bit secure — they trade
    security margin for laptop-scale exactness, which is what the toy
    backend is for.  Production-shaped parameter sets for the simulator
    are built by :func:`paper_parameters`.
    """
    return CkksParameters(
        ring_degree=ring_degree,
        scale_bits=scale_bits,
        max_level=max_level,
        boot_levels=boot_levels,
        ring_type=ring_type,
        num_special_primes=num_special_primes,
        ks_alpha=ks_alpha,
    )


def bootstrap_parameters(
    ring_degree: int = 128,
    max_level: int = 13,
    scale_bits: int = 27,
    boot_levels: int = 10,
    secret_hamming_weight: int = 8,
    num_special_primes: int = 2,
    ks_alpha: int = 1,
) -> CkksParameters:
    """Toy parameters sized for the *real* bootstrapping pipeline.

    The full CoeffToSlot -> EvalMod -> SlotToCoeff pipeline of
    :class:`repro.ckks.bootstrap.CkksBootstrapper` needs (i) a sparse
    ternary secret so the modulus-raise overflow stays inside the EvalMod
    sine window, (ii) wide rescale primes so the CoeffToSlot matrices
    survive plaintext rounding, and (iii) a chain deep enough for one
    CtS level + the EvalMod Chebyshev depth + one StC level plus a
    usable L_eff.  Primes stay below 2^31 (toy NTT bound).

    ``ks_alpha > 1`` groups key-switch digits (dnum = ceil((L+1)/alpha));
    the default two 30-bit special primes already dominate a two-limb
    digit, so ``ks_alpha=2`` works without widening the special basis.
    """
    return CkksParameters(
        ring_degree=ring_degree,
        scale_bits=scale_bits,
        max_level=max_level,
        boot_levels=boot_levels,
        first_prime_bits=30,
        prime_bits=30,
        special_prime_bits=30,
        num_special_primes=num_special_primes,
        ks_alpha=ks_alpha,
        secret_hamming_weight=secret_hamming_weight,
    )


def double_angle_bootstrap_parameters(
    ring_degree: int = 128,
    max_level: int = 15,
    scale_bits: int = 27,
    boot_levels: int = 12,
    secret_hamming_weight: int = 8,
) -> CkksParameters:
    """Toy parameters for the double-angle EvalMod variant.

    The double-angle reduction (``CkksBootstrapper(double_angles=2)``)
    evaluates a much lower-degree cosine and squares its way back up —
    the mechanism production systems (Han-Ki; Bossuat et al. [11]) use
    to handle *dense* secrets, whose overflow window makes the direct
    sine fit intractable.  At the toy ring's 30-bit prime width the
    rescale-rounding noise floor limits the demonstration to sparse
    secrets (dense keys need the ~60-bit primes real libraries use);
    the level accounting and degree reduction are nevertheless the real
    ones.  L_boot = 12: base fit + one scale-pin + two doublings.
    """
    return CkksParameters(
        ring_degree=ring_degree,
        scale_bits=scale_bits,
        max_level=max_level,
        boot_levels=boot_levels,
        first_prime_bits=30,
        prime_bits=30,
        special_prime_bits=30,
        num_special_primes=2,
        secret_hamming_weight=secret_hamming_weight,
    )


def paper_parameters(
    ring_degree: int = 1 << 16,
    max_level: int = 24,
    scale_bits: int = 40,
    boot_levels: int = 14,
    ring_type: RingType = RingType.STANDARD,
) -> CkksParameters:
    """Production-shaped parameters (N = 2^16, Delta ~ 2^40, L_eff = 10).

    Matches the setup of paper Figure 1 and the CIFAR-10/ImageNet
    evaluations.  Only the *simulation* backend accepts these: primes of
    this width cannot be multiplied in int64, so the toy backend's NTT
    contexts would reject them.  The chain still consists of genuine
    NTT-friendly primes (q = 1 mod 2N) near the requested widths so that
    errorless scale management operates on the true prime values.
    """
    return CkksParameters(
        ring_degree=ring_degree,
        scale_bits=scale_bits,
        max_level=max_level,
        boot_levels=boot_levels,
        ring_type=ring_type,
        first_prime_bits=60,
        prime_bits=scale_bits,
        special_prime_bits=60,
    )
