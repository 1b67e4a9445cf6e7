"""Fast functional CKKS simulator.

The simulator executes compiled FHE programs with the *true* SIMD
semantics (real slot vectors under numpy), while keeping the three
pieces of CKKS state the compiler reasons about exact:

- **level**: enforced exactly (ops at mismatched levels raise; running
  out of levels raises unless a bootstrap intervenes);
- **scale**: tracked as an exact ``Fraction`` so errorless scale
  management can be *asserted* rather than approximated;
- **noise**: a calibrated standard-deviation estimate that is injected
  into the values, so "FHE accuracy" and output precision-in-bits are
  measurable at paper scale.

Latency is charged from the analytical cost model (paper Figure 1).
This is the substitute for running Lattigo at N = 2^16 (see
docs/substitutions.md):
operation counts, levels, scales, and noise are faithful; wall-clock is
modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from repro.backend.costs import CostModel
from repro.backend.interface import FheBackend, ScaleLike
from repro.backend.ledger import KeySwitch
from repro.ckks.galois import galois_offset_key
from repro.ckks.params import CkksParameters
from repro.utils.rng import SeededRng


@dataclass
class SimPlaintext:
    """Encoded vector with level/scale metadata."""

    values: np.ndarray
    level: int
    scale: Fraction


@dataclass
class SimCiphertext:
    """Simulated ciphertext: exact values + level/scale + noise estimate.

    ``noise_std`` is the modeled standard deviation of per-slot error
    already *included* in ``values`` (noise is injected at the moment an
    operation creates it, so values always reflect accumulated error).
    """

    values: np.ndarray
    level: int
    scale: Fraction
    noise_std: float

    def copy(self) -> "SimCiphertext":
        return SimCiphertext(self.values.copy(), self.level, self.scale, self.noise_std)


class SimBackend(FheBackend):
    """Functional CKKS simulation with exact level/scale bookkeeping.

    Args:
        params: CKKS parameters (production-shaped sets are fine here).
        seed: RNG seed for injected noise.
        noise_free: disable noise injection (for debugging/dissecting).
        boot_precision_bits: bootstrap output precision (Bossuat et al.).
    """

    def __init__(
        self,
        params: CkksParameters,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        noise_free: bool = False,
        boot_precision_bits: float = 20.0,
        boot_range_slack: float = 1.5,
    ):
        super().__init__(params, cost_model)
        self.rng = SeededRng(seed)
        self.noise_free = noise_free
        self.boot_precision_bits = boot_precision_bits
        # Real CKKS bootstrapping tolerates modest overshoot beyond the
        # nominal [-1, 1] range (the EvalMod sine interval has margin);
        # gross violations still fail loudly.
        self.boot_range_slack = boot_range_slack
        # Fresh-encryption noise std in *message* units, calibrated to the
        # toy backend: encryption noise ~ sigma * sqrt(2N/3) coefficients
        # -> slot error ~ that times sqrt(N), divided by Delta.
        n = params.ring_degree
        coeff_err = params.sigma * np.sqrt(2.0 * n / 3.0)
        self._fresh_noise = coeff_err * np.sqrt(n) / float(params.scale)
        # Rounding error of one rescale, relative to the new scale.
        self._rescale_noise = np.sqrt(n / 12.0) * np.sqrt(n) / float(params.scale)
        self._ks_noise = 0.5 * self._fresh_noise

    # -- helpers -----------------------------------------------------------
    def _noise(self, shape, std: float) -> np.ndarray:
        if self.noise_free or std <= 0.0:
            return np.zeros(shape)
        return self.rng.normal(0.0, std, shape)

    def _pad(self, values: Sequence[float]) -> np.ndarray:
        arr = np.zeros(self.slot_count, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if vals.size > self.slot_count:
            raise ValueError(f"{vals.size} values exceed {self.slot_count} slots")
        arr[: vals.size] = vals
        return arr

    # -- data movement ---------------------------------------------------
    def encode(self, values, level: int, scale: ScaleLike) -> SimPlaintext:
        if level < 0 or level > self.params.max_level:
            raise ValueError(f"level {level} out of range")
        return SimPlaintext(self._pad(values), level, Fraction(scale))

    def encrypt(self, plaintext: SimPlaintext) -> SimCiphertext:
        values = plaintext.values + self._noise(self.slot_count, self._fresh_noise)
        return SimCiphertext(values, plaintext.level, plaintext.scale, self._fresh_noise)

    def decrypt(self, ciphertext: SimCiphertext) -> np.ndarray:
        return ciphertext.values.copy()

    def level_of(self, ciphertext: SimCiphertext) -> int:
        return ciphertext.level

    def scale_of(self, ciphertext: SimCiphertext) -> Fraction:
        return ciphertext.scale

    # -- arithmetic -----------------------------------------------------------
    def _check(self, a: SimCiphertext, b, op: str, check_scale: bool) -> None:
        if a.level != b.level:
            raise ValueError(f"{op}: level mismatch {a.level} vs {b.level}")
        if check_scale and a.scale != b.scale:
            raise ValueError(f"{op}: scale mismatch {a.scale} vs {b.scale}")

    def add(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        self._check(a, b, "HAdd", check_scale=True)
        self.ledger.charge("hadd", self.costs.hadd(a.level))
        std = float(np.hypot(a.noise_std, b.noise_std))
        return SimCiphertext(a.values + b.values, a.level, a.scale, std)

    def sub(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        self._check(a, b, "HSub", check_scale=True)
        self.ledger.charge("hadd", self.costs.hadd(a.level))
        std = float(np.hypot(a.noise_std, b.noise_std))
        return SimCiphertext(a.values - b.values, a.level, a.scale, std)

    def add_plain(self, a: SimCiphertext, p: SimPlaintext) -> SimCiphertext:
        self._check(a, p, "PAdd", check_scale=True)
        self.ledger.charge("padd", self.costs.hadd(a.level))
        return SimCiphertext(a.values + p.values, a.level, a.scale, a.noise_std)

    def negate(self, a: SimCiphertext) -> SimCiphertext:
        return SimCiphertext(-a.values, a.level, a.scale, a.noise_std)

    def mul_plain(self, a: SimCiphertext, p: SimPlaintext) -> SimCiphertext:
        """PMult: values multiply; scales multiply (paper Section 2.5.2)."""
        self._check(a, p, "PMult", check_scale=False)
        self.ledger.charge("pmult", self.costs.pmult(a.level))
        scale_mag = float(np.max(np.abs(p.values))) if p.values.size else 0.0
        std = a.noise_std * max(scale_mag, 1e-30)
        return SimCiphertext(a.values * p.values, a.level, a.scale * p.scale, std)

    def mul(self, a: SimCiphertext, b: SimCiphertext) -> SimCiphertext:
        self._check(a, b, "HMult", check_scale=False)
        self.ledger.charge("hmult", self.costs.hmult(a.level))
        self.ledger.key_switches[KeySwitch(a.level)] += 1
        mag_a = float(np.max(np.abs(a.values))) if a.values.size else 0.0
        mag_b = float(np.max(np.abs(b.values))) if b.values.size else 0.0
        std = float(
            np.hypot(a.noise_std * max(mag_b, 1e-30), b.noise_std * max(mag_a, 1e-30))
        )
        std = float(np.hypot(std, self._ks_noise))
        values = a.values * b.values + self._noise(self.slot_count, self._ks_noise)
        return SimCiphertext(values, a.level, a.scale * b.scale, std)

    def rescale(self, a: SimCiphertext) -> SimCiphertext:
        """Drop one level; divide the scale by that level's prime exactly."""
        if a.level == 0:
            raise ValueError("cannot rescale at level 0: bootstrap required")
        self.ledger.charge("rescale", self.costs.rescale(a.level))
        prime = self.params.data_primes[a.level]
        new_scale = a.scale / prime
        added = self._rescale_noise
        values = a.values + self._noise(self.slot_count, added)
        std = float(np.hypot(a.noise_std, added))
        out = SimCiphertext(values, a.level - 1, new_scale, std)
        self._note_noise("rescale", a, out)
        return out

    def level_down(self, a: SimCiphertext, target_level: int) -> SimCiphertext:
        if target_level > a.level:
            raise ValueError("cannot raise level without bootstrapping")
        if target_level < 0:
            raise ValueError("negative level")
        out = SimCiphertext(a.values.copy(), target_level, a.scale, a.noise_std)
        if target_level != a.level:
            self._note_noise("mod_down", a, out)
        return out

    def _rotate_no_charge(self, a: SimCiphertext, steps: int) -> SimCiphertext:
        values = np.roll(a.values, -steps) + self._noise(self.slot_count, self._ks_noise)
        std = float(np.hypot(a.noise_std, self._ks_noise))
        return SimCiphertext(values, a.level, a.scale, std)

    def conjugate(self, a: SimCiphertext) -> SimCiphertext:
        """Slot-wise conjugation: the identity on the simulator's real
        slot vectors, but still a Galois key switch (priced and noised
        like a rotation)."""
        self.ledger.charge("hrot", self.costs.hrot(a.level))
        self.ledger.key_switches[KeySwitch(a.level, gathers=1)] += 1
        values = a.values + self._noise(self.slot_count, self._ks_noise)
        std = float(np.hypot(a.noise_std, self._ks_noise))
        return SimCiphertext(values, a.level, a.scale, std)

    def _matvec_fused_no_charge(
        self,
        in_cts: Sequence[SimCiphertext],
        terms,
        num_out: int,
        pt_scale: ScaleLike,
        pt_cache=None,
    ) -> list:
        """Functional fused matvec: exact SIMD semantics, fused noise.

        Mirrors the exact backend's fused path: every diagonal offset
        rotates the input directly (one hoisted decomposition per input
        block) and each output block pays a single deferred mod-down, so
        one key-switch noise term is injected per distinct offset plus
        one for the mod-down — slightly *less* noise than one mod-down
        per rotation, matching Bossuat et al. [11].

        Conjugation-composed offsets ``("conj", k)`` are supported: on
        the simulator's real slot vectors conjugation is the identity,
        so the element contributes like a plain rotation by ``k`` while
        still counting as a distinct key-switch inner product in the
        noise model (``("conj", 0)`` is a real Galois map, unlike plain
        offset 0).
        """
        level = in_cts[0].level
        scale = in_cts[0].scale
        for ct in in_cts:
            if ct.level != level:
                raise ValueError(f"matvec: level mismatch {ct.level} vs {level}")
            if ct.scale != scale:
                raise ValueError(f"matvec: scale mismatch {ct.scale} vs {scale}")
        out_scale = scale * Fraction(pt_scale)
        outputs = []
        for bo in range(num_out):
            bo_terms = sorted(
                ((bi, off) for (bo2, bi, off) in terms if bo2 == bo),
                key=lambda t: (t[0], galois_offset_key(t[1])),
            )
            if not bo_terms:
                outputs.append(None)
                continue
            values = np.zeros(self.slot_count)
            var = 0.0
            # One batched gather replaces the per-term np.roll calls:
            # rolled[t, i] = in_cts[bi].values[(i + step) % S], which is
            # np.roll(x, -step) bit-for-bit.  The term additions stay
            # sequential (same order as before) so float results are
            # bit-identical to the per-term loop.
            idx = np.arange(self.slot_count)
            step_col = np.array(
                [[off[1] if isinstance(off, tuple) else off] for _, off in bo_terms]
            )
            src = np.stack([in_cts[bi].values for bi, _ in bo_terms])
            rolled = src[
                np.arange(len(bo_terms))[:, None],
                (idx[None, :] + step_col) % self.slot_count,
            ]
            for t, (bi, off) in enumerate(bo_terms):
                vec = terms[(bo, bi, off)]
                values = values + vec * rolled[t]
                mag = float(np.max(np.abs(vec))) if np.size(vec) else 0.0
                var += (in_cts[bi].noise_std * max(mag, 1e-30)) ** 2
            num_rots = len({(bi, off) for bi, off in bo_terms if off})
            # One ks noise per distinct offset plus one for the deferred
            # mod-down; blocks without rotations perform no key switch.
            ks_std = self._ks_noise * np.sqrt(num_rots + 1.0) if num_rots else 0.0
            values = values + self._noise(self.slot_count, ks_std)
            std = float(np.sqrt(var + ks_std**2))
            outputs.append(SimCiphertext(values, level, out_scale, std))
        return outputs

    def _rotate_sum_no_charge(self, a: SimCiphertext, steps) -> SimCiphertext:
        """Functional fused rotate-and-sum fold with the fused noise
        model: one key-switch noise term per rotation plus one for the
        single deferred mod-down (the sequential fold instead compounds
        a full key switch per fold step)."""
        values = a.values.copy()
        # Batched gather of every rotation (bit-identical to np.roll);
        # additions stay sequential to keep float bit-identity.
        idx = np.arange(self.slot_count)
        step_col = np.array([[s] for s in steps])
        if len(steps):
            rolled = a.values[(idx[None, :] + step_col) % self.slot_count]
            for row in rolled:
                values = values + row
        num_rots = len(steps)
        ks_std = self._ks_noise * np.sqrt(num_rots + 1.0)
        values = values + self._noise(self.slot_count, ks_std)
        std = float(np.sqrt((num_rots + 1) * a.noise_std**2 + ks_std**2))
        return SimCiphertext(values, a.level, a.scale, std)

    def bootstrap(self, a: SimCiphertext) -> SimCiphertext:
        """Refresh to L_eff; inputs must be within [-1, 1] (Section 6)."""
        max_abs = float(np.max(np.abs(a.values))) if a.values.size else 0.0
        if max_abs > self.boot_range_slack:
            raise ValueError(
                f"bootstrap input out of range (max |slot| = {max_abs:.4f}); "
                "range estimation should have scaled this down"
            )
        self.ledger.charge("bootstrap", self.costs.bootstrap())
        std = 2.0 ** (-self.boot_precision_bits)
        values = a.values + self._noise(self.slot_count, std)
        out = SimCiphertext(
            values,
            self.params.effective_level,
            Fraction(self.params.scale),
            float(np.hypot(a.noise_std, std)),
        )
        self._note_noise("bootstrap", a, out)
        return out
