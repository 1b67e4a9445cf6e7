"""Differential fuzzing: toy backend vs simulator vs numpy mirror.

Random homomorphic programs are executed simultaneously on the exact
RNS-CKKS toy backend and the noise-free functional simulator while a
numpy mirror tracks the true slot values.  At every step all three must
agree — values within tolerance, levels exactly, scales as *identical*
``Fraction`` objects.  This is the strongest cross-validation of the
docs/substitutions.md argument: the simulator that executes the
paper-scale benchmarks has the same semantics as the real arithmetic.

Also here: algebraic laws of the Galois machinery (rotation composition,
conjugation involution, linearity) that individual op tests don't pin.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.sim import SimBackend
from repro.backend.toy import ToyBackend
from repro.ckks.params import CkksParameters

# A wide scale (2^26) and two special primes keep encryption and hybrid
# key-switch noise far below the tolerances asserted here, so the tests
# pin semantics, not noise.
PARAMS = CkksParameters(
    ring_degree=256,
    scale_bits=26,
    max_level=8,
    boot_levels=3,
    first_prime_bits=29,
    special_prime_bits=29,
    num_special_primes=2,
)
N_SLOTS = PARAMS.slot_count


@pytest.fixture(scope="module")
def toy():
    return ToyBackend(PARAMS, seed=11)


@pytest.fixture(scope="module")
def sim():
    return SimBackend(PARAMS, seed=11, noise_free=True)


class _Mirror:
    """One value tracked on both backends plus the cleartext truth."""

    def __init__(self, toy, sim, values, level):
        self.toy_backend = toy
        self.sim_backend = sim
        self.clear = np.asarray(values, dtype=np.float64)
        self.toy = toy.encrypt(toy.encode(values, level, PARAMS.scale))
        self.sim = sim.encrypt(sim.encode(values, level, PARAMS.scale))

    # -- invariants ------------------------------------------------------
    def check(self, toy_tol=1e-3, sim_tol=1e-9):
        assert self.toy.level == self.sim.level
        assert self.toy.scale == self.sim.scale, "scales diverged"
        toy_vals = self.toy_backend.decrypt(self.toy)[:N_SLOTS]
        sim_vals = self.sim_backend.decrypt(self.sim)[:N_SLOTS]
        scale = max(1.0, np.abs(self.clear).max())
        assert np.abs(sim_vals - self.clear).max() < sim_tol * scale
        assert np.abs(toy_vals - self.clear).max() < toy_tol * scale

    # -- mirrored operations -----------------------------------------------
    def rotate(self, steps):
        self.toy = self.toy_backend.rotate(self.toy, steps)
        self.sim = self.sim_backend.rotate(self.sim, steps)
        self.clear = np.roll(self.clear, -steps)

    def negate(self):
        self.toy = self.toy_backend.negate(self.toy)
        self.sim = self.sim_backend.negate(self.sim)
        self.clear = -self.clear

    def add_fresh(self, values):
        level, scale = self.toy.level, self.toy.scale
        self.toy = self.toy_backend.add(
            self.toy, self.toy_backend.encrypt(self.toy_backend.encode(values, level, scale))
        )
        self.sim = self.sim_backend.add(
            self.sim, self.sim_backend.encrypt(self.sim_backend.encode(values, level, scale))
        )
        self.clear = self.clear + values

    def pmult_rescale(self, values):
        """Errorless-style PMult: plaintext at the prime scale."""
        level = self.toy.level
        prime = Fraction(PARAMS.data_primes[level])
        self.toy = self.toy_backend.rescale(
            self.toy_backend.mul_plain(self.toy, self.toy_backend.encode(values, level, prime))
        )
        self.sim = self.sim_backend.rescale(
            self.sim_backend.mul_plain(self.sim, self.sim_backend.encode(values, level, prime))
        )
        self.clear = self.clear * values

    def square_rescale(self):
        self.toy = self.toy_backend.rescale(self.toy_backend.mul(self.toy, self.toy))
        self.sim = self.sim_backend.rescale(self.sim_backend.mul(self.sim, self.sim))
        self.clear = self.clear**2

    def hmult_fresh_rescale(self, values):
        level, scale = self.toy.level, self.toy.scale
        self.toy = self.toy_backend.rescale(
            self.toy_backend.mul(
                self.toy, self.toy_backend.encrypt(self.toy_backend.encode(values, level, scale))
            )
        )
        self.sim = self.sim_backend.rescale(
            self.sim_backend.mul(
                self.sim, self.sim_backend.encrypt(self.sim_backend.encode(values, level, scale))
            )
        )
        self.clear = self.clear * values

    def level_down(self, target):
        self.toy = self.toy_backend.level_down(self.toy, target)
        self.sim = self.sim_backend.level_down(self.sim, target)


OPS = ("rotate", "negate", "add_fresh", "pmult", "square", "hmult", "level_down")


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=12, deadline=None)
def test_random_programs_agree(seed):
    """The core differential fuzz: ~L random ops, three-way agreement."""
    rng = np.random.default_rng(seed)
    toy = ToyBackend(PARAMS, seed=11)
    sim = SimBackend(PARAMS, seed=11, noise_free=True)
    mirror = _Mirror(toy, sim, rng.uniform(-0.9, 0.9, N_SLOTS), PARAMS.max_level)
    mirror.check()
    while mirror.toy.level > 1:
        op = rng.choice(OPS)
        if op == "rotate":
            mirror.rotate(int(rng.integers(1, N_SLOTS)))
        elif op == "negate":
            mirror.negate()
        elif op == "add_fresh":
            mirror.add_fresh(rng.uniform(-0.5, 0.5, N_SLOTS))
        elif op == "pmult":
            mirror.pmult_rescale(rng.uniform(-1.0, 1.0, N_SLOTS))
        elif op == "square":
            if np.abs(mirror.clear).max() > 1.2:
                continue  # keep values bounded
            mirror.square_rescale()
        elif op == "hmult":
            mirror.hmult_fresh_rescale(rng.uniform(-1.0, 1.0, N_SLOTS))
        elif op == "level_down":
            if mirror.toy.level > 2:
                mirror.level_down(mirror.toy.level - 1)
        mirror.check()


def test_scales_stay_identical_through_mixed_chain(toy, sim):
    """Scale metadata is bit-identical across backends for a fixed chain."""
    rng = np.random.default_rng(0)
    mirror = _Mirror(toy, sim, rng.uniform(-0.5, 0.5, N_SLOTS), PARAMS.max_level)
    mirror.square_rescale()
    mirror.pmult_rescale(rng.uniform(-1, 1, N_SLOTS))
    mirror.hmult_fresh_rescale(rng.uniform(-1, 1, N_SLOTS))
    assert isinstance(mirror.toy.scale, Fraction)
    assert mirror.toy.scale == mirror.sim.scale
    # After one errorless pmult the scale is *exactly* Delta again only
    # when the chain primes equal Delta; here they differ slightly, and
    # both backends must agree on the exact rational value.
    assert mirror.toy.scale.denominator >= 1


# ---------------------------------------------------------------------------
# Galois algebra laws (exact backend)
# ---------------------------------------------------------------------------
class TestGaloisLaws:
    @given(
        st.integers(min_value=0, max_value=N_SLOTS - 1),
        st.integers(min_value=0, max_value=N_SLOTS - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_rotation_composition(self, j, k):
        toy = ToyBackend(PARAMS, seed=11)
        values = np.arange(N_SLOTS, dtype=np.float64) / N_SLOTS
        ct = toy.encode_encrypt(values, level=2)
        double = toy.rotate(toy.rotate(ct, j), k)
        single = toy.rotate(ct, (j + k) % N_SLOTS)
        got = toy.decrypt(double)
        want = toy.decrypt(single)
        assert np.abs(got - want).max() < 1e-4

    def test_full_rotation_is_identity(self, toy):
        values = np.arange(N_SLOTS, dtype=np.float64) / N_SLOTS
        ct = toy.encode_encrypt(values, level=2)
        assert np.abs(toy.decrypt(toy.rotate(ct, N_SLOTS)) - values).max() < 1e-4

    def test_conjugation_is_involution(self, toy):
        values = np.random.default_rng(3).uniform(-1, 1, N_SLOTS)
        ct = toy.encode_encrypt(values, level=2)
        twice = toy.conjugate(toy.conjugate(ct))
        assert np.abs(toy.decrypt(twice) - values).max() < 1e-4

    def test_rotation_is_linear(self, toy):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-1, 1, N_SLOTS), rng.uniform(-1, 1, N_SLOTS)
        ct_a = toy.encode_encrypt(a, level=2)
        ct_b = toy.encode_encrypt(b, level=2)
        lhs = toy.decrypt(toy.rotate(toy.add(ct_a, ct_b), 5))
        rhs = toy.decrypt(toy.add(toy.rotate(ct_a, 5), toy.rotate(ct_b, 5)))
        assert np.abs(lhs - rhs).max() < 1e-4

    def test_rotation_commutes_with_pmult_of_rotated_plaintext(self, toy):
        """rot_k(pt * ct) == rot_k(pt) * rot_k(ct): the identity behind
        BSGS diagonal pre-rotation."""
        rng = np.random.default_rng(7)
        vec = rng.uniform(-1, 1, N_SLOTS)
        diag = rng.uniform(-1, 1, N_SLOTS)
        level = 3
        ct = toy.encode_encrypt(vec, level=level)
        pt = toy.encode(diag, level, PARAMS.scale)
        lhs = toy.decrypt(toy.rotate(toy.mul_plain(ct, pt), 9))
        pt_rot = toy.encode(np.roll(diag, -9), level, PARAMS.scale)
        rhs = toy.decrypt(toy.mul_plain(toy.rotate(ct, 9), pt_rot))
        assert np.abs(lhs - rhs).max() < 1e-3
