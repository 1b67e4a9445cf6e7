"""Tests for the shared hoisted conjugation and switching-key compression.

Two tentpole mechanisms of the end-to-end bootstrap fast path:

- **shared conjugation**: a conjugation-composed Galois element
  ``("conj", k)`` rides the same key-switch digit decomposition as
  plain rotations (``CkksContext.rotate_hoisted_raw``), so the
  bootstrap CoeffToSlot pays one extra inner product instead of a
  standalone key switch.  The raw accumulator plus the shared mod-down
  must reproduce the standalone key switch **bit for bit** on the exact
  backend — at ``ks_alpha = 1`` and at a grouped configuration whose
  transform level leaves a *partial* last digit group.
- **key compression**: grouped-digit switching keys store only the
  digits and limbs a key switch at their recorded maximum level
  consumes (``SwitchingKey.max_level``).  Restriction-based compression
  must be bit-identical to the full key at every covered level, fail
  loudly above its bound, and measurably shrink stored key material —
  including through the serving path (placement level bounds ->
  a lane's eager compressed keygen, ``generate_lane_keys``).
"""

from fractions import Fraction

import numpy as np
import pytest

from reference.bigint import extend_primes_reference
from repro.backend import SimBackend, ToyBackend
from repro.ckks.bootstrap import CkksBootstrapper
from repro.ckks.galois import galois_offset_key
from repro.ckks.keys import KeyManifest
from repro.ckks.params import bootstrap_parameters, toy_parameters

BOOT_PARAM_SETS = {
    # alpha2's transform levels have an odd limb count, so the last
    # key-switch digit group is partial.
    "alpha1": dict(ring_degree=64),
    "alpha2": dict(ring_degree=64, ks_alpha=2),
}


@pytest.fixture(scope="module", params=sorted(BOOT_PARAM_SETS))
def boot_setup(request):
    params = bootstrap_parameters(**BOOT_PARAM_SETS[request.param])
    backend = ToyBackend(params, seed=7)
    bs = CkksBootstrapper(backend)
    rng = np.random.default_rng(3)
    message = rng.uniform(-0.9, 0.9, params.slot_count)
    ct = backend.encode_encrypt(message, level=0)
    raised = bs._prescale(
        backend.context.mod_raise(ct, Fraction(bs.q0) * bs.window)
    )
    return params, backend, bs, message, ct, raised


class TestSharedConjugation:
    def test_conj_raw_bitwise_equals_standalone_keyswitch(self, boot_setup):
        """moddown(raw ("conj", 0) accumulator) == context.conjugate,
        bit for bit: the shared decomposition performs the identical
        exact modular arithmetic, just hoisted."""
        params, backend, bs, _, _, raised = boot_setup
        ctx = backend.context
        for level in (backend.level_of(raised), backend.level_of(raised) - 1):
            ct = backend.level_down(raised, level)
            rot0, acc = ctx.rotate_hoisted_raw(ct, [("conj", 0)])[("conj", 0)]
            p0, p1 = ctx._ks_moddown(acc, level)
            ref = ctx.conjugate(ct)
            assert np.array_equal((rot0 + p0).data, ref.c0.data)
            assert np.array_equal(p1.data, ref.c1.data)

    def test_composed_conj_rotation_bitwise_equals_standalone(self, boot_setup):
        """("conj", k) == the standalone key switch of the *composed*
        Galois element (one automorphism, exponent conj * 5^k)."""
        params, backend, bs, _, _, raised = boot_setup
        ctx = backend.context
        level = backend.level_of(raised)
        for k in (1, 3, params.slot_count // 2):
            offset = ("conj", k)
            rot0, acc = ctx.rotate_hoisted_raw(raised, [offset])[offset]
            p0, p1 = ctx._ks_moddown(acc, level)
            exponent = ctx.galois_offset_exponent(offset)
            ref = ctx._apply_galois(raised, exponent)
            assert np.array_equal((rot0 + p0).data, ref.c0.data)
            assert np.array_equal(p1.data, ref.c1.data)

    def test_composed_element_semantics(self, boot_setup):
        """("conj", k) really is conjugate-then-rotate at the slot level."""
        params, backend, bs, _, _, _ = boot_setup
        ctx = backend.context
        rng = np.random.default_rng(5)
        vals = rng.uniform(-1, 1, params.slot_count)
        ct = backend.encode_encrypt(vals, level=2)
        offset = ("conj", 3)
        rot0, acc = ctx.rotate_hoisted_raw(ct, [offset])[offset]
        p0, p1 = ctx._ks_moddown(acc, 2)
        composed = type(ct)(
            c0=rot0 + p0, c1=p1, level=2, scale=ct.scale, slot_count=ct.slot_count
        )
        two_step = ctx.rotate(ctx.conjugate(ct), 3)
        # Real slots: conjugation is the identity on the decoded values.
        assert np.abs(
            backend.decrypt(composed) - np.roll(vals, -3)
        ).max() < 1e-3
        assert np.abs(
            backend.decrypt(composed) - backend.decrypt(two_step)
        ).max() < 1e-3

    def test_shared_cts_bitwise_equals_per_element_reference(self, boot_setup):
        """The one-call shared CoeffToSlot == a per-element reference
        paying a fresh decomposition per Galois element (conjugation
        included), bit for bit — exact modular arithmetic is
        order-independent."""
        params, backend, bs, _, _, raised = boot_setup
        ctx = backend.context
        level = backend.level_of(raised)
        rescale_prime = params.primes[level]
        pt_scale = (
            Fraction(params.primes[level - 1]) * rescale_prime / raised.scale
        )
        lo, hi = bs._coeff_to_slot_shared(raised, pt_scale)

        plan = bs._shared_cts_plan()
        ks_chain = ctx._ks_chain(level)
        mod_ks = ctx.basis.moduli_column(ks_chain)
        data_primes = ctx._data_chain(level)
        mod_q = ctx.basis.moduli_column(data_primes)
        for bo, got in enumerate((lo, hi)):
            acc_ext = np.zeros(
                (2, len(ks_chain), ctx.basis.ring_degree), dtype=np.int64
            )
            acc_c0 = np.zeros(
                (len(data_primes), ctx.basis.ring_degree), dtype=np.int64
            )
            acc_c1 = None
            keys = sorted(
                (key for key in plan["terms"] if key[0] == bo),
                key=lambda key: (key[1], galois_offset_key(key[2])),
            )
            for (_, _, off) in keys:
                pt = ctx.encode(
                    plan["terms"][(bo, 0, off)], level=level, scale=pt_scale
                )
                if off == 0:
                    acc_c0 = (acc_c0 + pt.poly.data * raised.c0.data) % mod_q
                    if acc_c1 is None:
                        acc_c1 = np.zeros_like(acc_c0)
                    acc_c1 = (acc_c1 + pt.poly.data * raised.c1.data) % mod_q
                    continue
                rot0, acc = ctx.rotate_hoisted_raw(raised, [off])[off]
                pt_ext = extend_primes_reference(pt.poly, ks_chain).data
                acc_ext = (acc_ext + pt_ext * acc) % mod_ks
                acc_c0 = (acc_c0 + pt.poly.data * rot0.data) % mod_q
            p0, p1 = ctx._ks_moddown(acc_ext, level)
            c0 = (acc_c0 + p0.data) % mod_q
            c1 = (acc_c1 + p1.data) % mod_q
            rescaled = ctx.basis.divide_round_last(
                np.stack([c0, c1]), data_primes, is_ntt=True
            )
            assert np.array_equal(got.c0.data, rescaled[0]), bo
            assert np.array_equal(got.c1.data, rescaled[1]), bo

    def test_sim_backend_conj_offsets(self):
        """The simulator accepts conjugation-composed offsets with the
        fused noise model (identity on real slots, still a key switch)."""
        params = toy_parameters(ring_degree=256, max_level=5)
        sim = SimBackend(params, seed=9)
        vals = np.linspace(-1, 1, params.slot_count)
        ct = sim.encode_encrypt(vals)
        ones = np.ones(params.slot_count)
        terms = {(0, 0, ("conj", 4)): ones, (0, 0, 2): ones}
        (out,) = sim.matvec_fused([ct], terms, 1, Fraction(params.scale))
        expected = np.roll(vals, -4) + np.roll(vals, -2)
        assert np.abs(sim.decrypt(out) - expected).max() < 1e-2
        assert out.noise_std > ct.noise_std  # two inner products + moddown
        conj = sim.conjugate(ct)
        assert np.abs(sim.decrypt(conj) - vals).max() < 1e-2


LEVELED_PARAMS = {
    "alpha1": dict(ring_degree=256, max_level=8),
    # Two-limb digits with two special primes; compressed bounds below
    # leave partial digit groups at odd limb counts.
    "alpha2": dict(
        ring_degree=256, max_level=8, ks_alpha=2, num_special_primes=2
    ),
}


@pytest.fixture(scope="module", params=sorted(LEVELED_PARAMS))
def key_setup(request):
    params = toy_parameters(**LEVELED_PARAMS[request.param])
    backend = ToyBackend(params, seed=11)
    vals = np.linspace(-1, 1, params.slot_count)
    return params, backend, vals


class TestKeyCompression:
    def test_restricted_key_bitwise_at_covered_levels(self, key_setup):
        """Compressing an existing key never changes a covered key
        switch: restriction keeps exactly the rows the use-time tensor
        extraction selects (partial last digit groups included)."""
        params, backend, vals = key_setup
        ctx = backend.context
        exp = ctx.encoder.rotation_exponent(5)
        bound = 4
        refs = {}
        for level in range(bound + 1):
            ct = backend.encode_encrypt(vals, level=level)
            refs[level] = (ct, ctx.rotate(ct, 5))
        full_size = ctx.galois_key(exp).size_bytes()
        key = ctx.generate_compressed_galois_key(exp, bound)
        assert key.max_level == bound
        assert key.size_bytes() < full_size
        for level, (ct, ref) in refs.items():
            got = ctx.rotate(ct, 5)
            assert np.array_equal(got.c0.data, ref.c0.data), level
            assert np.array_equal(got.c1.data, ref.c1.data), level

    def test_compressed_key_fails_loudly_above_bound(self, key_setup):
        params, backend, vals = key_setup
        ctx = backend.context
        exp = ctx.encoder.rotation_exponent(7)
        key = ctx.generate_compressed_galois_key(exp, 2)
        ct = backend.encode_encrypt(vals, level=5)
        with pytest.raises(ValueError, match="compressed to level 2"):
            ctx._keyswitch(ct.c1, key, 5)

    def test_compressed_key_widens_on_larger_bound(self, key_setup):
        """A second program recording a *wider* bound for the same step
        must get a covering key, not a ValueError from trying to
        restrict the narrower cached one."""
        params, backend, vals = key_setup
        ctx = backend.context
        exp = ctx.encoder.rotation_exponent(11)
        narrow = ctx.generate_compressed_galois_key(exp, 2)
        wide = ctx.generate_compressed_galois_key(exp, 4)
        assert wide.max_level == 4
        assert wide.size_bytes() > narrow.size_bytes()
        ct = backend.encode_encrypt(vals, level=4)
        got = backend.decrypt(ctx.rotate(ct, 11))
        assert np.abs(got - np.roll(vals, -11)).max() < 1e-2

    def test_galois_key_upgrades_outgrown_compressed_key(self, key_setup):
        """The lazy evaluator path never uses an undersized key: a
        rotation above the bound regenerates a covering key."""
        params, backend, vals = key_setup
        ctx = backend.context
        exp = ctx.encoder.rotation_exponent(9)
        ctx.generate_compressed_galois_key(exp, 1)
        ct = backend.encode_encrypt(vals, level=6)
        got = backend.decrypt(ctx.rotate(ct, 9))
        assert np.abs(got - np.roll(vals, -9)).max() < 1e-2
        assert ctx.keys.galois[exp].covers(6)

    def test_grouped_compression_shrinks_key_memory(self):
        """The headline memory claim: a grouped-digit key bounded at a
        low level stores a small fraction of the full-chain pairs
        (dropped digit groups x dropped limbs per digit)."""
        params = bootstrap_parameters(ring_degree=64, ks_alpha=2)
        backend = ToyBackend(params, seed=3)
        ctx = backend.context
        exp = ctx.encoder.rotation_exponent(1)
        full = ctx.galois_key(exp)
        full_size = full.size_bytes()
        # STC-like level near the chain bottom: 3 of 16 limbs survive.
        compressed = ctx.generate_compressed_galois_key(exp, 2)
        assert compressed.size_bytes() * 4 < full_size
        # Digits: ceil(14/2)=7 -> ceil(3/2)=2; limbs: 16 -> 5.
        assert len(compressed.pairs) == 2
        assert len(compressed.pairs[0][0].primes) == 3 + len(
            params.special_primes
        )

    def test_lane_keys_are_compressed_from_the_program(self):
        """Placement level bounds -> eager *compressed* lane keys: the
        rotation set lazy keygen builds on the request path, in fewer
        stored bytes, with the same results."""
        from repro.models import SecureMlp
        from repro.nn import init
        from repro.orion import OrionNetwork
        from repro.serve.keys import backend_key_bytes, generate_lane_keys

        init.seed_init(0)
        rng = np.random.default_rng(0)
        onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        onet.fit([rng.normal(0, 0.5, (8, 1, 8, 8))])
        params = toy_parameters(ring_degree=256, max_level=6, ks_alpha=2,
                                num_special_primes=2)
        program = onet.compile(params).program
        image = rng.normal(0, 0.5, (1, 8, 8))

        eager = ToyBackend(params, seed=3)
        generate_lane_keys(eager, KeyManifest.for_program(params, program))
        lazy = ToyBackend(params, seed=3)
        lazy_out = program.run(lazy, image)  # full-chain keys, made on use
        assert set(eager.context.keys.galois) == set(lazy.context.keys.galois)
        assert backend_key_bytes(eager) < backend_key_bytes(lazy)
        assert all(k.max_level is None for k in lazy.context.keys.galois.values())
        assert any(
            k.max_level is not None for k in eager.context.keys.galois.values()
        )
        # Compressed keys serve their covered levels: nothing regenerated,
        # and the output agrees with the full-chain run.
        held = dict(eager.context.keys.galois)
        eager_out = program.run(eager, image)
        assert eager.context.keys.galois == held
        assert np.abs(eager_out - lazy_out).max() < 2e-2 * np.abs(lazy_out).max()

    def test_manifest_step_levels_round_trip(self):
        manifest = KeyManifest(
            params_dict={"ring_degree": 64},
            rotation_steps=(1, 2, 8),
            rotation_step_levels=(4, 4, 6),
        )
        again = KeyManifest.from_dict(manifest.to_dict())
        assert again.rotation_step_levels == (4, 4, 6)
        assert again.step_level_map() == {1: 4, 2: 4, 8: 6}
        legacy = KeyManifest.from_dict(
            {
                "params": {"ring_degree": 64},
                "rotation_steps": [1, 2],
                "needs_conjugation": False,
            }
        )
        assert legacy.step_level_map() == {}
