"""Tests for the repro.kernels subsystem.

Two layers:

- the shared int64 lazy-accumulator chunk bound
  (:func:`repro.kernels.lazy_reduction_chunk`), including the headroom
  regression at the boundary chunk size;
- bit-exactness of the stacked hot paths against independent naive
  references: ``rotate_hoisted_raw`` (the hoisted walk, every key read
  in place from its one resident tensor) vs a per-offset loop over
  natural-layout keys (across ks_alpha values, partial digit groups,
  mixed int and ``("conj", k)`` offsets, walks of several slabs,
  compressed keys at their level bound, and a forced ``_max_chunk``
  fallback), the grouped fused matvec and the simulator's batched
  gathers.

There is one implementation of each kernel and nothing selects between
them (docs/kernels.md); ``TestTelemetry`` pins that.
"""

import numpy as np
import pytest

from repro import kernels
from repro.backend import ToyBackend
from repro.backend.sim import SimBackend
from repro.ckks.context import HOISTED_SLAB
from repro.ckks.galois import galois_offset_key
from repro.ckks.params import toy_parameters
from repro.ntt import galois_eval_permutation

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module", params=[1, 2])
def toy_backend(request):
    alpha = request.param
    return ToyBackend(
        toy_parameters(
            ring_degree=256,
            max_level=5,
            num_special_primes=2,
            ks_alpha=alpha,
        ),
        seed=7,
    )


# ---------------------------------------------------------------------------
# Shared chunk bound
# ---------------------------------------------------------------------------
class TestLazyReductionChunk:
    def test_headroom_at_boundary(self):
        """The bound must hold with a reduced value already in the
        accumulator: (max_q-1) + chunk * (max_q-1)^2 <= 2^63 - 1, and
        chunk is the largest such integer (the seed's _ks_inner formula
        admitted one extra product and could overflow)."""
        for max_q in (2**31 - 1, 2**29 + 3, 2**20 + 7, 3):
            chunk = kernels.lazy_reduction_chunk(max_q)
            top = max_q - 1
            assert top + chunk * top**2 <= 2**63 - 1
            assert top + (chunk + 1) * top**2 > 2**63 - 1

    def test_headroomed_vs_headroomless_formula(self):
        # The seed's _ks_inner bound (2^63-1) // top^2 ignores the
        # reduced value already sitting in the accumulator; find a
        # modulus where that admits one product too many and check the
        # shared helper reserves the headroom there.
        found = None
        for top in range(3, 200_000):
            if (2**63 - 1) % (top * top) < top:
                found = top + 1
                break
        assert found is not None
        loose = (2**63 - 1) // ((found - 1) ** 2)
        assert kernels.lazy_reduction_chunk(found) == loose - 1

    def test_max_chunk_cap(self):
        assert kernels.lazy_reduction_chunk(2**20, max_chunk=3) == 3
        with pytest.raises(ValueError, match="max_chunk"):
            kernels.lazy_reduction_chunk(2**20, max_chunk=0)

    def test_overflowing_primes_rejected(self):
        with pytest.raises(ValueError, match="32-bit primes"):
            kernels.lazy_reduction_chunk(2**33)

    def test_boundary_chunk_no_overflow_in_kernel(self):
        """Drive ks_inner at exactly the boundary chunk size with
        worst-case residues; int64 overflow would trip the
        error-on-RuntimeWarning filter and corrupt the residues."""
        max_q = 2**31 - 1
        chunk = kernels.lazy_reduction_chunk(max_q)
        num_digits = 3
        factors = np.full((num_digits, 1, 4), max_q - 1, dtype=np.int64)
        pairs = np.full((2, num_digits, 1, 4), max_q - 1, dtype=np.int64)
        mod_col = np.array([[max_q]], dtype=np.int64)
        want = (num_digits * pow(max_q - 1, 2, max_q)) % max_q
        for forced in (chunk, 1, 2):
            got = kernels.ks_inner(factors, pairs, mod_col, forced)
            assert got.shape == (2, 1, 4)
            assert np.all(got == want)

    def test_boundary_chunk_no_overflow_in_stacked_kernel(self):
        """Same worst-case drive for ks_inner_stacked (shared digits
        against per-key views, (C, K, O, N) output layout)."""
        max_q = 2**31 - 1
        chunk = kernels.lazy_reduction_chunk(max_q)
        num_digits, num_offsets = 3, 5
        digits = np.full((num_digits, 2, 4), max_q - 1, dtype=np.int64)
        keys = [
            np.full((2, num_digits, 2, 4), max_q - 1, dtype=np.int64)
            for _ in range(num_offsets)
        ]
        mod_col = np.array([[max_q], [max_q]], dtype=np.int64)
        want = (num_digits * pow(max_q - 1, 2, max_q)) % max_q
        for forced in (chunk, 1, 2):
            got = kernels.ks_inner_stacked(digits, keys, 1, mod_col, forced)
            assert got.shape == (2, 2, num_offsets, 4)
            assert np.all(got == want)

    def test_stacked_kernel_chunks_agree(self):
        """Random-data equality of ks_inner_stacked under every
        chunking against a materialize-then-sum reference, with the
        keys' limb axis stored special-first (rotated by num_special
        against the digits' chain order) and longer than the digits'
        — the prefix-view shape a below-bound key switch reads."""
        rng = np.random.default_rng(5)
        digits = rng.integers(0, 2**29, size=(4, 6, 16), dtype=np.int64)
        mod_col = rng.integers(2**28, 2**29, size=(6, 1)).astype(np.int64)
        for num_special in (1, 2, 3):
            stored = rng.integers(0, 2**29, size=(3, 2, 5, 8, 16), dtype=np.int64)
            keys = [key[:, :4, :6] for key in stored]
            natural = np.roll(np.stack(keys), -num_special, axis=3)
            ref = np.moveaxis(
                (digits[None, None] * natural).sum(axis=2) % mod_col, 0, 2
            )
            for chunk in (8, 2, 1):
                got = kernels.ks_inner_stacked(
                    digits, keys, num_special, mod_col, chunk
                )
                assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# Naive references (independent of the kernels module)
# ---------------------------------------------------------------------------
def natural_key_tensor(ctx, key, level):
    """``(2, digits, ks_limbs, N)`` over the level's ``(data...,
    special)`` chain in natural slot order, rebuilt from the key's
    derived ``pairs`` — independent of the resident tensor's layout."""
    ks_chain = ctx._ks_chain(level)
    pairs = key.pairs[: ctx._ks_num_digits(level)]
    return np.stack(
        [
            np.stack([ctx._restrict(pair[half], ks_chain).data for pair in pairs])
            for half in (0, 1)
        ]
    )


def naive_hoisted_raw(ctx, ct, offsets):
    """Per-offset rotate_hoisted_raw: the seed's loop (rotate the digit
    tensor, multiply the natural key), kernel-free."""
    digits = ctx._ks_decompose(ct.c1, ct.level)
    ks_chain = ctx._ks_chain(ct.level)
    mod_col = ctx.basis.moduli_column(ks_chain)
    n = ctx.params.ring_degree
    out = {}
    for offset in sorted(offsets, key=galois_offset_key):
        exponent = ctx.galois_offset_exponent(offset)
        key = ctx.galois_key(exponent, max_level=ct.level)
        perm = galois_eval_permutation(n, exponent)
        ba = natural_key_tensor(ctx, key, ct.level)
        # Digit counts at toy scale fit one lazy pass: plain product-sum.
        acc = (digits[..., perm] * ba).sum(axis=1) % mod_col
        out[offset] = (ct.c0.automorphism(exponent), acc)
    return out


def assert_raw_equal(got, want):
    assert set(got) == set(want)
    for offset in want:
        rot0_w, acc_w = want[offset]
        rot0_g, acc_g = got[offset]
        assert np.array_equal(rot0_g.data, rot0_w.data)
        assert np.array_equal(np.asarray(acc_g), acc_w)


# ---------------------------------------------------------------------------
# rotate_hoisted_raw (the hoisted walk, every slab kept)
# ---------------------------------------------------------------------------
class TestStackedHoistedRaw:
    @pytest.mark.parametrize("level_drop", [0, 1, 2])
    @pytest.mark.parametrize(
        "steps",
        [
            [1, 3, 7],
            [1, ("conj", 0), ("conj", 5)],
            [2, 5, ("conj", 2), 9, ("conj", 0)],
            # Three slabs, the last one partial.
            list(range(1, 2 * HOISTED_SLAB + 2)) + [("conj", 0), ("conj", 5)],
        ],
    )
    def test_bit_exact_vs_per_offset_loop(self, toy_backend, steps, level_drop):
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        ct = toy_backend.level_down(ct, ct.level - level_drop)
        got = ctx.rotate_hoisted_raw(ct, steps)
        want = naive_hoisted_raw(ctx, ct, set(got))
        assert_raw_equal(got, want)

    def test_alpha3_partial_digit_group(self):
        backend = ToyBackend(
            toy_parameters(
                ring_degree=128,
                max_level=5,
                num_special_primes=3,
                ks_alpha=3,
                scale_bits=18,
            ),
            seed=13,
        )
        ctx = backend.context
        ct = backend.encode_encrypt(np.linspace(-1, 1, backend.slot_count))
        # level 3 -> 4 limbs -> dnum 2 with a partial (1-limb) group.
        ct = backend.level_down(ct, 3)
        got = ctx.rotate_hoisted_raw(ct, [1, 5, ("conj", 1)])
        assert_raw_equal(got, naive_hoisted_raw(ctx, ct, set(got)))

    def test_forced_chunk_fallback(self, toy_backend):
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        baseline = ctx.rotate_hoisted_raw(ct, [1, 4, 6])
        forced = ctx.rotate_hoisted_raw(ct, [1, 4, 6], _max_chunk=1)
        assert_raw_equal(forced, baseline)

    def test_compressed_keys_at_level_bound(self, toy_backend):
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        bound = 2
        ct = toy_backend.level_down(ct, bound)
        steps = [1, 3, ("conj", 1)]
        exponents = [ctx.galois_offset_exponent(step) for step in steps]
        for exponent in exponents:
            ctx.keys.galois.pop(exponent, None)
        ctx._generate_galois_keys([(exponent, bound) for exponent in exponents])
        assert all(ctx.keys.galois[e].max_level == bound for e in exponents)
        got = ctx.rotate_hoisted_raw(ct, steps)
        assert_raw_equal(got, naive_hoisted_raw(ctx, ct, set(got)))

    def test_regenerated_key_is_used_by_the_next_call(self, toy_backend):
        """No key-derived state outlives a key object: a compressed key
        regenerated at a wider bound (fresh rows, same exponent) is what
        the very next call multiplies against, at the old level and at
        one only the new bound covers."""
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        steps = [2, 6]
        exponent = ctx.galois_offset_exponent(2)
        ctx.keys.galois.pop(exponent, None)
        ctx.generate_rotation_keys([2], {2: 2})
        narrow = ctx.keys.galois[exponent]
        low = toy_backend.level_down(ct, 2)
        first = ctx.rotate_hoisted_raw(low, steps)
        assert_raw_equal(ctx.rotate_hoisted_raw(low, steps), first)
        ctx.generate_rotation_keys([2], {2: 4})
        wide = ctx.keys.galois[exponent]
        assert wide is not narrow and wide.max_level == 4
        for level in (2, 4):
            at = toy_backend.level_down(ct, level)
            regen = ctx.rotate_hoisted_raw(at, steps)
            assert_raw_equal(regen, naive_hoisted_raw(ctx, at, set(regen)))
        assert not np.array_equal(
            np.asarray(ctx.rotate_hoisted_raw(low, steps)[2][1]),
            np.asarray(first[2][1]),
        )
        del ctx.keys.galois[exponent]  # leave the shared fixture full-chain

    def test_single_offset_path_matches_stack(self, toy_backend):
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        single = ctx.rotate_hoisted_raw(ct, [5])
        multi = ctx.rotate_hoisted_raw(ct, [5, 1])
        rot0_s, acc_s = single[5]
        rot0_m, acc_m = multi[5]
        assert np.array_equal(rot0_s.data, rot0_m.data)
        assert np.array_equal(np.asarray(acc_s), np.asarray(acc_m))


# ---------------------------------------------------------------------------
# Grouped fused matvec / rotate-sum (toy)
# ---------------------------------------------------------------------------
def _matvec_terms(backend, num_in, num_out, offs):
    rng = np.random.default_rng(3)
    terms = {}
    for bo in range(num_out):
        for bi in range(num_in):
            for off in offs[(bo + bi) % len(offs)]:
                terms[(bo, bi, off)] = rng.uniform(
                    -1, 1, backend.slot_count
                )
    return terms


class TestGroupedFusedMatvec:
    OFFS = [[0, 1, 3], [0, ("conj", 1), 2], [1, ("conj", 0)]]

    def test_forced_chunk_fallback_bit_exact(self, toy_backend):
        cts = [
            toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count)),
            toy_backend.encode_encrypt(np.linspace(1, -1, toy_backend.slot_count)),
        ]
        terms = _matvec_terms(toy_backend, 2, 3, self.OFFS)
        scale = toy_backend.params.scale
        base = toy_backend._matvec_fused_no_charge(cts, terms, 3, scale)
        forced = toy_backend._matvec_fused_no_charge(
            cts, terms, 3, scale, _max_chunk=1
        )
        for got, want in zip(forced, base):
            assert np.array_equal(got.c0.data, want.c0.data)
            assert np.array_equal(got.c1.data, want.c1.data)


# ---------------------------------------------------------------------------
# Simulator batched gathers
# ---------------------------------------------------------------------------
class TestSimBatchedGathers:
    def test_matvec_matches_roll_loop(self):
        backend = SimBackend(toy_parameters(ring_degree=256), noise_free=True)
        cts = [
            backend.encode_encrypt(np.linspace(-1, 1, backend.slot_count)),
            backend.encode_encrypt(np.cos(np.arange(backend.slot_count))),
        ]
        offs = [[0, 1, 3], [("conj", 2), 5], [0, ("conj", 0)]]
        terms = _matvec_terms(backend, 2, 3, offs)
        outs = backend._matvec_fused_no_charge(
            cts, terms, 3, backend.params.scale
        )
        for bo, out in enumerate(outs):
            want = np.zeros(backend.slot_count)
            bo_terms = sorted(
                (
                    (bi, off)
                    for (bo2, bi, off) in terms
                    if bo2 == bo
                ),
                key=lambda t: (t[0], galois_offset_key(t[1])),
            )
            for bi, off in bo_terms:
                vec = terms[(bo, bi, off)]
                step = off[1] if isinstance(off, tuple) else off
                want = want + vec * np.roll(cts[bi].values, -step)
            assert np.array_equal(out.values, want)

    def test_rotate_sum_matches_roll_loop(self):
        backend = SimBackend(toy_parameters(ring_degree=256), noise_free=True)
        ct = backend.encode_encrypt(np.sin(np.arange(backend.slot_count)))
        steps = [1, 4, 9]
        out = backend._rotate_sum_no_charge(ct, steps)
        want = ct.values.copy()
        for step in steps:
            want = want + np.roll(ct.values, -step)
        assert np.array_equal(out.values, want)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_one_implementation_is_active(self):
        assert kernels.active_backend() == "numpy"

    def test_environment_selects_nothing(self, toy_backend, monkeypatch):
        """REPRO_KERNELS used to pick a backend; src/ no longer reads it."""
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        steps = [1, 3, ("conj", 2)]
        want = ctx.rotate_hoisted_raw(ct, steps)
        monkeypatch.setenv("REPRO_KERNELS", "threaded")
        assert kernels.active_backend() == "numpy"
        assert_raw_equal(ctx.rotate_hoisted_raw(ct, steps), want)
