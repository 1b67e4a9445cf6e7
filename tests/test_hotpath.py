"""Tests for the limb-batched hot-path engine.

Covers the chain-level NTT against the schoolbook negacyclic reference,
NTT-domain automorphisms against the coefficient-domain path, fast RNS
basis conversion against exact CRT, hoisted key switching against the
unhoisted path, and a regression guard that the evaluator hot paths
never allocate object-dtype (Python bigint) arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.bigint import (
    extend_primes_reference,
    negacyclic_convolve_reference,
)
from repro import kernels
from repro.backend import ToyBackend
from repro.ckks.params import toy_parameters
from repro.ntt import (
    NttChainEngine,
    NttContext,
    galois_eval_permutation,
)
from repro.rns import RnsBasis, RnsPolynomial
from repro.utils.primes import find_ntt_primes

N = 64


@pytest.fixture(scope="module")
def basis():
    primes = find_ntt_primes(26, 4, N) + find_ntt_primes(28, 1, N)
    return RnsBasis(primes, N, num_special=1)


# Engine row selections: a data chain, a key-switch chain (data prefix +
# special row), and the degenerate orders that fall back to 1-row runs.
ROW_SELECTIONS = {
    "prefix": (0, 1, 2),
    "prefix_plus_last": (0, 1, 4),
    "descending": (3, 2, 1, 0),
    "repeated": (2, 2, 0, 2),
}


def _per_prime(contexts, rows, data, inverse=False):
    """The reference: one NttContext transform per limb row."""
    return np.stack(
        [
            (contexts[r].inverse if inverse else contexts[r].forward)(data[..., k, :])
            for k, r in enumerate(rows)
        ],
        axis=-2,
    )


class TestBatchedNtt:
    @pytest.mark.parametrize("rows", ROW_SELECTIONS.values(), ids=ROW_SELECTIONS.keys())
    @pytest.mark.parametrize("n", [1, 2, 4, 64, 4096])
    def test_engine_matches_per_prime_reference(self, n, rows):
        """forward/inverse equal NttContext limb by limb for any row
        selection, with leading batch dimensions and a stride-0 input
        (what ``_ks_decompose`` and ``divide_round_last`` pass), and
        hand back natural-order C-contiguous arrays."""
        contexts = [
            NttContext(q, n) for q in find_ntt_primes(26, 4, n) + find_ntt_primes(28, 1, n)
        ]
        engine = NttChainEngine(contexts)
        rng = np.random.default_rng(n)
        # Below the smallest prime, so a row is a residue under any limb.
        data = rng.integers(0, min(c.q for c in contexts), (2, 3, len(rows), n))
        shared = np.broadcast_to(data[:, :, :1], data.shape)
        assert shared.strides[-2] == 0
        for inverse in (False, True):
            transform = engine.inverse if inverse else engine.forward
            for x in (data, shared):
                out = transform(x, rows)
                assert out.flags.c_contiguous
                assert np.array_equal(out, _per_prime(contexts, rows, x, inverse))
        assert np.array_equal(engine.inverse(engine.forward(data, rows), rows), data)

    def test_wide_primes_renormalize_inside_the_stage_loop(self):
        """Three 31-bit primes + one 24-bit: the growth budget is 2, so
        the in-loop renormalisation runs (every other test prime is
        <= 29 bits and never reaches it)."""
        primes = find_ntt_primes(31, 3, N) + find_ntt_primes(24, 1, N)
        wide_contexts = [NttContext(q, N) for q in primes]
        engine = NttChainEngine(wide_contexts)
        assert engine._growth_budget == 2
        rows = range(len(primes))
        rng = np.random.default_rng(31)
        a, b = (np.stack([rng.integers(0, q, (3, N)) for q in primes], axis=1) for _ in "ab")
        fa, fb = engine.forward(a, rows), engine.forward(b, rows)
        assert np.array_equal(fa, _per_prime(wide_contexts, rows, a))
        assert np.array_equal(engine.inverse(a, rows), _per_prime(wide_contexts, rows, a, True))
        assert np.array_equal(engine.inverse(fa, rows), a)
        prod = engine.inverse((fa * fb) % np.array(primes)[:, None], rows)
        for k, q in enumerate(primes):
            assert np.array_equal(
                prod[0, k], negacyclic_convolve_reference(a[0, k], b[0, k], q)
            )
        # forward() admits any signed |v| < 2^31, not only residues.
        bound = 2**31 - 1
        signed = rng.integers(-bound, bound + 1, a.shape)
        signed[0, :, :2] = (-bound, bound)
        assert np.array_equal(
            engine.forward(signed, rows), _per_prime(wide_contexts, rows, signed)
        )

    @pytest.mark.parametrize("first_stage", [False, True])
    def test_ntt_stage_matches_naive_butterfly(self, basis, first_stage):
        """The kernel against a Python-int butterfly on lazy residues,
        and its laziness bound: one stage adds at most q."""
        rng = np.random.default_rng(5)
        primes = basis.primes
        q = np.array(primes, dtype=np.int64)[:, None]
        growth = 1 if first_stage else 8
        a = rng.integers(-(growth * q) + 1, growth * q, (2, len(primes), N))
        twiddles = None if first_stage else rng.integers(0, q, (len(primes), N // 2))
        out = np.full_like(a, -1)
        kernels.ntt_stage(a, out, twiddles, q, np.empty(a.shape[:-1] + (N // 2,), np.int64))
        for d, k, m in np.ndindex(2, len(primes), N // 2):
            even, t = int(a[d, k, 2 * m]), int(a[d, k, 2 * m + 1])
            if not first_stage:
                t *= int(twiddles[k, m])
                t = abs(t) % primes[k] * (1 if t >= 0 else -1)  # truncated, like fmod
            assert (out[d, k, m], out[d, k, m + N // 2]) == (even + t, even - t)
        assert (np.abs(out).max(axis=(0, 2)) <= np.abs(a).max(axis=(0, 2)) + q[:, 0]).all()

    def test_sub_chain_tables_are_views_of_the_full_tables(self, basis):
        """~40 sub-chains per context: a copied stage table each would
        cost tens of MB, so every run reads slices of the one full set."""
        engine = basis.engine
        special = basis.num_data_primes
        assert engine._plan((0, 1, 2)) == [(slice(0, 3), slice(0, 3))]
        ks_plan = engine._plan((0, 1, special))
        assert ks_plan == [(slice(0, 2), slice(0, 2)), (slice(2, 3), slice(special, special + 1))]
        full = engine._full
        for _, chain in ks_plan:
            for table in (full.twist, full.twist_inv_n, *full.stages[1:], *full.stages_inv[1:]):
                assert np.shares_memory(table[chain], table)

    def test_chain_roundtrip_all_levels(self, basis):
        rng = np.random.default_rng(0)
        for limbs in range(1, len(basis.primes) + 1):
            primes = basis.primes[:limbs]
            data = np.stack([rng.integers(0, q, N) for q in primes])
            fwd = basis.forward_chain(data, primes)
            assert fwd.dtype == np.int64
            assert np.array_equal(basis.inverse_chain(fwd, primes), data)

    def test_chain_matches_per_prime_contexts(self, basis):
        """The batched engine agrees with NttContext limb by limb."""
        rng = np.random.default_rng(1)
        primes = basis.primes
        data = np.stack([rng.integers(0, q, N) for q in primes])
        fwd = basis.forward_chain(data, primes)
        for row, q, out in zip(data, primes, fwd):
            assert np.array_equal(out, basis.ntts[q].forward(row))

    def test_chain_on_noncontiguous_subset(self, basis):
        """Key-switch chains skip primes; row gathering must follow."""
        rng = np.random.default_rng(2)
        primes = basis.primes[:2] + basis.special_primes
        data = np.stack([rng.integers(0, q, N) for q in primes])
        fwd = basis.forward_chain(data, primes)
        for row, q, out in zip(data, primes, fwd):
            assert np.array_equal(out, basis.ntts[q].forward(row))

    def test_leading_dimensions_batch(self, basis):
        """(D, L, N) digit stacks transform exactly like separate calls."""
        rng = np.random.default_rng(3)
        primes = basis.primes[:3]
        stack = np.stack(
            [np.stack([rng.integers(0, q, N) for q in primes]) for _ in range(4)]
        )
        batched = basis.forward_chain(stack, primes)
        for d in range(4):
            assert np.array_equal(batched[d], basis.forward_chain(stack[d], primes))

    def test_multiply_matches_schoolbook_reference(self, basis):
        rng = np.random.default_rng(4)
        primes = basis.primes[:3]
        a = np.stack([rng.integers(0, q, N) for q in primes])
        b = np.stack([rng.integers(0, q, N) for q in primes])
        mod_col = basis.moduli_column(primes)
        prod = basis.inverse_chain(
            (basis.forward_chain(a, primes) * basis.forward_chain(b, primes))
            % mod_col,
            primes,
        )
        for row_a, row_b, row_p, q in zip(a, b, prod, primes):
            assert np.array_equal(
                row_p, negacyclic_convolve_reference(row_a, row_b, q)
            )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=5))
    def test_property_random_limbs_and_levels(self, seed, limbs):
        basis = _shared_basis()
        rng = np.random.default_rng(seed)
        primes = basis.primes[:limbs]
        a = np.stack([rng.integers(0, q, N) for q in primes])
        b = np.stack([rng.integers(0, q, N) for q in primes])
        mod_col = basis.moduli_column(primes)
        prod = basis.inverse_chain(
            (basis.forward_chain(a, primes) * basis.forward_chain(b, primes))
            % mod_col,
            primes,
        )
        for row_a, row_b, row_p, q in zip(a, b, prod, primes):
            assert np.array_equal(
                row_p, negacyclic_convolve_reference(row_a, row_b, q)
            )


class TestNttDomainAutomorphism:
    def _random_poly(self, basis, primes, seed):
        rng = np.random.default_rng(seed)
        data = np.stack([rng.integers(0, q, N) for q in primes])
        return RnsPolynomial(basis, primes, data, is_ntt=True)

    @pytest.mark.parametrize("exponent", [5, 25, 3, 2 * N - 1])
    def test_matches_coeff_domain_path(self, basis, exponent):
        poly = self._random_poly(basis, basis.primes[:3], exponent)
        fast = poly.automorphism(exponent)
        assert fast.is_ntt
        assert fast.data.flags.c_contiguous
        slow = poly.to_coeff().automorphism(exponent).to_ntt()
        assert np.array_equal(fast.data, slow.data)

    def test_permutation_is_cached(self):
        p1 = galois_eval_permutation(N, 5)
        p2 = galois_eval_permutation(N, 5 + 2 * N)
        assert p1 is p2

    def test_rejects_even_exponent(self, basis):
        poly = self._random_poly(basis, basis.primes[:2], 0)
        with pytest.raises(ValueError):
            poly.automorphism(4)

    def test_composition_matches_single_step(self, basis):
        """sigma_5 twice equals sigma_25 on evaluation-form data."""
        poly = self._random_poly(basis, basis.primes[:2], 7)
        twice = poly.automorphism(5).automorphism(5)
        once = poly.automorphism(25)
        assert np.array_equal(twice.data, once.data)


class TestFastBasisConversion:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=10, max_value=58),
    )
    def test_matches_exact_crt(self, seed, limbs, magnitude_bits):
        """Fast conversion equals the bigint reference over random data."""
        basis = _shared_basis()
        rng = np.random.default_rng(seed)
        primes = basis.primes[:limbs]
        bound = min(1 << magnitude_bits, basis.modulus(limbs) // 2 - 1)
        coeffs = rng.integers(-bound, bound + 1, N).astype(object)
        poly = RnsPolynomial.from_bigint_coeffs(basis, primes, coeffs, to_ntt=False)
        target = primes + basis.special_primes
        fast = basis.convert_residues(poly.data, primes, target)
        exact = extend_primes_reference(poly, target)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, exact.data)

    def test_extend_preserves_value(self, basis):
        rng = np.random.default_rng(11)
        primes = basis.primes[:2]
        coeffs = rng.integers(-1000, 1000, N).astype(object)
        poly = RnsPolynomial.from_bigint_coeffs(basis, primes, coeffs)
        target = primes + basis.special_primes
        data = basis.convert_residues(poly.to_coeff().data, primes, target)
        extended = RnsPolynomial(basis, target, data, is_ntt=False)
        assert np.array_equal(extended.to_bigint_coeffs(), coeffs)
        exact = extend_primes_reference(poly, target)
        assert exact.is_ntt
        assert np.array_equal(extended.to_ntt().data, exact.data)

    def test_shared_primes_copied_verbatim(self, basis):
        rng = np.random.default_rng(12)
        primes = basis.primes[:3]
        coeffs = rng.integers(-(1 << 30), 1 << 30, N).astype(object)
        poly = RnsPolynomial.from_bigint_coeffs(basis, primes, coeffs, to_ntt=False)
        target = primes + basis.special_primes
        extended = basis.convert_residues(poly.data, primes, target)
        assert np.array_equal(extended[: len(primes)], poly.data)
        assert np.array_equal(extended, extend_primes_reference(poly, target).data)


class TestHoistedKeySwitch:
    @pytest.fixture(scope="class")
    def backend(self):
        params = toy_parameters(ring_degree=256, max_level=5, scale_bits=21, boot_levels=2)
        return ToyBackend(params, seed=5)

    def test_rotate_hoisted_bitwise_equals_rotate(self, backend):
        """Hoisting shares the decomposition but must change nothing."""
        ctx = backend.context
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        hoisted = ctx.rotate_hoisted(ct, [0, 1, 3, 5])
        assert hoisted[0] is ct
        for step in (1, 3, 5):
            plain = ctx.rotate(ct, step)
            assert np.array_equal(hoisted[step].c0.data, plain.c0.data)
            assert np.array_equal(hoisted[step].c1.data, plain.c1.data)

    def test_galois_outputs_keep_the_slot_axis_contiguous(self, backend):
        """A slot permutation is np.take(..., axis=-1): fancy indexing
        would hand every later ufunc a slot-slowest array."""
        ctx = backend.context
        ct = backend.encode_encrypt(np.linspace(-1, 1, backend.slot_count))
        for out in (ctx.rotate(ct, 1), ctx.conjugate(ct)):
            assert out.c0.data.flags.c_contiguous
            assert out.c1.data.flags.c_contiguous

    def test_rotate_hoisted_uses_real_hoisting(self, backend):
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        outs = backend.rotate_hoisted(ct, [1, 2])
        for step in (1, 2):
            got = backend.decrypt(outs[step])
            assert np.abs(got - np.roll(values, -step)).max() < 2e-2

    def test_rotate_hoisted_interface_charges_hoisted_price(self, backend):
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        backend.ledger.reset()
        backend.rotate_hoisted(ct, [1, 2, 3])
        assert backend.ledger.counts["hrot_hoisted"] == 3

    def test_chunked_inner_product_matches_fast_path(self, backend):
        """Force the overflow-safe chunked accumulation (only reached
        with ~31-bit primes in real configs) and compare exactly."""
        ctx = backend.context
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        key = ctx.galois_key(ctx.encoder.rotation_exponent(1))
        digits = ctx._ks_decompose(ct.c1, ct.level)
        fast = ctx._ks_inner(digits, [key], ct.level)
        for max_chunk in (1, 2, 3):
            chunked = ctx._ks_inner(digits, [key], ct.level, _max_chunk=max_chunk)
            assert np.array_equal(fast, chunked)

    def test_rejects_degree_two(self, backend):
        ctx = backend.context
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        sq = ctx.mul(ct, ct, relinearize=False)
        with pytest.raises(ValueError):
            ctx.rotate_hoisted(sq, [1])


class TestNoBigintOnHotPaths:
    """Regression guard: encrypt/rotate/mul/rescale stay in int64 land."""

    @pytest.fixture()
    def guarded_backend(self, monkeypatch):
        params = toy_parameters(ring_degree=256, max_level=5, scale_bits=21, boot_levels=2)
        backend = ToyBackend(params, seed=9)
        values = np.linspace(-1, 1, backend.slot_count)
        pt = backend.encode(values, params.max_level, params.scale)
        ct = backend.encrypt(pt)
        # Pre-generate the rotation key outside the guard (keygen is
        # compile-time; the guard covers evaluation).
        backend.context.galois_key(backend.context.encoder.rotation_exponent(1))

        def forbid(*args, **kwargs):
            raise AssertionError("bigint path reached from an evaluator hot path")

        monkeypatch.setattr(RnsBasis, "crt_reconstruct", forbid)
        monkeypatch.setattr(RnsBasis, "reduce_bigints", forbid)
        monkeypatch.setattr(RnsPolynomial, "to_bigint_coeffs", forbid)
        monkeypatch.setattr(RnsPolynomial, "from_bigint_coeffs", forbid)
        original_init = RnsPolynomial.__init__

        def checked_init(self, basis, primes, data, is_ntt):
            assert data.dtype == np.int64, f"object-dtype poly: {data.dtype}"
            original_init(self, basis, primes, data, is_ntt)

        monkeypatch.setattr(RnsPolynomial, "__init__", checked_init)
        return backend, pt, ct

    def test_encrypt(self, guarded_backend):
        backend, pt, _ = guarded_backend
        ct = backend.encrypt(pt)
        assert ct.c0.data.dtype == np.int64

    def test_rotate(self, guarded_backend):
        backend, _, ct = guarded_backend
        out = backend.rotate(ct, 1)
        assert out.c0.data.dtype == np.int64

    def test_rotate_hoisted(self, guarded_backend):
        backend, _, ct = guarded_backend
        outs = backend.rotate_hoisted(ct, [1])
        assert outs[1].c1.data.dtype == np.int64

    def test_mul_and_relinearize(self, guarded_backend):
        backend, _, ct = guarded_backend
        out = backend.mul(ct, ct)
        assert out.c0.data.dtype == np.int64

    def test_mul_plain(self, guarded_backend):
        backend, pt, ct = guarded_backend
        out = backend.mul_plain(ct, pt)
        assert out.c0.data.dtype == np.int64

    def test_rescale(self, guarded_backend):
        backend, pt, ct = guarded_backend
        out = backend.rescale(backend.mul_plain(ct, pt))
        assert out.c0.data.dtype == np.int64


class TestBatchedRescale:
    def test_matches_per_poly_division(self):
        params = toy_parameters(ring_degree=256, max_level=5, scale_bits=21, boot_levels=2)
        backend = ToyBackend(params, seed=3)
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        pt = backend.encode(values, ct.level, params.scale)
        prod = backend.mul_plain(ct, pt)
        fast = backend.rescale(prod)
        assert np.array_equal(
            fast.c0.data, prod.c0.divide_and_round_by_last().data
        )
        assert np.array_equal(
            fast.c1.data, prod.c1.divide_and_round_by_last().data
        )

    def test_coeff_form_division_matches_reference(self, basis):
        """The non-NTT divide path agrees with integer rounding."""
        rng = np.random.default_rng(13)
        primes = basis.primes[:3]
        last = primes[-1]
        coeffs = rng.integers(-(1 << 40), 1 << 40, N).astype(object)
        poly = RnsPolynomial.from_bigint_coeffs(basis, primes, coeffs, to_ntt=False)
        divided = poly.divide_and_round_by_last()
        assert not divided.is_ntt
        got = divided.to_bigint_coeffs()
        for value, out in zip(coeffs, got):
            rem = int(value) % last
            if rem > last // 2:
                rem -= last
            assert int(out) == (int(value) - rem) // last


_BASIS_CACHE = {}


def _shared_basis():
    key = "default"
    if key not in _BASIS_CACHE:
        primes = find_ntt_primes(26, 5, N) + find_ntt_primes(28, 1, N)
        _BASIS_CACHE[key] = RnsBasis(primes, N, num_special=1)
    return _BASIS_CACHE[key]
