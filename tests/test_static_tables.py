"""Static operands at rest (docs/serving.md, docs/hoisting.md).

A fused matvec's weights are one read-only uint32 ``(T, ks_limbs, N)``
table per ``(out block, in block)`` group — encoded directly over the
key-switch chain, rows in the order the hoisted walk meets the offsets —
contracted in place against each hoisted slab as it arrives.  These
tests hold that path to a naive per-term reference bit for bit (groups
spanning several slabs included), the encode to the exact big-integer
extension, the artifact's tables to the mapped file, each input offset
to one key-switch inner product, and one warm call's working set to a
slab whatever the offset count.
"""

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from reference.bigint import extend_primes_reference
from repro import kernels
from repro.backend import ToyBackend
from repro.backend.toy import fused_term_groups
from repro.ckks.context import HOISTED_SLAB
from repro.ckks.galois import galois_offset_key
from repro.ckks.params import toy_parameters
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve import ArtifactMap, is_mmap_backed
from repro.serve.keys import generate_lane_keys
from repro.serve.pool import verify_mmap_tables
from repro.serve.runtime import InferenceServer


def _backend(ring_degree=64, max_level=4, seed=3):
    params = toy_parameters(
        ring_degree=ring_degree, max_level=max_level, boot_levels=1, scale_bits=20
    )
    return ToyBackend(params, seed=seed)


def _terms(rng, slots, num_in, num_out):
    """Diagonals for every (out, in) group: every plain rotation, a run
    of conjugation-composed offsets and an ``off == 0`` term — enough
    that the first out-block's groups span more than two hoisted slabs,
    with slab boundaries inside them — and a second out-block reading
    only every other offset, so it takes a subset of each slab."""
    offsets = [0] + list(range(1, slots)) + [("conj", k) for k in range(0, slots, 3)]
    assert len(offsets) - 1 > 2 * HOISTED_SLAB
    terms = {}
    for bo in range(num_out):
        for bi in range(num_in):
            picked = offsets if bo == 0 else offsets[bi::2]
            for off in picked:
                terms[(bo, bi, off)] = rng.normal(size=slots) * 0.1
    return terms


def reference_per_term(backend, in_cts, terms, num_out, pt_scale):
    """One independent hoisted call, data-chain encode and big-integer
    Q_l * P extension per term; immediate reductions; one mod-down."""
    ctx = backend.context
    level = in_cts[0].level
    ks_chain = ctx._ks_chain(level)
    mod_ks = ctx.basis.moduli_column(ks_chain)
    mod_q = ctx.basis.moduli_column(ctx._data_chain(level))
    outs = []
    for bo in range(num_out):
        acc_ext = np.zeros((2, len(ks_chain), ctx.basis.ring_degree), dtype=np.int64)
        c0 = np.zeros((level + 1, ctx.basis.ring_degree), dtype=np.int64)
        c1 = np.zeros_like(c0)
        for (bo2, bi, off), vec in terms.items():
            if bo2 != bo:
                continue
            pt = ctx.encode(vec, level=level, scale=pt_scale).poly
            if off == 0:
                c0 = (c0 + pt.data * in_cts[bi].c0.data) % mod_q
                c1 = (c1 + pt.data * in_cts[bi].c1.data) % mod_q
                continue
            rot0, acc = ctx.rotate_hoisted_raw(in_cts[bi], [off])[off]
            acc_ext = (acc_ext + extend_primes_reference(pt, ks_chain).data * acc) % mod_ks
            c0 = (c0 + pt.data * rot0.data) % mod_q
        p0, p1 = ctx._ks_moddown(acc_ext, level)
        outs.append(((c0 + p0.data) % mod_q, (c1 + p1.data) % mod_q))
    return outs


class TestStaticTables:
    @pytest.mark.parametrize("max_chunk", [None, 1, 2])
    @pytest.mark.parametrize("num_in, num_out", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_table_path_equals_per_term_reference(self, num_in, num_out, max_chunk):
        backend = _backend()
        rng = np.random.default_rng(num_in * 10 + num_out)
        slots = backend.slot_count
        terms = _terms(rng, slots, num_in, num_out)
        cts = [
            backend.level_down(backend.encode_encrypt(rng.normal(size=slots) * 0.1), 3)
            for _ in range(num_in)
        ]
        pt_scale = Fraction(backend.params.data_primes[3])
        cache = {}
        got = backend._matvec_fused_no_charge(
            cts, terms, num_out, pt_scale, pt_cache=cache, _max_chunk=max_chunk
        )
        want = reference_per_term(backend, cts, terms, num_out, pt_scale)
        for out, (c0, c1) in zip(got, want):
            assert np.array_equal(out.c0.data, c0)
            assert np.array_equal(out.c1.data, c1)
        # One cache entry per group, and a warm call builds nothing.
        assert len(cache) == num_in * num_out
        tables = dict(cache)
        again = backend._matvec_fused_no_charge(
            cts, terms, num_out, pt_scale, pt_cache=cache, _max_chunk=max_chunk
        )
        assert all(cache[key] is table for key, table in tables.items())
        for out, (c0, c1) in zip(again, want):
            assert np.array_equal(out.c0.data, c0)
            assert np.array_equal(out.c1.data, c1)

    def test_table_path_at_ring_degree_4096(self):
        backend = _backend(ring_degree=4096, max_level=2, seed=5)
        rng = np.random.default_rng(4)
        slots = backend.slot_count
        terms = {
            (0, 0, off): rng.normal(size=slots) * 0.1
            for off in (0, 1, 64, ("conj", 3))
        }
        ct = backend.encode_encrypt(rng.normal(size=slots) * 0.1)
        pt_scale = Fraction(backend.params.data_primes[ct.level])
        (got,) = backend._matvec_fused_no_charge([ct], terms, 1, pt_scale)
        ((c0, c1),) = reference_per_term(backend, [ct], terms, 1, pt_scale)
        assert np.array_equal(got.c0.data, c0)
        assert np.array_equal(got.c1.data, c1)

    def test_rows_follow_the_hoisted_offset_axis(self):
        backend = _backend()
        terms = dict.fromkeys(
            [(0, 0, 0), (0, 0, 7), (0, 0, ("conj", 1)), (0, 0, 2), (1, 0, 2)]
        )
        groups = fused_term_groups(terms)
        assert groups == {(0, 0): [2, 7, ("conj", 1), 0], (1, 0): [2]}
        ct = backend.encode_encrypt(np.zeros(backend.slot_count))
        walk = backend.context.rotate_hoisted_slabs(ct, groups[(0, 0)])
        order = [off for slab, _, _ in walk for off in slab]
        assert order == groups[(0, 0)][:-1]
        assert order == sorted(order, key=galois_offset_key)

    def test_unreduced_offset_is_refused(self):
        """Table rows follow the group's offsets as given, the walk the
        offsets reduced mod the slot count: a row whose offset the walk
        never meets is an error, not a product with another column."""
        backend = _backend()
        slots = backend.slot_count
        terms = {(0, 0, off): np.full(slots, 0.1) for off in (1, -1)}
        ct = backend.encode_encrypt(np.zeros(slots))
        with pytest.raises(ValueError, match="not reduced"):
            backend._matvec_fused_no_charge([ct], terms, 1, backend.params.scale)

    @pytest.mark.parametrize("level", [4, 1])
    def test_ks_chain_encode_equals_exact_extension(self, level):
        """Encoding over Q_l * P at export == the big-integer extension
        of the data-chain encode, and the data-chain plaintext is a
        prefix view of the same rows."""
        backend = _backend()
        ctx = backend.context
        rng = np.random.default_rng(level)
        vectors = [rng.normal(size=backend.slot_count) for _ in range(3)]
        scale = Fraction(backend.params.data_primes[level]) * 3 / 7
        table = ctx.encode_table(vectors, level, scale)
        ks_chain = ctx._ks_chain(level)
        assert table.dtype == np.uint32 and table.shape == (3, len(ks_chain), 64)
        assert not table.flags.writeable
        assert np.shares_memory(table[:, : level + 1], table)
        for row, vec in zip(table, vectors):
            poly = ctx.encode(vec, level=level, scale=scale).poly
            assert np.array_equal(row[: level + 1], poly.data)
            assert np.array_equal(row, extend_primes_reference(poly, ks_chain).data)

    def test_a_table_multiplies_only_against_int64(self):
        """Why consumers never combine two static operands: the product
        of two 32-bit residues wraps in uint32, silently."""
        table = _backend().context.encode_table([np.ones(32)], 4, 2**20)
        wide = table.astype(np.int64)
        assert (table * wide).dtype == np.int64
        assert np.array_equal(table * wide, wide * wide)
        assert (table * table).dtype == np.uint32
        assert not np.array_equal(table * table, wide * wide)

    def test_each_input_offset_reaches_the_key_kernel_once(self, monkeypatch):
        """One fused matvec computes each (input block, offset) inner
        product exactly once — in slabs, whichever output blocks read
        the offset."""
        backend = _backend()
        ctx = backend.context
        rng = np.random.default_rng(7)
        slots = backend.slot_count
        terms = _terms(rng, slots, 2, 2)
        cts = [backend.encode_encrypt(rng.normal(size=slots) * 0.1) for _ in range(2)]
        pt_scale = Fraction(backend.params.data_primes[cts[0].level])
        backend._matvec_fused_no_charge(cts, terms, 2, pt_scale)  # keys exist
        level = cts[0].level
        block_of = {
            ctx._ks_decompose(ct.c1, level).tobytes(): bi for bi, ct in enumerate(cts)
        }
        offset_of = {
            ctx.galois_offset_exponent(off): off for (_, _, off) in terms if off
        }
        calls = Counter()
        slabs = []
        real = kernels.ks_inner_stacked

        def spy(digits, keys, *args):
            bi = block_of[digits.tobytes()]
            for view in keys:
                (exponent,) = [
                    e for e, key in ctx.keys.galois.items()
                    if np.shares_memory(view, key.tensor)
                ]
                calls[(bi, offset_of[exponent])] += 1
            slabs.append(len(keys))
            return real(digits, keys, *args)

        monkeypatch.setattr(kernels, "ks_inner_stacked", spy)
        backend._matvec_fused_no_charge(cts, terms, 2, pt_scale)
        wanted = {(bi, off) for (_, bi, off) in terms if off}
        assert calls == Counter(dict.fromkeys(wanted, 1))
        distinct = len(wanted) // 2  # both inputs hoist the same offsets
        assert len(slabs) == 2 * -(-distinct // HOISTED_SLAB)
        assert max(slabs) == HOISTED_SLAB

    @staticmethod
    def _warm_matvec_peak(num_offsets):
        backend = _backend(ring_degree=1024, max_level=4)
        rng = np.random.default_rng(0)
        slots = backend.slot_count
        offsets = [0] + list(range(1, num_offsets + 1))
        terms = {(0, 0, off): rng.normal(size=slots) * 0.1 for off in offsets}
        ct = backend.encode_encrypt(rng.normal(size=slots) * 0.1)
        pt_scale = Fraction(backend.params.data_primes[ct.level])
        cache = {}
        backend._matvec_fused_no_charge([ct], terms, 1, pt_scale, pt_cache=cache)
        tracemalloc.start()
        try:
            backend._matvec_fused_no_charge([ct], terms, 1, pt_scale, pt_cache=cache)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_warm_matvec_working_set_is_one_slab(self):
        """A warm fused matvec's peak does not grow with its offset
        count: 4x the offsets stay within a small constant of the
        smaller peak (the whole (2, K, O, N) accumulator and its
        gathered copy made it ~4x)."""
        small, large = self._warm_matvec_peak(24), self._warm_matvec_peak(96)
        assert large < 1.2 * small, (small, large)

@pytest.fixture(scope="module")
def mapped_artifact(tmp_path_factory):
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    onet.fit([np.random.default_rng(0).normal(0, 0.5, (8, 1, 8, 8))])
    params = toy_parameters(ring_degree=1024, max_level=6, boot_levels=1, scale_bits=24)
    path = str(tmp_path_factory.mktemp("static") / "mlp.npz")
    onet.export(path, params)
    return params, path


def _fused_caches(packed, backend):
    return {
        key: cache
        for key, cache in packed._pt_cache[backend].items()
        if key[0] == "fused"
    }


class TestPreloadIsAView:
    @pytest.fixture()
    def preloaded(self, mapped_artifact):
        params, path = mapped_artifact
        artifact_map = ArtifactMap(path)
        artifact = artifact_map.load()
        backend = ToyBackend(artifact.manifest.to_params(), seed=2)
        server = InferenceServer(artifact, backend, max_wait_seconds=0.0)
        linears = [
            instr.packed
            for instr in artifact.program.instructions
            if hasattr(instr, "packed")
        ]
        mapped = list(artifact_map.arrays.values())
        return params, path, artifact, backend, server, linears, mapped

    def test_preload_installs_mapped_tables(self, preloaded):
        params, path, artifact, backend, server, linears, mapped = preloaded
        tables = [
            table
            for packed in linears
            for cache in _fused_caches(packed, backend).values()
            for table in cache.values()
        ]
        assert server.preloaded_plaintexts == sum(t.shape[0] for t in tables)
        assert server.preloaded_plaintexts == sum(
            len(packed.terms()) for packed in linears
        )
        for table in tables:
            assert table.dtype == np.uint32 and not table.flags.writeable
            assert is_mmap_backed(table)
        assert verify_mmap_tables(server, path)
        # Preloaded tables are the ones a cold backend (holding the same
        # lane keys) builds for itself.
        image = np.random.default_rng(1).normal(0, 0.5, (1, 8, 8))
        cold = ToyBackend(artifact.manifest.to_params(), seed=2)
        generate_lane_keys(cold, artifact.manifest)
        assert np.array_equal(
            artifact.program.run(backend, image), artifact.program.run(cold, image)
        )
        # Still true after a run: the float diagonals the fused matvec is
        # handed are the mapped vectors themselves, never heap copies.
        assert verify_mmap_tables(server, path)
        for packed in linears:
            for vec in packed.terms().values():
                assert any(np.shares_memory(vec, m) for m in mapped)
        for packed in linears:
            built = _fused_caches(packed, cold)
            for key, cache in _fused_caches(packed, backend).items():
                for group, table in cache.items():
                    assert np.array_equal(table, built[key][group])

    def test_verify_checks_the_whole_operand(self, preloaded):
        """The audit covers the array the matvec multiplies — special
        limb included — so an anonymous copy of it is caught."""
        _, path, _, backend, server, linears, _ = preloaded
        (cache,) = _fused_caches(linears[0], backend).values()
        group = next(iter(cache))
        cache[group] = cache[group].copy()
        with pytest.raises(RuntimeError, match="copied off the artifact map"):
            verify_mmap_tables(server, path)
