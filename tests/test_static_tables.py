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

from reference.bigint import extend_rows_reference
from repro import kernels
from repro.backend import ToyBackend
from repro.backend.toy import HOISTED_SLAB
from repro.ckks.context import CkksContext, encode_rows
from repro.ckks.galois import fused_term_groups, galois_offset_key
from repro.ckks.params import toy_parameters
from repro.core.packing.matvec import held_tables, table_vector
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.rns import RnsPolynomial
from repro.serve import ArtifactMap, is_mmap_backed
from repro.serve.artifact import build_artifact
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
    ks_chain = ctx.basis.key_switch_primes(level + 1)
    mod_ks = ctx.basis.moduli_column(ks_chain)
    data_primes = ctx.basis.data_primes(level + 1)
    mod_q = ctx.basis.moduli_column(data_primes)
    outs = []
    for bo in range(num_out):
        acc_ext = np.zeros((2, len(ks_chain), ctx.basis.ring_degree), dtype=np.int64)
        c0 = np.zeros((level + 1, ctx.basis.ring_degree), dtype=np.int64)
        c1 = np.zeros_like(c0)
        for (bo2, bi, off), vec in terms.items():
            if bo2 != bo:
                continue
            pt = ctx.encode(vec, level=level, scale=pt_scale).data
            if off == 0:
                c0 = (c0 + pt * in_cts[bi].data[0]) % mod_q
                c1 = (c1 + pt * in_cts[bi].data[1]) % mod_q
                continue
            rot0, acc = backend.rotate_hoisted_raw(in_cts[bi], [off])[off]
            pt_ext = extend_rows_reference(ctx.basis, pt, data_primes, ks_chain)
            acc_ext = (acc_ext + pt_ext * acc) % mod_ks
            c0 = (c0 + pt * rot0) % mod_q
        p0, p1 = backend._ks_moddown(acc_ext, level)
        outs.append(((c0 + p0) % mod_q, (c1 + p1) % mod_q))
    return outs


class TestStaticTables:
    @pytest.mark.parametrize("max_chunk", [None, 1, 2])
    @pytest.mark.parametrize("num_in, num_out", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_table_path_equals_per_term_reference(
        self, num_in, num_out, max_chunk, force_chunk
    ):
        backend = _backend()
        rng = np.random.default_rng(num_in * 10 + num_out)
        slots = backend.slot_count
        terms = _terms(rng, slots, num_in, num_out)
        cts = [
            backend.level_down(backend.encode_encrypt(rng.normal(size=slots) * 0.1), 3)
            for _ in range(num_in)
        ]
        pt_scale = Fraction(backend.params.data_primes[3])
        want = reference_per_term(backend, cts, terms, num_out, pt_scale)
        asked = force_chunk(max_chunk) if max_chunk is not None else None
        store = {}
        got = backend._matvec_fused(
            cts, terms, num_out, pt_scale,
            held_tables(store, backend, terms, 3, pt_scale, None),
            None,
        )
        assert asked is None or asked
        for out, (c0, c1) in zip(got, want):
            assert np.array_equal(out.data, np.stack([c0, c1]))
        # One stored table per group, and a warm call builds nothing.
        assert len(store) == num_in * num_out
        tables = dict(store)
        again = backend._matvec_fused(
            cts, terms, num_out, pt_scale,
            held_tables(store, backend, terms, 3, pt_scale, None),
            None,
        )
        assert all(store[key] is table for key, table in tables.items())
        for out, (c0, c1) in zip(again, want):
            assert np.array_equal(out.data, np.stack([c0, c1]))

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
        (got,) = backend._matvec_fused(
            [ct], terms, 1, pt_scale,
            held_tables({}, backend, terms, ct.level, pt_scale, None),
            None,
        )
        ((c0, c1),) = reference_per_term(backend, [ct], terms, 1, pt_scale)
        assert np.array_equal(got.data, np.stack([c0, c1]))

    def test_rows_follow_the_hoisted_offset_axis(self):
        backend = _backend()
        terms = dict.fromkeys(
            [(0, 0, 0), (0, 0, 7), (0, 0, ("conj", 1)), (0, 0, 2), (1, 0, 2)]
        )
        groups = fused_term_groups(terms, None)
        assert groups == {(0, 0): [2, 7, ("conj", 1), 0], (1, 0): [2]}
        ct = backend.encode_encrypt(np.zeros(backend.slot_count))
        walk = backend.rotate_hoisted_slabs(ct, groups[(0, 0)])
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
        scale = backend.params.scale
        tables = held_tables({}, backend, terms, ct.level, scale, None)
        with pytest.raises(ValueError, match="not reduced"):
            backend._matvec_fused([ct], terms, 1, scale, tables, None)

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
        ks_chain = ctx.basis.key_switch_primes(level + 1)
        assert table.dtype == np.uint32 and table.shape == (3, len(ks_chain), 64)
        assert not table.flags.writeable
        assert np.shares_memory(table[:, : level + 1], table)
        for row, vec in zip(table, vectors):
            rows = ctx.encode(vec, level=level, scale=scale).data
            assert np.array_equal(row[: level + 1], rows)
            assert np.array_equal(
                row, extend_rows_reference(ctx.basis, rows, ks_chain[: level + 1], ks_chain)
            )

    def test_batched_encode_equals_the_row_by_row_stack(self):
        """One batched slots -> coeffs, % and transform over all rows is
        byte-equal to encoding each row alone, short rows zero-padded,
        and a row whose coefficients overflow int64 takes the bigint
        path inside the same table."""
        backend = _backend()
        ctx = backend.context
        rng = np.random.default_rng(11)
        level = 3
        scale = Fraction(backend.params.data_primes[level]) * 5 / 9
        vectors = [rng.normal(size=backend.slot_count) for _ in range(4)]
        vectors += [rng.normal(size=5), 2.0**50 * rng.normal(size=backend.slot_count)]
        ks_chain = ctx.basis.key_switch_primes(level + 1)
        rows = []
        for vec in vectors:  # one row at a time, as encode_table used to
            slots = np.zeros(backend.slot_count, dtype=np.complex128)
            slots[: vec.size] = vec
            rounded = np.rint(ctx.encoder.slots_to_coeffs(slots) * float(scale))
            if np.all(np.abs(rounded) < 2.0**62):
                data = rounded.astype(np.int64)[None] % ctx.basis.moduli_column(ks_chain)
                poly = RnsPolynomial(ctx.basis, ks_chain, data, is_ntt=False).to_ntt()
            else:
                poly = RnsPolynomial.from_bigint_coeffs(ctx.basis, ks_chain, rounded.astype(object))
            rows.append(poly.data)
        assert not np.all(np.abs(rounded) < 2.0**62)  # the last row is the bigint one
        table = ctx.encode_table(vectors, level, scale)
        assert table.tobytes() == np.stack(rows).astype(np.uint32).tobytes()
        assert np.array_equal(
            encode_rows(ctx.basis, ctx.encoder, vectors[-1:], ks_chain, scale)[0], rows[-1]
        )

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
        tables = held_tables({}, backend, terms, cts[0].level, pt_scale, None)
        backend._matvec_fused(cts, terms, 2, pt_scale, tables, None)  # keys exist
        level = cts[0].level
        block_of = {
            backend._ks_decompose(ct.data[1], level).tobytes(): bi for bi, ct in enumerate(cts)
        }
        offset_of = {
            backend.galois_offset_exponent(off): off for (_, _, off) in terms if off
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
        backend._matvec_fused(cts, terms, 2, pt_scale, tables, None)
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
        tables = held_tables({}, backend, terms, ct.level, pt_scale, None)
        backend._matvec_fused([ct], terms, 1, pt_scale, tables, None)
        tracemalloc.start()
        try:
            backend._matvec_fused([ct], terms, 1, pt_scale, tables, None)
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


def test_export_encodes_its_tables_without_keys(monkeypatch):
    """Export builds every table from the ring's basis and slot encoder
    alone: with key generation made to fail it still exports, and each
    table is byte-equal to the one a keyed context encodes."""
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    onet.fit([np.random.default_rng(0).normal(0, 0.5, (8, 1, 8, 8))])
    params = toy_parameters(ring_degree=1024, max_level=6, boot_levels=1, scale_bits=24)
    compiled = onet.compile(params)

    def no_keys(*args, **kwargs):
        raise AssertionError("export generated keys")

    with monkeypatch.context() as patch:
        patch.setattr(CkksContext, "__init__", no_keys)
        artifact = build_artifact(compiled, params)
    assert artifact.encoded
    keyed = ToyBackend(artifact.manifest.to_params(), seed=2)
    by_name = {instr.name: instr for instr in artifact.program.instructions}
    checked = 0
    for section in artifact.encoded:
        packed = by_name[section["name"]].packed
        terms = packed.terms()
        groups = fused_term_groups(terms, packed.split)
        for group in section["groups"]:
            bo, bi = group["bo"], group["bi"]
            rows = [table_vector(terms, bo, bi, off, packed.split)
                    for off in groups[(bo, bi)]]
            want = keyed.encode_table(rows, section["level"],
                                      Fraction(*section["pt_scale"]))
            assert group["table"].dtype == want.dtype
            assert group["table"].tobytes() == want.tobytes()
            checked += 1
    assert checked == sum(len(s["groups"]) for s in artifact.encoded)


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
            table for packed in linears for *_, table in packed.encoded_tables(backend)
        ]
        assert server.preloaded_plaintexts == sum(t.shape[0] for t in tables)
        assert server.preloaded_plaintexts == sum(
            len(packed.terms()) for packed in linears
        )
        for table in tables:
            assert table.dtype == np.uint32 and not table.flags.writeable
            assert is_mmap_backed(table)
        assert verify_mmap_tables(server, path)
        # A cold backend of the same parameter set (holding the same lane
        # keys) runs on the preloaded tables and gets what the lane gets.
        image = np.random.default_rng(1).normal(0, 0.5, (1, 8, 8))
        cold = ToyBackend(artifact.manifest.to_params(), seed=2)
        generate_lane_keys(cold, artifact.manifest)
        assert np.array_equal(
            artifact.program.run(backend, image), artifact.program.run(cold, image)
        )
        # Still true after a run: the block-level float diagonals, which
        # every view derives from, are the mapped vectors themselves,
        # never heap copies (a capacity view sums their blocks).
        assert verify_mmap_tables(server, path)
        block = artifact.program.block_level()
        for packed in (i.packed for i in block.instructions if hasattr(i, "packed")):
            for vec in packed.terms().values():
                assert any(np.shares_memory(vec, m) for m in mapped)
        # Preloaded tables are the ones the backend would encode itself.
        for packed in linears:
            terms = packed.terms()
            groups = fused_term_groups(terms, packed.split)
            for bo, bi, level, pt_scale, table in packed.encoded_tables(cold):
                rows = [table_vector(terms, bo, bi, off, packed.split)
                        for off in groups[(bo, bi)]]
                assert np.array_equal(table, cold.encode_table(rows, level, pt_scale))

    def test_verify_checks_the_whole_operand(self, preloaded):
        """The audit covers the array the matvec multiplies — special
        limb included — so an anonymous copy of it is caught."""
        _, path, _, backend, server, linears, _ = preloaded
        bo, bi, level, pt_scale, table = linears[0].encoded_tables(backend)[0]
        linears[0].install_table(backend, bo, bi, level, pt_scale, table.copy())
        with pytest.raises(RuntimeError, match="copied off the artifact map"):
            verify_mmap_tables(server, path)
