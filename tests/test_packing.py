"""Tests for single-shot multiplexed packing (paper Section 4)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.diagonal import extract_generalized_diagonals, matvec_diagonal_cleartext
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.packing import (
    MultiplexedLayout,
    VectorLayout,
    analyze_conv_packing,
    build_conv_packing,
    build_linear_packing,
    lee_conv_rotations,
    plan_bsgs,
)
from repro.core.packing.analysis import (
    analyze_toeplitz_strided_diagonals,
    linear_structure,
)
from repro.core.packing.bsgs import plan_bsgs_square_matrix
from repro.core.packing.matvec import PackedMatVec, merge_packed_matvecs

N = 1024
RNG = np.random.default_rng(7)


def _check_conv(ci, co, h, w, k, stride=1, pad=0, gap=1, groups=1, dil=1, bias=True):
    lay = MultiplexedLayout(ci, h, w, gap, N)
    x = RNG.normal(size=(ci, h, w))
    weight = RNG.normal(size=(co, ci // groups, k, k))
    b = RNG.normal(size=co) if bias else None
    packed = build_conv_packing(
        weight, b, lay, stride=(stride, stride), padding=(pad, pad),
        dilation=(dil, dil), groups=groups,
    )
    got = packed.out_layout.unpack(packed.execute_cleartext(lay.pack(x)))
    ref = F.conv2d(
        Tensor(x[None]), Tensor(weight), Tensor(b) if bias else None,
        stride=(stride, stride), padding=(pad, pad), dilation=(dil, dil),
        groups=groups,
    ).data[0]
    assert np.abs(got - ref).max() < 1e-9
    return packed


class TestLayouts:
    def test_gap1_is_raster_scan(self):
        lay = MultiplexedLayout(2, 4, 4, 1, N)
        assert lay.slot(1, 2, 3) == 1 * 16 + 2 * 4 + 3

    def test_pack_unpack_roundtrip(self):
        lay = MultiplexedLayout(5, 4, 4, 2, N)
        t = RNG.normal(size=(5, 4, 4))
        assert np.allclose(lay.unpack(lay.pack(t)), t)

    def test_gap_packs_channels_into_subblocks(self):
        lay = MultiplexedLayout(4, 2, 2, 2, N)
        # channels 0..3 of pixel (0,0) occupy the top-left 2x2 sub-block
        slots = [lay.slot(c, 0, 0) for c in range(4)]
        assert slots == [0, 1, 4, 5]  # grid width = 4

    def test_multi_ciphertext_split(self):
        lay = MultiplexedLayout(8, 16, 16, 1, N)
        assert lay.num_ciphertexts == 2

    def test_slot_of_logical_matches_slot(self):
        lay = MultiplexedLayout(3, 4, 5, 1, N)
        logical = 1 * 20 + 2 * 5 + 3
        assert lay.slot_of_logical(logical) == lay.slot(1, 2, 3)

    def test_vector_layout(self):
        lay = VectorLayout(10, N)
        vecs = lay.pack(np.arange(10.0))
        assert len(vecs) == 1 and vecs[0][9] == 9
        assert np.array_equal(lay.unpack(vecs), np.arange(10.0))


class TestDiagonalMethod:
    def test_matches_dense_matvec(self):
        m = RNG.normal(size=(16, 16))
        v = RNG.normal(size=16)
        assert np.allclose(matvec_diagonal_cleartext(m, v), m @ v)

    def test_diagonal_extraction_sparsity(self):
        m = np.eye(8)
        diags = extract_generalized_diagonals(m)
        assert list(diags) == [0]

    def test_bsgs_square_counts(self):
        plain, bsgs = plan_bsgs_square_matrix(64)
        assert plain == 63
        assert bsgs == 14  # 8 + 8 - 2

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=40))
    def test_bsgs_plan_covers_offsets(self, offsets):
        plan = plan_bsgs(offsets, N)
        for off in offsets:
            baby = off % N % plan.n1
            giant = off % N - baby
            assert baby in plan.babies
            assert giant in plan.giants

    def test_bsgs_beats_plain_for_dense_sets(self):
        offsets = list(range(256))
        plan = plan_bsgs(offsets, N)
        assert plan.num_rotations < 255


class TestConvPacking:
    def test_siso_same_conv(self):
        packed = _check_conv(1, 1, 8, 8, 3, stride=1, pad=1)
        # 9 taps -> 9 diagonals, BSGS splits them.
        assert packed.stats.pmults == 9
        assert packed.stats.rotations <= 8

    def test_mimo_conv(self):
        _check_conv(2, 2, 8, 8, 3, stride=1, pad=1)

    def test_strided_conv_single_level(self):
        """The core single-shot claim: strided convs need one matvec."""
        packed = _check_conv(1, 4, 8, 8, 2, stride=2, pad=0)
        assert packed.out_layout.gap == 2

    def test_strided_on_multiplexed_input(self):
        packed = _check_conv(4, 8, 8, 8, 3, stride=2, pad=1, gap=2)
        assert packed.out_layout.gap == 4

    def test_grouped_and_depthwise(self):
        _check_conv(4, 4, 8, 8, 3, pad=1, groups=2)
        _check_conv(4, 4, 8, 8, 3, pad=1, groups=4)

    def test_dilated(self):
        _check_conv(2, 2, 9, 9, 3, pad=2, dil=2)

    def test_multi_ciphertext_blocked(self):
        packed = _check_conv(8, 8, 16, 16, 3, pad=1)
        assert packed.num_in == 2 and packed.num_out == 2

    def test_no_bias(self):
        _check_conv(2, 3, 6, 6, 3, pad=1, bias=False)

    def test_rejects_anisotropic_stride(self):
        lay = MultiplexedLayout(1, 8, 8, 1, N)
        with pytest.raises(ValueError):
            build_conv_packing(np.zeros((1, 1, 2, 2)), None, lay, stride=(2, 1))

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([1, 2]),
        st.sampled_from([0, 1]),
    )
    def test_random_conv_configs(self, ci, co, stride, pad):
        _check_conv(ci, co, 8, 8, 3, stride=stride, pad=pad)


class TestLinearPacking:
    def test_fc_over_multiplexed_layout(self):
        lay = MultiplexedLayout(4, 4, 4, 2, N)
        x = RNG.normal(size=(4, 4, 4))
        m = RNG.normal(size=(7, 64))
        b = RNG.normal(size=7)
        packed = build_linear_packing(m, b, lay)
        got = packed.out_layout.unpack(packed.execute_cleartext(lay.pack(x)))
        assert np.allclose(got, m @ x.ravel() + b)

    def test_hybrid_vs_plain_same_answer(self):
        lay = VectorLayout(128, N)
        m = RNG.normal(size=(8, 128))
        x = RNG.normal(size=128)
        for mode in ("hybrid", "plain"):
            packed = build_linear_packing(m, None, lay, force_mode=mode)
            assert bool(packed.fold_shifts) == (mode == "hybrid")
            got = packed.out_layout.unpack(packed.execute_cleartext(lay.pack(x)))
            assert np.allclose(got, m @ x)

    def test_hybrid_reduces_rotations_for_squat_matrices(self):
        lay = VectorLayout(512, N)
        m = RNG.normal(size=(8, 512))
        hybrid = build_linear_packing(m, None, lay, force_mode="hybrid")
        # Plain diagonal method needs ~min(512, n) rotations; hybrid
        # needs ~sqrt(8) + log2(n/8).
        assert hybrid.stats.rotations < 40

    def test_mismatched_width_raises(self):
        lay = VectorLayout(16, N)
        with pytest.raises(ValueError):
            build_linear_packing(np.zeros((4, 32)), None, lay)

    @pytest.mark.parametrize("kind", ["plain", "hybrid", "batched", "merged"])
    def test_stored_vector_is_the_diagonal(self, kind):
        """``diags[(bo, bi)][off][j]`` multiplies input slot ``j + off``
        into output slot ``j`` — un-rotated, the form the fused matvec
        reads — for every way a layer comes to exist, and through the
        artifact payload round-trip (batched views are re-derived from
        the loaded layer, as a server does), bit for bit.  A batched
        view's ``bo`` is a partial sum, rotated by its gather steps into
        output block 0 before the fold."""
        wide, squat = VectorLayout(128, N), VectorLayout(64, N)
        if kind == "plain":
            packed = build_linear_packing(
                RNG.normal(size=(600, 128)), RNG.normal(size=600), wide
            )
        elif kind == "merged":
            packed = merge_packed_matvecs(
                [
                    build_linear_packing(RNG.normal(size=(600, 128)), None, wide),
                    build_linear_packing(
                        RNG.normal(size=(700, 128)), RNG.normal(size=700), wide
                    ),
                ]
            )
        else:
            packed = build_linear_packing(
                RNG.normal(size=(8, 64)), RNG.normal(size=8), squat,
                force_mode="hybrid",
            )
        assert bool(packed.fold_shifts) == (kind in ("hybrid", "batched"))
        stored = {}

        def store(array):
            stored[f"a{len(stored)}"] = array
            return f"a{len(stored) - 1}"

        loaded = PackedMatVec.from_payload(packed.to_payload(store), stored.__getitem__)
        if kind == "batched":
            packed, loaded = packed.batched(2), loaded.batched(2)
            assert loaded.gathers == ((), (N // 2,))
        x = [RNG.normal(size=N) for _ in range(packed.num_in)]
        slots = np.arange(N)
        partials = []
        for bo in range(len(loaded.gathers) or loaded.num_out):
            acc = np.zeros(N)
            for (bo2, bi), dmap in loaded.diags.items():
                if bo2 == bo:
                    for off, vec in dmap.items():
                        acc += vec * x[bi][(slots + off) % N]
            partials.append(acc)
        if loaded.gathers:
            for part, steps in zip(partials[1:], loaded.gathers[1:]):
                partials[0] = partials[0] + part[(slots + sum(steps)) % N]
            partials = partials[:1]
        expected = []
        for bo, acc in enumerate(partials):
            for shift in loaded.fold_shifts:
                acc = acc + acc[(slots + shift) % N]
            if loaded.bias_vecs is not None:
                acc = acc + loaded.bias_vecs[bo]
            expected.append(acc)
        for got in (packed.execute_cleartext(x), loaded.execute_cleartext(x)):
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))


#: Materialized layer -> its structure counted from shapes alone.  FC
#: cases at n = 1024 cover one and several input blocks (3000 = 2 * 1024
#: + a partial 952), several output blocks, an input layout whose second
#: ciphertext holds no data, the plain / hybrid / raced (n/4 < m <= n/2)
#: forms and a diagonal matrix (a standalone BatchNorm1d).
STRUCTURE_CASES = {
    "conv": lambda: (
        build_conv_packing(
            RNG.normal(size=(8, 8, 3, 3)), None,
            MultiplexedLayout(8, 16, 16, 1, N), padding=(1, 1),
        ),
        analyze_conv_packing((8, 8, 3, 3), MultiplexedLayout(8, 16, 16, 1, N), padding=(1, 1)),
    ),
    "fc_hybrid": (8, VectorLayout(128, N), False),
    "fc_raced": (300, VectorLayout(128, N), False),
    "fc_plain": (600, VectorLayout(128, N), False),
    "fc_multi_in_block": (600, VectorLayout(3000, N), False),
    "fc_partial_last_block": (64, VectorLayout(3000, N), False),
    "fc_multi_out_block": (1500, VectorLayout(2000, N), False),
    "fc_multiplexed_input": (7, MultiplexedLayout(4, 4, 4, 2, N), False),
    "fc_empty_in_block": (100, MultiplexedLayout(8, 1, 1, 32, 512), False),
    "diagonal": (8, VectorLayout(8, N), True),
    "diagonal_multi_block": (1500, VectorLayout(1500, N), True),
}


class TestAnalysisMode:
    @pytest.mark.parametrize("case", list(STRUCTURE_CASES))
    def test_matches_materialized_counts(self, case):
        """The structure counted from shapes alone equals the packed
        layer's ``stats`` field for field (rotations, PMults, giants,
        folds, fused inner products, layouts)."""
        spec = STRUCTURE_CASES[case]
        if callable(spec):
            packed, stats = spec()
        else:
            m, lay, diagonal = spec
            width = lay.logical_length
            matrix = np.diag(RNG.normal(size=m)) if diagonal else RNG.normal(size=(m, width))
            packed = build_linear_packing(matrix, None, lay)
            stats = linear_structure(m, lay, diagonal).stats
        assert stats == packed.stats
        assert stats.out_layout.num_ciphertexts == packed.num_out
        if case in ("fc_hybrid", "fc_plain", "fc_empty_in_block"):
            assert bool(stats.num_folds) == (case == "fc_hybrid")
        if case == "fc_multi_in_block":
            assert (stats.num_in_cts, stats.rotations) == (3, 124)
        if case == "fc_partial_last_block":
            assert stats.pmults == 3063

    def test_strided_toeplitz_diagonal_blowup(self):
        """Paper Figure 5a: naive strided Toeplitz diagonals scale with
        the input size; single-shot multiplexing stays at ~f * c."""
        lay = MultiplexedLayout(1, 16, 16, 1, N)
        naive = analyze_toeplitz_strided_diagonals(lay, (2, 2), 2, c_out=4)
        multiplexed = analyze_conv_packing((4, 1, 2, 2), lay, stride=(2, 2))
        assert naive > 4 * multiplexed.pmults

    def test_scales_to_imagenet_shapes(self):
        lay = MultiplexedLayout(64, 56, 56, 1, 1 << 15)
        stats = analyze_conv_packing((64, 64, 3, 3), lay, padding=(1, 1))
        assert stats.pmults > 0 and stats.rotations > 0
        assert stats.num_in_cts == lay.num_ciphertexts


class TestConvAnalysisGaps:
    """Where the closed-form conv analysis undercounts what
    ``build_conv_packing`` packs (``repro.core.packing.analysis`` module
    docstring): a tap's offset differs between output positions.  Strict
    xfails, so a fix makes them fail until the marker goes."""

    @pytest.mark.xfail(strict=True, reason="conv analysis evaluates each tap at one position")
    @pytest.mark.parametrize(
        "weight_shape,in_layout,padding",
        [
            # LeNet-5's conv2 at N = 4096: unpadded, so its output grid
            # row (10 * 2) is narrower than its input's (14 * 2).
            ((16, 6, 5, 5), MultiplexedLayout(6, 14, 14, 2, 2048), (0, 0)),
            # ResNet-34's 56x56 stage at the paper ring: a channel's
            # 224x224 grid straddles the 32768-slot ciphertexts.
            ((16, 16, 3, 3), MultiplexedLayout(16, 56, 56, 4, 1 << 15), (1, 1)),
        ],
        ids=["lenet5_conv2_unpadded", "resnet34_56x56_straddles"],
    )
    def test_analysis_matches_packed(self, weight_shape, in_layout, padding):
        stats = analyze_conv_packing(weight_shape, in_layout, padding=padding)
        packed = build_conv_packing(
            np.ones(weight_shape), None, in_layout, padding=padding
        )
        assert (stats.rotations, stats.pmults) == (
            packed.stats.rotations, packed.stats.pmults
        )


class TestLeeBaseline:
    def test_lee_counts_grow_with_taps(self):
        lay = MultiplexedLayout(16, 32, 32, 1, 1 << 15)
        small = lee_conv_rotations(lay, (3, 3), 16)
        big = lee_conv_rotations(lay, (5, 5), 16)
        assert big > small

    def test_strided_needs_collect_rotations(self):
        lay = MultiplexedLayout(16, 32, 32, 1, 1 << 15)
        flat = lee_conv_rotations(lay, (3, 3), 16, stride=1)
        strided = lee_conv_rotations(lay, (3, 3), 16, stride=2)
        assert strided > flat

    def test_orion_beats_lee_on_wide_convs(self):
        """The Table 3 direction: Orion's BSGS wins, more so for wider
        channel counts."""
        n = 1 << 15
        lay = MultiplexedLayout(64, 16, 16, 1, n)
        lee = lee_conv_rotations(lay, (3, 3), 64)
        orion = analyze_conv_packing((64, 64, 3, 3), lay, padding=(1, 1)).rotations
        assert orion < lee


@pytest.mark.parametrize("module", ["repro.core.packing", "repro.ckks", "repro.core.attention"])
def test_imports_first_in_a_fresh_interpreter(module):
    """``repro.ckks``' bootstrapper runs packed tables and
    ``repro.core.packing`` orders them by ``repro.ckks.galois``: either
    package may be a process's first import (a paper bench's is)."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True, env=env)
