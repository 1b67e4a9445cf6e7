"""The separable conv analysis against its brute-force oracle.

``repro.core.packing.analysis`` forms a conv's diagonal table from two
channel vectors and one outer difference per tap;
``tests/reference/conv_analysis_bruteforce.py`` enumerates every
``(c_out, c_in, kh, kw)`` tap.  Every number either returns must agree.
"""

import itertools

import numpy as np
import pytest

from repro.core.packing import analysis
from repro.core.packing.analysis import (
    ConvAnalysisTable,
    analyze_conv_packing,
    conv_offset_profile,
    merged_packing_stats,
)
from repro.core.packing.bsgs import plan_bsgs
from repro.core.packing.layouts import MultiplexedLayout

from reference import conv_analysis_bruteforce as brute
from reference.bsgs_loop import plan_bsgs_loop

C_IN, SIZE = 8, 8
#: 256 slots: the 8x8x8 input spans 2-4 ciphertexts (and so do most
#: outputs); 4096: everything is single-ciphertext and small outputs are
#: hybrid-eligible.
SLOT_COUNTS = (256, 4096)


def _geometries(kernel, groups_kind, gap):
    """(weight_shape, in_layout, stride, padding, dilation, groups) over
    stride x padding x dilation x slot count; empty outputs skipped."""
    groups, c_out = {"dense": (1, 16), "two": (2, 16), "depthwise": (C_IN, C_IN)}[groups_kind]
    for stride, pad, dil, slots in itertools.product((1, 2), (0, 1, 3), (1, 2), SLOT_COUNTS):
        if SIZE + 2 * pad - dil * (kernel - 1) - 1 < 0:
            continue
        yield (
            (c_out, C_IN // groups, kernel, kernel),
            MultiplexedLayout(C_IN, SIZE, SIZE, gap, slots),
            (stride, stride), (pad, pad), (dil, dil), groups,
        )


def _assert_matches_oracle(geometry):
    stats = analyze_conv_packing(*geometry)
    profile = conv_offset_profile(*geometry)
    ref_profile = brute.conv_offset_profile(*geometry)
    # Dataclass equality covers every field: rotations, pmults, ct
    # counts, num_unique_offsets, out_layout, _giants, num_folds, _offsets.
    assert stats == brute.analyze_conv_packing(*geometry), geometry
    assert profile == ref_profile, geometry  # keys, fold_shifts, num_in, num_out
    assert profile.stats() == stats, geometry
    return stats, profile, ref_profile


@pytest.mark.parametrize("gap", (1, 2, 4))
@pytest.mark.parametrize("groups_kind", ("dense", "two", "depthwise"))
@pytest.mark.parametrize("kernel", (1, 2, 3, 7))
def test_stats_and_profile_match_bruteforce(kernel, groups_kind, gap):
    cases = list(_geometries(kernel, groups_kind, gap))
    assert cases
    for geometry in cases:
        _, profile, ref_profile = _assert_matches_oracle(geometry)
        # The ResNet projection pattern: a 1x1 sibling of equal stride
        # over the same input, merged onto one stacked output.
        weight_shape, in_layout, stride, _, _, groups = geometry
        sibling = ((weight_shape[0], weight_shape[1], 1, 1), in_layout, stride,
                   (0, 0), (1, 1), groups)
        side = conv_offset_profile(*sibling)
        if side.fold_shifts != profile.fold_shifts or side.num_in != profile.num_in:
            continue
        assert merged_packing_stats([profile, side]) == brute.merged_packing_stats(
            [ref_profile, brute.conv_offset_profile(*sibling)]
        ), geometry


def test_grid_reaches_the_corner_cases():
    """The grid above is only an oracle if it exercises the branches:
    taps valid nowhere, several ciphertexts on either side, a hybrid pick."""
    dead_taps = multi_in = multi_out = hybrid = 0
    for kernel, kind, gap in itertools.product((1, 2, 3, 7), ("dense", "two", "depthwise"), (1, 2, 4)):
        for geometry in _geometries(kernel, kind, gap):
            weight_shape, in_layout, stride, padding, dilation, _ = geometry
            stats = analyze_conv_packing(*geometry)
            out = stats.out_layout
            reps = analysis._tap_positions(
                weight_shape[2], dilation[0], padding[0], stride[0], in_layout.height, out.height
            )
            dead_taps += bool((reps < 0).any())
            multi_in += in_layout.num_ciphertexts > 1
            multi_out += out.num_ciphertexts > 1
            hybrid += stats.num_folds > 0
    assert min(dead_taps, multi_in, multi_out, hybrid) > 0


@pytest.mark.parametrize("channels,size,kernel,gap", [(16, 8, 2, 1), (16, 4, 4, 2), (8, 8, 8, 1)])
def test_pool_shapes_match_bruteforce(channels, size, kernel, gap):
    """The depthwise ``(c, 1, k, k)`` convs the compiler emits for
    AvgPool2d / AdaptiveAvgPool2d (stride = kernel, no padding)."""
    for slots in SLOT_COUNTS:
        _assert_matches_oracle((
            (channels, 1, kernel, kernel),
            MultiplexedLayout(channels, size, size, gap, slots),
            (kernel, kernel), (0, 0), (1, 1), channels,
        ))


def test_paper_scale_geometry_matches_bruteforce():
    """One layer at the size the rewrite is for: ResNet-34's last stage
    shape at reduced width, 147 456 taps for 2 667 diagonals, where the
    bitmap (not ``np.unique``) de-duplicates."""
    geometry = ((128, 128, 3, 3), MultiplexedLayout(128, 7, 7, 32, 1 << 15), (1, 1), (1, 1), (1, 1), 1)
    stats, _, _ = _assert_matches_oracle(geometry)
    assert stats.pmults == 2667
    assert 8 * 9 * 128 * 128 >= stats.num_in_cts * stats.num_out_cts * (1 << 15)


def test_distinct_bitmap_and_sort_paths_agree():
    """Dense key spaces de-duplicate through a bitmap, sparse ones
    through ``np.unique``; the answer is the same sorted set."""
    rng = np.random.default_rng(3)
    chunks = [rng.integers(0, 500, size=(4, 25)) for _ in range(3)]
    expected = np.unique(np.concatenate([c.ravel() for c in chunks]))
    for space in (500, 8 * 300, 8 * 300 + 1, 10**6):  # bitmap, bitmap, sort, sort
        got = analysis._distinct(iter(chunks), count=300, space=space)
        assert np.array_equal(got, expected)


def test_table_builds_each_geometry_once(monkeypatch):
    built = []
    real = analysis.conv_diagonal_keys

    def counting(*geometry):
        built.append(geometry)
        return real(*geometry)

    monkeypatch.setattr(analysis, "conv_diagonal_keys", counting)
    table = ConvAnalysisTable()
    lay = MultiplexedLayout(8, 8, 8, 1, 256)
    first = table.lookup((8, 8, 3, 3), lay, padding=(1, 1))
    assert table.lookup((8, 8, 3, 3), lay, padding=[1, 1]) is first
    assert first.profile is first.profile
    table.lookup((8, 8, 3, 3), lay, padding=(1, 1), stride=(2, 2))
    assert len(built) == len(table) == 2
    assert first.stats == analyze_conv_packing((8, 8, 3, 3), lay, padding=(1, 1))
    assert len(built) == 3  # the free function keeps no table


def test_plan_bsgs_matches_the_per_candidate_loop():
    """Counting candidates in numpy picks the same (n1, babies, giants)
    as building a plan per candidate, ties included; ndarray, list and
    set inputs agree."""
    rng = np.random.default_rng(22)
    for trial in range(400):
        slots = int(rng.choice([8, 64, 1000, 4096, 1 << 15]))
        offsets = rng.integers(0, slots, size=int(rng.integers(0, 80)))
        if trial % 3 == 0:  # strided sets: many candidates tie
            offsets = offsets // 16 * 16
        if trial % 5 == 0:
            offsets = offsets - slots  # negative / wrapped inputs
        expected = plan_bsgs_loop(offsets.tolist(), slots)
        assert plan_bsgs(offsets, slots) == expected
        assert plan_bsgs(offsets.tolist(), slots) == expected
        assert plan_bsgs(set(offsets.tolist()), slots) == expected
