"""Figures 3-5: convolutions as matrix-vector products.

- Figure 3/4: SISO and MIMO same-style convolutions are exactly the
  Toeplitz matvec evaluated by the diagonal method (+ BSGS).
- Figure 5: strided convolutions blow up the naive Toeplitz diagonal
  count (~c_i*h_i*w_i); single-shot multiplexing restores a dense
  output layout at one multiplicative level with ~f*c diagonals.
"""

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.packing import MultiplexedLayout, analyze_conv_packing, build_conv_packing
from repro.core.packing.analysis import analyze_toeplitz_strided_diagonals


def _conv_ref(x, w, stride, pad):
    return F.conv2d(
        Tensor(x[None]), Tensor(w), stride=(stride, stride), padding=(pad, pad)
    ).data[0]


def test_fig3_siso_equivalence(record_table, benchmark):
    rng = np.random.default_rng(0)
    lay = MultiplexedLayout(1, 8, 8, 1, 1024)
    w = rng.normal(size=(1, 1, 3, 3))
    x = rng.normal(size=(1, 8, 8))
    packed = build_conv_packing(w, None, lay, padding=(1, 1))
    got = packed.out_layout.unpack(packed.execute_cleartext(lay.pack(x)))
    err = np.abs(got - _conv_ref(x, w, 1, 1)).max()
    record_table(
        "fig3_siso",
        "Figure 3: SISO conv == Toeplitz diagonal matvec",
        ("diagonals", "rotations", "max error"),
        [(packed.stats.pmults, packed.stats.rotations, f"{err:.2e}")],
    )
    assert err < 1e-10
    assert packed.stats.pmults == 9  # one diagonal per filter tap
    benchmark.pedantic(
        lambda: build_conv_packing(w, None, lay, padding=(1, 1)), rounds=5, iterations=1
    )


def test_fig4_mimo_equivalence(record_table, benchmark):
    rng = np.random.default_rng(1)
    lay = MultiplexedLayout(2, 8, 8, 1, 1024)
    w = rng.normal(size=(2, 2, 3, 3))
    x = rng.normal(size=(2, 8, 8))
    packed = build_conv_packing(w, None, lay, padding=(1, 1))
    got = packed.out_layout.unpack(packed.execute_cleartext(lay.pack(x)))
    err = np.abs(got - _conv_ref(x, w, 1, 1)).max()
    record_table(
        "fig4_mimo",
        "Figure 4: MIMO conv == blocked Toeplitz matvec",
        ("diagonals", "rotations", "max error"),
        [(packed.stats.pmults, packed.stats.rotations, f"{err:.2e}")],
    )
    assert err < 1e-10
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fig5_strided_diagonal_blowup(record_table, benchmark):
    """Naive strided Toeplitz diagonals grow with image size; the
    single-shot multiplexed matrix stays filter-sized, at one level."""
    rows = []
    n = 1 << 15
    for size in (8, 16, 32):
        lay = MultiplexedLayout(4, size, size, 1, n)
        naive = analyze_toeplitz_strided_diagonals(lay, (2, 2), 2, c_out=4)
        multiplexed = analyze_conv_packing((4, 4, 2, 2), lay, stride=(2, 2))
        rows.append(
            (f"{size}x{size}", naive, multiplexed.pmults, multiplexed.rotations, 1)
        )
    record_table(
        "fig5_strided",
        "Figure 5: strided conv diagonals, naive Toeplitz vs single-shot multiplexed",
        ("input", "naive diagonals", "multiplexed diagonals", "rotations", "mult. depth"),
        rows,
    )
    # The blowup grows with image size; multiplexed count does not.
    assert rows[-1][1] > rows[0][1]
    assert rows[-1][2] <= rows[0][2]
    lay = MultiplexedLayout(4, 32, 32, 1, n)
    benchmark.pedantic(
        lambda: analyze_conv_packing((4, 4, 2, 2), lay, stride=(2, 2)),
        rounds=10, iterations=1,
    )


def test_fig5_multiplexed_correctness(record_table, benchmark):
    """The multiplexed strided conv computes the right answer with the
    dense gap-2 output layout (paper Fig. 5b)."""
    rng = np.random.default_rng(2)
    lay = MultiplexedLayout(1, 8, 8, 1, 1024)
    w = rng.normal(size=(4, 1, 2, 2))
    x = rng.normal(size=(1, 8, 8))
    packed = build_conv_packing(w, None, lay, stride=(2, 2))
    got = packed.out_layout.unpack(packed.execute_cleartext(lay.pack(x)))
    err = np.abs(got - _conv_ref(x, w, 2, 0)).max()
    assert err < 1e-10
    assert packed.out_layout.gap == 2
    record_table(
        "fig5_correctness",
        "Figure 5b: single-shot multiplexed strided conv correctness",
        ("output gap", "max error"),
        [(packed.out_layout.gap, f"{err:.2e}")],
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


