"""Figure 2: the BSGS algorithm's rotation savings.

For a dense n x n matrix the plain diagonal method needs n-1 rotations;
BSGS needs n1 + n2 - 2 with n1*n2 = n (paper Section 3.2).  Verified
functionally: the packed matvec with BSGS gives the same product.
"""

import numpy as np

from repro.core.packing import VectorLayout, build_linear_packing
from repro.core.packing.bsgs import plan_bsgs_square_matrix


def test_fig2_rotation_counts(record_table, benchmark):
    rows = []
    for log_n in range(4, 13):
        n = 1 << log_n
        plain, bsgs = plan_bsgs_square_matrix(n)
        rows.append((n, plain, bsgs, f"{plain / bsgs:.1f}x"))
    record_table(
        "fig2_bsgs",
        "Figure 2: rotations for dense n x n matvec, diagonal vs BSGS",
        ("n", "diagonal method", "BSGS", "reduction"),
        rows,
    )
    plain, bsgs = plan_bsgs_square_matrix(4096)
    assert bsgs < 130  # ~2*sqrt(n)
    benchmark.pedantic(lambda: plan_bsgs_square_matrix(1 << 12), rounds=50, iterations=10)


def test_fig2_functional_equivalence(record_table, benchmark):
    """BSGS evaluation equals the dense product (paper Fig. 2b)."""
    rng = np.random.default_rng(0)
    n = 256
    slots = 1024
    matrix = rng.normal(size=(n, n))
    layout = VectorLayout(n, slots)
    packed = build_linear_packing(matrix, None, layout, force_mode=None)
    x = rng.normal(size=n)
    got = packed.out_layout.unpack(packed.execute_cleartext(layout.pack(x)))
    assert np.allclose(got, matrix @ x)
    record_table(
        "fig2_equivalence",
        "Figure 2 functional check: BSGS matvec == dense product",
        ("n", "max error", "rotations"),
        [(n, f"{np.abs(got - matrix @ x).max():.2e}", packed.stats.rotations)],
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


