"""Future-work extension: encrypted self-attention cost and precision.

Not a paper table — the paper's conclusion names self-attention as the
next layer type Orion should support.  This bench characterizes our
implementation (repro.core.attention): precision against the true
softmax and operation counts as the sequence length grows.
"""

import math

import numpy as np

from repro.backend.sim import SimBackend
from repro.ckks.params import paper_parameters
from repro.core.attention import EncryptedAttention

PARAMS = paper_parameters(max_level=24)


def _run(seq_len: int, dim: int, seed: int = 0):
    backend = SimBackend(PARAMS, seed=seed)
    rng = np.random.default_rng(seed)
    tokens = rng.uniform(-0.5, 0.5, (seq_len, dim))
    wq, wk, wv = (rng.normal(size=(dim, dim)) / math.sqrt(dim) for _ in range(3))
    attn = EncryptedAttention(backend, wq, wk, wv)
    cts = [backend.encode_encrypt(t, level=PARAMS.max_level) for t in tokens]
    outs = attn(cts)
    got = np.stack([backend.decrypt(o)[:dim] for o in outs])
    err = np.abs(got - attn.reference(tokens)).mean()
    counts = backend.ledger.counts
    return {
        "bits": -math.log2(err),
        "rots": backend.ledger.rotations,
        "hmults": counts["hmult"],
        "modeled": backend.ledger.seconds,
        "levels": PARAMS.max_level - backend.level_of(outs[0]),
    }


def test_attention_scaling(record_table, benchmark):
    dim = 16
    rows = []
    stats = {}
    for seq_len in (2, 4, 8):
        s = _run(seq_len, dim)
        stats[seq_len] = s
        rows.append(
            (
                seq_len,
                dim,
                f"{s['bits']:.1f}",
                s["levels"],
                s["rots"],
                s["hmults"],
                f"{s['modeled']:.0f}",
            )
        )
    record_table(
        "attention_scaling",
        "Encrypted self-attention (future-work layer): precision and cost vs sequence length",
        ("tokens", "dim", "precision (b)", "levels", "rots", "hmults", "modeled (s)"),
        rows,
    )
    # Precision stays usable at every length; cost grows ~quadratically
    # (T^2 score inner products dominate).
    assert all(s["bits"] > 8.0 for s in stats.values())
    assert stats[8]["hmults"] > 3 * stats[2]["hmults"]
    benchmark.pedantic(lambda: _run(2, 8), rounds=1, iterations=1)
