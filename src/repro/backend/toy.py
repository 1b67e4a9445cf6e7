"""Exact backend: real RNS-CKKS on small rings behind the common interface.

Wraps :class:`repro.ckks.context.CkksContext` in the unbooked
primitives :class:`FheBackend` books, so counts and modeled latencies
are the simulator's.  Its wall-clock and resident memory are what
``benchmarks/e2e`` measures (N up to 4096), so both matter here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.backend.interface import FheBackend, ScaleLike
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.params import CkksParameters
from repro.rns.poly import RnsPolynomial


class ToyBackend(FheBackend):
    """Exact CKKS execution for validation-scale programs."""

    def __init__(
        self,
        params: CkksParameters,
        *,
        seed: int = 0,
        real_bootstrap: bool = False,
    ):
        super().__init__(params)
        self.context = CkksContext(params, seed=seed)
        if real_bootstrap:
            from repro.ckks.bootstrap import CkksBootstrapper

            self._bootstrapper = CkksBootstrapper(self)

    # -- data movement ---------------------------------------------------
    def encode(self, values: Sequence[float], level: int, scale: ScaleLike) -> Plaintext:
        return self.context.encode(values, level=level, scale=Fraction(scale))

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        return self.context.encrypt(plaintext)

    def decrypt(self, ciphertext: Ciphertext) -> np.ndarray:
        return self.context.decrypt_decode(ciphertext)

    def level_of(self, ciphertext: Ciphertext) -> int:
        return ciphertext.level

    def scale_of(self, ciphertext: Ciphertext) -> Fraction:
        return ciphertext.scale

    def encode_table(self, vectors, level: int, scale: ScaleLike) -> np.ndarray:
        return self.context.encode_table(vectors, level, scale)

    # -- unbooked primitives -------------------------------------------------
    def _add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.context.add(a, b)

    def _sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.context.sub(a, b)

    def _add_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        return self.context.add_plain(a, p)

    def _negate(self, a: Ciphertext) -> Ciphertext:
        return self.context.negate(a)

    def _mul_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        return self.context.mul_plain(a, p)

    def _mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.context.mul(a, b)

    def _rescale(self, a: Ciphertext) -> Ciphertext:
        return self.context.rescale(a)

    def _level_down(self, a: Ciphertext, target_level: int) -> Ciphertext:
        return self.context.level_down(a, target_level)

    def _rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        return self.context.rotate(a, steps)

    def _rotate_hoisted(self, a: Ciphertext, steps) -> dict:
        """Real hoisting: decompose c1 once, reuse it for every step."""
        return self.context.rotate_hoisted(a, steps)

    def _conjugate(self, a: Ciphertext) -> Ciphertext:
        return self.context.conjugate(a)

    def _bootstrap(self, a: Ciphertext) -> Ciphertext:
        return self.context.bootstrap(a)

    def _matvec_fused(
        self,
        in_cts: Sequence[Ciphertext],
        terms: Dict,
        num_out: int,
        pt_scale: ScaleLike,
        tables: Dict,
    ) -> List[Optional[Ciphertext]]:
        """Exact fused diagonal accumulation (true double hoisting).

        Every Galois offset of an input ciphertext — plain rotations
        *and* conjugation-composed ``("conj", k)`` elements — reuses one
        digit decomposition (:meth:`CkksContext.rotate_hoisted_slabs`)
        and a single ``_ks_moddown`` per output block replaces one
        mod-down per rotation.

        The weights of one ``(out block, in block)`` group are ONE
        static uint32 ``(T, ks_limbs, N)`` table
        (:meth:`CkksContext.encode_table`, one row per offset, in the
        order ``tables`` lists the group's offsets), held by the caller
        (a packed layer's, which :meth:`ServingArtifact.preload` fills
        with mmapped views).  Each hoisted
        slab is contracted in place, as it arrives, into the running
        sums of every output
        block that reads its offsets — the matching table rows against
        the raw Q_l * P accumulators, their data-limb prefix against the
        transformed c0s — and then dropped, so the working set is one
        slab whatever the layer's offset count; the trailing
        ``off == 0`` row meets the input itself.  Nothing is re-stacked,
        widened or copied per request.  Sums are lazy int64
        (``kernels.ks_inner``); modular sums are invariant under
        regrouping, so outputs are bit-identical to a per-term loop.
        """
        ctx = self.context
        level = in_cts[0].level
        scale = in_cts[0].scale
        if any(ct.c2 is not None for ct in in_cts):
            raise ValueError("relinearize before a matvec")
        basis = ctx.basis
        n = basis.ring_degree
        ks_chain = ctx._ks_chain(level)
        data_primes = ctx._data_chain(level)
        mod_ks = basis.moduli_column(ks_chain)
        mod_q = basis.moduli_column(data_primes)
        pt_scale = Fraction(pt_scale)

        # Per output block: `direct` over Q_l (the c0-side products and
        # the off == 0 terms), `acc_ext` over Q_l * P (what the one
        # mod-down divides).  Both sum reduced (< 2^31) partials lazily:
        # int64 holds 2^32 of them, far more than slabs times blocks.
        direct = {bo: np.zeros((2, level + 1, n), np.int64) for bo, _ in tables}
        acc_ext: Dict[int, np.ndarray] = {}
        chunk = kernels.lazy_reduction_chunk(max(ks_chain))
        for (bo, bi), (offsets, table) in tables.items():
            if offsets[-1] == 0:
                plain = table[-1, : level + 1]
                direct[bo][0] += plain * in_cts[bi].c0.data % mod_q
                direct[bo][1] += plain * in_cts[bi].c1.data % mod_q

        for bi in sorted({bi for _, bi in tables}):
            # Each output block reading this input: its rotated offsets,
            # its table and a cursor — the slab walk meets the offsets in
            # table-row order, so each slab is a run of every group's rows.
            readers = [
                [bo, offsets[: len(offsets) - (offsets[-1] == 0)], table, 0]
                for (bo, bi2), (offsets, table) in tables.items()
                if bi2 == bi
            ]
            hoisted = {off for _, offsets, _, _ in readers for off in offsets}
            for slab, rot0, acc in ctx.rotate_hoisted_slabs(in_cts[bi], hoisted):
                where = {off: i for i, off in enumerate(slab)}
                for reader in readers:
                    bo, offsets, table, lo = reader
                    hi = lo
                    while hi < len(offsets) and offsets[hi] in where:
                        hi += 1
                    if hi == lo:
                        continue
                    reader[3] = hi
                    r0, a = rot0, acc
                    if hi - lo != len(slab):
                        # This output reads a subset of the slab (its
                        # offsets are shared with other output blocks).
                        cols = [where[off] for off in offsets[lo:hi]]
                        r0, a = rot0.take(cols, axis=1), acc.take(cols, axis=2)
                    rows = table[lo:hi]
                    acc_ext[bo] = acc_ext.get(bo, 0) + kernels.ks_inner(
                        rows, a.swapaxes(1, 2), mod_ks, chunk
                    )
                    direct[bo][0] += kernels.ks_inner(
                        rows[:, : level + 1], r0.swapaxes(0, 1)[None], mod_q, chunk
                    )[0]
                # Drop the slab before the walk computes the next one.
                rot0 = acc = r0 = a = None
            for bo, offsets, _, done in readers:
                if done != len(offsets):
                    raise ValueError(
                        f"offset {offsets[done]!r} of block ({bo}, {bi}) is not "
                        "reduced mod the slot count"
                    )

        outputs: List[Optional[Ciphertext]] = []
        for bo in range(num_out):
            if bo not in direct:
                outputs.append(None)
                continue
            out = direct[bo]
            if bo in acc_ext:
                p0, p1 = ctx._ks_moddown(acc_ext.pop(bo) % mod_ks, level)
                out[0] += p0.data
                out[1] += p1.data
            out %= mod_q
            outputs.append(
                Ciphertext(
                    c0=RnsPolynomial(basis, data_primes, out[0], is_ntt=True),
                    c1=RnsPolynomial(basis, data_primes, out[1], is_ntt=True),
                    level=level,
                    scale=scale * pt_scale,
                    slot_count=in_cts[0].slot_count,
                )
            )
        return outputs

    def _rotate_sum(self, a: Ciphertext, steps: Sequence[int]) -> Ciphertext:
        """Exact fused rotate-and-sum (the Gazelle fold, double-hoisted).

        All rotations share one digit decomposition of ``a.c1`` via
        :meth:`CkksContext.rotate_hoisted_slabs`; each slab's raw
        Q_l * P accumulators and transformed c0s are summed lazily in
        int64 as it arrives, and a single :meth:`CkksContext._ks_moddown`
        replaces the per-fold key switches of the sequential path.
        """
        ctx = self.context
        level = a.level
        ks_chain = ctx._ks_chain(level)
        data_primes = ctx._data_chain(level)
        mod_ks = ctx.basis.moduli_column(ks_chain)
        mod_q = ctx.basis.moduli_column(data_primes)
        # Entries stay < max prime (~2^31), so len(steps)+1 summands fit
        # int64 with > 2^31 headroom: no intermediate reductions needed.
        acc_sum = 0
        c0_data = a.c0.data
        for _, rot0, acc in ctx.rotate_hoisted_slabs(a, steps):
            acc_sum = acc_sum + acc.sum(axis=2)
            c0_data = c0_data + rot0.sum(axis=1)
            del rot0, acc
        p0, p1 = ctx._ks_moddown(acc_sum % mod_ks, level)
        c0_data = (c0_data + p0.data) % mod_q
        c1_data = (a.c1.data + p1.data) % mod_q
        return Ciphertext(
            c0=RnsPolynomial(ctx.basis, data_primes, c0_data, is_ntt=True),
            c1=RnsPolynomial(ctx.basis, data_primes, c1_data, is_ntt=True),
            level=level,
            scale=a.scale,
            slot_count=a.slot_count,
        )
