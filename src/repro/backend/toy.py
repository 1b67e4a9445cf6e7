"""Exact backend: real RNS-CKKS on small rings behind the common interface.

Wraps :class:`repro.ckks.context.CkksContext`.  Ledger charges use the
same analytical cost model as the simulator so counts and modeled
latencies are comparable.  Its wall-clock and resident memory are what
``benchmarks/e2e`` measures (N up to 4096), so both matter here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.backend.costs import CostModel
from repro.backend.interface import FheBackend, ScaleLike
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.galois import galois_offset_key
from repro.ckks.params import CkksParameters
from repro.rns.poly import RnsPolynomial


class ToyBackend(FheBackend):
    """Exact CKKS execution for validation-scale programs."""

    def __init__(
        self,
        params: CkksParameters,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        real_bootstrap: bool = False,
    ):
        super().__init__(params, cost_model)
        self.context = CkksContext(params, seed=seed)
        self._bootstrapper = None
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

    # -- arithmetic --------------------------------------------------------
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.ledger.charge("hadd", self.costs.hadd(a.level))
        return self.context.add(a, b)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.ledger.charge("hadd", self.costs.hadd(a.level))
        return self.context.sub(a, b)

    def add_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        self.ledger.charge("padd", self.costs.hadd(a.level))
        return self.context.add_plain(a, p)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return self.context.negate(a)

    def mul_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        self.ledger.charge("pmult", self.costs.pmult(a.level))
        return self.context.mul_plain(a, p)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.ledger.charge("hmult", self.costs.hmult(a.level))
        return self.context.mul(a, b)

    def rescale(self, a: Ciphertext) -> Ciphertext:
        self.ledger.charge("rescale", self.costs.rescale(a.level))
        out = self.context.rescale(a)
        self._note_noise("rescale", a, out)
        return out

    def level_down(self, a: Ciphertext, target_level: int) -> Ciphertext:
        out = self.context.level_down(a, target_level)
        if target_level != a.level:
            self._note_noise("mod_down", a, out)
        return out

    def rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        steps %= self.slot_count
        if steps == 0:
            return a
        self.ledger.charge("hrot", self.costs.hrot(a.level))
        return self.context.rotate(a, steps)

    def _rotate_no_charge(self, a: Ciphertext, steps: int) -> Ciphertext:
        return self.context.rotate(a, steps)

    def _rotate_group_no_charge(self, a: Ciphertext, steps) -> dict:
        """Real hoisting: decompose c1 once, reuse it for every step."""
        return self.context.rotate_hoisted(a, steps)

    def conjugate(self, a: Ciphertext) -> Ciphertext:
        self.ledger.charge("hrot", self.costs.hrot(a.level))
        return self.context.conjugate(a)

    def _matvec_fused_no_charge(
        self,
        in_cts: Sequence[Ciphertext],
        terms: Dict,
        num_out: int,
        pt_scale: ScaleLike,
        pt_cache: Optional[Dict] = None,
        _max_chunk: Optional[int] = None,
    ) -> Optional[List[Optional[Ciphertext]]]:
        """Exact fused diagonal accumulation (true double hoisting).

        Every Galois offset of an input ciphertext — plain rotations
        *and* conjugation-composed ``("conj", k)`` elements — reuses one
        digit decomposition (:meth:`CkksContext.rotate_hoisted_raw`);
        the per-offset products against Q_l * P-lifted weight plaintexts
        are summed lazily in int64 (the chunked-reduction trick of
        ``CkksContext._ks_inner``) and a single ``_ks_moddown`` per output block
        replaces the per-rotation mod-downs of the unfused path.

        The per-term Python loop only *collects* terms; the arithmetic
        runs as grouped stacked product-sums per output block (rotated
        terms against their raw accumulators and transformed c0s, plain
        terms against the input c0/c1 pair), each one dispatch through
        the ``ks_inner`` kernel.  Modular sums are invariant under this
        regrouping, so outputs stay bit-identical to the per-term loop;
        ``_max_chunk`` forces the chunked int64 fallback for tests.
        """
        ctx = self.context
        level = in_cts[0].level
        scale = in_cts[0].scale
        for ct in in_cts:
            if ct.level != level:
                raise ValueError(f"level mismatch: {ct.level} vs {level}")
            if ct.scale != scale:
                raise ValueError(f"scale mismatch: {ct.scale} vs {scale}")
            if ct.c2 is not None:
                raise ValueError("relinearize before a matvec")
        basis = ctx.basis
        ks_chain = ctx._ks_chain(level)
        data_primes = ctx._data_chain(level)
        mod_ks = basis.moduli_column(ks_chain)
        mod_q = basis.moduli_column(data_primes)
        cache = {} if pt_cache is None else pt_cache
        pt_scale = Fraction(pt_scale)
        # Entries are keyed by term id + the full encode fingerprint, so
        # a shared/preloaded cache can never serve a stale encode to a
        # request entering at a different level, scale, or ks config.
        cache_fp = self.plaintext_cache_key(level, pt_scale)

        # One shared decomposition per input block, raw (pre mod-down).
        offsets_by_bi: Dict[int, set] = {}
        for (_, bi, off) in terms:
            if off:
                offsets_by_bi.setdefault(bi, set()).add(off)
        raw = {
            bi: ctx.rotate_hoisted_raw(in_cts[bi], offs, _max_chunk)
            for bi, offs in offsets_by_bi.items()
        }

        # Lazy int64 accumulation: `chunk` products fit between
        # reductions (entries stay < max_q after each `%` pass).
        chunk = kernels.lazy_reduction_chunk(max(ks_chain), _max_chunk)
        outputs: List[Optional[Ciphertext]] = []
        for bo in range(num_out):
            bo_terms = sorted(
                ((bi, off) for (bo2, bi, off), _ in terms.items() if bo2 == bo),
                key=lambda t: (t[0], galois_offset_key(t[1])),
            )
            if not bo_terms:
                outputs.append(None)
                continue
            # Collect terms into two groups; all arithmetic below runs
            # as stacked product-sums over the term axis.
            rot_pts: List[np.ndarray] = []
            rot_exts: List[np.ndarray] = []
            rot0s: List[np.ndarray] = []
            rot_accs: List[np.ndarray] = []
            plain_pts: List[np.ndarray] = []
            plain_c0s: List[np.ndarray] = []
            plain_c1s: List[np.ndarray] = []
            for bi, off in bo_terms:
                entry = cache.get((bo, bi, off, cache_fp))
                if entry is None:
                    pt = ctx.encode(terms[(bo, bi, off)], level=level, scale=pt_scale)
                    pt_ext = (
                        pt.poly.extend_primes(ks_chain).data if off else None
                    )
                    entry = (pt, pt_ext)
                    cache[(bo, bi, off, cache_fp)] = entry
                pt, pt_ext = entry
                if off:
                    rot0, acc = raw[bi][off]
                    rot_pts.append(pt.poly.data)
                    rot_exts.append(pt_ext)
                    rot0s.append(rot0.data)
                    rot_accs.append(acc)
                else:
                    plain_pts.append(pt.poly.data)
                    plain_c0s.append(in_cts[bi].c0.data)
                    plain_c1s.append(in_cts[bi].c1.data)
            if plain_pts:
                # One (2, T_plain, limbs, N) stack: c0 and c1 rows of
                # every off==0 input against the same weight stack.
                plain_acc = kernels.ks_inner(
                    np.stack(plain_pts),
                    np.stack([np.stack(plain_c0s), np.stack(plain_c1s)]),
                    mod_q,
                    chunk,
                )
            if rot_pts:
                acc_ext = kernels.ks_inner(
                    np.stack(rot_exts),
                    np.swapaxes(np.stack(rot_accs), 0, 1),
                    mod_ks,
                    chunk,
                )
                rot_c0 = kernels.ks_inner(
                    np.stack(rot_pts), np.stack(rot0s)[None], mod_q, chunk
                )[0]
                p0, p1 = ctx._ks_moddown(acc_ext, level)
                c0_data = rot_c0 + p0.data
                c1_data = p1.data
                if plain_pts:
                    c0_data = (c0_data + plain_acc[0]) % mod_q
                    c1_data = (c1_data + plain_acc[1]) % mod_q
                else:
                    c0_data %= mod_q
            else:
                c0_data, c1_data = plain_acc[0], plain_acc[1]
            outputs.append(
                Ciphertext(
                    c0=RnsPolynomial(basis, data_primes, c0_data, is_ntt=True),
                    c1=RnsPolynomial(basis, data_primes, c1_data, is_ntt=True),
                    level=level,
                    scale=scale * pt_scale,
                    slot_count=in_cts[0].slot_count,
                )
            )
        return outputs

    def _rotate_sum_no_charge(
        self, a: Ciphertext, steps: Sequence[int]
    ) -> Optional[Ciphertext]:
        """Exact fused rotate-and-sum (the Gazelle fold, double-hoisted).

        All rotations share one digit decomposition of ``a.c1`` via
        :meth:`CkksContext.rotate_hoisted_raw`; their raw Q_l * P
        accumulators are summed lazily in int64 and a single
        :meth:`CkksContext._ks_moddown` replaces the per-fold key
        switches of the sequential path.
        """
        ctx = self.context
        level = a.level
        raw = ctx.rotate_hoisted_raw(a, steps)
        ks_chain = ctx._ks_chain(level)
        data_primes = ctx._data_chain(level)
        mod_ks = ctx.basis.moduli_column(ks_chain)
        mod_q = ctx.basis.moduli_column(data_primes)
        # Entries stay < max prime (~2^31), so len(steps)+1 summands fit
        # int64 with > 2^31 headroom: one stacked sum per accumulator,
        # no intermediate reductions needed.
        pairs = [raw[step] for step in steps]
        acc_ext = np.sum(np.stack([acc for _, acc in pairs]), axis=0)
        c0_data = a.c0.data + np.sum(np.stack([rot0.data for rot0, _ in pairs]), axis=0)
        p0, p1 = ctx._ks_moddown(acc_ext % mod_ks, level)
        c0_data = (c0_data + p0.data) % mod_q
        c1_data = (a.c1.data + p1.data) % mod_q
        return Ciphertext(
            c0=RnsPolynomial(ctx.basis, data_primes, c0_data, is_ntt=True),
            c1=RnsPolynomial(ctx.basis, data_primes, c1_data, is_ntt=True),
            level=level,
            scale=a.scale,
            slot_count=a.slot_count,
        )

    def bootstrap(self, a: Ciphertext) -> Ciphertext:
        if self._bootstrapper is not None:
            out = self._bootstrapper.bootstrap(a)
        else:
            self.ledger.charge("bootstrap", self.costs.bootstrap())
            out = self.context.bootstrap(a)
        self._note_noise("bootstrap", a, out)
        return out
