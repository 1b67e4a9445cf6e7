"""RNS basis: a chain of NTT-friendly primes with shared tables.

Besides the per-prime :class:`NttContext` tables, the basis owns one
:class:`NttChainEngine` that transforms whole ``(L, N)`` residue
matrices in a single vectorized pass (``forward_chain``/``inverse_chain``),
plus caches for the ``(L, 1)`` moduli columns and modular-inverse
columns that every pointwise ring operation broadcasts against.  The
exact big-integer CRT stays available for validation; the hot paths
(:meth:`convert_residues`) never leave int64.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.ntt import NttChainEngine, NttContext
from repro.utils.intmath import mod_inverse

_INT64_MAX = 2**63 - 1

class RnsBasis:
    """A fixed ordered chain of primes ``(q_0, ..., q_L[, p_special...])``.

    The basis owns one :class:`NttContext` per prime and the precomputed
    CRT constants needed for exact reconstruction.  Polynomials refer to
    a *prefix* of the chain via their limb count — dropping limbs is how
    levels are consumed (paper Section 2.4).

    Args:
        primes: the full modulus chain, data primes first, any special
            (key-switching) primes last.
        ring_degree: polynomial ring degree N (power of two).
        num_special: how many trailing primes are key-switching primes
            that never hold message data.
    """

    def __init__(self, primes: Sequence[int], ring_degree: int, num_special: int = 0):
        if len(set(primes)) != len(primes):
            raise ValueError("primes in an RNS basis must be distinct")
        if num_special >= len(primes):
            raise ValueError("need at least one data prime")
        self.primes: Tuple[int, ...] = tuple(int(q) for q in primes)
        self.ring_degree = ring_degree
        self.num_special = num_special
        self.ntts: Dict[int, NttContext] = {
            q: NttContext(q, ring_degree) for q in self.primes
        }
        self.engine = NttChainEngine([self.ntts[q] for q in self.primes])
        self._prime_index: Dict[int, int] = {q: i for i, q in enumerate(self.primes)}
        self._inv_cache: Dict[Tuple[int, int], int] = {}
        self._rows_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._mod_col_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        self._inv_col_cache: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
        self._convert_cache: Dict[Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]], tuple] = {}

    # -- structure -----------------------------------------------------
    @property
    def num_data_primes(self) -> int:
        return len(self.primes) - self.num_special

    @property
    def special_primes(self) -> Tuple[int, ...]:
        if self.num_special == 0:
            return ()
        return self.primes[-self.num_special:]

    def data_primes(self, num_limbs: int) -> Tuple[int, ...]:
        """The first ``num_limbs`` data primes."""
        if num_limbs > self.num_data_primes:
            raise ValueError("requested more limbs than data primes")
        return self.primes[:num_limbs]

    def key_switch_primes(self, num_limbs: int) -> Tuple[int, ...]:
        """The Q_l * P chain of a key switch over ``num_limbs`` data
        limbs: those data primes, then the special primes."""
        return self.data_primes(num_limbs) + self.special_primes

    def modulus(self, num_limbs: int) -> int:
        """Q_l = product of the first ``num_limbs`` data primes."""
        q = 1
        for prime in self.data_primes(num_limbs):
            q *= prime
        return q

    def special_modulus(self) -> int:
        p = 1
        for prime in self.special_primes:
            p *= prime
        return p

    def inverse(self, value: int, prime: int) -> int:
        """Cached modular inverse of ``value`` modulo ``prime``."""
        key = (value % prime, prime)
        if key not in self._inv_cache:
            self._inv_cache[key] = mod_inverse(value % prime, prime)
        return self._inv_cache[key]

    # -- broadcast-column caches ---------------------------------------
    def moduli_column(self, primes: Sequence[int]) -> np.ndarray:
        """Cached ``(L, 1)`` int64 column of the given prime chain."""
        key = tuple(primes)
        col = self._mod_col_cache.get(key)
        if col is None:
            col = np.array(key, dtype=np.int64)[:, None]
            col.setflags(write=False)
            self._mod_col_cache[key] = col
        return col

    def inverse_column(self, value: int, primes: Sequence[int]) -> np.ndarray:
        """Cached ``(L, 1)`` column of ``value^-1 mod q`` per prime."""
        key = (value, tuple(primes))
        col = self._inv_col_cache.get(key)
        if col is None:
            col = np.array(
                [self.inverse(value, q) for q in key[1]], dtype=np.int64
            )[:, None]
            col.setflags(write=False)
            self._inv_col_cache[key] = col
        return col

    # -- chain-level NTT ------------------------------------------------
    def chain_rows(self, primes: Sequence[int]) -> Tuple[int, ...]:
        """Engine row indices for a sub-chain of this basis (cached)."""
        key = tuple(primes)
        rows = self._rows_cache.get(key)
        if rows is None:
            rows = tuple(self._prime_index[q] for q in key)
            self._rows_cache[key] = rows
        return rows

    def forward_chain(self, data: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """Batched coefficient -> NTT transform of all limb rows at once.

        ``data`` has shape ``(..., len(primes), N)``; leading dimensions
        (e.g. key-switch digits) are transformed in the same pass.
        """
        return self.engine.forward(data, self.chain_rows(primes))

    def inverse_chain(self, data: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """Batched NTT -> coefficient transform of all limb rows at once."""
        return self.engine.inverse(data, self.chain_rows(primes))

    # -- divide-and-round (rescale / mod-down core) ---------------------
    def divide_round_last(
        self, data: np.ndarray, primes: Sequence[int], is_ntt: bool, count: int = 1
    ) -> np.ndarray:
        """Drop the last ``count`` limbs, dividing by their product with
        exact rounding — in one pass, whatever ``count``.

        With ``P`` the product of the dropped primes, computes
        ``round(x / P)`` limb-wise on a ``(..., L, N)`` residue tensor:
        ``(x_i - r) * P^{-1} mod q_i`` where ``r`` is the centered
        residue of ``x`` mod ``P``.  A single dropped limb lifts ``r`` by
        a centered broadcast; several go through the int64
        :meth:`convert_residues`, which yields the same centered value.
        Evaluation-form input stays in evaluation form: only the dropped
        limbs are inverse-transformed and the lift re-transformed onto
        the remaining limbs in one batched pass.  Leading dimensions
        (e.g. the (c0, c1) pair of a ciphertext) ride along for free.

        Dividing by the primes one at a time gives the same result bit
        for bit (``tests/reference/moddown_loop.py`` states why and the
        tests hold the two equal).
        """
        primes = tuple(primes)
        if not 1 <= count < len(primes):
            raise ValueError("need at least one limb left after dividing")
        dropped = primes[-count:]
        remaining = primes[:-count]
        mod_col = self.moduli_column(remaining)
        divisor = 1
        for q in dropped:
            divisor *= q
        inv_col = self.inverse_column(divisor, remaining)
        tail = data[..., -count:, :]
        if is_ntt:
            tail = self.inverse_chain(tail, dropped)
        if count == 1:
            half = divisor // 2
            lift = np.where(tail > half, tail - divisor, tail)
            shape = data.shape[:-2] + (len(remaining), data.shape[-1])
            lift = np.broadcast_to(lift, shape) if is_ntt else lift % mod_col
        else:
            lift = self.convert_residues(tail, dropped, remaining)
        if is_ntt:
            lift = self.forward_chain(lift, remaining)
        return ((data[..., :-count, :] - lift) * inv_col) % mod_col

    # -- fast RNS basis conversion --------------------------------------
    def _convert_tables(self, groups: Tuple[Tuple[int, ...], ...], dst: Tuple[int, ...]):
        """Constants converting each source group to ``dst``, padded to
        the widest group: a pad row has prime 1 and zero weights, so it
        adds nothing to a sum."""
        key = (groups, dst)
        tables = self._convert_cache.get(key)
        if tables is None:
            width = max(len(src) for src in groups)
            # v_i = |x * (Q/q_i)^{-1}|_{q_i}; then
            # x = sum_i v_i * (Q/q_i) - alpha * Q with alpha = round(sum v_i/q_i).
            inv_qhat = np.zeros((len(groups), width, 1), dtype=np.int64)
            src_col = np.ones((len(groups), width, 1), dtype=np.int64)
            qhat_mod = np.zeros((len(groups), len(dst), width), dtype=np.int64)
            q_mod = np.empty((len(groups), len(dst), 1), dtype=np.int64)
            shared = []
            for g, src in enumerate(groups):
                q_total = 1
                for p in src:
                    q_total *= p
                for s, p in enumerate(src):
                    inv_qhat[g, s] = self.inverse(q_total // p, p)
                    src_col[g, s] = p
                    qhat_mod[g, :, s] = [(q_total // p) % d for d in dst]
                    if p in dst:
                        shared.append((g, dst.index(p), s))
                q_mod[g, :, 0] = [q_total % d for d in dst]
            # One lazy product-sum needs width products of residues to
            # fit int64 before the single reduction.
            largest = max(max(src) for src in groups)
            lazy = width * (largest - 1) * (max(dst) - 1) <= _INT64_MAX
            tables = (inv_qhat, src_col, qhat_mod, q_mod, self.moduli_column(dst), shared, lazy)
            self._convert_cache[key] = tables
        return tables

    def _convert_groups(
        self, limbs: np.ndarray, groups: Tuple[Tuple[int, ...], ...], dst: Tuple[int, ...]
    ) -> np.ndarray:
        """``(..., G, W, N)`` residues of ``G`` source groups (zero rows
        padding short groups) -> ``(..., G, len(dst), N)``, each group's
        centered value over ``dst``."""
        inv_qhat, src_col, qhat_mod, q_mod, dst_col, shared, lazy = self._convert_tables(
            groups, dst
        )
        v = (limbs * inv_qhat) % src_col
        alpha = np.rint((v / src_col).sum(axis=-2, keepdims=True)).astype(np.int64)
        if lazy:
            out = np.einsum("gds,...gsn->...gdn", qhat_mod, v)
        else:
            out = np.zeros(v.shape[:-2] + (len(dst), v.shape[-1]), dtype=np.int64)
            for s in range(v.shape[-2]):
                out += qhat_mod[:, :, s, None] * v[..., s, None, :] % dst_col
        out -= alpha * q_mod
        out %= dst_col
        # Shared primes carry over verbatim (Q = 0 mod q_i for q_i | Q).
        for g, j, s in shared:
            out[..., g, j, :] = limbs[..., g, s, :]
        return out

    def convert_residues(
        self, limbs: np.ndarray, src_primes: Sequence[int], dst_primes: Sequence[int]
    ) -> np.ndarray:
        """Fast int64 RNS basis conversion (HPS-style, no big integers).

        Converts residues of the *centered* value represented by
        ``limbs`` (``(..., len(src_primes), N)``) over ``src_primes``
        into residues over ``dst_primes``: one product-sum over the
        source limbs and one reduction, or a reduction per source limb
        where the lazy sum could overflow int64 (primes near 2^31).
        The overflow count alpha is recovered with a float64 sum of
        ``v_i / q_i``, which is exact unless the centered value lies
        within ~2^-48 of +-Q/2 — far outside anything the evaluator
        produces.  Use :meth:`crt_reconstruct` when bit-exactness at the
        extreme boundary matters more than speed.
        """
        groups = (tuple(src_primes),)
        return self._convert_groups(limbs[..., None, :, :], groups, tuple(dst_primes))[
            ..., 0, :, :
        ]

    def decompose_digits(
        self,
        rows: np.ndarray,
        src_primes: Sequence[int],
        dst_primes: Sequence[int],
        alpha: int,
    ) -> np.ndarray:
        """Group coefficient-form limbs into key-switch digits over ``dst``.

        ``rows`` holds the residues of one polynomial over ``src_primes``
        (shape ``(len(src_primes), N)``).  Limbs are grouped ``alpha`` at
        a time; each group's centered CRT value is re-expressed over
        ``dst_primes`` (the Q_l * P key-switch chain) — every group in
        one :meth:`convert_residues`-style pass, a short last group
        padded with zero rows.  Exact except for values within ~2^-48 of
        the +-Q_group/2 boundary — the same guarantee every other basis
        extension on the hot path accepts (use :meth:`crt_reconstruct`
        for boundary-exact validation).

        Returns an int64 ``(ceil(len(src)/alpha), len(dst), N)`` tensor
        in coefficient form, ready for one batched forward NTT.
        """
        src = tuple(src_primes)
        groups = tuple(src[lo : lo + alpha] for lo in range(0, len(src), alpha))
        width = len(groups[0])
        padded = rows
        if len(groups) * width != len(src):
            padded = np.zeros((len(groups) * width, rows.shape[-1]), dtype=np.int64)
            padded[: len(src)] = rows
        return self._convert_groups(
            padded.reshape(len(groups), width, rows.shape[-1]), groups, tuple(dst_primes)
        )

    # -- CRT -----------------------------------------------------------
    def crt_reconstruct(self, limbs: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """Exact CRT: residue matrix -> centered big integers.

        Args:
            limbs: array of shape (len(primes), N).
            primes: the moduli corresponding to each row.

        Returns:
            object-dtype array of Python ints in (-Q/2, Q/2].
        """
        primes = list(primes)
        q_total = 1
        for p in primes:
            q_total *= p
        acc = np.zeros(limbs.shape[1], dtype=object)
        for row, p in zip(limbs, primes):
            q_hat = q_total // p
            coeff = (q_hat * self.inverse(q_hat, p)) % q_total
            acc = acc + row.astype(object) * coeff
        acc = acc % q_total
        half = q_total // 2
        return np.where(acc > half, acc - q_total, acc)

    def reduce_bigints(self, values: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """Reduce an object array of big ints into residue rows."""
        rows = [np.mod(values, p).astype(np.int64) for p in primes]
        return np.stack(rows)
