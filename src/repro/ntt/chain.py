"""Limb-batched negacyclic NTT across a whole RNS prime chain.

:class:`NttChainEngine` runs the transform of
:class:`repro.ntt.transform.NttContext` on a whole ``(L, N)`` residue
matrix (or a ``(D, L, N)`` stack of digit matrices) at once, as Bailey's
four-step factorisation ``N = n1 * n2``: an ``n1``-point DFT with the psi
twist folded into its matrix, one elementwise twiddle multiply, and an
``n2``-point DFT.  Both DFTs are float64 matrix products, so BLAS does
the ``O(N sqrt N)`` multiply-adds and numpy only a fixed number of
``O(N)`` elementwise passes per transform.

Exactness is an invariant, checked per prime when the engine is built:
operands are kept centred, ``|x| <= q // 2 + 1``, and a table is split
into centred 15-bit slices until every partial sum of every product,
plus the reduction ``y - rint(y / q) * q`` after it, stays an integer
below ``2**53``.  A float64 sum of such integers is exact whatever the
summation order, FMA use or thread count, so the result is bit for bit
the one :class:`NttContext` computes.  ``docs/kernels.md`` ("Why two
matrix products") has the bounds and the measured shapes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.ntt.transform import NttContext

_EXACT = 1 << 53  # float64 holds every integer of magnitude <= 2^53
_SLICE_BITS = 15
_MAX_SLICES = 4
_CHUNK = 1 << 15  # elements per chunk of the leading dimensions


class _Steps(NamedTuple):
    """One direction's three factors over a band, each ``(K, s, ...)``:
    ``s`` centred slices whose ``2^(15 j)``-weighted sum is the table."""

    first: np.ndarray  # (K, s, a, a): DFT over the input's slow axis
    twiddle: np.ndarray  # (K, s, b, a): elementwise, stored transposed
    second: np.ndarray  # (K, s, b, b): DFT over the input's fast axis


class _Band(NamedTuple):
    """Consecutive chain rows whose primes share one slice count."""

    start: int
    q: np.ndarray  # (K, 1, 1) float64 moduli
    forward: _Steps
    inverse: _Steps

    def rows(self, chain: slice) -> "_Band":
        """The band restricted to a row slice: views, never copies."""
        return _Band(
            self.start + chain.start,
            self.q[chain],
            _Steps(*(t[chain] for t in self.forward)),
            _Steps(*(t[chain] for t in self.inverse)),
        )


def _gathers(n1: int, n2: int) -> List[Tuple[np.ndarray, np.ndarray, int]]:
    """``(index, sign, length)`` of the six factor tables, shared by every
    prime: entry ``psi^e`` is ``sign * psi^index`` with ``index = e mod N``
    (``psi^N = -1``), and ``length`` is how many terms a product with the
    table sums.  Forward ``(n1 x n1, n2 x n1, n2 x n2)``, inverse
    ``(n2 x n2, n1 x n2, n1 x n1)``; twiddles are stored transposed.

    Forward, input ``a[n2 i1 + i2]`` read as ``(n1, n2)``, output
    ``X[k1 + n1 k2]`` written as ``(n2, n1)``: ``X = sum_i a_i
    psi^(i (2k+1))`` splits into ``psi^(n2 i1 (2k1+1))`` (first),
    ``psi^(i2 (2k1+1))`` (twiddle) and ``psi^(2 n1 i2 k2)`` (second).  The
    inverse is the same product of the conjugate factors, in the other
    order, with ``1/N`` folded into its last matrix.
    """
    n = n1 * n2
    k1 = np.arange(n1, dtype=np.int64)[:, None]
    k2 = np.arange(n2, dtype=np.int64)[:, None]
    odd = 2 * k1 + 1
    exponents = [
        (n2 * odd * k1.T, n1),
        (k2 * odd.T, 1),
        (2 * n1 * k2 * k2.T, n2),
        (2 * n1 * k2 * k2.T, n2),
        (odd * k2.T, 1),
        (n2 * k1 * odd.T, n1),
    ]
    gathers = []
    for e, length in exponents:
        e = e % (2 * n)
        gathers.append((e % n, np.where(e >= n, -1, 1), length))
    return gathers


def _slices(table: np.ndarray, count: int) -> np.ndarray:
    """``count`` centred base-2^15 digits of a centred int64 table, low
    digit first; the top one keeps whatever is left."""
    if count == 1:
        return table[None]
    half = 1 << (_SLICE_BITS - 1)
    digits = []
    rest = table
    for _ in range(count - 1):
        low = ((rest + half) & ((1 << _SLICE_BITS) - 1)) - half
        digits.append(low)
        rest = (rest - low) >> _SLICE_BITS
    digits.append(rest)
    return np.stack(digits)


def _fits(slices: np.ndarray, length: int, bound: int) -> bool:
    """Whether a product of the slices with ``length``-long operands of
    magnitude ``<= bound`` stays exact through its Horner combination:
    the carried ``reduced * 2^15``, plus one slice's sum, plus the
    multiple of ``q <= 2 * bound`` the reduction subtracts, must stay
    within ``2**53`` (checked in Python ints)."""
    top = len(slices) - 1
    for j, digit in enumerate(slices):
        carry = 1 << _SLICE_BITS if j < top else 0
        if bound * (carry + length * int(np.abs(digit).max()) + 2) > _EXACT:
            return False
    return True


def _prime_tables(ctx: NttContext, gathers) -> Tuple[int, List[np.ndarray]]:
    """One prime's six centred factor tables (:func:`_gathers`), sliced
    into the fewest slices for which every product with them is exact."""
    q = ctx.q

    def centred(row):
        return row - q * (row > q // 2)

    fwd, inv = centred(ctx._twist), centred(ctx._twist_inv)
    inv_n = centred(ctx._twist_inv * ctx.n_inv % q)
    tables = [
        (row[index] * sign, length)
        for row, (index, sign, length) in zip((fwd, fwd, fwd, inv, inv, inv_n), gathers)
    ]
    bound = q // 2 + 1
    for count in range(1, _MAX_SLICES + 1):
        sliced = [_slices(t, count) for t, _ in tables]
        if all(_fits(s, length, bound) for s, (_, length) in zip(sliced, tables)):
            return count, sliced
    raise ValueError(
        f"prime {q} at N = {ctx.n}: no split into {_MAX_SLICES} or fewer "
        f"{_SLICE_BITS}-bit slices keeps the float64 transform below 2^53"
    )


class NttChainEngine:
    """Chain-level negacyclic NTT shared by all limbs of an RNS basis.

    Args:
        contexts: one :class:`NttContext` per prime, in chain order.
            The factor tables are gathered from their psi-power rows.

    Transforms accept arrays of shape ``(..., K, N)`` where ``K`` equals
    the number of selected rows and the transform runs along the last
    axis; any leading dimensions are batched for free (used to push all
    key-switch digits through the NTT in one call).  Results are fresh,
    C-contiguous and in natural order.
    """

    def __init__(self, contexts: Sequence[NttContext]):
        if not contexts:
            raise ValueError("need at least one NTT context")
        self.n = n = contexts[0].n
        if any(c.n != n for c in contexts):
            raise ValueError("all NTT contexts must share the ring degree")
        log_n = n.bit_length() - 1
        self._n1 = n1 = 1 << (log_n // 2)
        self._n2 = n2 = n // n1
        gathers = _gathers(n1, n2)
        per_prime = [_prime_tables(c, gathers) for c in contexts]
        self._bands: List[_Band] = []
        start = 0
        for pos in range(1, len(contexts) + 1):
            if pos == len(contexts) or per_prime[pos][0] != per_prime[start][0]:
                stack = [
                    np.stack([tables[t] for _, tables in per_prime[start:pos]]).astype(np.float64)
                    for t in range(6)
                ]
                q = np.array([float(c.q) for c in contexts[start:pos]])[:, None, None]
                self._bands.append(_Band(start, q, _Steps(*stack[:3]), _Steps(*stack[3:])))
                start = pos
        self._plans: Dict[Tuple[int, ...], List[Tuple[slice, _Band]]] = {}

    def _plan(self, rows: Sequence[int]) -> List[Tuple[slice, _Band]]:
        """``(limb-axis slice of the data, band rows)`` for each maximal
        run ``r, r+1, ...`` of ``rows`` inside one band.  A data chain is
        two runs (the wide first prime, the rest), a key-switch chain
        three (plus the special rows); descending or repeated rows
        degrade to one-row runs.  Row slices, so a sub-chain reads
        *views* of the one table set."""
        key = tuple(rows)
        plan = self._plans.get(key)
        if plan is None:
            plan = []
            start = 0
            for pos in range(1, len(key) + 1):
                band = self._band(key[start])
                if pos == len(key) or key[pos] != key[pos - 1] + 1 or self._band(key[pos]) is not band:
                    lo = key[start] - band.start
                    plan.append((slice(start, pos), band.rows(slice(lo, lo + pos - start))))
                    start = pos
            self._plans[key] = plan
        return plan

    def _band(self, row: int) -> _Band:
        return next(b for b in reversed(self._bands) if b.start <= row)

    def _transform(self, data: np.ndarray, rows: Sequence[int], inverse: bool) -> np.ndarray:
        """``out = second @ (reduce(first @ x) * twiddle)^T`` per limb,
        with the input read as an ``(a, b)`` matrix and the output
        written as ``(b, a)``: forward ``(a, b) = (n1, n2)``, inverse
        ``(n2, n1)``, so both leave natural order.  Leading dimensions
        run in chunks of about ``_CHUNK`` elements: a chunk's five or
        six float64 intermediates stay in cache, and a large batch (a
        weight table's rows) never holds them at full size."""
        a, b = (self._n2, self._n1) if inverse else (self._n1, self._n2)
        data = np.asarray(data)
        out = np.empty(data.shape, dtype=np.int64)
        if not data.size:
            return out
        k = data.shape[-2]
        rows_in = data.reshape(-1, k, self.n)
        outs = out.reshape(-1, k, b, a)
        step = max(1, _CHUNK // (k * self.n))
        buffer = np.empty((min(step, len(rows_in)), k, a, b))
        plan = self._plan(rows)
        for lo in range(0, len(rows_in), step):
            xs = buffer[: len(rows_in[lo : lo + step])]
            # The float copy materializes broadcast (stride-0) inputs too.
            np.copyto(xs.reshape(-1, k, self.n), rows_in[lo : lo + step])
            for limbs, band in plan:
                q = band.q
                steps = band.inverse if inverse else band.forward
                block = _reduce(xs[:, limbs], q)
                y = _combine(np.matmul(steps.first, block[:, :, None]), q)
                # Transposed here, so the second product's operand is
                # C-contiguous (BLAS takes a transposed one ~1.6x slower).
                y = _combine(y.swapaxes(-1, -2)[:, :, None] * steps.twiddle, q)
                y = np.matmul(steps.second, y[:, :, None])
                # The last reduction floors instead of rounding: [0, q).
                outs[lo : lo + step, limbs] = _combine(y, q, np.floor)
        return out

    def forward(self, data: np.ndarray, rows: Sequence[int]) -> np.ndarray:
        """Coefficient -> evaluation form for every selected limb.

        Args:
            data: int64 array of shape ``(..., len(rows), N)``.  Values
                may be any signed residues with ``|v| < 2^31``; the first
                reduction centres them.  Broadcast (stride-0) views are
                fine — the float64 copy materializes them.
            rows: indices into the engine's prime chain, one per limb
                row of ``data`` (repeats allowed).
        """
        return self._transform(data, rows, inverse=False)

    def inverse(self, data: np.ndarray, rows: Sequence[int]) -> np.ndarray:
        """Evaluation -> coefficient form; expects residues in [0, q)."""
        return self._transform(data, rows, inverse=True)


def _reduce(y: np.ndarray, q: np.ndarray, rounding=np.rint) -> np.ndarray:
    """``y - rint(y / q) * q`` in place, for integer ``|y| < 2^53``.  A
    true division is off by less than ``1/q`` there, so ``rint`` lands in
    ``|y| <= q // 2 + 1`` and ``floor`` exactly in ``[0, q)``."""
    t = np.divide(y, q)
    rounding(t, out=t)
    t *= q
    y -= t
    return y


def _combine(products: np.ndarray, q: np.ndarray, last=np.rint) -> np.ndarray:
    """Horner over the slice axis (``-3``) of the per-slice products:
    ``acc = reduce(acc) * 2^15 + products[j]`` from the top slice down,
    then one last reduction, rounding by ``last``; returns the reduced
    view."""
    acc = products[..., -1, :, :]
    for j in range(products.shape[-3] - 2, -1, -1):
        _reduce(acc, q)
        acc *= 1 << _SLICE_BITS
        acc += products[..., j, :, :]
    return _reduce(acc, q, last)
