"""Operation ledger: counts and modeled latency for every FHE op.

Every backend charges its operations here.  Tests and benchmarks read
rotation counts, bootstrap counts and accumulated modeled latency from
the ledger; per-instruction and per-batch splits are the op deltas of
:mod:`repro.obs.tracing` spans bound to it (paper Table 4's conv-time
split is priced through ``PackingStats.cost`` instead).  Every key-switching
charge also records the switch's shape (:class:`KeySwitch`), which
export prices per digit grouping (:mod:`repro.serve.grouping`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import List


@dataclass(frozen=True)
class KeySwitch:
    """One key-switching operation, by shape.

    ``decompositions`` digit decompositions (one per input ciphertext)
    feed ``products`` key inner products (one per Galois element, or the
    relinearisation key), of which ``gathers`` are Galois-permuted;
    ``table_rows`` plaintext rows are contracted against the ``Q_l * P``
    accumulators before ``moddowns`` divisions by ``P``.
    """

    level: int
    decompositions: int = 1
    products: int = 1
    gathers: int = 0
    table_rows: int = 0
    moddowns: int = 1


class OpLedger:
    """Mutable accounting of homomorphic operation counts and latency."""

    def __init__(self):
        self.counts: Counter = Counter()
        #: every key switch charged, by shape, with its multiplicity
        self.key_switches: Counter = Counter()
        self.seconds: float = 0.0

    # -- charging ----------------------------------------------------------
    def charge(self, op: str, seconds: float, count: int = 1) -> None:
        self.counts[op] += count
        self.seconds += seconds

    # -- queries -------------------------------------------------------------
    @property
    def rotations(self) -> int:
        """Total ciphertext rotations (hoisted rotations count once each,
        matching how the paper reports '# Rots')."""
        return self.counts["hrot"] + self.counts["hrot_hoisted"]

    @property
    def bootstraps(self) -> int:
        return self.counts["bootstrap"]

    @property
    def multiplies(self) -> int:
        return self.counts["pmult"] + self.counts["hmult"]

    def reset(self) -> None:
        self.counts.clear()
        self.key_switches.clear()
        self.seconds = 0.0

    def __repr__(self) -> str:
        return (
            f"OpLedger(rots={self.rotations}, boots={self.bootstraps}, "
            f"pmult={self.counts['pmult']}, hmult={self.counts['hmult']}, "
            f"seconds={self.seconds:.3f})"
        )


@dataclass
class LatencyHistogram:
    """Log-bucketed latency histogram (serving telemetry).

    Buckets are powers of two of ``base``: bucket i counts observations
    in [base * 2^i, base * 2^(i+1)) (bucket 0 also takes everything
    below ``base``).  An observation at or past the last edge lands in
    no finite bucket, only in ``count`` — the Prometheus ``+Inf``
    bucket — so no edge ever claims it.  Cheap to merge and to read
    percentiles from — the shape production serving stacks track
    per-op and per-request latency with.
    """

    base: float = 1e-4
    buckets: List[int] = field(default_factory=lambda: [0] * 32)
    count: int = 0
    total: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds <= 0.0:
            index = 0
        else:
            index = int(max(0.0, math.log2(seconds / self.base)))
        if index < len(self.buckets):
            self.buckets[index] += 1

    def copy(self) -> "LatencyHistogram":
        return replace(self, buckets=list(self.buckets))

    def merge(self, other: "LatencyHistogram") -> None:
        if other.base != self.base or len(other.buckets) != len(self.buckets):
            raise ValueError("histogram shapes differ")
        self.count += other.count
        self.total += other.total
        for i, c in enumerate(other.buckets):
            self.buckets[i] += c

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket holding the q-quantile observation
        (``inf`` when it overflowed the last edge)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.buckets):
            seen += c
            if seen >= target:
                return self.base * (2.0 ** (i + 1))
        return math.inf
