"""Pieces every workload shares: correctness bookkeeping, the output
hash chain, and the run record a workload hands back to ``run.py``."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from stats import median, tail

#: Weights and calibration data never depend on ``--seed``: the seed
#: draws the *inputs* (images, key and encryption randomness), the
#: models are the program under test.  That keeps the exact metrics
#: (rotations, bootstraps, bytes) comparable across seeds.
MODEL_SEED = 0


def calibration_batches(shape, images: int):
    """``images`` draws from the input distribution, in batches of at
    most 64 (``OrionNetwork.fit`` takes up to 8 batches)."""
    rng = np.random.default_rng(MODEL_SEED)
    sizes = [64] * (images // 64) + ([images % 64] if images % 64 else [])
    return [rng.normal(0.0, 0.5, (size,) + tuple(shape)) for size in sizes]


def output_bits(output: np.ndarray, reference: np.ndarray) -> float:
    """Bits of agreement of one output with its cleartext reference, the
    figure the per-output floors apply to: ``OrionNetwork.precision_bits``
    (-log2 of the mean absolute error), measured against the output's
    own magnitude once that exceeds 1.  The x^2 networks turn an unlucky
    image into logits of mean magnitude 26 or more, and the absolute
    error grows with them: 1 input in 300 falls below 3.2 absolute bits
    while computing exactly as accurately as the rest."""
    error = float(np.mean(np.abs(output - reference)))
    magnitude = max(1.0, float(np.mean(np.abs(reference))))
    return float(-np.log2(max(error / magnitude, 1e-300)))


class OutputChecker:
    """Correctness before numbers: every output is compared with
    ``onet.forward_cleartext`` of its image and held to a floor."""

    def __init__(self, record: "RunRecord", onet, floor_bits: float):
        self.record, self.onet, self.floor_bits = record, onet, floor_bits
        self.outputs: List[np.ndarray] = []
        self.references: List[np.ndarray] = []

    def check(self, output: np.ndarray, image: np.ndarray, label: str, operation: bool = True) -> None:
        reference = self.onet.forward_cleartext(image)
        bits = output_bits(output, reference)
        self.record.check(
            bits >= self.floor_bits,
            f"{label}: {bits:.2f} bits < floor {self.floor_bits}",
            operation=operation,
        )
        self.outputs.append(output)
        self.references.append(reference)

    def pooled_bits(self) -> float:
        """``OrionNetwork.precision_bits`` over all outputs pooled: -log2 of
        the mean absolute error across every logit of every output."""
        error = np.mean(
            np.abs(np.concatenate(self.outputs, axis=None) - np.concatenate(self.references, axis=None))
        )
        return float(-np.log2(max(float(error), 1e-300)))

    def worst_bits(self) -> float:
        return min(output_bits(o, r) for o, r in zip(self.outputs, self.references))


class OutputChain:
    """sha256 chain over outputs: entry i covers outputs 0..i.

    Runs are time-boxed, so two same-seed runs may complete different
    numbers of operations; chains make them comparable anyway -- the
    shorter chain must be a prefix of the longer one.
    """

    def __init__(self):
        self._digest = hashlib.sha256()
        self.links: List[str] = []

    def add(self, data) -> None:
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data, dtype=np.float64).tobytes()
        self._digest.update(data)
        self.links.append(self._digest.hexdigest()[:16])


@dataclass
class RunRecord:
    """What one workload run reports (JSON-serialised by ``child.py``)."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: failed correctness or self-consistency checks, human-readable
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: raw timing samples (seconds) behind the reported medians
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: facts that are not metrics: counts used, tail percentile, backend
    info: Dict[str, object] = field(default_factory=dict)
    output_chain: List[str] = field(default_factory=list)

    def report_end_to_end(
        self, setup_s: float, latency_samples: List[float], goodput_per_s: float,
        rotations: float, modeled_latency: float,
    ) -> None:
        """Fill BENCHMARK.json's ``end_to_end`` metrics (the plain pass),
        and the tail that goes with the median."""
        tail_pct, tail_value = tail(latency_samples)
        self.samples["latency_s"] = latency_samples
        self.info.update(latency_ms_tail=tail_value * 1e3, tail_pct=tail_pct)
        self.metrics = {
            "setup_s": setup_s,
            "latency_ms_p50": median(latency_samples) * 1e3,
            "goodput_per_s": goodput_per_s,
            "peak_rss_mb": peak_rss_mb(),
            "rotations": rotations,
            "modeled_latency": modeled_latency,
        }

    def check(self, ok: bool, message: str, operation: bool = False) -> bool:
        """Record a failed check; ``operation`` failures (a wrong or
        refused inference) also count in ``failed``."""
        if not ok:
            self.problems.append(message)
            if operation:
                self.failed += 1
        return ok


def environment() -> Dict[str, object]:
    """What the pass ran on, the switches ``run.py`` pinned included."""
    from repro import kernels

    return {
        "kernel_backend": kernels.active_backend(),
        "kernel_backend_probed": kernels.registry.probe(),
        "pinned_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("REPRO_", "MALLOC_"))},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """This process's high-water resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
