"""OrionNetwork: the fit / compile / encrypted-inference pipeline.

Mirrors the paper's user workflow (Section 6): train the network with
normal scripts, call ``fit`` with (a sample of) the training data for
range estimation, ``compile`` once per parameter set, then run
encrypted inferences on any backend and validate against the cleartext
forward pass.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.backend.costs import CostModel
from repro.ckks.params import CkksParameters
from repro.core.compiler import CompiledNetwork, OrionCompiler


class OrionNetwork:
    """Wraps an orion module with the compile/run lifecycle."""

    def __init__(self, module, input_shape: Tuple[int, int, int]):
        self.module = module
        self.input_shape = tuple(input_shape)
        self._calibration: Optional[List[np.ndarray]] = None

    # -- paper API ---------------------------------------------------------
    def fit(self, batches: Iterable[np.ndarray], max_batches: int = 8) -> None:
        """Record calibration data for range estimation (net.fit())."""
        collected = []
        for index, batch in enumerate(batches):
            if index >= max_batches:
                break
            if isinstance(batch, tuple):
                batch = batch[0]
            collected.append(np.asarray(batch))
        if not collected:
            raise ValueError("fit() needs at least one calibration batch")
        self._calibration = collected

    def compile(
        self,
        params: CkksParameters,
        cost_model: Optional[CostModel] = None,
        mode: str = "materialize",
        entry_level: Optional[int] = None,
        optimize: Optional[bool] = None,
    ) -> CompiledNetwork:
        compiler = OrionCompiler(params, cost_model, mode=mode, optimize=optimize)
        return compiler.compile(
            self.module,
            self.input_shape,
            calibration_batches=self._calibration,
            entry_level=entry_level,
        )

    # -- serving (docs/serving.md) -------------------------------------------
    def export(
        self,
        path: str,
        params: CkksParameters,
        cost_model: Optional[CostModel] = None,
        entry_level: Optional[int] = None,
        optimize: Optional[bool] = None,
    ):
        """Compile once and write a serving artifact to ``path``.

        Returns the :class:`repro.serve.artifact.ServingArtifact`.  This
        is the *offline* half of compile-once/serve-many: workers then
        ``repro.serve.ArtifactMap(path).load()`` and serve without ever
        touching the compiler or the planner.
        """
        compiled = self.compile(
            params, cost_model, entry_level=entry_level, optimize=optimize
        )
        return compiled.export(path, params)

    def serve(
        self,
        params: CkksParameters,
        backend=None,
        cost_model: Optional[CostModel] = None,
        **server_kwargs,
    ):
        """Compile in-process and stand up an :class:`InferenceServer`.

        Convenience for single-process deployments and notebooks; the
        production path is :meth:`export` +
        ``repro.serve.ArtifactMap(path).load()`` on each worker.  Both
        build the same artifact, so the default backend is built from
        its key manifest's parameters — the digit grouping export chose
        — and the server generates its rotation keys exactly as a
        worker's lane would.
        """
        from repro.backend.toy import ToyBackend
        from repro.serve.artifact import build_artifact
        from repro.serve.runtime import InferenceServer

        artifact = build_artifact(self.compile(params, cost_model), params)
        if backend is None:
            backend = ToyBackend(artifact.manifest.to_params())
        return InferenceServer(artifact, backend, **server_kwargs)

    # -- cleartext reference -------------------------------------------------
    def forward_cleartext(self, images: np.ndarray) -> np.ndarray:
        """Exact (non-polynomial) forward pass for validation."""
        self.module.eval()
        batched = images if images.ndim == 4 else images[None]
        with no_grad():
            out = self.module(Tensor(batched))
        result = out.data
        return result if images.ndim == 4 else result[0]

    @staticmethod
    def precision_bits(fhe_output: np.ndarray, clear_output: np.ndarray) -> float:
        """Mean output precision -log2(mean |difference|) (Section 7)."""
        eps = float(np.mean(np.abs(fhe_output - clear_output)))
        return float(-np.log2(max(eps, 1e-300)))
