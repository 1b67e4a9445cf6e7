"""Offline half of ``serve_mlp_pool``: compile and export the artifact
in a process of its own, so the serving process never runs the compiler
(``compilations_since_load == 0`` is asserted there) and never inherits
the kernel thread pool a compile would have started.

Prints one JSON line: the compile summary and how long each step took.
"""

import json
import sys
import time


def build_network():
    """The served model; the serving process rebuilds it (same init
    seed, no compile) for its cleartext reference."""
    from common import MODEL_SEED, calibration_batches
    from repro.models import SecureMlp
    from repro.nn import init
    from repro.orion import OrionNetwork

    init.seed_init(MODEL_SEED)
    onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    onet.fit(calibration_batches((1, 8, 8), images=8))
    return onet


def serve_parameters():
    from repro.ckks.params import toy_parameters

    return toy_parameters(ring_degree=2048, max_level=6, boot_levels=1, scale_bits=24)


def main(path: str) -> None:
    import checkout

    checkout.use_src()
    onet = build_network()
    params = serve_parameters()
    start = time.perf_counter()
    compiled = onet.compile(params)
    compile_s = time.perf_counter() - start
    compiled.export(path, params)
    export_s = time.perf_counter() - start - compile_s
    summary = {k: compiled.summary()[k] for k in ("rotations", "bootstraps", "depth", "modeled_seconds")}
    print(json.dumps({"summary": summary, "compile_s": compile_s, "export_s": export_s,
                      "instructions": len(compiled.program.instructions)}))


if __name__ == "__main__":
    main(sys.argv[1])
