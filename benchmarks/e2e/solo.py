"""``mlp_solo`` and ``resnet8_solo``: one network, one key domain, one
caller in a closed loop.

Set-up walks the whole deployment path in-process -- compile, export,
``ArtifactMap(path).load()``, ``ToyBackend``, rotation keys from the
artifact's ``KeyManifest``, ``artifact.preload``, a cold run and one
more -- then warm inferences (encrypt -> execute -> decrypt) are timed until the
clock runs out, each output checked against ``forward_cleartext``.

The two stress different layers of the same stack.  ``mlp_solo`` is two
big BSGS matvecs: ``LinearInstr`` (``core.packing`` plus the hoisted
key-switch path of ``ckks``) is ~85% of an inference.  ``resnet8_solo`` is
~86% ``PolyInstr`` -- ``core.approx`` evaluation, i.e. ct x ct multiply,
relinearise, rescale, plus six placed bootstraps -- so a matvec
optimisation should barely move it.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from common import MODEL_SEED, OutputChain, OutputChecker, RunRecord, calibration_batches
from probes import ckks_op_table, compiler_layers, summary_counts, timed
from stats import median


def _mlp():
    from repro.models import SecureMlp

    return SecureMlp(input_pixels=784, hidden=128)


def _resnet8():
    from repro.models import resnet_cifar, silu_act

    return resnet_cifar(8, act=silu_act(31), width=4)


SOLO = {
    "mlp_solo": {
        "build": _mlp,
        "shape": (1, 28, 28),
        "params": dict(ring_degree=4096, max_level=6, boot_levels=1, scale_bits=24),
        "calibration_images": 8,
        "floor_bits": 3.0,
    },
    "resnet8_solo": {
        "build": _resnet8,
        "shape": (3, 8, 8),
        "params": dict(ring_degree=2048, max_level=12, boot_levels=3, scale_bits=24),
        # Fitted on 8 images, ~1% of fresh inputs push some SiLU input past
        # its calibrated range and decrypt to garbage; on 512, none of 4000
        # did.  The wider ranges cost ~1 bit: outputs sit at 8.3 bits (6.9
        # at worst in 80), so the floor is 6.0 where 8.0 was asked for.
        "calibration_images": 512,
        "floor_bits": 6.0,
    },
}

INSTRUCTION_KINDS = ("linear", "poly", "square", "join", "other")

#: Traced inferences may leave at most this share of their time
#: unattributed to an instruction, encrypt or decrypt span.
MAX_RESIDUAL_SHARE = 0.05


def _instruction_kind(instr) -> str:
    from repro.core.program import (
        AddJoinInstr,
        LinearInstr,
        MultJoinInstr,
        PolyInstr,
        SquareInstr,
    )

    if isinstance(instr, LinearInstr):
        return "linear"
    if isinstance(instr, PolyInstr):
        return "poly"
    if isinstance(instr, SquareInstr):
        return "square"
    if isinstance(instr, (AddJoinInstr, MultJoinInstr)):
        return "join"
    return "other"


def _traced_inference(rec, program, backend, image, charged: Dict[str, float]) -> np.ndarray:
    """``program.run`` taken apart at its public seams, one span per
    instruction.  ``charged`` accumulates what the backend's ledger
    booked meanwhile: op counts, and modeled seconds per instruction
    kind (the cost model's view of the same work)."""
    from repro.core.program import ExecutionState

    ledger = backend.ledger
    before = (ledger.rotations, ledger.bootstraps, ledger.multiplies)
    with rec.span("program.inference"):
        state = ExecutionState(backend)
        with rec.span("program.encrypt"):
            cts = program.encrypt_input(backend, image)
        state.set(program.input_uid, cts)
        for instr in program.instructions:
            kind = _instruction_kind(instr)
            modeled = ledger.seconds
            with rec.span(f"program.{kind}", instruction=instr.name, level=instr.exec_level):
                instr.execute(state)
            charged[kind] = charged.get(kind, 0.0) + ledger.seconds - modeled
        with rec.span("program.decrypt"):
            output = program.decrypt_output(backend, state.get(program.output_uid))
    after = (ledger.rotations, ledger.bootstraps, ledger.multiplies)
    for key, a, b in zip(("rotations", "bootstraps", "multiplies"), after, before):
        charged[key] = charged.get(key, 0) + a - b
    return output


def run(name: str, seed: int, seconds: float, trace: bool, scratch: str, rec, started: float) -> RunRecord:
    from repro import kernels
    from repro.backend.toy import ToyBackend
    from repro.ckks.params import toy_parameters
    from repro.nn import init
    from repro.orion import OrionNetwork
    from repro.serve import ArtifactMap

    spec = SOLO[name]
    shape = spec["shape"]
    record = RunRecord(name)
    rng = np.random.default_rng(seed)

    def draw_image() -> np.ndarray:
        return rng.normal(0.0, 0.5, shape)

    # -- set-up: everything before the first timed inference ------------------
    with rec.span("setup"):
        init.seed_init(MODEL_SEED)
        onet = OrionNetwork(spec["build"](), shape)
        onet.fit(calibration_batches(shape, spec["calibration_images"]))
        params = toy_parameters(**spec["params"])
        compiled, _ = timed(rec, "compiler.compile", lambda: onet.compile(params))
        path = os.path.join(scratch, f"{name}.npz")
        _, export_s = timed(rec, "artifact.export", lambda: compiled.export(path, params))
        artifact, load_s = timed(rec, "artifact.load", lambda: ArtifactMap(path).load())
        manifest = artifact.manifest
        backend, _ = timed(rec, "backend.create", lambda: ToyBackend(manifest.to_params(), seed=seed))
        _, keygen_s = timed(
            rec,
            "keys.keygen",
            lambda: backend.context.generate_rotation_keys(
                manifest.rotation_steps, manifest.step_level_map()
            ),
        )
        preloaded, preload_s = timed(rec, "artifact.preload", lambda: artifact.preload(backend))
        program = artifact.program
        cold_image = draw_image()
        cold_output, cold_run_s = timed(rec, "program.cold_run", lambda: program.run(backend, cold_image))
        # The run after the cold one is still 2-3x slow on mlp_solo; a
        # caller's third inference is the first at the warm latency.
        second_image = draw_image()
        second_output, _ = timed(rec, "program.second_run", lambda: program.run(backend, second_image))
    setup_s = time.perf_counter() - started

    checker = OutputChecker(record, onet, spec["floor_bits"])
    chain = OutputChain()

    def check(output: np.ndarray, image: np.ndarray, label: str, operation: bool = True) -> None:
        checker.check(output, image, f"{name} {label}", operation)
        chain.add(output)

    # The first two runs are set-up, not attempted operations -- but they are checked.
    check(cold_output, cold_image, "cold run", operation=False)
    check(second_output, second_image, "second run", operation=False)

    # -- timed closed loop ----------------------------------------------------
    charged: Dict[str, float] = {}

    def inference(label: str, traced_run: bool = False) -> float:
        """One checked warm inference on a fresh image; its wall seconds.
        Plain runs call ``program.run`` untouched."""
        image = draw_image()
        start = time.perf_counter()
        if traced_run:
            output = _traced_inference(rec, program, backend, image, charged)
        else:
            output = program.run(backend, image)
        taken = time.perf_counter() - start
        record.attempted += 1
        check(output, image, f"{label} {record.attempted}")
        return taken

    # The traced pass alternates plain and traced inferences, so both see
    # the same machine conditions and their ratio is the tracing overhead.
    plain: List[float] = []
    traced: List[float] = []
    loop_started = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            traced.append(inference("traced inference", traced_run=True))
        else:
            plain.append(inference("inference"))
        if time.perf_counter() - loop_started >= seconds and (traced or not trace):
            break

    # What the kernel backend a default process gets (the capability
    # probe's) costs against the pinned one the benchmark measures with.
    # Backends are bit-exact, so these outputs belong on the chain like
    # any other.
    probed: List[float] = []
    if trace:
        default_backend = kernels.select_backend(kernels.registry.probe())
        with rec.span("kernels.probed_backend", backend=default_backend):
            inference("warm-up inference")  # the threaded backend starts its pool on first use
            probe_started = time.perf_counter()
            while len(probed) < 2 or time.perf_counter() - probe_started < seconds / 3:
                probed.append(inference(f"{default_backend}-backend inference"))
        kernels.select_backend(None)  # back to the pinned REPRO_KERNELS

    record.output_chain = chain.links
    keys = backend.context.keys
    switching = [keys.relin] + [keys.galois[t] for t in keys.galois_exponents()]
    key_bytes = sum(key.size_bytes() for key in switching)
    record.info = {
        "inferences": len(plain),
        "traced_inferences": len(traced),
        "precision_bits": checker.pooled_bits(),
        "artifact_bytes": os.path.getsize(path),
        "key_bytes": key_bytes,
    }
    if not trace:
        counts = summary_counts([compiled])
        record.report_end_to_end(
            setup_s, plain, len(plain) / sum(plain), counts["rotations"], counts["modeled_latency"]
        )
        return record

    # -- per-layer rows ---------------------------------------------------------
    record.samples = {"latency_s": plain, "traced_latency_s": traced}
    runs = len(traced)
    rows, metrics = _program_rows(rec, record)
    measured_activation = sum(rows["poly"]) + sum(rows["square"])
    modeled_activation = charged.get("poly", 0.0) + charged.get("square", 0.0)
    recompiled, compile_s = timed(rec, "compiler.compile_warm", lambda: onet.compile(params))
    metrics.update(
        {
            "program.cold_run_s": cold_run_s,
            "program.precision_bits": record.info["precision_bits"],
            "program.precision_bits_min": checker.worst_bits(),
            "artifact.export_s": export_s,
            "artifact.load_s": load_s,
            "artifact.preload_s": preload_s,
            "artifact.preloaded_plaintexts": preloaded,
            "artifact.bytes": record.info["artifact_bytes"],
            "keys.keygen_s": keygen_s,
            "keys.rotation_keys": keys.num_rotation_keys(),
            "keys.bytes": key_bytes,
            # ledger deltas are exact: the same program charges the same ops every run
            "backend.rotations": charged["rotations"] / runs,
            "backend.bootstraps": charged["bootstraps"] / runs,
            "backend.multiplies": charged["multiplies"] / runs,
            "backend.modeled_s": sum(charged.get(kind, 0.0) for kind in INSTRUCTION_KINDS) / runs,
            "costmodel.measured_over_modeled.linear": sum(rows["linear"]) / charged["linear"],
            "costmodel.measured_over_modeled.poly": measured_activation / modeled_activation,
            "trace.overhead_pct": (median(traced) / median(plain) - 1.0) * 100.0,
            "kernels.auto_over_numpy": median(probed) / median(plain),
        }
    )
    metrics.update(compiler_layers(rec, [onet], params, "materialize", [recompiled], compile_s))
    metrics.update(ckks_op_table(rec, params, seed))
    record.metrics = metrics
    return record


def _program_rows(rec, record: RunRecord):
    """``program.*_ms``: per traced inference, the time under each kind of
    child span, the unattributed remainder (the inference span's self
    time) and their total; medians over the traced inferences.  Fails
    the pass if any inference leaves too much unattributed."""
    rows: Dict[str, List[float]] = {}
    for root in rec.named("program.inference"):
        by_child = rec.child_seconds(root)
        for kind in ("encrypt", "decrypt") + INSTRUCTION_KINDS:
            rows.setdefault(kind, []).append(by_child.get(f"program.{kind}", 0.0))
        rows.setdefault("residual", []).append(rec.spans[root].self_time)
        rows.setdefault("traced_infer", []).append(rec.spans[root].duration)
    worst_residual = max(r / t for r, t in zip(rows["residual"], rows["traced_infer"]))
    record.check(
        worst_residual <= MAX_RESIDUAL_SHARE,
        f"{record.workload}: {worst_residual:.1%} of a traced inference is unattributed "
        f"(limit {MAX_RESIDUAL_SHARE:.0%})",
    )
    return rows, {f"program.{kind}_ms": median(values) * 1e3 for kind, values in rows.items()}
