"""The serving artifact store: compile once, serve from disk forever.

A :class:`ServingArtifact` is a single ``.npz`` file containing

- a JSON manifest (``__manifest__``) with a **schema version**, the
  serialized :class:`repro.core.program.FheProgram` (instructions,
  placement decisions, layouts, norms), the layer reports and compile
  summary, and the :class:`repro.ckks.keys.KeyManifest` naming the exact
  parameter set and Galois steps execution will request;
- the weight-plaintext tables as raw numpy payloads (diagonal vectors,
  biases — float64, bit-exact round-trip);
- optionally, the tables **pre-encoded** at the exact (level, scale)
  each layer executes at — one uint32 residue table per layer and
  (out-block, in-block) group, in the layout the fused matvec contracts
  in place — so a worker seeds its backend's caches with views of the
  mapped file before the first request ever arrives.

Keys are deliberately absent: they derive from a secret, and are
generated from the key manifest by whoever holds it — today each
serving lane, through :func:`repro.serve.keys.generate_lane_keys`.

Loading never invokes the compiler or the placement planner — the
"zero compiler invocations on the serve path" contract asserted by
``tests/test_serve.py`` and ``benchmarks/bench_serving_throughput.py``.

Programs produced with the graph-level optimizer on (docs/graphopt.md)
round-trip through the same schema unchanged: fused stacked layouts,
``SliceInstr``, and ``RotateInstr`` all serialize through the existing
layout/instruction payload kinds, so artifacts written by an optimized
compile load on workers that never saw the optimizer.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ckks.keys import KeyManifest
from repro.core.program import FheProgram, LinearInstr
from repro.serve.grouping import artifact_parameters, fused_tables

# Version 2: the key manifest gained ``rotation_step_levels`` — the
# per-step level bounds key generators use to emit *compressed*
# switching keys (only the digits/limbs each key's recorded level
# consumes).  Version-1 artifacts lack the bounds and must be
# re-exported (the loader fails loudly rather than silently generating
# full-chain keys for an artifact that promises compressed ones).
#
# Version 3: the manifest gained a ``kind`` field.  ``"full"`` is the
# self-contained artifact everything before version 3 implicitly was.
# Version 3 also introduced ``"delta"`` files, which shipped only the
# tables that changed against a base artifact; that format is gone, and
# a manifest of any kind but ``"full"`` is refused by name.  A weight
# update is a full re-export over the served path (see
# :meth:`repro.serve.api.Server.reload`).
#
# Version 4: the pre-encoded section ships one uint32 ``(T, ks_limbs, N)``
# table per layer and (out-block, in-block) group, encoded over the
# key-switch chain (:meth:`repro.ckks.context.CkksContext.encode_table`),
# where version 3 shipped one int64 data-chain polynomial per term and
# left the Q_l * P extension to ``preload``.
#
# Version 5: every weight diagonal is stored un-rotated — entry ``j`` of
# ``diags[(bo, bi)][off]`` multiplies input slot ``j + off``, the form
# the fused matvec reads — where version 4 stored it pre-rolled by its
# BSGS giant step.  Same shapes and dtypes, different meaning, so a
# version-4 file must be re-exported rather than silently mis-multiplied.
#
# Version 6: every packed linear layer carries its compiled fold form
# (``fused_folds``); a version-5 file has none and must be re-exported.
#
# Version 7: the fold form is a partition of the fold ladder into hoisted
# groups (``fold_groups``); a version-6 file's expanded-or-sequential
# depth is refused, not translated, and must be re-exported.
SCHEMA_VERSION = 7
FORMAT_NAME = "repro-serving-artifact"


class ArtifactSchemaError(ValueError):
    """Raised when an artifact's schema version or format is wrong."""


class _ArrayStore:
    """Assigns stable refs to numpy payloads destined for the npz."""

    def __init__(self):
        self.arrays: Dict[str, np.ndarray] = {}

    def __call__(self, array: np.ndarray) -> str:
        ref = f"a{len(self.arrays)}"
        self.arrays[ref] = np.asarray(array)
        return ref


class ServingArtifact:
    """An on-disk compilation, loaded (or about to be written).

    Attributes:
        manifest: the key manifest (parameters + required Galois steps).
        program: the executable program, placement decisions included.
        layer_reports: per-layer compile stats (rotations, pmults, ...).
        summary: the compile summary (depth, bootstraps, modeled time).
        encoded: optional pre-encoded plaintext tables, as written by
            :meth:`save` (see :meth:`preload`).
    """

    def __init__(
        self,
        manifest: KeyManifest,
        program: FheProgram,
        layer_reports: List[Dict],
        summary: Dict,
        encoded: Optional[List[Dict]] = None,
    ):
        self.manifest = manifest
        self.program = program
        self.layer_reports = layer_reports
        self.summary = summary
        self.encoded = encoded

    # -- capacity ----------------------------------------------------------
    def slot_batch_capacity(self) -> int:
        return self.program.slot_batch_capacity()

    # -- cache warm-up ------------------------------------------------------
    def preload(self, backend) -> int:
        """Seed ``backend``'s weight-plaintext caches with the artifact's
        pre-encoded tables; returns the number of plaintexts (table
        rows) installed.

        A load, not a computation: each cache entry *is* the shipped
        table — a view of the mapped file when the artifact came through
        :class:`repro.serve.mmapio.ArtifactMap` — installed under the
        backend's full encode fingerprint (level, scale, ks_alpha, prime
        chain), so a backend built for different parameters simply — and
        loudly — cannot consume them.
        """
        if not self.encoded:
            return 0
        from repro.backend.toy import fused_term_groups

        context = getattr(backend, "context", None)
        if context is None:
            return 0  # functional backends encode for free
        if tuple(backend.params.primes) != tuple(
            self.manifest.params_dict["primes"]
        ):
            raise ValueError(
                "backend parameters do not match the artifact's key manifest"
            )
        by_name = {
            instr.name: instr
            for instr in self.program.instructions
            if isinstance(instr, LinearInstr)
        }
        installed = 0
        for section in self.encoded:
            instr = by_name.get(section["name"])
            if instr is None:
                continue
            level = section["level"]
            pt_scale = Fraction(*section["pt_scale"])
            fp = backend.plaintext_cache_key(level, pt_scale)
            packed = instr.packed
            rows = fused_term_groups(packed.terms())
            limbs = len(context._ks_chain(level))
            cache = packed._pt_cache.setdefault(backend, {}).setdefault(
                ("fused",) + fp, {}
            )
            for group in section["groups"]:
                bo, bi, table = group["bo"], group["bi"], group["table"]
                want = (len(rows[(bo, bi)]), limbs, context.params.ring_degree)
                if table.shape != want or table.dtype != np.uint32:
                    raise ArtifactSchemaError(
                        f"{section['name']}[bo={bo},bi={bi}]: table is "
                        f"{table.dtype} {table.shape}, the program needs "
                        f"uint32 {want}; re-export the artifact"
                    )
                table.setflags(write=False)
                cache[(bo, bi, fp)] = table
                installed += table.shape[0]
        return installed

    # -- io ----------------------------------------------------------------
    def to_doc(self, store: "_ArrayStore") -> Dict:
        """Serialize into a manifest document, pushing arrays to ``store``.

        The refs handed out by ``store`` are assigned in a deterministic
        traversal order, so a re-export of the same compile is
        byte-identical.
        """
        manifest_doc = {
            "format": FORMAT_NAME,
            "schema_version": SCHEMA_VERSION,
            "kind": "full",
            "key_manifest": self.manifest.to_dict(),
            "program": self.program.to_payload(store),
            "layer_reports": self.layer_reports,
            "summary": self.summary,
            "encoded": None,
        }
        if self.encoded is not None:
            manifest_doc["encoded"] = [
                {
                    **section,
                    "groups": [
                        {**group, "table": store(group["table"])}
                        for group in section["groups"]
                    ],
                }
                for section in self.encoded
            ]
        return manifest_doc

    def save(self, path: str) -> str:
        """Write the artifact.

        Every array member is ``ZIP_STORED`` contiguously in the file,
        so serving workers can map the tables **in place**
        (:class:`repro.serve.mmapio.ArtifactMap`) and share one resident
        copy across the whole pool.  The file is published atomically
        (tmp + ``os.replace``): exporting over a served path leaves
        readers the old file or the new one, never a torn write.
        """
        store = _ArrayStore()
        manifest_doc = self.to_doc(store)
        if not path.endswith(".npz"):
            path = path + ".npz"
        tmp = path + ".tmp"
        # Straight into the file handle: the zip writer streams one member
        # at a time, so the export never holds a second copy of the tables.
        with open(tmp, "wb") as f:
            np.savez(
                f,
                __manifest__=np.frombuffer(
                    json.dumps(manifest_doc).encode("utf-8"), dtype=np.uint8
                ),
                **store.arrays,
            )
        os.replace(tmp, path)
        return path


def build_artifact(compiled, params) -> ServingArtifact:
    """Build the in-memory :class:`ServingArtifact` for a
    :class:`repro.core.compiler.CompiledNetwork`, without writing it.

    The key manifest names ``params`` regrouped for this program
    (:func:`repro.serve.grouping.artifact_parameters`: the key-switch
    digit grouping holding the fewest key and table bytes without more
    key-switch work per inference), so every consumer builds its backend
    from ``manifest.to_params()``, never from the caller's set.

    Pre-encodes every fused weight-plaintext table at the exact
    (level, scale) it executes at — discovered by the same plain
    noise-free simulator run whose ledger lists the key switches the
    grouping is priced on, which is how runtime scales are defined —
    whenever the parameter set fits the exact toy backend's NTT bound
    (sub-32-bit primes).
    """
    if compiled.program is None:
        raise ValueError("cannot export a network compiled in analyze mode")
    program = compiled.program
    params, sim = artifact_parameters(program, params)
    manifest = KeyManifest.for_program(params, program)
    reports = [
        {
            "name": r.name,
            "kind": r.kind,
            "rotations": r.rotations,
            "pmults": r.pmults,
            "depth": r.depth,
            "num_cts": r.num_cts,
        }
        for r in compiled.layer_reports
    ]
    encoded = None if sim is None else _pre_encode_tables(program, params, sim)
    return ServingArtifact(
        manifest=manifest,
        program=program,
        layer_reports=reports,
        summary=compiled.artifact_summary(),
        encoded=encoded,
    )


def save_artifact(compiled, params, path: str) -> ServingArtifact:
    """Serialize a :class:`repro.core.compiler.CompiledNetwork` to
    ``path`` as a self-contained artifact; see :func:`build_artifact`
    for what goes in it.
    """
    artifact = build_artifact(compiled, params)
    artifact.save(path)
    return artifact


def _pre_encode_tables(program: FheProgram, params, sim) -> List[Dict]:
    """Encode every linear layer's fused diagonals into the static
    tables the exact backend contracts in place — one per (out-block,
    in-block) group, at the layer's runtime (level, scale).

    The runtime scale of each layer depends on what the preceding
    activation produced (paper Section 6's errorless policy encodes
    weights at q_l * Delta / s_in), so the (level, scale) pairs are
    *observed* — ``sim``, the plain noise-free :class:`SimBackend`
    export priced the grouping with, ran one dummy input at exact
    scales — rather than re-derived here.  Encoding itself needs no
    keys — only the ring and prime chain.
    """
    from repro.ckks.context import CkksContext

    # An encode-only context: CkksContext generates keys too, but at
    # artifact-export scale that one-time cost is irrelevant and it
    # guarantees the encoder/basis match the toy backend bit for bit.
    context = CkksContext(params, seed=0)
    sections: List[Dict] = []
    for instr, level, pt_scale, term_groups in fused_tables(program, sim):
        terms = instr.packed.terms()
        groups = [
            {
                "bo": bo,
                "bi": bi,
                "table": context.encode_table(
                    [terms[(bo, bi, off)] for off in offsets], level, pt_scale
                ),
            }
            for (bo, bi), offsets in sorted(term_groups.items())
        ]
        sections.append(
            {
                "name": instr.name,
                "level": level,
                "pt_scale": [pt_scale.numerator, pt_scale.denominator],
                "groups": groups,
            }
        )
    return sections


def check_header(
    doc: Dict, expected: Tuple, error: type, source: str, remedy: str
) -> None:
    """The one gate every on-disk format passes before anything reads it.

    ``expected`` lists ``(key, label, value)`` triples — a format tag, a
    version, a fingerprint — that ``doc`` must carry exactly.  The first
    mismatch raises the caller's ``error`` naming ``source``, the value
    found and the value this build reads; there is no lossy upgrade.
    """
    for key, label, want in expected:
        found = doc.get(key)
        if found != want:
            raise error(
                f"{source}: {label} {found!r}, but this build reads "
                f"{label} {want!r}; {remedy}"
            )


def artifact_from_doc(manifest_doc: Dict, get_array, path: str = "<artifact>"):
    """Build a :class:`ServingArtifact` from a parsed ``__manifest__``
    document plus an array resolver (``ref -> ndarray``).

    The reader is :meth:`repro.serve.mmapio.ArtifactMap.load`, whose
    arrays are zero-copy views into shared read-only mapped memory.
    Only a full artifact is accepted: any other ``kind`` — the retired
    ``"delta"`` files included — raises :class:`ArtifactSchemaError`
    naming it.
    """
    check_header(
        manifest_doc,
        (("format", "format", FORMAT_NAME),
         ("schema_version", "schema version", SCHEMA_VERSION)),
        ArtifactSchemaError,
        path,
        "re-export the artifact",
    )
    kind = manifest_doc.get("kind", "full")
    if kind != "full":
        raise ArtifactSchemaError(
            f"{path}: artifact kind {kind!r}, but this build reads only "
            "'full' artifacts; re-export the network"
        )
    program = FheProgram.from_payload(manifest_doc["program"], get_array)
    encoded = None
    if manifest_doc.get("encoded") is not None:
        encoded = [
            {
                **section,
                "groups": [
                    {**group, "table": get_array(group["table"])}
                    for group in section["groups"]
                ],
            }
            for section in manifest_doc["encoded"]
        ]
    return ServingArtifact(
        manifest=KeyManifest.from_dict(manifest_doc["key_manifest"]),
        program=program,
        layer_reports=manifest_doc["layer_reports"],
        summary=manifest_doc["summary"],
        encoded=encoded,
    )
