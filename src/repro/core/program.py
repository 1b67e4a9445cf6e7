"""The compiled FHE program and its backend-agnostic executor.

A :class:`FheProgram` is an ordered list of instructions over named
registers (one register = one packed tensor = a list of ciphertexts).
Each instruction carries its placement decision (execution level,
bootstraps inserted before it) and executes against any
:class:`repro.backend.FheBackend` — the exact toy backend for
validation-scale networks, the simulator for paper-scale ones.

Scale discipline (paper Section 6, "errorless neural network
evaluation"): between layers every ciphertext sits at scale exactly
Delta.  Linear-layer weight plaintexts are encoded at the *runtime*
scale q_l * Delta / s_in so the post-layer rescale lands exactly back
on Delta, whatever s_in the preceding activation produced.

Instruction protocol: each instruction kind is one dataclass that owns
everything about itself — its artifact payload tag ``kind``, its fields
and :meth:`Instruction.execute` against a backend.  The artifact codec
is generic: :meth:`Instruction.to_payload` writes the common placement
fields, ``"kind"``, then the kind's own init fields in declaration
order, and :meth:`Instruction.from_payload` calls ``cls(**fields)``; a
kind whose fields are not plain JSON (a packed matvec, a Chebyshev
polynomial) overrides the pair.  Defining the class registers its
``kind``, so :class:`FheProgram` encodes, decodes and runs by looping
over instructions, never by branching on them.  The reference run of a
program is :meth:`FheProgram.run` on a noise-free
:class:`repro.backend.SimBackend`: the same slot-vector arithmetic, with
every level and scale checked as under FHE.

Views (docs/serving.md, "Slot batching").  The compiler's program is
block-level: each client's tensors sit in slots [0, S) of ciphertexts of
their own.  When every register fits a block of S = n/C slots for a
slot-batch capacity C > 1, what runs is a view of it:
:meth:`FheProgram.capacity_view` for a lone client (its input in all C
blocks, each Gazelle fold stopping at the block) and
:meth:`FheProgram.batched` for B distinct clients.  The compiler hands
out the lone client's view, an artifact stores the block-level program,
and every view derives from that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from repro.core.approx.chebyshev import ChebyshevPoly
from repro.core.approx.evaluator import evaluate_chebyshev
from repro.core.packing.analysis import slot_batch_capacity
from repro.core.packing.layouts import BlockReplicatedLayout, TiledLayout
from repro.core.packing.matvec import (
    PackedMatVec,
    layout_from_payload,
    layout_payload,
)
from repro.core.scale import ErrorlessScalePolicy


class ExecutionState:
    """Registers and backend for one inference.

    Serving reuses one state object per worker: :meth:`reset` clears the
    registers between requests without touching the backend (whose
    constants and ledger must persist across requests).
    """

    def __init__(self, backend):
        self.backend = backend
        self.registers: Dict[int, List] = {}

    def get(self, uid: int) -> List:
        return self.registers[uid]

    def set(self, uid: int, cts: List) -> None:
        self.registers[uid] = cts

    def reset(self) -> None:
        """Drop all registers so the state can serve the next request."""
        self.registers.clear()

    # -- helpers shared by instructions -----------------------------------
    def apply_bootstraps(self, uid: int) -> None:
        """Refresh a register in place (a bootstrap benefits every
        consumer of the value, so mutation is semantically right)."""
        backend = self.backend
        self.registers[uid] = [backend.bootstrap(ct) for ct in self.registers[uid]]

    def aligned(self, uid: int, level: int) -> List:
        """A level-aligned *copy* of a register.

        Mod-down must NOT mutate the register: a fork value read by a
        residual shortcut at a high level may simultaneously feed a
        backbone layer executing lower.
        """
        backend = self.backend
        return [
            backend.level_down(ct, level) if backend.level_of(ct) > level else ct
            for ct in self.registers[uid]
        ]


#: ``{kind: class}`` for every instruction kind; a subclass registers
#: itself when it is defined (:meth:`Instruction.__init_subclass__`).
_KINDS: Dict[str, type] = {}


@dataclass
class Instruction:
    """Base instruction: placement metadata common to all ops."""

    # Class attributes (no annotation: not dataclass fields): the span
    # category and the artifact payload tag of a concrete kind.
    span_category = "op"
    kind = ""

    name: str
    out_uid: int
    exec_level: int
    boots_before: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _KINDS[cls.kind] = cls

    def prepare(self, state: ExecutionState, uids: List[int]) -> List[List]:
        if self.boots_before:
            for uid in uids:
                state.apply_bootstraps(uid)
        return [state.aligned(uid, self.exec_level) for uid in uids]

    def execute(self, state: ExecutionState) -> None:
        raise NotImplementedError

    # -- artifact codec (docs/serving.md) ------------------------------------
    def to_payload(self, store) -> Dict:
        """JSON-safe entry: the common fields, ``"kind"``, then this kind's
        own fields in declaration order.  ``store(array) -> ref``
        registers numpy payloads with the artifact's array registry."""
        own = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        common = {f.name: own.pop(f.name) for f in fields(Instruction)}
        return {**common, "kind": self.kind, **own}

    @classmethod
    def from_payload(cls, entry: Dict, fetch) -> "Instruction":
        """Inverse of :meth:`to_payload` for an entry of this kind;
        ``fetch(ref)`` returns a stored array."""
        return cls(**{key: value for key, value in entry.items() if key != "kind"})


@dataclass
class LinearInstr(Instruction):
    """A packed linear layer (conv / fc / pool / folded bn)."""

    span_category = "linear"
    kind = "linear"

    in_uid: int = 0
    packed: PackedMatVec = None

    def to_payload(self, store) -> Dict:
        return {**super().to_payload(store), "packed": self.packed.to_payload(store)}

    @classmethod
    def from_payload(cls, entry: Dict, fetch) -> "LinearInstr":
        packed = PackedMatVec.from_payload(entry["packed"], fetch)
        return super().from_payload({**entry, "packed": packed}, fetch)

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        (cts,) = self.prepare(state, [self.in_uid])
        pt_scale = ErrorlessScalePolicy().plaintext_scale(
            backend, self.exec_level, backend.scale_of(cts[0])
        )
        state.set(self.out_uid, self.packed.execute(backend, cts, pt_scale))


def scale_log2(scale) -> float:
    """log2 of a ciphertext scale, exact-arithmetic safe.

    Scales are Fractions whose numerator/denominator can exceed float
    range; going through ``math.log2`` on the integer parts avoids the
    overflow a plain ``float(scale)`` would hit.
    """
    try:
        frac = Fraction(scale)
        if frac <= 0:
            return float("-inf")
        return math.log2(frac.numerator) - math.log2(frac.denominator)
    except (TypeError, ValueError, OverflowError):
        return 0.0


def normalize_scale(backend, ct, target_scale: Fraction):
    """Bring a ciphertext to an exact target scale, spending one level.

    Multiplies by a ones-plaintext at scale target * q_l / s and
    rescales: the output scale is exactly ``target_scale``.  This is how
    activation outputs are pinned back to Delta so the between-layer
    invariant of paper Section 6 holds at residual joins.  (The paper's
    depth-optimal evaluator [11] achieves this without the extra level;
    see docs/substitutions.md for the accounting difference.)
    """
    level = backend.level_of(ct)
    if level == 0:
        raise ValueError("no level left for scale normalization")
    q = backend.params.data_primes[level]
    ratio = Fraction(target_scale) * q / backend.scale_of(ct)
    if ratio < 1:
        raise ValueError("scale normalization ratio below one")
    ones = backend.constant(1.0, level, ratio)
    return backend.rescale(backend.mul_plain(ct, ones))


@dataclass
class PolyInstr(Instruction):
    """Elementwise Chebyshev polynomial evaluation (activations).

    ``target_kind`` selects the exact output scale: 'delta' (between-
    layer invariant) or 'prime' (the ReLU sign branch, which targets
    the join level's prime so the x * sign product rescales to Delta).
    """

    span_category = "act"
    kind = "poly"

    in_uid: int = 0
    poly: ChebyshevPoly = None
    target_kind: str = "delta"

    def to_payload(self, store) -> Dict:
        # ``poly`` travels as its coefficient list under "coeffs"; moving
        # target_kind behind it keeps the fields in declaration order.
        entry = super().to_payload(store)
        entry["coeffs"] = list(entry.pop("poly").coeffs)
        entry["target_kind"] = entry.pop("target_kind")
        return entry

    @classmethod
    def from_payload(cls, entry: Dict, fetch) -> "PolyInstr":
        entry = dict(entry)
        entry["poly"] = ChebyshevPoly(tuple(entry.pop("coeffs")))
        return super().from_payload(entry, fetch)

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        (in_cts,) = self.prepare(state, [self.in_uid])
        outs = []
        for ct in in_cts:
            out = evaluate_chebyshev(backend, ct, self.poly)
            if self.target_kind == "delta":
                out = normalize_scale(backend, out, Fraction(backend.params.scale))
            outs.append(out)
        state.set(self.out_uid, outs)


@dataclass
class SquareInstr(Instruction):
    """x^2 by direct HMult (depth 1; used by the MNIST networks)."""

    span_category = "act"
    kind = "square"

    in_uid: int = 0

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        (in_cts,) = self.prepare(state, [self.in_uid])
        outs = [backend.rescale(backend.mul(ct, ct)) for ct in in_cts]
        state.set(self.out_uid, outs)


@dataclass
class MultJoinInstr(Instruction):
    """The ReLU join: x * signish(x).

    Depth 2: one level pins the sign branch to the scale q_l of the
    multiply's rescale prime, so the product rescales to exactly Delta
    (restoring the between-layer invariant); the multiply itself spends
    the second level.
    """

    span_category = "act"
    kind = "multjoin"

    x_uid: int = 0
    sign_uid: int = 0

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        x_cts, sign_cts = self.prepare(state, [self.x_uid, self.sign_uid])
        outs = []
        for x_ct, s_ct in zip(x_cts, sign_cts):
            level = backend.level_of(s_ct)
            target = Fraction(backend.params.data_primes[level - 1])
            s_norm = normalize_scale(backend, s_ct, target)
            x_aligned = backend.level_down(x_ct, backend.level_of(s_norm))
            outs.append(backend.rescale(backend.mul(x_aligned, s_norm)))
        state.set(self.out_uid, outs)


@dataclass
class AddJoinInstr(Instruction):
    """Residual addition; both inputs sit at scale Delta by invariant."""

    span_category = "join"
    kind = "addjoin"

    a_uid: int = 0
    b_uid: int = 0

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        a_cts, b_cts = self.prepare(state, [self.a_uid, self.b_uid])
        outs = [backend.add(a, b) for a, b in zip(a_cts, b_cts)]
        state.set(self.out_uid, outs)


@dataclass
class SliceInstr(Instruction):
    """Take ciphertexts [start, stop) of a stacked register.

    The split that follows a concat-fused linear layer (sibling
    fusion): the fused output stacks every sibling's blocks along the
    ciphertext axis, and each branch resumes from its slice.  Free under
    FHE — no rotation, no level, no noise; the sliced list shares
    ciphertext objects with its source (bootstraps *replace* list
    entries, so sharing is safe).
    """

    span_category = "move"
    kind = "slice"

    in_uid: int = 0
    start: int = 0
    stop: int = 0

    def execute(self, state: ExecutionState) -> None:
        state.set(self.out_uid, list(state.get(self.in_uid)[self.start : self.stop]))


@dataclass
class FheProgram:
    """A fully compiled network ready to execute on a backend.

    Attributes:
        instructions: execution-ordered instruction list.
        input_uid / output_uid: register ids of network input/output.
        input_layout: packing layout for the input image.
        output_layout: layout holding the final logits.
        input_norm: divide inputs by this before encryption (range
            management; paper Section 6).
        output_denorm: multiply decrypted outputs by this.
        entry_level: level to encrypt the input at.
    """

    instructions: List[Instruction]
    input_uid: int
    output_uid: int
    input_layout: object
    output_layout: object
    input_norm: float
    output_denorm: float
    entry_level: int
    # What runs for a batch of b clients, keyed by b (1: the capacity
    # view), built lazily on the block-level program.
    _batched: Dict[int, "FheProgram"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # A capacity view's block-level program (None: this one).
    _block: Optional["FheProgram"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def encrypt_input(self, backend, image: np.ndarray) -> List:
        """Normalize, pack, and encrypt one input at the entry level."""
        vectors = self.input_layout.pack(np.asarray(image) / self.input_norm)
        return [
            backend.encrypt(
                backend.encode(vec, self.entry_level, backend.params.scale)
            )
            for vec in vectors
        ]

    def execute(self, state: ExecutionState, input_cts: List) -> List:
        """Run all instructions over pre-encrypted inputs; returns the
        output register (the state may be a reused, reset worker state)."""
        from repro.obs.tracing import get_tracer

        state.set(self.input_uid, input_cts)
        tracer = get_tracer()
        if not tracer.enabled:
            # The untraced fast path stays a plain loop: one attribute
            # read above is the entire cost of having tracing available.
            for instr in self.instructions:
                instr.execute(state)
            return state.get(self.output_uid)
        self._execute_traced(state, tracer)
        return state.get(self.output_uid)

    def _execute_traced(self, state: ExecutionState, tracer) -> None:
        """Per-instruction spans: op-count deltas from the ledger, plus
        ciphertext level/scale at exit (observe-only)."""
        backend = state.backend
        ledger = backend.ledger
        for instr in self.instructions:
            category = instr.span_category
            with tracer.span(
                f"{category}/{instr.name}",
                category=category,
                ledger=ledger,
                exec_level=instr.exec_level,
                boots_before=instr.boots_before,
            ) as span:
                instr.execute(state)
                out = state.registers.get(instr.out_uid)
                if out:
                    ct = out[0]
                    span.set(
                        level_out=backend.level_of(ct),
                        scale_log2_out=scale_log2(backend.scale_of(ct)),
                        num_cts=len(out),
                    )

    def decrypt_output(self, backend, output_cts: List) -> np.ndarray:
        out_vecs = [backend.decrypt(ct) for ct in output_cts]
        return self.output_layout.unpack(out_vecs) * self.output_denorm

    def run(self, backend, image: np.ndarray) -> np.ndarray:
        """Encrypt, execute, decrypt one input tensor (C, H, W)."""
        state = ExecutionState(backend)
        cts = self.encrypt_input(backend, image)
        outs = self.execute(state, cts)
        return self.decrypt_output(backend, outs)

    # -- serving hooks ------------------------------------------------------
    def required_rotation_step_levels(self) -> Dict[int, int]:
        """``{step: highest execution level}`` of every rotation the
        program can request from the backend — the key manifest's
        source (docs/serving.md).

        The union over the views that run: the one-client
        :meth:`capacity_view` and each distinct-client view
        :meth:`batched` from 2 up to :meth:`slot_batch_capacity` (one
        view, the block-level program, at capacity 1).  Every step is a
        step of the block-level layers: views keep their offsets, fold
        subsets of their fold groups (the compiler cuts those at the
        capacity's block) and gather with subset sums of them, and
        ``PackedMatVec`` refuses a view that would rotate by any other
        step.  A view runs each layer at the layer's own
        ``exec_level``.  The views are built through :meth:`batched`
        and stay cached for the batches that run them; building one
        copies no diagonal (``matvec.BlockDiagonals``).  Bootstraps are excluded: the oracle refresh
        rotates nothing, and a real pipeline owns its own transform
        keys.

        Exactly the steps an inference rotates by (a layer's fold
        partition is compiled, ``PackedMatVec.fold_groups``).  A linear
        layer's rotations — diagonal offsets, a view's gathers and its
        fold — key-switch at its ``exec_level`` (gathers and folds run
        one level *lower*, after the rescale, so ``exec_level`` bounds
        them too).  The per-step
        maximum is the level bound key generators need to emit
        *compressed* switching keys (:class:`repro.ckks.keys.
        SwitchingKey`): only the digits and limbs any key switch at
        ``level <= bound`` consumes.
        """
        views = [
            self.batched(1 << k)
            for k in range(self.slot_batch_capacity().bit_length())
        ]
        levels: Dict[int, int] = {}
        for view in views:
            for instr in view.instructions:
                if not isinstance(instr, LinearInstr):
                    continue
                for step in instr.packed.required_rotation_steps():
                    levels[step] = max(levels.get(step, -1), instr.exec_level)
        return levels

    def slot_batch_capacity(self) -> int:
        """Largest power-of-two client count one ciphertext can carry
        (``analysis.slot_batch_capacity`` over the block-level input and
        linear output layouts): 1 when the program cannot batch
        (multi-ciphertext registers or a full ciphertext already)."""
        block = self.block_level()
        return slot_batch_capacity(
            [block.input_layout]
            + [i.packed.out_layout for i in block.instructions if isinstance(i, LinearInstr)]
        )

    def block_level(self) -> "FheProgram":
        """The program as compiled: each client's tensors in slots [0,
        S) of a ciphertext to itself.  It is what the views derive from
        and what an artifact stores; it runs only when asked for by
        name (the capacity view runs a lone client)."""
        return self if self._block is None else self._block

    def capacity_view(self) -> "FheProgram":
        """What one client's inference runs: at slot-batch capacity C >
        1, the block-level program with the input tiled into all C
        blocks (``TiledLayout``) and every linear layer's
        ``PackedMatVec.capacity_view`` — the scratch gathers vanish and
        the Gazelle folds stop at the block.  At capacity 1 the
        block-level program itself.  Built once."""
        block = self.block_level()
        view = block._batched.get(1)
        if view is None:
            capacity = block.slot_batch_capacity()
            view = block
            if capacity > 1:
                slots = block.input_layout.slots
                view = block._view(
                    lambda layout: TiledLayout(layout, capacity, slots),
                    lambda packed: packed.capacity_view(capacity),
                )
                view._block = block
            block._batched[1] = view
        return view

    def batched(self, batch: int) -> "FheProgram":
        """What a batch of ``batch`` clients runs (cross-request SIMD
        slot batching; docs/serving.md): the :meth:`capacity_view` for
        one, else the block-level program over ``batch`` distinct
        clients packed into one ciphertext.

        Linear layers swap in their block-replicated views
        (``PackedMatVec.batched``); elementwise activations and joins
        are batch-transparent.  ``run`` on a distinct-client view takes
        a stacked ``(batch, C, H, W)`` input and returns stacked
        per-client outputs.  Views are cached, so the weight-plaintext
        caches inside the batched layers persist across requests just
        like the single-shot ones.
        """
        if batch == 1:
            return self.capacity_view()
        block = self.block_level()
        view = block._batched.get(batch)
        if view is None:
            capacity = block.slot_batch_capacity()
            if batch > capacity:
                raise ValueError(
                    f"batch {batch} exceeds this program's slot capacity {capacity}"
                )
            slots = block.input_layout.slots
            view = block._batched[batch] = block._view(
                lambda layout: BlockReplicatedLayout(layout, batch, slots),
                lambda packed: packed.batched(batch),
            )
        return view

    def _view(self, layout, layer) -> "FheProgram":
        """This program with ``layout(l)`` for its input and output
        layouts and ``layer(packed)`` for each linear layer."""
        return FheProgram(
            instructions=[
                replace(instr, packed=layer(instr.packed))
                if isinstance(instr, LinearInstr) else replace(instr)
                for instr in self.instructions
            ],
            input_uid=self.input_uid,
            output_uid=self.output_uid,
            input_layout=layout(self.input_layout),
            output_layout=layout(self.output_layout),
            input_norm=self.input_norm,
            output_denorm=self.output_denorm,
            entry_level=self.entry_level,
        )

    # -- artifact serialization (docs/serving.md) ----------------------------
    def to_payload(self, store) -> Dict:
        """JSON-safe structure for the artifact store.

        ``store(array) -> ref`` registers numpy payloads (diagonal
        tables, biases) with the artifact's array registry; everything
        else — uids, levels, Chebyshev coefficients, layouts — is plain
        JSON, so the format is inspectable and versionable.  It is the
        block-level program's: every view derives from it.
        """
        block = self.block_level()
        return {
            "input_uid": block.input_uid,
            "output_uid": block.output_uid,
            "entry_level": block.entry_level,
            "input_norm": block.input_norm,
            "output_denorm": block.output_denorm,
            "input_layout": layout_payload(block.input_layout),
            "output_layout": layout_payload(block.output_layout),
            "instructions": [instr.to_payload(store) for instr in block.instructions],
        }

    @classmethod
    def from_payload(cls, payload: Dict, fetch) -> "FheProgram":
        """Rebuild a program saved by :meth:`to_payload` (bit-exact:
        float norms round-trip through JSON's repr, arrays through the
        artifact's npz registry) as what runs: its
        :meth:`capacity_view`."""
        instructions: List[Instruction] = []
        for entry in payload["instructions"]:
            instr_cls = _KINDS.get(entry["kind"])
            if instr_cls is None:
                raise ValueError(f"unknown instruction kind {entry['kind']!r}")
            instructions.append(instr_cls.from_payload(entry, fetch))
        return cls(
            instructions=instructions,
            input_uid=payload["input_uid"],
            output_uid=payload["output_uid"],
            input_layout=layout_from_payload(payload["input_layout"]),
            output_layout=layout_from_payload(payload["output_layout"]),
            input_norm=payload["input_norm"],
            output_denorm=payload["output_denorm"],
            entry_level=payload["entry_level"],
        ).capacity_view()
