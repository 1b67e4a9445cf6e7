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
everything about itself — its artifact payload tag ``kind``, its fields,
:meth:`Instruction.execute` under FHE and
:meth:`Instruction.execute_cleartext` over plain slot vectors.  The
artifact codec is generic: :meth:`Instruction.to_payload` writes the
common placement fields, ``"kind"``, then the kind's own init fields in
declaration order, and :meth:`Instruction.from_payload` calls
``cls(**fields)``; a kind whose fields are not plain JSON (a packed
matvec, a Chebyshev polynomial) overrides the pair.  Defining the class
registers its ``kind``, so :class:`FheProgram` encodes, decodes and runs
in the clear by looping over instructions, never by branching on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Dict, List

import numpy as np

from repro.core.approx.chebyshev import ChebyshevPoly
from repro.core.approx.evaluator import cached_const_plaintext, evaluate_chebyshev
from repro.core.packing.layouts import BlockReplicatedLayout
from repro.core.packing.matvec import (
    PackedMatVec,
    layout_from_payload,
    layout_payload,
)


class ExecutionState:
    """Registers and backend for one inference.

    Serving reuses one state object per worker: :meth:`reset` clears the
    registers between requests without touching the backend (whose
    plaintext caches and ledger must persist across requests).
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

    # Class attributes (no annotation: not dataclass fields): the span /
    # phase category and the artifact payload tag of a concrete kind.
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

    def execute_cleartext(
        self, values: Dict[int, List[np.ndarray]], slots: int
    ) -> List[np.ndarray]:
        """The same step over plain slot vectors: reads its operands from
        ``values`` (uid -> vectors) and returns the output register."""
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
        with backend.ledger.phase(f"linear/{self.name}"):
            (cts,) = self.prepare(state, [self.in_uid])
            in_scale = backend.scale_of(cts[0])
            q_exec = backend.params.data_primes[self.exec_level]
            pt_scale = Fraction(q_exec) * Fraction(backend.params.scale) / in_scale
            state.set(self.out_uid, self.packed.execute(backend, cts, pt_scale))

    def execute_cleartext(self, values, slots):
        return self.packed.execute_cleartext(values[self.in_uid])


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


def _const_cache_field():
    """Per-instruction cache of the constant plaintexts its activation
    encodes, persistent across requests.  Entries are keyless encodes
    keyed by value + :meth:`FheBackend.plaintext_cache_key`, so tenants
    (backend instances) share them; one sub-dict per backend *type*
    keeps exact and simulated plaintexts apart."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


def normalize_scale(backend, ct, target_scale: Fraction, pt_cache=None):
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
    ones = cached_const_plaintext(backend, 1.0, level, ratio, pt_cache)
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
    _pt_cache: Dict = _const_cache_field()

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
        pt_cache = self._pt_cache.setdefault(type(backend), {})
        with backend.ledger.phase(f"act/{self.name}"):
            (in_cts,) = self.prepare(state, [self.in_uid])
            outs = []
            for ct in in_cts:
                out = evaluate_chebyshev(backend, ct, self.poly, pt_cache)
                if self.target_kind == "delta":
                    out = normalize_scale(
                        backend, out, Fraction(backend.params.scale), pt_cache
                    )
                outs.append(out)
            state.set(self.out_uid, outs)

    def execute_cleartext(self, values, slots):
        return [self.poly(vec) for vec in values[self.in_uid]]


@dataclass
class SquareInstr(Instruction):
    """x^2 by direct HMult (depth 1; used by the MNIST networks)."""

    span_category = "act"
    kind = "square"

    in_uid: int = 0

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        with backend.ledger.phase(f"act/{self.name}"):
            (in_cts,) = self.prepare(state, [self.in_uid])
            outs = [backend.rescale(backend.mul(ct, ct)) for ct in in_cts]
            state.set(self.out_uid, outs)

    def execute_cleartext(self, values, slots):
        return [v * v for v in values[self.in_uid]]


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
    _pt_cache: Dict = _const_cache_field()

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        pt_cache = self._pt_cache.setdefault(type(backend), {})
        with backend.ledger.phase(f"act/{self.name}"):
            x_cts, sign_cts = self.prepare(state, [self.x_uid, self.sign_uid])
            outs = []
            for x_ct, s_ct in zip(x_cts, sign_cts):
                level = backend.level_of(s_ct)
                target = Fraction(backend.params.data_primes[level - 1])
                s_norm = normalize_scale(backend, s_ct, target, pt_cache)
                x_aligned = backend.level_down(x_ct, backend.level_of(s_norm))
                outs.append(backend.rescale(backend.mul(x_aligned, s_norm)))
            state.set(self.out_uid, outs)

    def execute_cleartext(self, values, slots):
        return [x * s for x, s in zip(values[self.x_uid], values[self.sign_uid])]


@dataclass
class AddJoinInstr(Instruction):
    """Residual addition; both inputs sit at scale Delta by invariant."""

    span_category = "join"
    kind = "addjoin"

    a_uid: int = 0
    b_uid: int = 0

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        with backend.ledger.phase(f"join/{self.name}"):
            a_cts, b_cts = self.prepare(state, [self.a_uid, self.b_uid])
            outs = [backend.add(a, b) for a, b in zip(a_cts, b_cts)]
            state.set(self.out_uid, outs)

    def execute_cleartext(self, values, slots):
        return [a + b for a, b in zip(values[self.a_uid], values[self.b_uid])]


@dataclass
class SliceInstr(Instruction):
    """Take ciphertexts [start, stop) of a stacked register.

    The split that follows a concat-fused linear layer (graph
    optimizer): the fused output stacks every sibling's blocks along the
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

    def execute_cleartext(self, values, slots):
        return list(values[self.in_uid][self.start : self.stop])


@dataclass
class RotateInstr(Instruction):
    """Cyclic slot rotation of a register (orion.nn.Roll).

    One hoisted Galois key switch per ciphertext; a zero effective step
    is a no-op (the graph optimizer cancels those away, but the
    reference un-optimized path must still execute them safely).
    """

    span_category = "rotate"
    kind = "rotate"

    in_uid: int = 0
    steps: int = 0

    def execute(self, state: ExecutionState) -> None:
        backend = state.backend
        with backend.ledger.phase(f"rotate/{self.name}"):
            (cts,) = self.prepare(state, [self.in_uid])
            steps = self.steps % backend.slot_count
            if steps:
                cts = [backend.rotate(ct, steps) for ct in cts]
            state.set(self.out_uid, list(cts))

    def execute_cleartext(self, values, slots):
        steps = self.steps % slots
        return [np.roll(vec, -steps) if steps else vec for vec in values[self.in_uid]]


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
    # Batched (slot-replicated) views for serving, keyed by batch size.
    _batched: Dict[int, "FheProgram"] = field(
        default_factory=dict, repr=False, compare=False
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

        It covers every batched view too: a view adds no step and raises
        no level, because its Gazelle-hybrid layers read wrapped scratch
        at the single-client offsets and gather it with their own fold
        steps, and ``PackedMatVec.batched`` refuses a view that would
        rotate by any other step; a view runs each layer at the layer's
        own ``exec_level``.  Bootstraps are excluded: the oracle refresh
        rotates nothing, and a real pipeline owns its own transform keys.

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
        levels: Dict[int, int] = {}
        slots = self.input_layout.slots
        for instr in self.instructions:
            if isinstance(instr, LinearInstr):
                steps = instr.packed.required_rotation_steps()
            elif isinstance(instr, RotateInstr) and instr.steps % slots:
                steps = (instr.steps % slots,)
            else:
                continue
            for step in steps:
                levels[step] = max(levels.get(step, -1), instr.exec_level)
        return levels

    def slot_batch_capacity(self) -> int:
        """Largest power-of-two client count one ciphertext can carry.

        The batched view places each client in a block of n/B slots, so
        every register's layout must be single-ciphertext and fit one
        block.  Returns 1 when the program cannot batch (multi-
        ciphertext registers or a full ciphertext already).
        """
        from repro.utils.intmath import next_power_of_two

        slots = self.input_layout.slots
        occupied = [self.input_layout]
        occupied += [
            instr.packed.out_layout
            for instr in self.instructions
            if isinstance(instr, LinearInstr)
        ]
        if any(layout.num_ciphertexts != 1 for layout in occupied):
            return 1
        # A slot rotation crosses client-block boundaries, so rotated
        # programs cannot slot-batch (each client would read a
        # neighbor's slots).
        if any(isinstance(instr, RotateInstr) for instr in self.instructions):
            return 1
        required = max(layout.total_slots for layout in occupied)
        return max(1, slots // next_power_of_two(required))

    def batched(self, batch: int) -> "FheProgram":
        """The same network over ``batch`` clients packed into one
        ciphertext (cross-request SIMD slot batching; docs/serving.md).

        Linear layers swap in their block-replicated views; elementwise
        activations and joins are batch-transparent.  ``run`` on the
        returned program takes a stacked ``(batch, C, H, W)`` input and
        returns stacked per-client outputs.  Views are cached, so the
        weight-plaintext caches inside the batched layers persist across
        requests just like the single-shot ones.
        """
        if batch == 1:
            return self
        cached = self._batched.get(batch)
        if cached is not None:
            return cached
        capacity = self.slot_batch_capacity()
        if batch > capacity:
            raise ValueError(
                f"batch {batch} exceeds this program's slot capacity {capacity}"
            )
        slots = self.input_layout.slots
        instructions = []
        for instr in self.instructions:
            if isinstance(instr, LinearInstr):
                instructions.append(
                    replace(instr, packed=instr.packed.batched(batch))
                )
            else:
                instructions.append(replace(instr))
        view = FheProgram(
            instructions=instructions,
            input_uid=self.input_uid,
            output_uid=self.output_uid,
            input_layout=BlockReplicatedLayout(self.input_layout, batch, slots),
            output_layout=BlockReplicatedLayout(self.output_layout, batch, slots),
            input_norm=self.input_norm,
            output_denorm=self.output_denorm,
            entry_level=self.entry_level,
        )
        self._batched[batch] = view
        return view

    # -- artifact serialization (docs/serving.md) ----------------------------
    def to_payload(self, store) -> Dict:
        """JSON-safe structure for the artifact store.

        ``store(array) -> ref`` registers numpy payloads (diagonal
        tables, biases) with the artifact's array registry; everything
        else — uids, levels, Chebyshev coefficients, layouts — is plain
        JSON, so the format is inspectable and versionable.
        """
        return {
            "input_uid": self.input_uid,
            "output_uid": self.output_uid,
            "entry_level": self.entry_level,
            "input_norm": self.input_norm,
            "output_denorm": self.output_denorm,
            "input_layout": layout_payload(self.input_layout),
            "output_layout": layout_payload(self.output_layout),
            "instructions": [instr.to_payload(store) for instr in self.instructions],
        }

    @classmethod
    def from_payload(cls, payload: Dict, fetch) -> "FheProgram":
        """Rebuild a program saved by :meth:`to_payload` (bit-exact:
        float norms round-trip through JSON's repr, arrays through the
        artifact's npz registry)."""
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
        )

    def run_cleartext_packed(self, image: np.ndarray) -> np.ndarray:
        """Reference: run the packed linear algebra without encryption.

        Executes the same compiled program over plain slot vectors
        (exact polynomial activations included), isolating packing
        correctness from CKKS noise.
        """
        values: Dict[int, List[np.ndarray]] = {}
        values[self.input_uid] = self.input_layout.pack(
            np.asarray(image) / self.input_norm
        )
        slots = self.input_layout.slots
        for instr in self.instructions:
            values[instr.out_uid] = instr.execute_cleartext(values, slots)
        out = values[self.output_uid]
        return self.output_layout.unpack(out) * self.output_denorm
