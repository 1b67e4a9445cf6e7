"""Real CKKS bootstrapping: ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff.

The paper (and this reproduction's compiler) treats bootstrapping as a
primitive with a fixed external contract: level reset to L_eff, L_boot
levels consumed, bounded added error, large latency.  The default toy
backend satisfies that contract with an oracle refresh
(docs/substitutions.md, "Oracle bootstrap contract").
This module implements the *actual* pipeline on top of the exact toy
CKKS arithmetic, validating that the substituted primitive behaves like
the real one:

1. **ModRaise** — the level-0 ciphertext's centered coefficients are
   reinterpreted modulo the full chain Q_L.  Over the integers the
   payload becomes ``u + q0*I`` for an overflow polynomial ``I`` bounded
   by half the secret's Hamming weight (sparse ternary secrets keep this
   window small — the classic Cheon et al. setting; Bossuat et al. [11]
   lift the sparsity requirement with a range-extension we do not need
   at toy scale).
2. **CoeffToSlot** — a homomorphic linear transform moving polynomial
   coefficients into slots.  Because the decoding matrix V = [E; conj(E)]
   satisfies V V^H = N*I, its inverse is V^H / N, and each output half
   is a diagonal-method matvec on (ct, conj(ct)) — the machinery of
   paper Section 3, reused inside bootstrapping just as the paper
   reuses its matvec kernels for bootstrap transforms.  Both halves run
   as ONE ``FheBackend.matvec_fused`` call off one key-switch digit
   decomposition: the conjugate-matrix diagonals are
   conjugation-composed Galois elements ``("conj", k)`` of the same
   input, so the conjugation never pays a standalone key switch.
3. **EvalMod** — the modular reduction x -> x mod q0 is approximated by
   the scaled sine q0/(2*pi) * sin(2*pi*x/q0), fitted as a Chebyshev
   series and evaluated with the errorless BSGS evaluator of
   :mod:`repro.core.approx.evaluator`.
4. **SlotToCoeff** — the forward transform E moves the cleaned
   coefficients back (one fused matvec over both halves), yielding a
   fresh ciphertext at scale Delta whose slots approximate the original
   message.

Every transform runs through the fused deferred-mod-down matvec
(docs/hoisting.md); the BSGS baby/giant split survives only as the
"# Rots" count the transforms report to the ledger.  Encoded transform
tables and the EvalMod / re-centering constants persist across
bootstrap calls (the pipeline always runs at the same levels and
scales).

Use :func:`repro.ckks.params.bootstrap_parameters` for a parameter set
sized for this pipeline, and ``ToyBackend(params, real_bootstrap=True)``
to route ``bootstrap()`` calls through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.params import RingType
from repro.core.approx.chebyshev import ChebyshevPoly, chebyshev_fit
from repro.core.approx.evaluator import (
    cached_const_plaintext,
    evaluate_chebyshev,
)


def overflow_bound(hamming_weight: int) -> int:
    """Worst-case ||I||_inf of the ModRaise overflow polynomial.

    |c0 + c1*s| <= q0/2 * (1 + ||s||_1), so |I| <= (1 + h) / 2 + 1.
    """
    return (hamming_weight + 1) // 2 + 2


def scaled_sine(q0_over_delta: float, window: int, degree: int) -> ChebyshevPoly:
    """Chebyshev fit of G(x) = (q0 / (2*pi*Delta)) * sin(2*pi*B*x) on [-1, 1].

    With EvalMod inputs x = (u + q0*I) / (q0*B), G(x) recovers u/Delta up
    to the cubic sine linearization error ((2*pi*u/q0)^2 / 6 relative).
    The fit converges once ``degree`` exceeds ~ e*pi*B.
    """
    amplitude = q0_over_delta / (2.0 * math.pi)
    two_pi_b = 2.0 * math.pi * window

    def fn(x):
        return amplitude * np.sin(two_pi_b * np.asarray(x))

    return chebyshev_fit(fn, degree)


def shifted_cosine(window: int, double_angles: int, degree: int) -> ChebyshevPoly:
    """Chebyshev fit of cos(2*pi*(B*x - 1/4) / 2^r) on [-1, 1].

    The double-angle reduction of Han-Ki / Bossuat et al. [11]: after
    ``r = double_angles`` applications of cos(2t) = 2 cos(t)^2 - 1 the
    result equals cos(2*pi*(B*x - 1/4)) = sin(2*pi*B*x).  The base fit
    only needs degree ~ e*pi*B / 2^r, which is what makes *dense*
    (non-sparse) secrets — whose overflow window B grows with the ring
    degree — tractable.  The q0/(2*pi*Delta) output amplitude is folded
    into the SlotToCoeff matrices by the caller.
    """
    scale = 2.0 * math.pi / (1 << double_angles)

    def fn(x):
        return np.cos(scale * (window * np.asarray(x) - 0.25))

    return chebyshev_fit(fn, degree)


class CkksBootstrapper:
    """Full bootstrapping pipeline over an exact :class:`ToyBackend`.

    Args:
        backend: a :class:`repro.backend.toy.ToyBackend` whose parameters
            use a sparse ternary secret (``secret_hamming_weight > 0``)
            and the standard ring.
        eval_degree: degree of the EvalMod Chebyshev series.  Must exceed
            roughly e*pi*B / 2^double_angles for the fit to converge,
            where B is the sine window derived from the secret.
        window: override for the sine window B (defaults to the
            worst-case overflow bound plus one).
        double_angles: number of cos(2t) = 2 cos(t)^2 - 1 reduction steps
            (Han-Ki / Bossuat et al. [11]).  Zero keeps the direct
            scaled-sine fit; positive values trade one level per step
            (plus one scale-pinning level) for an exponentially smaller
            base degree.  This is the mechanism that makes dense secrets
            viable in production libraries; at the toy ring's 30-bit
            prime width the rescale-noise floor (amplified 4x per
            doubling) still requires a sparse secret here.
    """

    def __init__(
        self,
        backend,
        eval_degree: int = 63,
        window: Optional[int] = None,
        double_angles: int = 0,
    ):
        params = backend.params
        if params.ring_type is not RingType.STANDARD:
            raise ValueError("bootstrapping requires the standard ring")
        if not params.secret_hamming_weight:
            raise ValueError(
                "the real pipeline needs a sparse ternary secret; "
                "use repro.ckks.params.bootstrap_parameters()"
            )
        self.backend = backend
        self.params = params
        self.n = params.slot_count
        self.double_angles = double_angles
        self.window = window or overflow_bound(params.secret_hamming_weight) + 1
        effective_b = self.window / (1 << double_angles)
        if eval_degree < math.e * math.pi * effective_b:
            raise ValueError(
                f"eval_degree {eval_degree} too small for sine window "
                f"{self.window} at {double_angles} double-angle steps "
                f"(need > {math.e * math.pi * effective_b:.0f})"
            )
        q0 = params.primes[0]
        self.q0 = q0
        amplitude = q0 / params.scale / (2.0 * math.pi)
        if double_angles:
            self.evalmod_poly = shifted_cosine(self.window, double_angles, eval_degree)
            self._stc_gain = amplitude
        else:
            self.evalmod_poly = scaled_sine(q0 / params.scale, self.window, eval_degree)
            self._stc_gain = 1.0
        self._build_transform_matrices()
        self._evalmod_depth: Optional[int] = None
        # Per-transform diagonal plans (the nonzero diagonals and their
        # "# Rots" accounting) plus encoded-plaintext caches, both
        # persistent across bootstrap calls — the transforms always run
        # at the same level and scale.
        self._plans: dict = {}
        self._pt_caches: dict = {}

    # ------------------------------------------------------------------
    # Transform matrices
    # ------------------------------------------------------------------
    def _build_transform_matrices(self) -> None:
        """Decoding matrix E and its conjugate-stacked inverse.

        E[j, k] = w^(k * 5^j mod 2N) evaluates coefficient k at slot j's
        root of unity; V = [E; conj(E)] is sqrt(N)-scaled unitary, so
        CoeffToSlot's matrix is simply V^H / N.
        """
        n, big_n = self.n, self.params.ring_degree
        two_n = 2 * big_n
        exps = np.empty(n, dtype=np.int64)
        e = 1
        for j in range(n):
            exps[j] = e
            e = (e * 5) % two_n
        roots = np.exp(1j * np.pi * np.arange(two_n) / big_n)
        decode = roots[np.outer(exps, np.arange(big_n)) % two_n]
        stacked = np.vstack([decode, np.conj(decode)])
        inverse = np.conj(stacked.T) / big_n
        # CoeffToSlot: u[:n] = M1_lo z + M2_lo conj(z); u[n:] likewise.
        self.cts_lo = (inverse[:n, :n], inverse[:n, n:])
        self.cts_hi = (inverse[n:, :n], inverse[n:, n:])
        # SlotToCoeff: z = E_lo u[:n] + E_hi u[n:].  The double-angle
        # path leaves EvalMod's output at unit sine amplitude, so the
        # q0/(2*pi*Delta) gain folds into these matrices for free.
        self.stc_lo = decode[:, :n] * self._stc_gain
        self.stc_hi = decode[:, n:] * self._stc_gain

    # ------------------------------------------------------------------
    # Diagonal-method matvec over live ciphertexts
    # ------------------------------------------------------------------
    def _transform_plan(
        self, table: Optional[str], pairs: Sequence[Tuple[Ciphertext, np.ndarray]]
    ) -> dict:
        """Diagonal plan for one named transform, built once and cached.

        Extracts the nonzero diagonals of every matrix in ``pairs``:

        - ``terms``: (0, input_index, offset) -> diagonal slot vector,
          the shape :meth:`FheBackend.matvec_fused` consumes (every
          offset rotates the input directly off one shared digit
          decomposition);
        - ``rot_count``: the BSGS rotation count (nonzero babies per
          input + nonzero giants, at the balanced split n1 ~ sqrt(n))
          reported to the ledger, keeping "# Rots" comparable with the
          paper tables.  Rotation by 0 is free and never counted.
        """
        plan = self._plans.get(table) if table is not None else None
        if plan is not None:
            return plan
        n = self.n
        n1 = 1 << max(1, math.ceil(math.log2(math.sqrt(n))))
        indices = np.arange(n)
        terms: dict = {}
        babies = set()
        giants = set()
        for i, (_, matrix) in enumerate(pairs):
            for k in range(n):
                diagonal = matrix[indices, (indices + k) % n]
                if np.max(np.abs(diagonal)) < 1e-15:
                    continue
                terms[(0, i, k)] = diagonal
                babies.add((i, k % n1))
                giants.add(k - k % n1)
        rot_count = sum(1 for _, b in babies if b) + sum(1 for g in giants if g)
        plan = {"terms": terms, "rot_count": rot_count}
        if table is not None:
            self._plans[table] = plan
        return plan

    def _matvec_sum(
        self,
        pairs: Sequence[Tuple[Ciphertext, np.ndarray]],
        pt_scale: Fraction,
        table: Optional[str] = None,
    ) -> Ciphertext:
        """Evaluate sum_i M_i x_i with one shared level (paper eq. 1).

        All input ciphertexts must share a level and scale.  Runs fully
        hoisted: one key-switch digit decomposition per input
        ciphertext, diagonal plaintexts encoded once per transform and
        cached across bootstrap calls, products accumulated in the
        extended Q_l * P basis, and one deferred mod-down for the output
        (Bossuat et al. double hoisting).  A single rescale lands the
        output on the target scale.
        """
        backend = self.backend
        plan = self._transform_plan(table, pairs)
        level = backend.level_of(pairs[0][0])
        cache = self._pt_caches.setdefault(
            ("fused", table) + backend.plaintext_cache_key(level, pt_scale), {}
        )
        (out,) = backend.matvec_fused(
            [ct for ct, _ in pairs],
            plan["terms"],
            1,
            pt_scale,
            pt_cache=cache,
            charged_rotations=plan["rot_count"],
        )
        return backend.rescale(out)

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _prescale(self, raised: Ciphertext) -> Ciphertext:
        """Move the declared scale near one rescale prime (one level).

        The ModRaise output sits at scale q0*B, so encoding the
        CoeffToSlot matrix in a single level would squeeze its entries
        by q0*B / q_l and lose ~4 bits to plaintext rounding — rounding
        error is later amplified by the EvalMod sine derivative
        (~B*q0/Delta).  Multiplying by an all-ones plaintext at an
        *exact power-of-two* scale is error-free and re-centres the
        scale, doubling the matrix entries' usable precision.
        """
        backend = self.backend
        level = backend.level_of(raised)
        rescale_prime = self.params.primes[level]
        target_bits = self.params.prime_bits
        shift = round(
            target_bits
            - math.log2(float(backend.scale_of(raised)))
            + math.log2(rescale_prime)
        )
        ones = self._ones_pt(level, Fraction(1 << max(shift, 1)))
        return backend.rescale(backend.mul_plain(raised, ones))

    def _ones_pt(self, level: int, scale: Fraction):
        """All-ones plaintext at an exact (level, scale), cached across
        bootstrap calls (the pipeline re-centres scales with the same
        handful of constants on every refresh)."""
        return cached_const_plaintext(
            self.backend,
            1.0,
            level,
            scale,
            self._pt_caches.setdefault("ones_consts", {}),
        )

    def _shared_cts_plan(self) -> dict:
        """CoeffToSlot plan with the conjugation folded into the terms.

        Reuses the per-half plans (``cts_lo`` / ``cts_hi``) but
        re-keys every conjugate-matrix diagonal from input 1 to a
        conjugation-composed Galois element ``("conj", k)`` on input 0,
        and stacks both halves as output blocks 0 and 1 of a single
        fused call.  The whole CoeffToSlot then costs ONE digit
        decomposition (of the raised ciphertext's c1), one inner
        product per distinct element, and one deferred mod-down per
        output half — the standalone conjugation key switch is gone.

        ``rot_count`` is both halves' BSGS counts plus 1 for the
        conjugation (an explicit HRot in the paper's accounting).
        """
        plan = self._plans.get("cts_shared")
        if plan is not None:
            return plan
        halves = {
            "cts_lo": self.cts_lo,
            "cts_hi": self.cts_hi,
        }
        terms: dict = {}
        rot_count = 1  # the conjugation itself
        for bo, (table, (direct, conj)) in enumerate(halves.items()):
            sub = self._transform_plan(table, [(None, direct), (None, conj)])
            rot_count += sub["rot_count"]
            for (_, i, k), diagonal in sub["terms"].items():
                offset = k if i == 0 else ("conj", k)
                terms[(bo, 0, offset)] = diagonal
        plan = {"terms": terms, "rot_count": rot_count}
        self._plans["cts_shared"] = plan
        return plan

    def _coeff_to_slot_shared(
        self, raised: Ciphertext, pt_scale: Fraction
    ) -> Tuple[Ciphertext, Ciphertext]:
        """Both CoeffToSlot halves off one shared decomposition."""
        backend = self.backend
        plan = self._shared_cts_plan()
        level = backend.level_of(raised)
        cache = self._pt_caches.setdefault(
            ("cts_shared",) + backend.plaintext_cache_key(level, pt_scale), {}
        )
        lo, hi = backend.matvec_fused(
            [raised],
            plan["terms"],
            2,
            pt_scale,
            pt_cache=cache,
            charged_rotations=plan["rot_count"],
        )
        return backend.rescale(lo), backend.rescale(hi)

    def coeff_to_slot(self, raised: Ciphertext) -> Tuple[Ciphertext, Ciphertext]:
        """Move coefficients into slots: one shared multiplicative level.

        Input: the ModRaise output at declared scale q0*B.  Outputs: two
        ciphertexts whose slots hold (u + q0*I)[:n] / (q0*B) and the
        upper half — EvalMod-ready values in [-1, 1] — at scale Delta.

        ONE key-switch digit decomposition is shared across everything
        CoeffToSlot does — both halves' rotations *and* the conjugation,
        which rides the decomposition as composed Galois elements
        instead of paying its own key switch
        (:meth:`_coeff_to_slot_shared`).
        """
        backend = self.backend
        level = backend.level_of(raised)
        rescale_prime = self.params.primes[level]
        # Land the output scale on the *next* rescale prime q_{l-1}: the
        # Chebyshev power ladder is then scale-stationary (s^2 / q = s),
        # and the large q/s0 ratio keeps the encoded CoeffToSlot matrix
        # entries wide enough to survive plaintext rounding.
        out_scale = Fraction(self.params.primes[level - 1])
        pt_scale = out_scale * rescale_prime / backend.scale_of(raised)
        return self._coeff_to_slot_shared(raised, pt_scale)

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Remove the q0*I overflow with the scaled-sine approximation.

        With ``double_angles > 0`` this evaluates the shifted cosine at
        the reduced angle and squares its way back up, one level per
        doubling: cos(2t) = 2 cos(t)^2 - 1.
        """
        out = evaluate_chebyshev(
            self.backend,
            ct,
            self.evalmod_poly,
            pt_cache=self._pt_caches.setdefault("evalmod_consts", {}),
        )
        if self.double_angles:
            out = self._pin_scale_to_prime(out)
        for _ in range(self.double_angles):
            out = self._double_angle_step(out)
        return out

    def _pin_scale_to_prime(self, ct: Ciphertext) -> Ciphertext:
        """Raise the scale to the next rescale prime (one level).

        The doubling recurrence maps scale s to s^2 / q, which collapses
        toward zero from the evaluator's Delta^2/q output scale.  Pinned
        at s ~ q the recurrence is stationary and every doubling's
        plaintext constant stays wide enough to encode exactly.
        """
        backend = self.backend
        level = backend.level_of(ct)
        target = Fraction(self.params.primes[level - 1])
        ratio = target * self.params.primes[level] / backend.scale_of(ct)
        return backend.rescale(
            backend.mul_plain(ct, self._ones_pt(level, ratio))
        )

    def _double_angle_step(self, ct: Ciphertext) -> Ciphertext:
        backend = self.backend
        squared = backend.mul(ct, ct)
        doubled = backend.add(squared, squared)
        minus_one = backend.encode(
            -np.ones(self.n), backend.level_of(doubled), backend.scale_of(doubled)
        )
        return backend.rescale(backend.add_plain(doubled, minus_one))

    def slot_to_coeff(self, lo: Ciphertext, hi: Ciphertext) -> Ciphertext:
        """Return coefficients to their places: one multiplicative level."""
        backend = self.backend
        level = min(backend.level_of(lo), backend.level_of(hi))
        lo = backend.level_down(lo, level)
        hi = backend.level_down(hi, level)
        rescale_prime = self.params.primes[level]
        pt_scale = (
            Fraction(self.params.scale) * rescale_prime / backend.scale_of(lo)
        )
        return self._matvec_sum(
            [(lo, self.stc_lo), (hi, self.stc_hi)], pt_scale, "stc"
        )

    # ------------------------------------------------------------------
    # End-to-end
    # ------------------------------------------------------------------
    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh ``ct`` to level L_eff via the real pipeline.

        The ledger's ``bootstrap`` count still advances (the component
        rotations/multiplications charge their own modeled latency).
        """
        from repro.obs.tracing import get_tracer

        backend = self.backend
        if ct.scale != Fraction(self.params.scale):
            raise ValueError(
                f"bootstrap input must be at scale Delta, got {ct.scale}"
            )
        self.backend.ledger.charge("bootstrap", 0.0)
        tracer = get_tracer()
        with tracer.span(
            "bootstrap",
            category="bootstrap",
            ledger=backend.ledger,
            level_in=ct.level,
        ) as boot_span:
            if ct.level > 0:
                ct = backend.level_down(ct, 0)
            declared = Fraction(self.q0) * self.window
            with tracer.span("mod_raise", category="bootstrap"):
                raised = backend.context.mod_raise(ct, declared)
                raised = self._prescale(raised)
            with tracer.span(
                "coeff_to_slot", category="bootstrap", ledger=backend.ledger
            ):
                lo, hi = self.coeff_to_slot(raised)
            with tracer.span(
                "eval_mod", category="bootstrap", ledger=backend.ledger
            ):
                lo = self.eval_mod(lo)
                hi = self.eval_mod(hi)
            with tracer.span(
                "slot_to_coeff", category="bootstrap", ledger=backend.ledger
            ):
                fresh = self.slot_to_coeff(lo, hi)
            landing = backend.level_of(fresh)
            boot_span.set(level_out=self.params.effective_level, landing=landing)
        if self._evalmod_depth is None:
            self._evalmod_depth = self.params.max_level - 3 - landing
        if landing < self.params.effective_level:
            raise ValueError(
                f"pipeline lands at level {landing} < configured L_eff "
                f"{self.params.effective_level}; increase boot_levels"
            )
        if fresh.scale != Fraction(self.params.scale):
            raise AssertionError(
                f"errorless scale discipline violated: {fresh.scale}"
            )
        return backend.level_down(fresh, self.params.effective_level)

    @property
    def consumed_levels(self) -> Optional[int]:
        """L_boot actually spent by the pipeline (known after first run).

        One prescale level + one CoeffToSlot level + the EvalMod
        Chebyshev depth + one SlotToCoeff level.
        """
        if self._evalmod_depth is None:
            return None
        return 3 + self._evalmod_depth
