"""Homomorphic Chebyshev evaluation with exact scale management.

BSGS / Paterson-Stockmeyer over the Chebyshev basis: baby powers
T_1..T_{m-1}, giant powers T_m, T_2m, T_4m..., and the recursive split
p = q * T_g + r using T_{g+i} = 2 T_i T_g - T_{g-i}.

Scale discipline (the errorless style of Bossuat et al. [11]): scales
are tracked as exact Fractions; every addition happens between operands
brought to the *same pre-rescale scale*, using the freedom to encode
plaintext constants at arbitrary rational scales.  Ciphertext-ciphertext
scale alignment uses a multiply-by-ones plaintext at the compensating
scale, which shares the subsequent rescale (no extra level).  The one
systematic difference from [11]: our base-case coefficient combination
spends one level, so a degree-d polynomial consumes
ceil(log2(d+1)) + 1 levels instead of ceil(log2(d+1)) (documented in
docs/substitutions.md).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Union

import numpy as np

from repro.core.approx.chebyshev import ChebyshevPoly

_COEFF_EPS = 1e-12


def _largest_giant(degree: int, m: int) -> int:
    g = m
    while 2 * g <= degree:
        g *= 2
    return g


class _ChebEvaluator:
    """One evaluation of a Chebyshev series on one ciphertext.

    The constant plaintexts it multiplies and adds — coefficients,
    scale-matching ones, the T_{2a} correction — are the backend's
    (:meth:`FheBackend.constant`), so hot repeated evaluations of one
    polynomial (an activation on every request, the bootstrap EvalMod
    on every refresh) encode nothing after the first call.
    """

    def __init__(self, backend, ct):
        self.backend = backend
        self.delta = Fraction(backend.params.scale)
        self.powers: Dict[int, object] = {1: ct}

    # -- scale/level plumbing ------------------------------------------------
    def _align_level(self, ct, level: int):
        if self.backend.level_of(ct) > level:
            return self.backend.level_down(ct, level)
        return ct

    def _match(self, ct, target_scale: Fraction, level: int):
        """Bring ct to the pre-rescale scale ``target_scale`` by a
        multiply-with-ones at the compensating scale (exact, levels
        shared with the caller's rescale)."""
        ct = self._align_level(ct, level)
        current = self.backend.scale_of(ct)
        if current == target_scale:
            return ct
        ratio = target_scale / current
        if ratio < 1:
            raise ValueError("scale matching only raises scales")
        return self.backend.mul_plain(ct, self.backend.constant(1.0, level, ratio))

    def _double(self, ct):
        return self.backend.add(ct, ct)

    # -- Chebyshev powers ----------------------------------------------------
    def power(self, k: int):
        """T_k(ct), built by the product recurrence with shared rescale."""
        if k in self.powers:
            return self.powers[k]
        a = (k + 1) // 2
        b = k // 2
        ta = self.power(a)
        tb = self.power(b)
        level = min(self.backend.level_of(ta), self.backend.level_of(tb))
        ta = self._align_level(ta, level)
        tb = self._align_level(tb, level)
        prod = self._double(self.backend.mul(ta, tb))
        target = self.backend.scale_of(prod)
        if a == b:
            # T_{2a} = 2 T_a^2 - T_0; subtract the constant 1 exactly.
            minus_one = self.backend.constant(-1.0, level, target)
            prod = self.backend.add_plain(prod, minus_one)
        else:
            correction = self._match(self.power(a - b), target, level)
            prod = self.backend.sub(prod, correction)
        result = self.backend.rescale(prod)
        self.powers[k] = result
        return result

    # -- series evaluation ------------------------------------------------------
    def base_terms(self, coeffs, level: int, target: Fraction):
        """Sum of c_j T_j as an (unrescaled) ciphertext at ``target``.

        Returns None when every coefficient with j >= 1 is ~zero.
        """
        acc = None
        for j, c in enumerate(coeffs):
            if j == 0 or abs(c) < _COEFF_EPS:
                continue
            tj = self._align_level(self.power(j), level)
            pt_scale = target / self.backend.scale_of(tj)
            term = self.backend.mul_plain(tj, self.backend.constant(c, level, pt_scale))
            acc = term if acc is None else self.backend.add(acc, term)
        if acc is not None and abs(coeffs[0]) > _COEFF_EPS:
            acc = self.backend.add_plain(
                acc, self.backend.constant(coeffs[0], level, target)
            )
        return acc

    def evaluate(self, coeffs, m: int):
        """Recursively evaluate the series; returns a ciphertext or a
        ('const', value) marker for coefficient-only remainders."""
        degree = len(coeffs) - 1
        while degree > 0 and abs(coeffs[degree]) < _COEFF_EPS:
            degree -= 1
        coeffs = coeffs[: degree + 1]
        if degree == 0:
            return ("const", coeffs[0])
        if degree < m:
            level = min(
                self.backend.level_of(self.power(j))
                for j in range(1, degree + 1)
                if abs(coeffs[j]) >= _COEFF_EPS or j == degree
            )
            target = self.delta * self.delta
            acc = self.base_terms(coeffs, level, target)
            if acc is None:
                return ("const", coeffs[0])
            return self.backend.rescale(acc)

        g = _largest_giant(degree, m)
        q = [coeffs[g]] + [2.0 * coeffs[g + i] for i in range(1, degree - g + 1)]
        r = list(coeffs[:g])
        for i in range(1, degree - g + 1):
            r[g - i] -= coeffs[g + i]

        tg = self.power(g)
        q_val = self.evaluate(q, m)
        if isinstance(q_val, tuple):
            level = self.backend.level_of(tg)
            pt = self.backend.constant(q_val[1], level, self.delta)
            prod = self.backend.mul_plain(self._align_level(tg, level), pt)
        else:
            level = min(self.backend.level_of(q_val), self.backend.level_of(tg))
            prod = self.backend.mul(
                self._align_level(q_val, level), self._align_level(tg, level)
            )
        target = self.backend.scale_of(prod)
        level = self.backend.level_of(prod)

        r_degree = len(r) - 1
        while r_degree > 0 and abs(r[r_degree]) < _COEFF_EPS:
            r_degree -= 1
        if r_degree < m:
            r_ct = self.base_terms(r[: r_degree + 1], level, target)
            if r_ct is None and abs(r[0]) > _COEFF_EPS:
                prod = self.backend.add_plain(
                    prod, self.backend.constant(r[0], level, target)
                )
            elif r_ct is not None:
                prod = self.backend.add(prod, r_ct)
        else:
            r_val = self.evaluate(r[: r_degree + 1], m)
            if isinstance(r_val, tuple):
                prod = self.backend.add_plain(
                    prod, self.backend.constant(r_val[1], level, target)
                )
            else:
                common = min(level, self.backend.level_of(r_val))
                prod = self._align_level(prod, common)
                matched = self._match(r_val, target, common)
                prod = self.backend.add(prod, matched)
        return self.backend.rescale(prod)


def evaluate_chebyshev(backend, ct, poly: Union[ChebyshevPoly, "object"]):
    """Evaluate a Chebyshev-basis polynomial on a ciphertext.

    The input ciphertext must hold values in [-1, 1] (range estimation
    guarantees this for activations).
    """
    coeffs = list(poly.coeffs)
    degree = len(coeffs) - 1
    if degree < 1:
        raise ValueError("constant polynomials need no evaluation")
    m = 1 << max(1, math.ceil(math.log2(math.sqrt(degree + 1))))
    ev = _ChebEvaluator(backend, ct)
    result = ev.evaluate(coeffs, m)
    if isinstance(result, tuple):
        raise ValueError("polynomial reduced to a constant")
    return result


_DEPTH_CACHE: Dict[tuple, int] = {}


def measure_poly_depth(poly: ChebyshevPoly) -> int:
    """Levels consumed by :func:`evaluate_chebyshev` for this exact
    polynomial (zero coefficients change the recursion, so depth is a
    property of the coefficients, not just the degree)."""
    key = tuple(abs(c) >= _COEFF_EPS for c in poly.coeffs)
    if key not in _DEPTH_CACHE:
        from repro.backend.sim import SimBackend
        from repro.ckks.params import paper_parameters

        backend = SimBackend(paper_parameters(), noise_free=True)
        ct = backend.encode_encrypt(np.zeros(4))
        out = evaluate_chebyshev(backend, ct, poly)
        _DEPTH_CACHE[key] = backend.params.max_level - backend.level_of(out)
    return _DEPTH_CACHE[key]


def poly_eval_ops(degree: int) -> Dict[str, int]:
    """HMult/PMult/rescale counts of one evaluation (for cost models)."""
    from repro.backend.sim import SimBackend
    from repro.ckks.params import paper_parameters

    backend = SimBackend(paper_parameters(), noise_free=True)
    ct = backend.encode_encrypt(np.zeros(4))
    poly = ChebyshevPoly(tuple([0.0, 1.0] + [1e-3] * (degree - 1)))
    evaluate_chebyshev(backend, ct, poly)
    return dict(backend.ledger.counts)
