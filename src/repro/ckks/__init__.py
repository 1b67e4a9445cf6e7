"""A from-scratch RNS-CKKS implementation, exact on small rings.

This package is the cryptographic substrate of the reproduction: the
datatypes (cleartext / plaintext / ciphertext), canonical-embedding
encoding, RLWE encryption, and the homomorphic evaluator (PAdd, HAdd,
PMult, HMult, HRot, conjugation, rescaling, hybrid key switching) from
paper Section 2.  Bootstrapping comes in two flavours: the *oracle*
primitive used by default (paper's external contract — level reset to
L_eff, fixed L_boot budget, calibrated noise; docs/substitutions.md)
and the
*real* ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff pipeline in
:mod:`repro.ckks.bootstrap`, which validates that contract end to end.
"""

from repro.ckks.bootstrap import (
    CkksBootstrapper,
    overflow_bound,
    scaled_sine,
    shifted_cosine,
)
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.params import (
    CkksParameters,
    RingType,
    bootstrap_parameters,
    double_angle_bootstrap_parameters,
    toy_parameters,
)

__all__ = [
    "Ciphertext",
    "Plaintext",
    "CkksContext",
    "CkksParameters",
    "CkksBootstrapper",
    "RingType",
    "bootstrap_parameters",
    "double_angle_bootstrap_parameters",
    "overflow_bound",
    "scaled_sine",
    "shifted_cosine",
    "toy_parameters",
]
