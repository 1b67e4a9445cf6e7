"""Shared helpers for hoisted Galois offsets.

A hoisted offset — the unit `FheBackend.matvec_fused` and the exact
evaluator's hoisted walk (`ToyBackend.rotate_hoisted_slabs`) operate
on — is either a plain
rotation step (``int``) or a conjugation-composed element
``("conj", step)``: conjugate first, then rotate by ``step`` (one
Galois automorphism, exponent ``conj_exp * 5^step mod 2N``).

This module is deliberately dependency-free so the lightweight
functional simulator can order mixed offsets without importing the
exact evaluator.
"""

from __future__ import annotations

from typing import Dict


def galois_offset_key(offset):
    """Canonical sort key for hoisted Galois offsets.

    Mixed collections of ``int`` and ``("conj", k)`` offsets are not
    orderable by Python's default comparison, so every consumer that
    needs a deterministic iteration order sorts with this key.
    """
    if isinstance(offset, tuple):
        return (1, offset[1])
    return (0, offset)


def fused_term_groups(terms) -> Dict:
    """``(out block, in block) -> offsets`` of a fused matvec's terms, in
    the row order of the group's static table: its nonzero offsets in
    :func:`galois_offset_key` order — the order
    :meth:`ToyBackend.rotate_hoisted_slabs` walks them in, so each slab
    meets a contiguous run of the table's rows — then the ``off == 0``
    term, if the group has one, as the single trailing row.
    """
    groups: Dict = {}
    for bo, bi, off in terms:
        groups.setdefault((bo, bi), []).append(off)
    for offsets in groups.values():
        offsets.sort(key=lambda off: (off == 0, galois_offset_key(off)))
    return groups
