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


def split_offset(offset, n1):
    """``(giant, baby)`` of a hoisted offset under the baby modulus
    ``n1`` of a split fused walk: ``offset = giant + baby`` with ``baby
    = offset % n1``.  Unsplit (``n1`` None, or at least every offset)
    and for a conjugation-composed element, the giant is 0 and the baby
    the whole offset."""
    if n1 is None or isinstance(offset, tuple):
        return 0, offset
    return offset - offset % n1, offset % n1


def fused_term_groups(terms, n1) -> Dict:
    """``(out block, in block) -> offsets`` of a fused matvec's terms, in
    the row order of the group's static table, split by the baby modulus
    ``n1`` (None: unsplit): giant by giant, ascending, each giant's
    offsets with a nonzero baby in :func:`galois_offset_key` order of the
    baby — the order :meth:`ToyBackend.rotate_hoisted_slabs` walks the
    babies in, so each slab meets a contiguous run of every giant's rows
    — then the giant's own offset (baby 0), if the group has it, as the
    giant's last row.  Unsplit every giant is 0: the nonzero offsets,
    then the ``off == 0`` term last.
    """
    groups: Dict = {}
    for bo, bi, off in terms:
        groups.setdefault((bo, bi), []).append(off)

    def row(off):
        giant, baby = split_offset(off, n1)
        return giant, baby == 0, galois_offset_key(baby)

    for offsets in groups.values():
        offsets.sort(key=row)
    return groups
