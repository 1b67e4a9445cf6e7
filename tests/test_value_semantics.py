"""Ciphertexts behave as values: no public op writes an operand.

A ciphertext is one ``(2, l+1, N)`` residue tensor and a plaintext one
``(l+1, N)`` tensor, so a single shared array is all it takes for an op
to alias an operand into its result — a sliced ``level_down``, the
``+=`` accumulators of the fused matvec — and a later in-place write to
corrupt a value some other instruction still reads (a Square feeding
two linears was once broken this way).  For every public
:class:`ToyBackend` op, every operand's bytes are the same after the
call, including a cached :meth:`FheBackend.constant` plaintext (a
scalar's ``(l+1, 1)`` column, which the plaintext ops broadcast) and an
:class:`ExecutionState` register that two instructions read, and every
tensor an op returns is a fresh, read-only, C-contiguous
``(2, l+1, N)`` ciphertext.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from repro.backend import ToyBackend
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.params import bootstrap_parameters, toy_parameters
from repro.core.packing.matvec import held_tables
from repro.core.program import AddJoinInstr, ExecutionState, SquareInstr

LEVEL = 4


@pytest.fixture(scope="module")
def backend():
    params = toy_parameters(ring_degree=64, max_level=LEVEL, boot_levels=1, scale_bits=20)
    return ToyBackend(params, seed=3)


@pytest.fixture(scope="module")
def operands(backend):
    rng = np.random.default_rng(5)
    n = backend.slot_count
    a = backend.encode_encrypt(rng.uniform(-0.5, 0.5, n))
    b = backend.encode_encrypt(rng.uniform(-0.5, 0.5, n))
    const = backend.constant(0.25, a.level, a.scale)
    return a, b, const


def _matvec(backend, a, b, n1):
    """A two-input, two-output fused matvec with a baby-0 term and a
    conjugation-composed offset; with ``n1`` its giants take the split
    walk, whose giant partials are modded down, rotated and summed."""
    rng = np.random.default_rng(7)
    n = backend.slot_count
    offsets = [0, 1, 2, 3, 5, 6, 9, ("conj", 1)]
    terms = {
        (bo, bi, off): rng.normal(size=n) * 0.1
        for bo in range(2)
        for bi in range(2)
        for off in offsets[bo::1 + bo]
    }
    pt_scale = Fraction(backend.params.data_primes[a.level])
    tables = held_tables({}, backend, terms, a.level, pt_scale, n1)
    return backend.matvec_fused([a, b], terms, 2, pt_scale, tables, n1)


OPS = {
    "add": lambda be, a, b, c: be.add(a, b),
    "sub": lambda be, a, b, c: be.sub(a, b),
    "add_plain": lambda be, a, b, c: be.add_plain(a, c),
    "mul_plain": lambda be, a, b, c: be.mul_plain(a, c),
    "mul": lambda be, a, b, c: be.mul(a, b),
    "square": lambda be, a, b, c: be.mul(a, a),
    "rescale": lambda be, a, b, c: be.rescale(a),
    "level_down": lambda be, a, b, c: be.level_down(a, LEVEL - 2),
    "level_down_same": lambda be, a, b, c: be.level_down(a, LEVEL),
    "rotate": lambda be, a, b, c: be.rotate(a, 3),
    "conjugate": lambda be, a, b, c: be.conjugate(a),
    "rotate_hoisted": lambda be, a, b, c: be.rotate_hoisted(a, [0, 1, 5]),
    "matvec_fused": lambda be, a, b, c: _matvec(be, a, b, None),
    "matvec_fused_split": lambda be, a, b, c: _matvec(be, a, b, 4),
    "rotate_sum_hoisted": lambda be, a, b, c: be.rotate_sum_hoisted(a, [1, 2, 3]),
    "bootstrap": lambda be, a, b, c: be.bootstrap(be.level_down(a, 0)),
}


def _values(result):
    """Every ciphertext or plaintext in an op's result."""
    if isinstance(result, dict):
        result = list(result.values())
    if not isinstance(result, list):
        result = [result]
    return [value for value in result if value is not None]


def _bytes(values):
    return [value.data.tobytes() for value in values]


@pytest.mark.parametrize("name", sorted(OPS))
def test_no_op_writes_an_operand(backend, operands, name):
    before = _bytes(operands)
    result = OPS[name](backend, *operands)
    assert _bytes(operands) == before
    out = _values(result)
    assert out
    n = backend.params.ring_degree
    for value in out:
        assert isinstance(value, Ciphertext)
        assert value.data.shape == (2, value.level + 1, n)
        assert value.data.flags.c_contiguous
        assert not value.data.flags.writeable
    # The cached constant is the same object, still holding its bytes.
    a, _, const = operands
    assert backend.constant(0.25, a.level, a.scale) is const
    assert const.data.shape == (LEVEL + 1, 1)


def test_a_returned_tensor_refuses_writes(backend, operands):
    a, b, const = operands
    for value in (backend.add(a, b), backend.level_down(a, 1), const):
        with pytest.raises(ValueError):
            value.data[0, 0] += 1


def test_a_ciphertext_is_frozen(operands):
    a, _, const = operands
    for value in (a, const):
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.scale = value.scale * 2


def test_a_ciphertext_checks_its_tensor():
    n = 16
    with pytest.raises(TypeError):
        Ciphertext(np.zeros((2, 3, n), np.int32), 2, Fraction(1), 8)
    with pytest.raises(ValueError):
        Ciphertext(np.zeros((2, 2, n), np.int64), 2, Fraction(1), 8)
    with pytest.raises(ValueError):
        Ciphertext(np.zeros((2, n, 3), np.int64).swapaxes(1, 2), 2, Fraction(1), 8)
    with pytest.raises(ValueError):
        Plaintext(np.zeros((2, 3, n), np.int64), 2, Fraction(1), 8)


def test_a_register_two_instructions_read(backend, operands):
    """Register 0 feeds a Square and a residual add, each of which
    levels it down to its own exec level first: after both, it holds
    the very ciphertext objects and bytes it held before."""
    a, _, _ = operands
    state = ExecutionState(backend)
    state.set(0, [a])
    before = _bytes(state.get(0))
    SquareInstr("sq", out_uid=1, exec_level=LEVEL - 1, boots_before=0, in_uid=0).execute(state)
    AddJoinInstr(
        "join", out_uid=2, exec_level=LEVEL - 2, boots_before=0, a_uid=0, b_uid=0
    ).execute(state)
    assert state.get(0)[0] is a
    assert _bytes(state.get(0)) == before
    assert [backend.level_of(state.get(uid)[0]) for uid in (1, 2)] == [LEVEL - 2, LEVEL - 2]


def test_the_real_bootstrap_writes_no_operand():
    """mod_raise and the real pipeline's transforms read their input
    only."""
    backend = ToyBackend(bootstrap_parameters(ring_degree=64), seed=7, real_bootstrap=True)
    rng = np.random.default_rng(3)
    ct = backend.encode_encrypt(rng.uniform(-0.5, 0.5, backend.slot_count), level=0)
    before = ct.data.tobytes()
    out = backend.bootstrap(ct)
    assert ct.data.tobytes() == before
    assert not out.data.flags.writeable
