"""A scalar constant is one RNS column.

:meth:`FheBackend.constant` holds a scalar in every slot (a Chebyshev
coefficient, the ones of a scale match, a ``T_2a - 1`` correction, a
matvec's zero block) at its information size: a ``(level + 1, 1)``
residue column on the exact backend, one float on the simulator.  The
column is pinned against the full encode it replaced, entry by entry and
through whole programs (:mod:`tests.reference.full_width_constants`),
and a warm ResNet-8 lane is pinned to hold nothing wider.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

import repro.orion.nn as on
from repro.backend import SimBackend, ToyBackend
from repro.ckks.params import toy_parameters
from repro.models import relu_act, resnet_cifar, silu_act
from repro.nn import init
from repro.orion import OrionNetwork
from tests.reference.full_width_constants import FullWidthConstants

#: ``resnet8_solo``'s parameter set (benchmarks/e2e/solo.py).
RESNET8_PARAMS = dict(ring_degree=2048, max_level=12, boot_levels=3, scale_bits=24)


#: 2^47 + 1/2 + 2^-40, whose float is 2^47 + 1/2 (the ulp there is
#: 2^-5): a .5 tie for the float product, which rint takes to the even
#: neighbour, while the exact product rounds the other way.
TIE_SCALE = Fraction(2**47) + Fraction(1, 2) + Fraction(1, 2**40)


def _compiled(build, shape, params):
    """The program of ``build()`` fitted on eight images, and one of
    them (an input inside the calibrated ranges)."""
    init.seed_init(0)
    onet = OrionNetwork(build(), shape)
    images = np.random.default_rng(0).normal(0.0, 0.5, (8,) + shape)
    onet.fit([images])
    return onet.compile(params).program, images[0]


@pytest.fixture(scope="module")
def resnet8():
    params = toy_parameters(**RESNET8_PARAMS)
    return (params,) + _compiled(
        lambda: resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8), params
    )


def _digest(output: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(output, dtype=np.float64).tobytes()).hexdigest()


def _run_both(params, program, image, seed):
    """The program's output on the column backend and on the full-width
    reference, each keyed from the same seed; and the column backend."""
    column = ToyBackend(params, seed=seed)
    full = FullWidthConstants(params, seed=seed)
    return program.run(column, image), program.run(full, image), column


class TestColumnIsTheEncode:
    """Each entry of the column is what the full encode of the filled
    slot vector holds in every column of the same row."""

    @pytest.fixture(scope="class")
    def backend(self):
        return ToyBackend(toy_parameters(ring_degree=64, max_level=4, scale_bits=20), seed=1)

    @pytest.mark.parametrize(
        "value,scale",
        [
            pytest.param(0.0, Fraction(1 << 20), id="zero"),
            pytest.param(-1.0, TIE_SCALE, id="half-tie"),
            pytest.param(0.3, Fraction(1 << 20), id="plain"),
            # 0.75 * 2^70 is past 2^62: the encoder's bigint reduction.
            pytest.param(0.75, Fraction(1 << 70), id="past-2^62"),
        ],
    )
    def test_column_equals_full_encode(self, backend, value, scale):
        level = backend.params.max_level
        column = backend.constant(value, level, scale)
        full = backend.encode(np.full(backend.slot_count, value), level, scale)
        assert column.data.shape == (level + 1, 1)
        assert column.data.dtype == np.int64
        assert not column.data.flags.writeable
        assert (column.level, column.scale, column.slot_count) == (
            full.level, full.scale, full.slot_count
        )
        assert np.array_equal(full.data, np.broadcast_to(column.data, full.data.shape))

    def test_the_tie_rounds_as_the_encoder(self, backend):
        """The rounded value is rint of the float product, as the
        encoder rounds, not the exact rational's rounding: -1 times
        ``TIE_SCALE`` goes to -2^47, where exactly it is nearer
        -2^47 - 1."""
        column = backend.constant(-1.0, 0, TIE_SCALE)
        q = backend.params.data_primes[0]
        assert round(-TIE_SCALE) == -(2**47) - 1
        assert column.data[0, 0] == -(2**47) % q


class TestProgramsAreBitExact:
    def test_resnet8(self, resnet8):
        got, want, _ = _run_both(*resnet8, seed=5)
        assert _digest(got) == _digest(want)

    def test_sign_composite_relu(self):
        params = toy_parameters(ring_degree=256, max_level=8, boot_levels=2, scale_bits=24)
        program, image = _compiled(
            lambda: on.Sequential(
                on.Flatten(), on.Linear(16, 8), relu_act((7, 7))(), on.Linear(8, 4)
            ),
            (1, 4, 4),
            params,
        )
        got, want, backend = _run_both(params, program, image, seed=6)
        assert backend.ledger.bootstraps > 0
        assert _digest(got) == _digest(want)


class TestMemoryPin:
    def test_a_warm_resnet8_lane_holds_columns(self, resnet8):
        """After one ResNet-8 run, every cached constant on the exact
        backend is ``level + 1`` words (16 KiB in all, where the
        full-width constants took ~12 MiB); on the simulator one float."""
        params, program, image = resnet8
        toy = ToyBackend(params, seed=2)
        sim = SimBackend(params, noise_free=True)
        for backend in (toy, sim):
            program.run(backend, image)
            assert len(backend._constants) > 100
        total = 0
        for plaintext in toy._constants.values():
            assert plaintext.data.nbytes == 8 * (plaintext.level + 1)
            total += plaintext.data.nbytes
        assert total <= 16 * 1024
        for plaintext in sim._constants.values():
            assert np.ndim(plaintext.values) == 0
