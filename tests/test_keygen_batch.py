"""Rotation keygen fills keys on a thread pool and stays byte-identical.

``CkksContext.generate_rotation_keys`` draws every fresh key's
randomness on the calling thread, in step order, and fills the keys on
a pool sized from the process's CPU affinity.  These tests pin it to the
one-key-at-a-time loop in ``tests/reference/keygen_loop.py`` — keys,
seeds, bounds, ``keys.galois`` order and the rng state afterwards — with
the worker count forced to one (the inline path) and to two (the pool),
and with a fill row budget that leaves a key's last digit slab short,
and check that no pool thread outlives a call, even a failed one.
"""

from __future__ import annotations

import itertools
import os
import threading

import pytest

from reference import keygen_loop
from repro.ckks import context as context_module
from repro.ckks.context import CkksContext
from repro.ckks.params import CkksParameters
from repro.utils.rng import SeededRng

GROUPINGS = [(alpha, ns) for alpha in (1, 2, 3) for ns in (1, 2)]
SLOTS = 32  # ring degree 64

#: Call sequences, each call ``(steps, levels)`` for
#: ``generate_rotation_keys``; later calls see what earlier ones left.
SCENARIOS = {
    "full-chain": [([1, 2, 3, 5, 7, -1], None)],
    "compressed": [([1, 2, 3, 4, 6], {1: 0, 2: 2, 3: 4, 4: 5, 6: 9})],
    "cached-full-kept": [([3, 6], None), ([1, 3, 6], {3: 2, 6: 0})],
    "narrow-compressed-widened": [([5, 2], {5: 1, 2: 0}), ([5, 2, 8], {5: 3, 2: 0, 8: 1})],
    "duplicate-steps": [([3, 3, 3], None), ([3, 3], {3: 1})],
    # Steps s and s + SLOTS share an exponent: full then kept,
    # narrow then widened (two draws), wide then kept — inside one call.
    "one-exponent-twice-in-a-call": [
        ([2, 2 + SLOTS, 7, 7 + SLOTS, 9, 9 + SLOTS], {34: 1, 7: 1, 39: 3, 9: 3, 41: 1})
    ],
}


def _params(ks_alpha=1, num_special=1, max_level=5):
    """Ring degree 64, six 10-bit data primes and 30-bit special primes:
    narrow enough that one special prime outweighs a three-limb digit,
    so every grouping in ``GROUPINGS`` is a valid parameter set."""
    return CkksParameters(
        ring_degree=64,
        scale_bits=10,
        max_level=max_level,
        first_prime_bits=10,
        special_prime_bits=30,
        boot_levels=1,
        num_special_primes=num_special,
        ks_alpha=ks_alpha,
    )


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The CPU count keygen sees (its only input for the worker count)."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False
    )
    return request.param


def _snapshot(context):
    """What keygen leaves behind: every held key in ``keys.galois``
    order, and the rng state."""
    keys = [
        (exponent, key.exponent, key.max_level, key.seed, key.tensor.shape, key.tensor.tobytes())
        for exponent, key in context.keys.galois.items()
    ]
    return keys, context.rng.get_state()


def _ragged_slabs(monkeypatch, params):
    """Set the fill's row budget (``KEYGEN_SLAB_ROWS``) to ``width``
    full-chain digits, ``width`` at least two and not dividing the digit
    count, so a full-chain key fills in two or more slabs and the last
    one is short; returns the slab sizes."""
    digits = -(-(params.max_level + 1) // params.ks_alpha)
    width = next(w for w in range(2, digits) if digits % w)
    rows = params.num_special_primes + params.max_level + 1
    monkeypatch.setattr(context_module, "KEYGEN_SLAB_ROWS", width * rows)
    return [width] * (digits // width) + [digits % width]


def _assert_relin_equals_reference(params):
    """The relin key a context builds equals the loop's, replayed from
    the same seed, and leaves the same rng state."""
    context = CkksContext(params, seed=4)
    replay = CkksContext(params, seed=4)
    replay.rng = SeededRng(4)
    # The draws the constructor makes before the relin key: the
    # secret, then the public key's uniform half and noise.
    replay.rng.ternary(params.ring_degree)
    replay._uniform_poly(replay.basis.primes)
    replay._noise_poly(replay.basis.primes)
    relin = keygen_loop.make_switching_key(
        replay, replay.keys.secret_squared, replay.keys.secret
    )
    assert relin.tensor.tobytes() == context.keys.relin.tensor.tobytes()
    assert relin.seed == context.keys.relin.seed
    assert replay.rng.get_state() == context.rng.get_state()


class TestByteIdenticalToTheLoop:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("ks_alpha, num_special", GROUPINGS)
    def test_batch_equals_reference(self, scenario, ks_alpha, num_special, cpus):
        params = _params(ks_alpha, num_special)
        batched = CkksContext(params, seed=17)
        reference = CkksContext(params, seed=17)
        for steps, levels in SCENARIOS[scenario]:
            batched.generate_rotation_keys(steps, levels)
            keygen_loop.generate_rotation_keys(reference, steps, levels)
            assert _snapshot(batched) == _snapshot(reference)
        assert batched.keys.galois

    @pytest.mark.parametrize("ks_alpha, num_special", GROUPINGS)
    def test_lazy_and_compressed_keys_equal_reference(self, ks_alpha, num_special):
        params = _params(ks_alpha, num_special)
        batched = CkksContext(params, seed=5)
        reference = CkksContext(params, seed=5)
        exponent = batched.encoder.rotation_exponent
        for context, galois_key, compressed in (
            (
                batched,
                batched.galois_key,
                lambda step, bound: batched.generate_rotation_keys([step], {step: bound}),
            ),
            (
                reference,
                lambda e, level=None: keygen_loop.galois_key(reference, e, level),
                lambda step, bound: keygen_loop.generate_rotation_keys(
                    reference, [step], {step: bound}
                ),
            ),
        ):
            compressed(1, 1)
            galois_key(exponent(1), 0)  # covered: kept
            galois_key(exponent(1), 3)  # outgrown: full chain
            compressed(1, 2)  # a full chain covers it: kept
            compressed(4, 6)  # above the top: full chain
        assert _snapshot(batched) == _snapshot(reference)

    @pytest.mark.parametrize("ks_alpha, num_special", GROUPINGS)
    def test_relin_key_equals_reference(self, ks_alpha, num_special):
        _assert_relin_equals_reference(_params(ks_alpha, num_special))

    def test_refused_key_draws_nothing(self, cpus):
        """A key whose chain does not fit 32 bits refuses the whole call
        before the first draw, even after keys that would fit."""
        params = _params()
        context = CkksContext(params, seed=2)
        context.generate_rotation_keys([1])
        before = _snapshot(context)
        top = params.max_level
        primes = context.basis.primes
        context.basis.primes = primes[:top] + (2**32 + 15,) + primes[top + 1 :]
        with pytest.raises(ValueError, match="32-bit"):
            context.generate_rotation_keys([2, 3, 4], levels={2: 1, 3: 0})
        assert _snapshot(context) == before


class TestRaggedSlabs:
    """A key fills ``KEYGEN_SLAB_ROWS // len(chain)`` digits per slab.
    With seven data limbs every grouping has at least three full-chain
    digits; the row budget is set so slabs hold two or three of them
    and the last slab is short."""

    @staticmethod
    def _slab_sizes(context, monkeypatch):
        """Digits per forward transform of each slab from here on."""
        sizes = []
        transform = context.basis.forward_chain

        def spy(data, primes):
            if data.ndim == 3:
                sizes.append(data.shape[0])
            return transform(data, primes)

        monkeypatch.setattr(context.basis, "forward_chain", spy)
        return sizes

    @pytest.mark.parametrize("ks_alpha, num_special", GROUPINGS)
    def test_rotation_keys_equal_reference(self, ks_alpha, num_special, cpus, monkeypatch):
        params = _params(ks_alpha, num_special, max_level=6)
        slabs = _ragged_slabs(monkeypatch, params)
        batched = CkksContext(params, seed=21)
        reference = CkksContext(params, seed=21)
        sizes = self._slab_sizes(batched, monkeypatch)
        full = [1, 2, 3, -1]
        batched.generate_rotation_keys(full)
        # Fill threads interleave their slabs: compare as multisets.
        assert sorted(sizes) == sorted(slabs * len(full)) and slabs[-1] < slabs[0]
        keygen_loop.generate_rotation_keys(reference, full)
        assert _snapshot(batched) == _snapshot(reference)
        levels = {4: 6, 5: 3, 6: 0}
        batched.generate_rotation_keys(levels, levels)
        keygen_loop.generate_rotation_keys(reference, levels, levels)
        assert _snapshot(batched) == _snapshot(reference)

    @pytest.mark.parametrize("ks_alpha, num_special", GROUPINGS)
    def test_relin_key_equals_reference(self, ks_alpha, num_special, monkeypatch):
        params = _params(ks_alpha, num_special, max_level=6)
        _ragged_slabs(monkeypatch, params)
        _assert_relin_equals_reference(params)


class TestWorkers:
    def test_draws_on_the_caller_fills_on_the_pool(self, monkeypatch, cpus):
        """Draws run on the calling thread, at most 2 x workers keys ahead
        of installation; fills run on pool threads only when there are
        two CPUs and more than one fresh key."""
        events = []
        for name in ("_draw_switching_key", "_fill_switching_key", "_install_galois_key"):
            original = getattr(CkksContext, name)

            def spy(self, *args, _name=name, _original=original):
                events.append((_name, threading.get_ident()))
                return _original(self, *args)

            monkeypatch.setattr(CkksContext, name, spy)
        context = CkksContext(_params(), seed=3)
        main = threading.get_ident()
        events.clear()
        context.generate_rotation_keys(range(1, 12))
        threads = {name: {t for n, t in events if n == name} for name, _ in events}
        assert threads["_draw_switching_key"] == threads["_install_galois_key"] == {main}
        if cpus == 1:
            assert threads["_fill_switching_key"] == {main}
        else:
            assert main not in threads["_fill_switching_key"]
        ahead = 0
        for name, _ in events:
            ahead += {"_draw_switching_key": 1, "_install_galois_key": -1}.get(name, 0)
            assert ahead <= 2 * cpus + 1
        events.clear()
        context.generate_rotation_keys([20, 20])  # one fresh key: inline
        assert {t for _, t in events} == {main}

    def test_no_thread_outlives_the_call(self, cpus):
        context = CkksContext(_params(), seed=6)
        before = threading.active_count()
        context.generate_rotation_keys(range(1, 9))
        assert threading.active_count() == before

    def test_failed_fill_propagates_and_is_not_installed(self, monkeypatch, cpus):
        """The fourth fill raises after writing into its tensor: the
        error reaches the caller, the three keys before it are installed
        and equal the loop's, the failed one is not, and no thread is
        left behind."""
        steps = list(range(1, 10))
        reference = CkksContext(_params(), seed=8)
        keygen_loop.generate_rotation_keys(reference, steps)
        context = CkksContext(_params(), seed=8)
        calls = itertools.count()
        fill = CkksContext._fill_switching_key

        def failing(self, plan, seed, noise, tensor):
            if next(calls) == 3:
                tensor[...] = 7
                raise RuntimeError("fill failed")
            return fill(self, plan, seed, noise, tensor)

        monkeypatch.setattr(CkksContext, "_fill_switching_key", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fill failed"):
            context.generate_rotation_keys(steps)
        assert threading.active_count() == before
        installed, _ = _snapshot(context)
        expected, _ = _snapshot(reference)
        assert installed == expected[:3]
        assert context.encoder.rotation_exponent(steps[3]) not in context.keys.galois
