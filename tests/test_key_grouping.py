"""Key switching sized per artifact.

- The one-pass mod-down (``RnsBasis.divide_round_last(..., count=ns)``)
  is bit-identical to dividing by one special prime at a time
  (``tests/reference/moddown_loop.py``) on every key-switching operation,
  for every tested number of special primes.
- The lazy basis conversion (one product-sum, one reduction) agrees
  with the exact big-integer lift, and so does its per-term fallback.
- Export picks the digit grouping (``repro.serve.grouping``): the
  decisions on the benchmark networks are pinned, the byte arithmetic
  equals what keygen and pre-encoding really hold, and ``serve()``
  builds the same artifact and backend as export then load.
- The key switches export prices, read off a plain simulator's ledger,
  are the multiset the reference tally
  (``tests/reference/key_switch_tally.py``) lists, on the benchmark
  networks and on zoo models with Gazelle folds.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from reference.bigint import extend_primes_reference
from reference.key_switch_tally import KeySwitchTally
from reference.moddown_loop import moddown_loop
from repro.backend import ToyBackend
from repro.backend.ledger import KeySwitch
from repro.ckks.context import CkksContext
from repro.ckks.params import CkksParameters, toy_parameters
from repro.core.program import LinearInstr
from repro.models import SecureMlp, resnet_cifar, silu_act
from repro.nn import init
from repro.orion import OrionNetwork
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial
from repro.serve.artifact import build_artifact
from repro.serve.grouping import (
    artifact_parameters,
    choose_key_grouping,
    held_bytes,
    key_switch_work,
    with_grouping,
)
from repro.utils.primes import find_ntt_primes
from test_trace import _zoo

#: (ks_alpha, num_special_primes) pairs covering ns in {1, 2, 3, 5, 7}.
GROUPINGS = [(1, 1), (2, 2), (3, 3), (5, 5), (7, 7)]


@pytest.fixture(scope="module", params=GROUPINGS, ids=lambda g: f"alpha{g[0]}-ns{g[1]}")
def backend(request):
    alpha, ns = request.param
    params = toy_parameters(
        ring_degree=256, max_level=6, boot_levels=1, num_special_primes=ns, ks_alpha=alpha
    )
    return ToyBackend(params, seed=5)


def _fresh(backend, level=None):
    values = np.linspace(-0.9, 0.9, backend.slot_count)
    ct = backend.encode_encrypt(values)
    return ct if level is None else backend.context.level_down(ct, level)


def _one_pass_and_loop(monkeypatch, op):
    """``op()`` under the evaluator's one-pass mod-down, then under the
    per-prime reference loop."""
    one_pass = op()
    with monkeypatch.context() as patch:
        patch.setattr(CkksContext, "_ks_moddown", moddown_loop)
        loop = op()
    return one_pass, loop


def _assert_bit_identical(one_pass, loop):
    if isinstance(one_pass, dict):
        assert sorted(one_pass, key=str) == sorted(loop, key=str)
        one_pass, loop = list(one_pass.values()), [loop[k] for k in one_pass]
    if not isinstance(one_pass, list):
        one_pass, loop = [one_pass], [loop]
    for a, b in zip(one_pass, loop):
        assert a.level == b.level and a.scale == b.scale
        assert np.array_equal(a.c0.data, b.c0.data)
        assert np.array_equal(a.c1.data, b.c1.data)


class TestOnePassModDown:
    def test_rotate(self, backend, monkeypatch):
        ctx, ct = backend.context, _fresh(backend)
        _assert_bit_identical(*_one_pass_and_loop(monkeypatch, lambda: ctx.rotate(ct, 3)))
        got = backend.decrypt(ctx.rotate(ct, 3))
        want = np.roll(np.linspace(-0.9, 0.9, backend.slot_count), -3)
        assert np.abs(got - want).max() < 2e-2

    def test_rotate_with_a_compressed_key(self, backend, monkeypatch):
        ctx = backend.context
        exponent = ctx.encoder.rotation_exponent(5)
        ctx.keys.galois.pop(exponent, None)
        ctx.generate_rotation_keys([5], {5: 3})
        key = ctx.keys.galois[exponent]
        assert key.max_level == 3
        ct = _fresh(backend, level=2)
        _assert_bit_identical(*_one_pass_and_loop(monkeypatch, lambda: ctx.rotate(ct, 5)))

    def test_conjugate(self, backend, monkeypatch):
        ctx, ct = backend.context, _fresh(backend)
        _assert_bit_identical(*_one_pass_and_loop(monkeypatch, lambda: ctx.conjugate(ct)))

    @pytest.mark.parametrize("level", [6, 3, 0])
    def test_mul_relinearize(self, backend, monkeypatch, level):
        ctx, ct = backend.context, _fresh(backend, level)
        _assert_bit_identical(*_one_pass_and_loop(monkeypatch, lambda: ctx.mul(ct, ct)))

    def test_rotate_hoisted(self, backend, monkeypatch):
        ctx, ct = backend.context, _fresh(backend, level=4)
        steps = [0, 1, 2, 7, -1, 2]
        _assert_bit_identical(
            *_one_pass_and_loop(monkeypatch, lambda: ctx.rotate_hoisted(ct, steps))
        )

    def test_matvec_fused_with_conjugation_offsets(self, backend, monkeypatch):
        ct = _fresh(backend, level=5)
        rng = np.random.default_rng(3)
        offsets = [0, 1, 4, ("conj", 0), ("conj", 3)]
        terms = {
            (bo, 0, off): rng.uniform(-1, 1, backend.slot_count)
            for bo in range(2)
            for off in offsets
        }
        pt_scale = Fraction(backend.params.data_primes[ct.level])
        _assert_bit_identical(
            *_one_pass_and_loop(
                monkeypatch,
                lambda: backend._matvec_fused_no_charge([ct], terms, 2, pt_scale),
            )
        )

    def test_rotate_sum_fold(self, backend, monkeypatch):
        ct = _fresh(backend, level=3)
        _assert_bit_identical(
            *_one_pass_and_loop(
                monkeypatch, lambda: backend._rotate_sum_no_charge(ct, [1, 2, 3])
            )
        )

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    @pytest.mark.parametrize("is_ntt", [True, False])
    def test_divide_round_last_equals_one_prime_at_a_time(self, count, is_ntt):
        primes = find_ntt_primes(29, 8, 64)
        basis = RnsBasis(primes, 64, num_special=count)
        rng = np.random.default_rng(count)
        data = np.stack(
            [rng.integers(0, q, (2, 64)) for q in primes], axis=1
        )  # (2, 8, 64)
        one_pass = basis.divide_round_last(data, primes, is_ntt, count=count)
        loop, chain = data, tuple(primes)
        for _ in range(count):
            loop = basis.divide_round_last(loop, chain, is_ntt)
            chain = chain[:-1]
        assert np.array_equal(one_pass, loop)


class TestLazyConversion:
    @pytest.mark.parametrize("bits", [29, 31])
    def test_convert_residues_matches_bigint_lift(self, bits):
        """29-bit primes take the lazy product-sum, 31-bit ones (where
        it could overflow int64) the reduction per source limb."""
        n = 64
        src = tuple(find_ntt_primes(bits, 3, n))
        dst = tuple(find_ntt_primes(bits - 1, 4, n)) + src[:1]
        basis = RnsBasis(src + dst[:-1], n)
        assert basis._convert_tables((src,), dst)[-1] == (bits == 29)
        rng = np.random.default_rng(bits)
        poly = RnsPolynomial(
            basis, src, np.stack([rng.integers(0, q, n) for q in src]), is_ntt=False
        )
        want = extend_primes_reference(poly, dst).data
        assert np.array_equal(basis.convert_residues(poly.data, src, dst), want)
        # Leading axes ride along.
        stacked = basis.convert_residues(np.stack([poly.data, poly.data]), src, dst)
        assert np.array_equal(stacked, np.stack([want, want]))

    @pytest.mark.parametrize("alpha", [2, 3, 4, 8])
    def test_decompose_digits_matches_per_group_lift(self, alpha):
        """Every group in one pass — short last groups and a group wider
        than the limbs included — equals each group's exact lift."""
        n = 64
        primes = tuple(find_ntt_primes(29, 10, n))
        src, dst = primes[:7], primes
        basis = RnsBasis(primes, n, num_special=3)
        rng = np.random.default_rng(alpha)
        rows = np.stack([rng.integers(0, q, n) for q in src])
        digits = basis.decompose_digits(rows, src, dst, alpha)
        lo_list = list(range(0, len(src), alpha))
        assert digits.shape == (len(lo_list), len(dst), n)
        for digit, lo in zip(digits, lo_list):
            group = src[lo : lo + alpha]
            poly = RnsPolynomial(basis, group, rows[lo : lo + alpha], is_ntt=False)
            assert np.array_equal(digit, extend_primes_reference(poly, dst).data)


def _network(build, shape, images=8):
    init.seed_init(0)
    onet = OrionNetwork(build(), shape)
    onet.fit([np.random.default_rng(0).normal(0.0, 0.5, (images,) + shape)])
    return onet


def _resnet8():
    return _network(lambda: resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8))


RESNET8_PARAMS = dict(ring_degree=2048, max_level=12, boot_levels=3, scale_bits=24)


#: The benchmark networks whose grouping decisions are pinned.
CHOOSER_NETWORKS = [
    pytest.param(
        lambda: SecureMlp(input_pixels=784, hidden=128), (1, 28, 28),
        dict(ring_degree=4096, max_level=6, boot_levels=1, scale_bits=24), (1, 1),
        id="mlp784",
    ),
    pytest.param(
        lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8),
        dict(ring_degree=2048, max_level=6, boot_levels=1, scale_bits=24), (1, 1),
        id="mlp64",
    ),
    pytest.param(
        lambda: resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8),
        RESNET8_PARAMS, (2, 2),
        id="resnet8",
    ),
]

#: Zoo models the ledger is checked against the tally on: an MLP, and
#: two conv nets whose layers fold Gazelle-style (MobileNet's convs and
#: classifier, expanded and sequential; LeNet's classifier).
ZOO_SUBSET = ("secure_mlp", "lenet", "mobilenet")


class TestLedgerIsTheTally:
    """The ledger's Counter, read off the plain simulator run export
    prices on, is the multiset the reference tally lists."""

    @staticmethod
    def _agree(program, params):
        tally = KeySwitchTally(params)
        program.run(tally, np.zeros(program.input_layout.tensor_shape))
        _, sim = artifact_parameters(program, params)
        assert tally.switches
        assert Counter(tally.switches) == sim.ledger.key_switches

    @pytest.mark.parametrize("build,shape,params,grouping", CHOOSER_NETWORKS)
    def test_chooser_networks(self, build, shape, params, grouping):
        params = toy_parameters(**params)
        self._agree(_network(build, shape).compile(params, optimize=True).program, params)

    @pytest.mark.parametrize("name", ZOO_SUBSET)
    def test_zoo_networks(self, name):
        build, shape = {z[0]: z[1:] for z in _zoo()}[name]
        params = toy_parameters(**RESNET8_PARAMS)
        program = _network(build, shape, images=4).compile(params, optimize=True).program
        folded = [
            instr.name
            for instr in program.instructions
            if isinstance(instr, LinearInstr) and instr.packed.fold_shifts
        ]
        assert folded
        assert name != "mobilenet" or any(n.startswith("conv") for n in folded)
        self._agree(program, params)


class TestChooser:
    @pytest.mark.parametrize("build,shape,params,grouping", CHOOSER_NETWORKS)
    def test_pinned_decisions(self, build, shape, params, grouping):
        """Matvec-heavy programs stay per-limb: the hoisted offsets,
        gathers and tables widen with every special prime.  ResNet-8 is
        relinearisations; two limbs per digit hold the fewest bytes."""
        params = toy_parameters(**params)
        program = _network(build, shape).compile(params, optimize=True).program
        chosen, sim = artifact_parameters(program, params)
        switches = sim.ledger.key_switches
        assert (chosen.ks_alpha, chosen.num_special_primes) == grouping
        assert chosen.data_primes == params.data_primes
        if grouping == (1, 1):
            assert chosen is params
            for alpha in (2, 3):
                grouped = with_grouping(params, alpha, params.min_special_primes(alpha))
                assert key_switch_work(grouped, switches) > key_switch_work(
                    params, switches
                )
        else:
            assert key_switch_work(chosen, switches) < key_switch_work(
                params, switches
            )

    def test_byte_arithmetic_is_what_keygen_and_the_artifact_hold(self):
        params = toy_parameters(**RESNET8_PARAMS)
        artifact = build_artifact(_resnet8().compile(params, optimize=True), params)
        manifest = artifact.manifest
        chosen = manifest.to_params()
        assert (chosen.ks_alpha, chosen.num_special_primes) == (2, 2)
        backend = ToyBackend(chosen, seed=1)
        backend.context.generate_rotation_keys(
            manifest.rotation_steps, manifest.step_level_map()
        )
        keys = backend.context.keys
        key_bytes = sum(k.size_bytes() for k in [keys.relin, *keys.galois.values()])
        tables = [
            (group["table"].shape[0], section["level"])
            for section in artifact.encoded
            for group in section["groups"]
        ]
        table_bytes = sum(
            group["table"].nbytes for section in artifact.encoded for group in section["groups"]
        )
        assert held_bytes(chosen, manifest.rotation_step_levels, tables) == (
            key_bytes + table_bytes
        )
        assert held_bytes(chosen, manifest.rotation_step_levels, tables) < held_bytes(
            params, manifest.rotation_step_levels, tables
        )

    def test_a_secure_caller_gets_a_secure_grouping(self):
        """Relinearisations at the top level favour wide digits; at
        N = 8192 every extra special prime would break 128-bit security,
        so the caller's set stays — the same switches at N = 4096 (not
        secure to begin with) regroup."""
        switches = Counter({KeySwitch(level=6): 8})

        def choose(ring_degree):
            params = CkksParameters(
                ring_degree=ring_degree, scale_bits=24, max_level=6, boot_levels=1
            )
            return params, choose_key_grouping(params, switches, [], [])

        secure, chosen = choose(8192)
        assert secure.is_128_bit_secure() and chosen is secure
        insecure, regrouped = choose(4096)
        assert not insecure.is_128_bit_secure() and regrouped.ks_alpha > 1
