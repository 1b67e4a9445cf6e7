"""Tests for scale-management policies and program-level invariants."""

import numpy as np
import pytest
from fractions import Fraction

import repro.orion.nn as on
from repro.backend import SimBackend, ToyBackend
from repro.ckks.params import paper_parameters, toy_parameters
from repro.core.program import normalize_scale
from repro.core.scale import (
    ErrorlessScalePolicy,
    WaterlineScalePolicy,
    run_pmult_chain,
)
from repro.models import square_act
from repro.nn import init
from repro.orion import OrionNetwork


class TestScalePolicies:
    def _chain(self, backend, policy, depth=6):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, 32)
        weights = [rng.uniform(0.5, 1.0, 32) for _ in range(depth)]
        expected = values.copy()
        for w in weights:
            expected = expected * w
        decoded, scale = run_pmult_chain(backend, values, weights, policy)
        return decoded[:32], expected, scale

    def test_errorless_holds_delta(self, sim_params):
        backend = SimBackend(sim_params, noise_free=True)
        decoded, expected, scale = self._chain(backend, ErrorlessScalePolicy())
        assert scale == Fraction(sim_params.scale)
        assert np.abs(decoded - expected).max() < 1e-12

    def test_waterline_drifts(self, sim_params):
        backend = SimBackend(sim_params, noise_free=True)
        decoded, expected, scale = self._chain(backend, WaterlineScalePolicy())
        assert scale != Fraction(sim_params.scale)
        assert np.abs(decoded - expected).max() > 1e-9

    def test_errorless_on_exact_backend(self):
        params = toy_parameters(ring_degree=512, max_level=6, boot_levels=1)
        backend = ToyBackend(params, seed=0)
        decoded, expected, scale = self._chain(backend, ErrorlessScalePolicy(), depth=4)
        assert scale == Fraction(params.scale)
        assert np.abs(decoded - expected).max() < 5e-2  # toy noise only


class TestNormalizeScale:
    def test_pins_exact_target(self, sim_backend):
        ct = sim_backend.encode_encrypt(np.linspace(-1, 1, 16))
        # Perturb the scale the way a multiply would.
        pt = sim_backend.encode(np.full(16, 0.5), ct.level, 12345)
        drifted = sim_backend.rescale(sim_backend.mul_plain(ct, pt))
        target = Fraction(sim_backend.params.scale)
        assert drifted.scale != target
        out = normalize_scale(sim_backend, drifted, target)
        assert out.scale == target
        assert out.level == drifted.level - 1
        want = np.linspace(-1, 1, 16) * 0.5
        assert np.abs(sim_backend.decrypt(out)[:16] - want).max() < 1e-3

    def test_rejects_level_zero(self, sim_backend):
        ct = sim_backend.level_down(sim_backend.encode_encrypt(np.ones(4)), 0)
        with pytest.raises(ValueError):
            normalize_scale(sim_backend, ct, Fraction(sim_backend.params.scale))


class TestProgramInvariants:
    @pytest.fixture(scope="class")
    def compiled(self):
        init.seed_init(21)
        from repro.models.resnet import BasicBlock

        net = BasicBlock(2, 2, 1, act=square_act())
        rng = np.random.default_rng(21)
        onet = OrionNetwork(net, (2, 8, 8))
        onet.fit([rng.normal(0, 0.4, (8, 2, 8, 8))])
        return onet, rng, onet.compile(paper_parameters())

    def test_fork_value_not_clobbered_by_backbone_alignment(self, compiled):
        """Regression: mod-down for one consumer must not mutate the
        register other consumers (the residual shortcut) still read."""
        onet, rng, net = compiled
        img = rng.normal(0, 0.4, (2, 8, 8))
        backend = SimBackend(paper_parameters(), seed=22)
        fhe = net.run(backend, img)  # raises on level mismatch if broken
        clear = onet.forward_cleartext(img)
        assert np.abs(fhe - clear).max() < 0.05

    def test_deterministic_given_seed(self, compiled):
        onet, rng, net = compiled
        img = rng.normal(0, 0.4, (2, 8, 8))
        a = net.run(SimBackend(paper_parameters(), seed=5), img)
        b = net.run(SimBackend(paper_parameters(), seed=5), img)
        assert np.array_equal(a, b)

    def test_instruction_names_unique(self, compiled):
        _, _, net = compiled
        names = [instr.name for instr in net.program.instructions]
        assert len(names) == len(set(names))

    def test_policy_covers_every_instruction(self, compiled):
        _, _, net = compiled
        policy = net.placement.policy_map()
        for instr in net.program.instructions:
            assert instr.name in policy


class TestActivationConstantCache:
    def test_second_tenant_encodes_no_activation_constants(self):
        """PolyInstr / MultJoinInstr keep their keyless constant
        plaintexts (coefficients, scale-matching ones) across requests
        and tenants: after one inference the activation path encodes
        nothing, and cached runs equal uncached ones bit for bit."""
        from repro.core.program import MultJoinInstr, PolyInstr
        from repro.models import relu_act

        init.seed_init(8)
        net = on.Sequential(on.Flatten(), on.Linear(16, 8), relu_act((7, 7))(), on.Linear(8, 4))
        rng = np.random.default_rng(8)
        onet = OrionNetwork(net, (1, 4, 4))
        onet.fit([rng.normal(0, 0.5, (8, 1, 4, 4))])
        program = onet.compile(paper_parameters()).program
        acts = [i for i in program.instructions if isinstance(i, (PolyInstr, MultJoinInstr))]
        assert {type(i) for i in acts} == {PolyInstr, MultJoinInstr}
        img = rng.normal(0, 0.5, (1, 4, 4))

        def run_counting(seed):
            backend = SimBackend(paper_parameters(), seed=seed)
            encode, consts = backend.encode, []

            def counting(values, level, scale):
                values = np.asarray(values)
                if values.size == backend.slot_count and np.all(values == values.flat[0]):
                    consts.append(level)
                return encode(values, level, scale)

            backend.encode = counting
            return program.run(backend, img), len(consts)

        cold_out, cold_consts = run_counting(seed=5)
        assert cold_consts > 0 and all(i._pt_cache[SimBackend] for i in acts)
        warm_out, warm_consts = run_counting(seed=5)
        assert warm_consts == 0
        assert np.array_equal(warm_out, cold_out)


class TestOrionApi:
    def test_fit_requires_batches(self):
        init.seed_init(0)
        onet = OrionNetwork(on.Linear(4, 2), (4,))
        with pytest.raises(ValueError):
            onet.fit([])

    def test_fit_accepts_labelled_tuples(self):
        init.seed_init(0)
        net = on.Sequential(on.Flatten(), on.Linear(16, 2))
        onet = OrionNetwork(net, (1, 4, 4))
        onet.fit([(np.zeros((2, 1, 4, 4)), np.zeros(2))])
        assert onet._calibration is not None

    def test_custom_activation_module(self):
        """Paper Section 6: arbitrary activations via on.Activation."""
        init.seed_init(3)

        class GeluNet(on.Module):
            def __init__(self):
                super().__init__()
                self.flatten = on.Flatten()
                self.fc1 = on.Linear(16, 8)
                self.act = on.Activation(
                    lambda x: 0.5 * x * (1 + np.tanh(0.79788456 * (x + 0.044715 * x**3))),
                    degree=31, name="gelu",
                )
                self.fc2 = on.Linear(8, 4)

            def forward(self, x):
                return self.fc2(self.act(self.fc1(self.flatten(x))))

        rng = np.random.default_rng(3)
        onet = OrionNetwork(GeluNet(), (1, 4, 4))
        onet.fit([rng.normal(0, 0.5, (8, 1, 4, 4))])
        compiled = onet.compile(paper_parameters())
        img = rng.normal(0, 0.5, (1, 4, 4))
        clear = onet.forward_cleartext(img)
        fhe = compiled.run(SimBackend(paper_parameters(), seed=4), img)
        assert np.abs(fhe - clear).max() < 0.02

    def test_precision_bits_definition(self):
        a = np.array([1.0, 2.0])
        b = a + 2.0**-10
        assert abs(OrionNetwork.precision_bits(a, b) - 10.0) < 1e-6

    def test_invalid_compile_mode(self):
        from repro.core.compiler import OrionCompiler

        with pytest.raises(ValueError):
            OrionCompiler(paper_parameters(), mode="bogus")
