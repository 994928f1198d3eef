"""Bit-parity tests for :mod:`repro.nn.fusion`.

The fused kernels are pure executors: every one must produce outputs *and*
gradients that are bit-identical (``np.array_equal``, no tolerance) to the
unfused autograd graph it replaces, in float64 and in float32, the default.
The unfused reference is the same code run under ``engine.no_cache()``.
Gradient accumulation into a tensor with 3+ consumers is association-
sensitive, so a fused node must occupy the same topological position as
the subgraph it replaces (parent ordering is load-bearing): that makes this
a real constraint rather than a formality. The routing case pins the
routing tail kernel; the detached routing iterations are one plain numpy
loop, the same code on both sides.

``engine.no_cache()`` must bypass the fusion cache along with the plan
cache: the finite-difference gradcheck perturbs ``tensor.data`` in place,
which identity-keyed caches cannot see.
"""

import numpy as np
import pytest

from repro.core import BikeCAP, BikeCAPConfig
from repro.nn import config, engine, ops
from repro.nn import fusion
from repro.nn.gradcheck import gradcheck_module
from repro.nn.tensor import Tensor
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def _precise_mode():
    """Run every case in float64 unless it pins another dtype; drop its plans."""
    with config.use_dtype(np.float64):
        yield
    engine.clear_caches()


def _tensor(array):
    return Tensor(array, requires_grad=True)


def _convlstm_case():
    from repro.nn.layers.convlstm import ConvLSTM2DCell

    rng = np.random.default_rng(5)
    cell = ConvLSTM2DCell(2, 3, rng=np.random.default_rng(1))
    x = _tensor(rng.standard_normal((2, 2, 6, 6)))
    h, c = cell.initial_state(2, 6, 6)
    for _ in range(3):
        h, c = cell(x, (h, c))
    ops.sum(ops.mul(h, h)).backward()
    return [h.data, c.data], [p.grad.copy() for p in cell.parameters()] + [x.grad.copy()]


def _lstm_case():
    from repro.nn.layers.recurrent import LSTM

    rng = np.random.default_rng(11)
    module = LSTM(4, 5, num_layers=2, rng=np.random.default_rng(2))
    x = _tensor(rng.standard_normal((3, 5, 4)))
    out, _ = module(x)
    ops.sum(ops.mul(out, out)).backward()
    return [out.data], [p.grad.copy() for p in module.parameters()] + [x.grad.copy()]


def _squash_case():
    from repro.core.squash import squash

    rng = np.random.default_rng(3)
    x = _tensor(rng.standard_normal((2, 4, 3, 5, 5)))
    out = squash(x, axis=2)
    ops.sum(ops.mul(out, out)).backward()
    return [out.data], [x.grad.copy()]


def _stlstm_case():
    from repro.nn.layers.predrnn_cells import STLSTMCell

    rng = np.random.default_rng(13)
    cell = STLSTMCell(2, 3, rng=np.random.default_rng(4))
    x = _tensor(rng.standard_normal((2, 2, 5, 5)))
    h, c, m = cell.initial_state(2, 5, 5)
    for _ in range(2):
        h, c, m = cell(x, h, c, m)
    ops.sum(ops.mul(h, h)).backward()
    return [h.data, c.data, m.data], [
        p.grad.copy() for p in cell.parameters()
    ] + [x.grad.copy()]


def _causal_case():
    from repro.nn.layers.predrnn_cells import CausalLSTMCell

    rng = np.random.default_rng(17)
    cell = CausalLSTMCell(2, 3, rng=np.random.default_rng(6))
    x = _tensor(rng.standard_normal((2, 2, 5, 5)))
    h, c, m = cell.initial_state(2, 5, 5)
    for _ in range(2):
        h, c, m = cell(x, h, c, m)
    ops.sum(ops.mul(h, h)).backward()
    return [h.data], [p.grad.copy() for p in cell.parameters()] + [x.grad.copy()]


def _ghu_case():
    from repro.nn.layers.predrnn_cells import GHU

    rng = np.random.default_rng(19)
    module = GHU(3, rng=np.random.default_rng(8))
    x = _tensor(rng.standard_normal((2, 3, 5, 5)))
    z = module.initial_state(2, 5, 5)
    for _ in range(2):
        z = module(x, z)
    ops.sum(ops.mul(z, z)).backward()
    return [z.data], [p.grad.copy() for p in module.parameters()] + [x.grad.copy()]


def _routing_case():
    from repro.core.routing import SpatialTemporalRouting

    rng = np.random.default_rng(7)
    module = SpatialTemporalRouting(4, 3, 4, iterations=3, rng=np.random.default_rng(0))
    phi = _tensor(rng.standard_normal((2, 3, 4, 4, 5, 5)))
    out = module(phi)
    ops.sum(ops.mul(out, out)).backward()
    return [out.data], [p.grad.copy() for p in module.parameters()] + [phi.grad.copy()]


def _model_case():
    cfg = BikeCAPConfig(
        grid=(6, 6),
        history=4,
        horizon=2,
        features=2,
        pyramid_size=2,
        capsule_dim=2,
        future_capsule_dim=2,
        decoder_hidden=4,
        seed=0,
    )
    model = BikeCAP(cfg)
    rng = np.random.default_rng(23)
    x = _tensor(rng.standard_normal((2, 4, 6, 6, 2)))
    out = model(x)
    ops.sum(ops.mul(out, out)).backward()
    return [out.data], [p.grad.copy() for p in model.parameters()] + [x.grad.copy()]


CASES = {
    "convlstm_gates": _convlstm_case,
    "lstm_gates": _lstm_case,
    "squash": _squash_case,
    "stlstm": _stlstm_case,
    "causal_lstm": _causal_case,
    "ghu": _ghu_case,
    "routing": _routing_case,
    "bikecap_model": _model_case,
}


def _run(build, fused: bool):
    engine.clear_caches()
    if fused:
        return build()
    with engine.no_cache():
        return build()


class TestFusedBitParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fused_matches_unfused_exactly(self, name):
        self._check(name)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fused_matches_unfused_exactly_in_float32(self, name):
        with config.use_dtype(np.float32):
            self._check(name)

    def _check(self, name):
        build = CASES[name]
        fused_out, fused_grads = _run(build, fused=True)
        plain_out, plain_grads = _run(build, fused=False)
        for index, (a, b) in enumerate(zip(fused_out, plain_out)):
            assert np.array_equal(a, b), f"{name}: output {index} differs"
        assert len(fused_grads) == len(plain_grads)
        for index, (a, b) in enumerate(zip(fused_grads, plain_grads)):
            assert np.array_equal(a, b), (
                f"{name}: gradient {index} differs "
                f"(max abs {np.abs(a - b).max():.3e})"
            )


class TestFusionCache:
    def test_hit_miss_counters(self):
        engine.clear_caches()
        before = obs_metrics.counter(
            "engine_fusion_cache_misses_total", kind="lstm_gates"
        ).value
        _lstm_case()
        after_first = obs_metrics.counter(
            "engine_fusion_cache_misses_total", kind="lstm_gates"
        ).value
        assert after_first > before
        hits_before = obs_metrics.counter(
            "engine_fusion_cache_hits_total", kind="lstm_gates"
        ).value
        _lstm_case()  # same shapes: plans now come from the cache
        hits_after = obs_metrics.counter(
            "engine_fusion_cache_hits_total", kind="lstm_gates"
        ).value
        assert hits_after > hits_before

    def test_plan_cache_stats_reports_fusion(self):
        engine.clear_caches()
        _lstm_case()
        stats = engine.plan_cache_stats()
        assert stats["entries"]["fused_kernels"] >= 1
        assert stats["fusion_misses"] >= 1
        published = engine.publish_plan_cache_stats()
        assert published["entries"] == stats["entries"]


class TestNoCacheBypassesFusion:
    def test_fusion_inactive_under_no_cache(self):
        assert engine.fused_plan(("probe", "cached"), dict) is not None
        with engine.no_cache():
            assert engine.fused_plan(("probe", "no_cache"), dict) is None
        assert engine.fused_plan(("probe", "cached"), dict) is not None

    def test_routing_gradcheck_with_fusion_enabled(self):
        """In-place FD perturbation must bypass both plan and fusion caches.

        The gradcheck helper runs under ``engine.no_cache()``; a fusion
        cache that survived the bypass would
        serve plans traced for the unperturbed weights and the central
        differences would disagree with the analytic gradients.

        ``iterations=1`` keeps the comparison exact: with more iterations
        the routing loop's *detached* coupling has a real (deliberately
        untracked) dependence on the votes, so finite differences and the
        analytic gradient measure different things.
        """
        from repro.core.routing import SpatialTemporalRouting

        engine.clear_caches()
        module = SpatialTemporalRouting(2, 2, 2, iterations=1, rng=np.random.default_rng(0))
        rng = np.random.default_rng(31)
        phi = _tensor(rng.standard_normal((1, 1, 2, 2, 3, 3)))
        # Warm the fused plans outside no_cache so the bypass is exercised
        # against a *populated* cache, not an empty one.
        module(phi)
        gradcheck_module(module, phi, atol=1e-6, rtol=1e-4)
