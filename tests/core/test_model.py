"""End-to-end BikeCAP model, config validation, variants."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BikeCAP,
    BikeCAPConfig,
    Decoder3D,
    FutureCapsules,
    HistoricalCapsules,
    ReshapeDecoder,
    VARIANTS,
    make_variant,
)
from repro.nn import Tensor, Trainer, l1_loss
from repro.nn.config import use_dtype


def small_config(**overrides):
    base = dict(
        grid=(5, 5),
        history=4,
        horizon=3,
        features=4,
        capsule_dim=2,
        future_capsule_dim=2,
        pyramid_size=2,
        decoder_hidden=4,
        seed=0,
    )
    base.update(overrides)
    return BikeCAPConfig(**base)


class TestConfig:
    def test_defaults_follow_paper(self):
        config = BikeCAPConfig()
        assert config.history == 8
        assert config.pyramid_size == 5
        assert config.capsule_dim == 4
        assert config.routing_iterations == 3

    def test_rejects_bad_history(self):
        with pytest.raises(ValueError):
            BikeCAPConfig(history=0)

    def test_rejects_out_of_range_feature_indices(self):
        with pytest.raises(ValueError):
            BikeCAPConfig(features=4, feature_indices=(0, 7))

    def test_model_features_reflects_selection(self):
        config = BikeCAPConfig(features=4, feature_indices=(0, 1))
        assert config.model_features == 2
        assert BikeCAPConfig(features=4).model_features == 4


class TestForward:
    def test_output_shape(self, rng):
        model = BikeCAP(small_config())
        out = model(Tensor(rng.random((3, 4, 5, 5, 4))))
        assert out.shape == (3, 3, 5, 5)

    def test_rejects_wrong_rank(self, rng):
        model = BikeCAP(small_config())
        with pytest.raises(ValueError):
            model(Tensor(rng.random((3, 4, 5, 5))))

    def test_feature_selection_ignores_dropped_channels(self, rng):
        model = BikeCAP(small_config(feature_indices=(0, 1)))
        x = rng.random((2, 4, 5, 5, 4))
        perturbed = x.copy()
        perturbed[..., 2:] = 0.0  # change only the channels the model drops
        assert np.allclose(model(Tensor(x)).data, model(Tensor(perturbed)).data)

    def test_deterministic_given_seed(self, rng):
        x = rng.random((2, 4, 5, 5, 4))
        out1 = BikeCAP(small_config(seed=42))(Tensor(x)).data
        out2 = BikeCAP(small_config(seed=42))(Tensor(x)).data
        assert np.allclose(out1, out2)

    def test_different_seeds_differ(self, rng):
        x = rng.random((2, 4, 5, 5, 4))
        out1 = BikeCAP(small_config(seed=1))(Tensor(x)).data
        out2 = BikeCAP(small_config(seed=2))(Tensor(x)).data
        assert not np.allclose(out1, out2)

    def test_predict_batches_match_full_forward(self, rng):
        model = BikeCAP(small_config())
        x = rng.random((7, 4, 5, 5, 4))
        batched = model.predict(x, batch_size=3)
        full = model.predict(x, batch_size=7)
        assert np.allclose(batched, full)

    def test_coupling_coefficients_exposed(self, rng):
        model = BikeCAP(small_config())
        assert model.coupling_coefficients is None
        model.predict(rng.random((2, 4, 5, 5, 4)))
        coupling = model.coupling_coefficients
        assert coupling is not None
        assert coupling.shape[2] == 3  # horizon


class TestTraining:
    def test_one_epoch_reduces_training_loss(self, rng):
        model = BikeCAP(small_config())
        x = rng.random((24, 4, 5, 5, 4))
        # Learnable structure: target = mean of the last input frame's pickups.
        y = np.repeat(x[:, -1:, :, :, 0], 3, axis=1)
        trainer = Trainer(model, loss="l1", lr=5e-3, batch_size=8, seed=0)
        history = trainer.fit(x, y, epochs=6)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_all_parameters_receive_gradients(self, rng):
        model = BikeCAP(small_config())
        out = model(Tensor(rng.random((2, 4, 5, 5, 4))))
        l1_loss(out, Tensor(np.zeros(out.shape))).backward()
        missing = [
            name for name, p in model.named_parameters() if p.grad is None or not np.any(p.grad)
        ]
        assert not missing, f"dead parameters: {missing}"


class TestFloat32Parity:
    def test_step_matches_float64_reference(self):
        """Float32 is the default; float64 is the reference it must track.

        Two Adam steps (MSE, no clipping) from the same seed and batch. The
        losses and the first step's gradient agree to a few float32 ulps
        (measured: 0.2-0.4 eps); 32 eps leaves room for other BLAS builds.
        """
        cfg = small_config(grid=(6, 6), history=6, features=4, pyramid_size=3)
        rng = np.random.default_rng(3)
        x = rng.random((8, 6, 6, 6, 4))
        y = rng.random((8, 3, 6, 6))
        runs = {}
        for dtype in (np.float64, np.float32):
            with use_dtype(dtype):
                trainer = Trainer(BikeCAP(cfg), loss="mse", seed=0, max_grad_norm=None)
                first = trainer.train_step(x.astype(dtype), y.astype(dtype))
                grad = np.concatenate(
                    [p.grad.ravel() for p in trainer.optimizer.parameters]
                ).astype(np.float64)
                second = trainer.train_step(x.astype(dtype), y.astype(dtype))
                assert trainer.optimizer.parameters[0].data.dtype == dtype
            runs[dtype] = (first, grad, second)
        (ref_first, ref_grad, ref_second), (first, grad, second) = runs[np.float64], runs[np.float32]
        bound = 32 * float(np.finfo(np.float32).eps)
        assert abs(first - ref_first) <= bound * ref_first
        assert np.linalg.norm(grad - ref_grad) <= bound * np.linalg.norm(ref_grad)
        assert abs(second - ref_second) <= bound * ref_second


class TestVariants:
    def test_registry_contains_paper_names(self):
        assert set(VARIANTS) == {
            "BikeCAP",
            "BikeCap-Sub",
            "BikeCap-Pyra",
            "BikeCap-3D",
            "BikeCap-3D-Pyra",
        }

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            make_variant("BikeCap-Nope", small_config())

    def test_sub_variant_uses_downstream_channels_only(self):
        model = make_variant("BikeCap-Sub", small_config())
        assert model.config.feature_indices == (0, 1)

    def test_pyra_variant_uses_plain_conv(self):
        model = make_variant("BikeCap-Pyra", small_config())
        assert not model.historical.use_pyramid
        assert model.historical.conv.weight_mask is None

    def test_3d_variant_uses_reshape_decoder(self):
        model = make_variant("BikeCap-3D", small_config())
        assert isinstance(model.decoder, ReshapeDecoder)
        full = make_variant("BikeCAP", small_config())
        assert isinstance(full.decoder, Decoder3D)

    def test_3d_pyra_removes_both(self):
        model = make_variant("BikeCap-3D-Pyra", small_config())
        assert not model.historical.use_pyramid
        assert isinstance(model.decoder, ReshapeDecoder)

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_all_variants_forward(self, name, rng):
        model = make_variant(name, small_config())
        out = model(Tensor(rng.random((2, 4, 5, 5, 4))))
        assert out.shape == (2, 3, 5, 5)


class TestComponents:
    def test_historical_capsules_shape_and_squash(self, rng):
        capsules = HistoricalCapsules(4, capsule_channels=2, capsule_dim=3, pyramid_size=2, rng=0)
        out = capsules(Tensor(rng.random((2, 4, 5, 6, 6))))
        assert out.shape == (2, 2, 3, 5, 6, 6)
        assert np.all(np.linalg.norm(out.data, axis=2) < 1.0)

    def test_future_capsules_shape(self, rng):
        future = FutureCapsules(3, 4, horizon=2, rng=0)
        out = future(Tensor(rng.random((2, 1, 3, 5, 6, 6))))
        assert out.shape == (2, 2, 4, 6, 6)
        assert future.last_coupling is not None

    def test_decoders_shapes(self, rng):
        capsules = Tensor(rng.random((2, 3, 4, 5, 6)))
        assert Decoder3D(4, hidden_channels=2, rng=0)(capsules).shape == (2, 3, 5, 6)
        assert ReshapeDecoder(4, hidden_channels=2, rng=0)(capsules).shape == (2, 3, 5, 6)

    def test_reshape_decoder_is_pointwise(self, rng):
        """Perturbing one grid cell must not change any other cell's output."""
        decoder = ReshapeDecoder(4, hidden_channels=2, rng=0)
        base = rng.random((1, 2, 4, 5, 5))
        perturbed = base.copy()
        perturbed[0, :, :, 2, 2] += 10.0
        delta = decoder(Tensor(perturbed)).data - decoder(Tensor(base)).data
        changed = np.abs(delta) > 1e-12
        assert changed[0, :, 2, 2].any()
        changed[0, :, 2, 2] = False
        assert not changed.any()

    def test_3d_decoder_shares_neighbourhoods(self, rng):
        """The 3-D deconv decoder must couple neighbouring cells."""
        decoder = Decoder3D(4, hidden_channels=2, rng=0)
        base = rng.random((1, 2, 4, 5, 5))
        perturbed = base.copy()
        perturbed[0, :, :, 2, 2] += 10.0
        delta = decoder(Tensor(perturbed)).data - decoder(Tensor(base)).data
        assert np.abs(delta[0, :, 2, 3]).sum() > 0  # neighbour affected
