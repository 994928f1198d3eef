"""load_shard_services / load_forecaster: the offline→online handoff."""

import numpy as np
import pytest

from repro.data.normalization import MinMaxScaler
from repro.pipeline import RunSpec, execute
from repro.pipeline.loading import load_forecaster
from repro.serve import load_shard_services, partition_grid


def load_one_shard(dataset, spec, *, scaler_state, **kwargs):
    """The one service of a 1-shard pool over the dataset's geometry."""
    (region,) = partition_grid(dataset.grid_shape, 1)
    services = load_shard_services(
        spec,
        (region,),
        num_features=dataset.num_features,
        history=dataset.history,
        horizon=dataset.horizon,
        scaler_states={region.name: scaler_state},
        **kwargs,
    )
    return services[region.name]


@pytest.fixture(scope="module")
def trained_run(serve_dataset, tmp_path_factory):
    """One real offline run: train, autosave, keep the in-memory forecaster."""
    spec = RunSpec(model="STGCN", epochs=2, seed=3, hparams={"hidden_channels": 2})
    directory = str(tmp_path_factory.mktemp("serve-ckpts"))
    result = execute(spec, serve_dataset, checkpoint_dir=directory)
    assert result.checkpoint_path is not None
    return spec, result


class TestCheckpointHandoff:
    def test_loaded_forecaster_matches_trained_one(self, serve_dataset, trained_run):
        """A server reloading spec + checkpoint must answer exactly like the
        process that trained the model (Trainer leaves the best-validation
        weights in memory; the checkpoint's serving weights are the same)."""
        spec, result = trained_run
        loaded = load_forecaster(
            spec,
            result.checkpoint_path,
            grid_shape=serve_dataset.grid_shape,
            num_features=serve_dataset.num_features,
            history=serve_dataset.history,
            horizon=serve_dataset.horizon,
        )
        x = serve_dataset.split.test_x[:4]
        np.testing.assert_array_equal(
            np.asarray(loaded.predict(x)), np.asarray(result.forecaster.predict(x))
        )

    def test_checkpoint_weights_actually_differ_from_fresh_init(
        self, serve_dataset, trained_run
    ):
        spec, result = trained_run
        fresh = load_forecaster(
            spec,
            None,  # same spec/seed, but no checkpoint: untrained weights
            grid_shape=serve_dataset.grid_shape,
            num_features=serve_dataset.num_features,
            history=serve_dataset.history,
            horizon=serve_dataset.horizon,
        )
        restored = load_forecaster(
            spec,
            result.checkpoint_path,
            grid_shape=serve_dataset.grid_shape,
            num_features=serve_dataset.num_features,
            history=serve_dataset.history,
            horizon=serve_dataset.horizon,
        )
        x = serve_dataset.split.test_x[:2]
        assert not np.array_equal(
            np.asarray(fresh.predict(x)), np.asarray(restored.predict(x))
        )

    def test_loaded_shard_serves_the_trained_model(
        self, serve_dataset, trained_run, raw_windows
    ):
        spec, result = trained_run
        service = load_one_shard(
            serve_dataset,
            spec,
            scaler_state=serve_dataset.scaler.state(),
            checkpoint_paths={"shard0": result.checkpoint_path},
        )
        assert service.tier_names == ("STGCN", "Persistence")

        response = service.predict_one(raw_windows[0])
        normalized = np.clip(serve_dataset.scaler.transform(raw_windows[:1]), 0.0, None)
        expected = serve_dataset.denormalize_target(
            np.asarray(result.forecaster.predict(normalized))[0]
        )
        np.testing.assert_array_equal(response.demand, np.clip(expected, 0.0, None))
        assert response.tier == "STGCN"

    def test_non_neural_model_rejects_checkpoint(self, serve_dataset):
        with pytest.raises(ValueError, match="not a neural model"):
            load_forecaster(
                RunSpec(model="Persistence"),
                "irrelevant.ckpt.npz",
                grid_shape=serve_dataset.grid_shape,
                num_features=serve_dataset.num_features,
                history=serve_dataset.history,
                horizon=serve_dataset.horizon,
            )

    def test_spec_without_geometry_must_be_given_it(self, serve_dataset):
        with pytest.raises(ValueError, match="history/horizon"):
            load_forecaster(
                RunSpec(model="Persistence"),
                grid_shape=serve_dataset.grid_shape,
                num_features=serve_dataset.num_features,
            )


class TestServiceAssembly:
    def test_scaler_state_restores_robust_scaler(self, serve_dataset, rng):
        """A robust (quantile) scaler shipped as persisted state must stay
        robust in the service — the quantile key survives the round trip."""
        data = rng.random((40, 4, 4, 3)) * 50.0
        robust = MinMaxScaler(quantile=0.9).fit(data)
        service = load_one_shard(
            serve_dataset,
            RunSpec(model="Persistence"),
            scaler_state=robust.state(),
            fallbacks=(),
        )
        assert service.scaler.quantile == 0.9
        np.testing.assert_array_equal(
            service.scaler.transform(data[:3]), robust.transform(data[:3])
        )

    def test_fallback_duplicating_primary_rejected(self, serve_dataset):
        with pytest.raises(ValueError, match="duplicates the primary"):
            load_one_shard(
                serve_dataset,
                RunSpec(model="Persistence"),
                scaler_state=serve_dataset.scaler.state(),
                fallbacks=("Persistence",),
            )
