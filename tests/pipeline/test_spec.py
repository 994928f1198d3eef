"""RunSpec: the declarative run description must round-trip losslessly."""

import pytest

from repro.pipeline import RunSpec


class TestRoundTrip:
    def test_dict_roundtrip(self):
        spec = RunSpec(
            model="BikeCAP",
            history=8,
            horizon=4,
            epochs=12,
            seed=3,
            hparams={"lr": 3e-3, "pyramid_size": 4, "loss": "mse"},
            dtype="float64",
            tag="ablation",
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_roundtrip(self):
        spec = RunSpec(model="LSTM", epochs=2, hparams={"hidden_size": 8})
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_to_dict_copies_hparams(self):
        spec = RunSpec(model="LSTM")
        spec.to_dict()["hparams"]["lr"] = 1.0
        assert "lr" not in spec.hparams

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="mdoel"):
            RunSpec.from_dict({"model": "LSTM", "mdoel": "typo"})

    def test_missing_model_rejected(self):
        with pytest.raises(ValueError):
            RunSpec.from_dict({"epochs": 3})
        with pytest.raises(ValueError):
            RunSpec(model="")

    def test_json_must_be_object(self):
        with pytest.raises(ValueError):
            RunSpec.from_json("[1, 2]")


class TestBehaviour:
    def test_with_overrides_merges_hparams(self):
        spec = RunSpec(model="STGCN", hparams={"lr": 1e-3, "hops": 2})
        changed = spec.with_overrides(seed=9, hparams={"lr": 1e-2})
        assert changed.seed == 9
        assert changed.hparams == {"lr": 1e-2, "hops": 2}
        assert spec.hparams == {"lr": 1e-3, "hops": 2}  # original untouched

    def test_label(self):
        assert RunSpec(model="STGCN", horizon=4).label() == "STGCN-pts4"
        assert RunSpec(model="STGCN").label(default_horizon=6) == "STGCN-pts6"
        assert RunSpec(model="STGCN", tag="x").label(2) == "STGCN-pts2-x"

    def test_validate_against_dataset(self, tiny_dataset):
        RunSpec(model="STGCN", history=6, horizon=2).validate_against(tiny_dataset)
        with pytest.raises(ValueError, match="horizon"):
            RunSpec(model="STGCN", horizon=5).validate_against(tiny_dataset)
        with pytest.raises(ValueError, match="history"):
            RunSpec(model="STGCN", history=9).validate_against(tiny_dataset)
